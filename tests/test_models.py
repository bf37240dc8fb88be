import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robustcast.exceptions import DomainError, SizeError
from robustcast.missingness import MissingPattern
from robustcast.models import (
    Architecture,
    StepBuffers,
    _decayed_mask,
    _mask_columns,
    _nn_forward,
    bind_pattern,
    forward,
    init_params,
    loss_and_grad,
    mse_loss,
    params_from_json,
    params_to_json,
    predict,
)


def finite_difference_gradient(params, X, y, bits, weight_decay, eps=1e-6, coords=None):
    """Central-difference oracle over the flattened parameter vector."""
    vec = params.to_vector()
    idx = range(vec.size) if coords is None else coords
    grad = {}
    for i in idx:
        vp = vec.copy()
        vp[i] += eps
        vm = vec.copy()
        vm[i] -= eps
        lp, _ = loss_and_grad(params.from_vector(vp), X, y, bits, weight_decay)
        lm, _ = loss_and_grad(params.from_vector(vm), X, y, bits, weight_decay)
        grad[i] = (lp - lm) / (2.0 * eps)
    return grad


def randomized(params, rng, scale=0.5):
    for name in params.block_names():
        params.arrays[name] = rng.normal(0.0, scale, size=params.arrays[name].shape)
    return params


def relu_margin(params, X, bits):
    """Smallest |pre-activation| over the ReLU layers (m >= 1), from a plain
    forward pass written out here: near 0 a finite difference crosses a kink."""
    a = bits[list(params.maskable)].astype(np.float64)
    g = X * (1.0 - bits)
    margin = np.inf
    for m in range(params.n_hidden_layers):
        z = g @ params.arrays[f"W{m}"].T + params.arrays[f"b{m}"]
        if params.adaptive and params.maskable:
            z = z + (g @ (params.arrays[f"D{m}"] @ a))[:, None]
        if m:
            margin = min(margin, float(np.abs(z).min()))
            z = np.maximum(z, 0.0)
        g = z
    return margin


class TestInitParams:
    def test_adaptive_init_equals_base_init_forward(self):
        arch = Architecture(input_dim=5, hidden=(4, 4))
        maskable = (0, 1, 2)
        base = init_params(arch, "nn", False, seed=7, maskable=maskable)
        adap = init_params(arch, "nn", True, seed=7, maskable=maskable)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(0, 1, 5)
            pat = MissingPattern.from_missing(5, [int(rng.integers(0, 3))])
            assert forward(adap, x, pat) == forward(base, x, pat)

    def test_same_seed_bit_identical(self):
        arch = Architecture(input_dim=4, hidden=(3,))
        a = init_params(arch, "nn", True, seed=3, maskable=(0,))
        b = init_params(arch, "nn", True, seed=3, maskable=(0,))
        for name in a.block_names():
            np.testing.assert_array_equal(a.arrays[name], b.arrays[name])

    def test_lr_has_no_layer_blocks(self):
        params = init_params(Architecture(input_dim=4), "lr", False, seed=1, maskable=(0, 1))
        assert params.block_names() == ["w"]
        adaptive = init_params(Architecture(input_dim=4), "lr", True, seed=1, maskable=(0, 1))
        assert adaptive.block_names() == ["w", "D"]
        assert np.all(adaptive.arrays["D"] == 0.0)


    @pytest.mark.parametrize("family", ["lr", "nn"])
    def test_repeated_maskable_index_rejected(self, family):
        # (0, 0) would give feature 0 two adaptive columns
        arch = Architecture(input_dim=3, hidden=(4,) if family == "nn" else ())
        with pytest.raises(DomainError, match="repeat"):
            init_params(arch, family, True, seed=0, maskable=(0, 0))


def reference_init_params(arch, family, adaptive, seed, maskable):
    """init_params as it was written before the block layout became one
    table: each family's blocks spelled out by hand, in draw order."""
    n_mask = len(maskable)
    rng = np.random.default_rng(seed)
    p = arch.input_dim
    arrays = {}
    if family == "lr":
        bound = 1.0 / np.sqrt(p)
        arrays["w"] = rng.uniform(-bound, bound, size=p)
        if adaptive:
            arrays["D"] = np.zeros((p, n_mask))
    else:
        fan_in = p
        for m, width in enumerate(arch.hidden):
            bound = np.sqrt(6.0 / (fan_in + width))
            arrays[f"W{m}"] = rng.uniform(-bound, bound, size=(width, fan_in))
            arrays[f"b{m}"] = np.zeros(width)
            fan_in = width
        bound = np.sqrt(6.0 / (fan_in + 1))
        arrays["w_out"] = rng.uniform(-bound, bound, size=fan_in)
        arrays["b_out"] = np.zeros(1)
        if adaptive:
            in_dim = p
            for m, width in enumerate(arch.hidden):
                arrays[f"D{m}"] = np.zeros((in_dim, n_mask))
                in_dim = width
            arrays["D_out"] = np.zeros((fan_in, n_mask))
    return arrays


def reference_block_names(family, adaptive, n_layers):
    if family == "lr":
        return ["w", "D"] if adaptive else ["w"]
    names = []
    for m in range(n_layers):
        names += [f"W{m}", f"b{m}"]
    names += ["w_out", "b_out"]
    if adaptive:
        names += [f"D{m}" for m in range(n_layers)] + ["D_out"]
    return names


def reference_block_shapes(family, arrays, n_features, n_mask):
    """The shapes the loader once derived block by block from the W layers."""
    width, k = n_features, n_mask
    if family == "lr":
        return {"w": (width,), "D": (width, k)}
    shapes = {}
    m = 0
    while f"W{m}" in arrays:
        out = arrays[f"W{m}"].shape[0]
        shapes.update({f"W{m}": (out, width), f"b{m}": (out,), f"D{m}": (width, k)})
        width = out
        m += 1
    shapes.update({"w_out": (width,), "b_out": (1,), "D_out": (width, k)})
    return shapes


@st.composite
def layouts(draw):
    family = draw(st.sampled_from(["lr", "nn"]))
    p = draw(st.integers(1, 7))
    maskable = tuple(sorted(draw(st.lists(st.integers(0, p - 1), unique=True))))
    hidden = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    return family, draw(st.booleans()), p, hidden, maskable, draw(st.integers(0, 2**32 - 1))


class TestLayoutAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(layouts())
    def test_init_params_matches_the_hand_written_layout_bit_for_bit(self, layout):
        family, adaptive, p, hidden, maskable, seed = layout
        arch = Architecture(input_dim=p, hidden=hidden)
        params = init_params(arch, family, adaptive, seed, maskable=maskable)
        ref = reference_init_params(arch, family, adaptive, seed, maskable)
        names = reference_block_names(family, adaptive, len(hidden))
        assert list(ref) == names
        assert list(params.arrays) == names and params.block_names() == names
        shapes = reference_block_shapes(family, ref, p, len(maskable))
        for name in names:
            got, want = params.arrays[name], ref[name]
            assert got.shape == want.shape == shapes[name], name
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        back = params_from_json(params_to_json(params))
        assert back.block_names() == names
        assert all(back.arrays[k].tobytes() == ref[k].tobytes() for k in names)


class TestForward:
    def test_lr_dot_product(self):
        params = init_params(Architecture(input_dim=2), "lr", False, seed=0, maskable=(0, 1))
        params.arrays["w"] = np.array([3.0, 1.0])
        assert forward(params, np.array([1.0, 1.0]), MissingPattern.zeros(2)) == pytest.approx(4.0)

    def test_lr_adaptive_hand_example(self):
        # (w + D a) . x(a) with w=(3,1), D column for feature 0 = (0,2),
        # a = feature 0 missing, x = (1,1): weights (3,3), input (0,1) -> 3.
        params = init_params(Architecture(input_dim=2), "lr", True, seed=0, maskable=(0, 1))
        params.arrays["w"] = np.array([3.0, 1.0])
        params.arrays["D"] = np.array([[0.0, 0.0], [2.0, 0.0]])
        pat = MissingPattern.from_missing(2, [0])
        assert forward(params, np.array([1.0, 1.0]), pat) == pytest.approx(3.0)

    def test_nn_adaptive_zero_corrections_match_base(self):
        arch = Architecture(input_dim=6, hidden=(5, 4))
        maskable = (0, 1, 2, 3)
        rng = np.random.default_rng(5)
        base = randomized(init_params(arch, "nn", False, seed=1, maskable=maskable), rng)
        adap = init_params(arch, "nn", True, seed=1, maskable=maskable)
        for name in base.block_names():
            adap.arrays[name] = base.arrays[name].copy()
        x = rng.uniform(0, 1, 6)
        assert forward(adap, x, MissingPattern.zeros(6)) == forward(
            base, x, MissingPattern.zeros(6)
        )

    def test_zero_pattern_equals_unmasked(self):
        arch = Architecture(input_dim=5, hidden=(4,))
        rng = np.random.default_rng(8)
        params = randomized(init_params(arch, "nn", True, seed=2, maskable=(0, 1)), rng)
        X = rng.uniform(0, 1, (7, 5))
        zero = MissingPattern.zeros(5)
        np.testing.assert_array_equal(predict(params, X, zero), predict(params, X * 1.0, zero))

    def test_support_violation_rejected(self):
        params = init_params(Architecture(input_dim=3), "lr", False, seed=0, maskable=(0,))
        pat = MissingPattern.from_missing(3, [2])
        with pytest.raises(DomainError):
            forward(params, np.ones(3), pat)

    def test_shape_mismatch_rejected(self):
        params = init_params(Architecture(input_dim=3), "lr", False, seed=0, maskable=(0,))
        with pytest.raises(DomainError):
            forward(params, np.ones(3), MissingPattern.zeros(4))

    def test_per_row_patterns_match_rowwise_forward(self):
        arch = Architecture(input_dim=5, hidden=(4, 3))
        maskable = (0, 1, 2)
        rng = np.random.default_rng(12)
        for family in ("lr", "nn"):
            a = Architecture(input_dim=5) if family == "lr" else arch
            params = randomized(init_params(a, family, True, seed=3, maskable=maskable), rng)
            X = rng.uniform(0, 1, (9, 5))
            bits = np.zeros((9, 5), dtype=np.uint8)
            bits[:, :3] = rng.random((9, 3)) < 0.5
            batched = predict(params, X, bits)
            for i in range(9):
                assert batched[i] == pytest.approx(
                    forward(params, X[i], MissingPattern(bits=bits[i])), abs=1e-12
                )


class TestBroadcastSemantics:
    def test_correction_column_shifts_every_row_identically(self):
        # Perturbing one column of a layer correction must change the
        # effective weight matrix by the same added row vector everywhere.
        arch = Architecture(input_dim=4, hidden=(3, 3))
        maskable = (0, 1)
        rng = np.random.default_rng(4)
        params = randomized(init_params(arch, "nn", True, seed=9, maskable=maskable), rng)
        pat = MissingPattern.from_missing(4, [1])
        a = np.array([0.0, 1.0])  # pattern restricted to maskable columns
        for m, w_name, d_name in ((0, "W0", "D0"), (1, "W1", "D1")):
            w = params.arrays[w_name]
            d = params.arrays[d_name]
            correction = d @ a
            effective = w + np.tile(correction, (w.shape[0], 1))
            for row in range(w.shape[0]):
                np.testing.assert_allclose(effective[row] - w[row], correction)


class TestLossAndGrad:
    def test_perfect_fit_zero_loss_zero_grad(self):
        params = init_params(Architecture(input_dim=2), "lr", False, seed=0, maskable=(0,))
        params.arrays["w"] = np.array([2.0, 0.0])
        X = np.array([[1.0, 1.0], [2.0, 1.0]])
        y = np.array([2.0, 4.0])
        loss, grads = loss_and_grad(params, X, y, MissingPattern.zeros(2).bits, 0.0)
        assert loss == pytest.approx(0.0)
        np.testing.assert_allclose(grads["w"], 0.0, atol=1e-12)

    def test_single_observation_hand_gradient(self):
        params = init_params(Architecture(input_dim=1), "lr", False, seed=0, maskable=(0,))
        params.arrays["w"] = np.array([2.0])
        loss, grads = loss_and_grad(
            params, np.array([[1.0]]), np.array([0.0]), np.zeros(1, dtype=np.uint8), 0.0
        )
        assert loss == pytest.approx(4.0)
        assert grads["w"][0] == pytest.approx(4.0)

    def test_empty_batch(self):
        params = init_params(Architecture(input_dim=2), "lr", False, seed=0, maskable=(0,))
        with pytest.raises(SizeError):
            loss_and_grad(params, np.empty((0, 2)), np.empty(0), np.zeros(2, dtype=np.uint8), 0.0)

    @pytest.mark.parametrize("family,adaptive", [("lr", False), ("lr", True), ("nn", False), ("nn", True)])
    def test_gradient_matches_finite_differences(self, family, adaptive):
        rng = np.random.default_rng(hash((family, adaptive)) % 2**32)
        for trial in range(5):
            p = 6
            maskable = (0, 1, 2)
            arch = Architecture(
                input_dim=p, hidden=(5, 4) if family == "nn" else (), bias_index=p - 1
            )
            params = randomized(init_params(arch, family, adaptive, seed=trial, maskable=maskable), rng)
            X = rng.uniform(0, 1, (12, p))
            y = rng.uniform(0, 1, 12)
            bits = np.zeros(p, dtype=np.uint8)
            bits[[0, 2]] = 1
            wd = 1e-4
            _, grads = loss_and_grad(params, X, y, bits, wd)
            analytic = np.concatenate([grads[k].ravel() for k in params.block_names()])
            fd = finite_difference_gradient(params, X, y, bits, wd)
            for i, g_fd in fd.items():
                denom = max(1.0, abs(analytic[i]), abs(g_fd))
                assert abs(analytic[i] - g_fd) / denom < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["lr", "nn"]), st.booleans())
    def test_gradient_matches_finite_differences_at_random_shapes(self, seed, family, adaptive):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 7))
        hidden = tuple(int(w) for w in rng.integers(1, 7, rng.integers(1, 4)))
        maskable = tuple(sorted(rng.choice(p, size=int(rng.integers(0, p + 1)), replace=False)))
        bias_index = int(rng.integers(0, p)) if rng.uniform() < 0.5 else None
        arch = Architecture(input_dim=p, hidden=hidden if family == "nn" else (),
                            bias_index=bias_index)
        params = randomized(init_params(arch, family, adaptive, seed=0, maskable=maskable), rng)
        n = int(rng.integers(1, 9))
        X = rng.normal(0.0, 1.0, (n, p))
        y = rng.normal(0.0, 1.0, n)
        bits = np.zeros(p, dtype=np.uint8)
        bits[list(maskable)] = rng.uniform(size=len(maskable)) < 0.5
        wd = float(rng.choice([0.0, 1e-3]))
        if family == "nn":
            assume(relu_margin(params, X, bits) > 1e-3)  # no kink within the FD step
        _, grads = loss_and_grad(params, X, y, bits, wd)
        analytic = np.concatenate([grads[k].ravel() for k in params.block_names()])
        coords = rng.choice(analytic.size, size=min(analytic.size, 40), replace=False)
        for i, g_fd in finite_difference_gradient(params, X, y, bits, wd, coords=coords).items():
            denom = max(1.0, abs(analytic[i]), abs(g_fd))
            assert abs(analytic[i] - g_fd) / denom < 1e-6

    def test_bias_feature_excluded_from_decay(self):
        arch = Architecture(input_dim=3, bias_index=2)
        params = init_params(arch, "lr", False, seed=0, maskable=(0, 1))
        params.arrays["w"] = np.array([1.0, 1.0, 5.0])
        X = np.array([[0.0, 0.0, 1.0]])
        y = np.array([5.0])  # perfect fit, so only decay contributes
        loss, grads = loss_and_grad(params, X, y, np.zeros(3, dtype=np.uint8), 0.1)
        assert loss == pytest.approx(0.1 * (1.0 + 1.0))
        assert grads["w"][2] == pytest.approx(0.0)

    def test_mse_loss_has_no_decay(self):
        arch = Architecture(input_dim=2, bias_index=1)
        params = init_params(arch, "lr", False, seed=0, maskable=(0,))
        params.arrays["w"] = np.array([3.0, 0.5])
        X = np.array([[1.0, 1.0]])
        y = np.array([3.5])
        assert mse_loss(params, X, y, MissingPattern.zeros(2)) == pytest.approx(0.0)


def reference_loss_and_grad(params, X, y, alpha, weight_decay=0.0):
    """loss_and_grad as it was before it wrote into caller-given buffers:
    the pattern checked on every call, a fresh array per gradient block, the
    decay masks rebuilt per block, and the gradient at layer 0's inputs
    computed though nothing reads it."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if n == 0:
        raise SizeError("empty batch")
    bits = MissingPattern.bits_of(alpha, params.n_features, params.maskable, ndim=1)
    xm = X * (1.0 - bits.astype(np.float64))
    grads = {}

    if params.family == "lr":
        w = params.arrays["w"]
        adaptive = params.adaptive and bool(params.maskable)
        a = _mask_columns(bits, params.maskable) if adaptive else None
        w_eff = w + params.arrays["D"] @ a if adaptive else w
        preds = xm @ w_eff
        resid = preds - y
        loss = float(np.mean(resid**2))
        r = (2.0 / n) * resid
        gw = xm.T @ r
        grads["w"] = gw
        if params.adaptive:
            grads["D"] = np.outer(gw, a) if adaptive else np.zeros_like(params.arrays["D"])
    else:
        preds, gs, a = _nn_forward(params, xm, bits, per_row=False)
        resid = preds - y
        loss = float(np.mean(resid**2))
        r = (2.0 / n) * resid
        adaptive = a is not None
        w_out = params.arrays["w_out"]
        g_last = gs[-1]
        grads["w_out"] = g_last.T @ r
        grads["b_out"] = np.array([r.sum()])
        if params.adaptive:
            grads["D_out"] = (
                np.outer(g_last.T @ r, a) if adaptive else np.zeros_like(params.arrays["D_out"])
            )
        w_eff = w_out + params.arrays["D_out"] @ a if adaptive else w_out
        dg = np.outer(r, w_eff)
        for m in range(params.n_hidden_layers - 1, -1, -1):
            delta = dg if m == 0 else dg * (gs[m + 1] > 0.0)
            g_in = gs[m]
            grads[f"W{m}"] = delta.T @ g_in
            grads[f"b{m}"] = delta.sum(axis=0)
            w = params.arrays[f"W{m}"]
            if params.adaptive:
                if adaptive:
                    srow = delta.sum(axis=1)
                    grads[f"D{m}"] = np.outer(g_in.T @ srow, a)
                    dg = delta @ w + np.outer(srow, params.arrays[f"D{m}"] @ a)
                else:
                    grads[f"D{m}"] = np.zeros_like(params.arrays[f"D{m}"])
                    dg = delta @ w
            else:
                dg = delta @ w

    if weight_decay:
        for name in params.block_names():
            mask = _decayed_mask(params, name)
            block = params.arrays[name]
            loss += weight_decay * float(np.sum((block * mask) ** 2))
            grads[name] = grads[name] + 2.0 * weight_decay * (block * mask)

    return loss, grads


def same_bits(loss, grads, ref_loss, ref_grads):
    """Loss and every gradient block equal to the reference bit for bit
    (tobytes, so a -0.0 where the reference has +0.0 counts)."""
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert sorted(grads) == sorted(ref_grads)
    for name, block in ref_grads.items():
        assert grads[name].shape == block.shape, name
        assert grads[name].tobytes() == block.tobytes(), name


class TestLossAndGradAgainstReference:
    """loss_and_grad writes into reused buffers; every value it returns is
    still the one the per-call routine above computes."""

    @settings(max_examples=150, deadline=None)
    @given(layouts(), st.data())
    def test_loss_and_grad_matches_the_reference_bit_for_bit(self, layout, data):
        family, adaptive, p, hidden, maskable, seed = layout
        bias_index = data.draw(st.none() | st.integers(0, p - 1))
        weight_decay = data.draw(st.sampled_from([0.0, 1e-3, 0.25]))
        rows = data.draw(st.integers(1, 9))
        spare = data.draw(st.integers(0, 4))
        arch = Architecture(input_dim=p, hidden=hidden if family == "nn" else (),
                            bias_index=bias_index)
        rng = np.random.default_rng(seed)
        params = randomized(init_params(arch, family, adaptive, seed, maskable=maskable), rng)
        # the buffers of rows + spare rows serve every batch below: a prefix
        # of a larger workspace, reused across calls with different patterns
        work = StepBuffers(params, rows + spare)
        for n in (rows, rows + spare, rows):
            X = rng.normal(0.0, 1.0, (n, p))
            y = rng.normal(0.0, 1.0, n)
            bits = np.zeros(p, dtype=np.uint8)
            bits[list(maskable)] = rng.uniform(size=len(maskable)) < 0.5
            ref_loss, ref_grads = reference_loss_and_grad(params, X, y, bits, weight_decay)
            same_bits(*loss_and_grad(params, X, y, bits, weight_decay), ref_loss, ref_grads)
            loss, grads = loss_and_grad(params, X, y, bind_pattern(params, bits),
                                        weight_decay, work)
            same_bits(loss, grads, ref_loss, ref_grads)
            assert all(np.shares_memory(g, work.grad) for g in grads.values() if g.size)

    def test_negative_zero_gradients_survive(self):
        # D's column for an available feature is gw * 0.0: -0.0 where gw < 0
        params = init_params(Architecture(input_dim=2), "lr", True, seed=0, maskable=(0, 1))
        params.arrays["w"][...] = 1.0
        X, y = np.array([[0.0, 1.0], [0.0, 2.0]]), np.array([5.0, 5.0])
        bits = np.array([1, 0], dtype=np.uint8)
        ref_loss, ref_grads = reference_loss_and_grad(params, X, y, bits)
        assert ref_grads["D"][1, 1] == 0.0 and np.signbit(ref_grads["D"][1, 1])
        same_bits(*loss_and_grad(params, X, y, bits), ref_loss, ref_grads)

    def test_buffers_refuse_another_layout_and_a_larger_batch(self):
        arch = Architecture(input_dim=3, bias_index=2)
        params = init_params(arch, "lr", True, seed=0, maskable=(0, 1))
        other = init_params(arch, "lr", True, seed=0, maskable=(0,))
        X, y, zero = np.ones((4, 3)), np.ones(4), np.zeros(3, dtype=np.uint8)
        with pytest.raises(SizeError):
            loss_and_grad(params, X, y, zero, 0.0, StepBuffers(params, 3))
        with pytest.raises(DomainError):
            loss_and_grad(params, X, y, zero, 0.0, StepBuffers(other, 4))
        with pytest.raises(DomainError):
            loss_and_grad(params, X, y, bind_pattern(other, zero), 0.0, StepBuffers(params, 4))


class TestSerialization:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(3)
        arch = Architecture(input_dim=4, hidden=(3, 2), bias_index=3)
        params = randomized(init_params(arch, "nn", True, seed=1, maskable=(0, 1)), rng)
        back = params_from_json(params_to_json(params))
        assert back.family == params.family
        assert back.maskable == params.maskable
        assert back.bias_index == params.bias_index
        for name in params.block_names():
            np.testing.assert_array_equal(back.arrays[name], params.arrays[name])
