"""Every entry point that takes missing-data patterns accepts exactly the
0/1, right-rank, right-width, support-valid ones and raises DomainError for
all others, whatever the container (list, float, int, uint8 or bool array,
MissingPattern). A maskable set with an index outside the feature range is
rejected wherever it is given."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcast.exceptions import DomainError
from robustcast.missingness import MissingPattern, ObsMaskSeries, apply_mask, impute_mean
from robustcast.models import Architecture, init_params, loss_and_grad, mse_loss, predict
from robustcast.partition import (
    FixedPartition,
    FixedSubset,
    Fit,
    Partition,
    PartitionConfig,
    UncertaintySet,
    locate,
    predict_deployed,
    predict_deployed_rows,
    predict_fixed_rows,
)

NOT_BITS = (2, 255, 0.5, -1)
KINDS = ("list", "float64", "int64", "uint8", "bool", "pattern")


@st.composite
def cases(draw):
    """A model width p and maskable set (in a quarter of the cases with one
    index outside range(p)), and a drawn input: rank 1 or 2, width p - 1, p
    or p + 1, 0/1 entries with up to two replaced by a value from NOT_BITS,
    held in one of KINDS (falling back to float64 when the kind cannot hold
    the values)."""
    p = draw(st.integers(2, 5))
    maskable = tuple(sorted(draw(st.sets(st.integers(0, p - 1)))))
    if draw(st.integers(0, 3)) == 0:
        maskable += (draw(st.sampled_from((-1, -p, p, p + 2))),)
    rank = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(1, 3))
    width = draw(st.sampled_from((p - 1, p, p + 1)))
    shape = (width,) if rank == 1 else (n, width)
    size = int(np.prod(shape))
    values = np.array(draw(st.lists(st.sampled_from((0, 1)), min_size=size, max_size=size)),
                      dtype=object).reshape(shape)
    for _ in range(draw(st.integers(0, 2))):
        index = tuple(draw(st.integers(0, d - 1)) for d in shape)
        values[index] = draw(st.sampled_from(NOT_BITS))
    return p, maskable, n, values, draw(st.sampled_from(KINDS))


def as_input(values: np.ndarray, kind: str):
    flat = values.ravel().tolist()
    zero_one = all(v in (0, 1) for v in flat)
    integral = all(float(v).is_integer() for v in flat)
    if kind == "list":
        return values.tolist()
    if kind == "pattern" and zero_one and values.ndim == 1:
        return MissingPattern(bits=values.astype(np.uint8))
    if kind == "bool" and zero_one:
        return values.astype(bool)
    if kind == "uint8" and integral and min(flat, default=0) >= 0:
        return values.astype(np.uint8)
    if kind == "int64" and integral:
        return values.astype(np.int64)
    return values.astype(np.float64)


def fixtures(p: int, maskable: tuple[int, ...], n: int):
    params = init_params(Architecture(input_dim=p), "lr", True, seed=0, maskable=maskable)
    params = params.from_vector(np.random.default_rng(1).normal(size=params.to_vector().size))
    uset = UncertaintySet(n_features=p, maskable=maskable, budget=len(maskable))
    learned = Partition(uset, PartitionConfig(1, 0.0), Fit(params, 1.0), Fit(params, 2.0))
    fixed = FixedPartition(uset, [FixedSubset(params, 1.0) for _ in range(len(maskable) + 1)])
    X = np.random.default_rng(2).uniform(0.5, 1.5, (n, p))
    return params, learned, fixed, X, X.sum(axis=1)


# name -> (ranks it takes, checks support, call(fixtures, bits))
ENTRY_POINTS = {
    "predict": ((1, 2), True, lambda f, b: predict(f[0], f[3], b)),
    "mse_loss": ((1, 2), True, lambda f, b: mse_loss(f[0], f[3], f[4], b)),
    "loss_and_grad": ((1,), True, lambda f, b: loss_and_grad(f[0], f[3], f[4], b)[0]),
    "apply_mask": ((1,), True, lambda f, b: apply_mask(f[3][0], b, f[1].uncertainty.maskable)),
    "impute_mean": ((1, 2), False, lambda f, b: impute_mean(f[3], b, f[3].mean(axis=0))),
    "locate": ((1,), True, lambda f, b: locate(f[1], b)),
    "predict_deployed": ((1,), True, lambda f, b: predict_deployed(f[1], f[3][0], b)),
    "predict_deployed_rows": ((2,), True, lambda f, b: predict_deployed_rows(f[1], f[3], b)),
    "predict_fixed_rows": ((2,), True, lambda f, b: predict_fixed_rows(f[2], f[3], b)),
}


@settings(max_examples=300, deadline=None)
@given(cases())
def test_every_entry_point_takes_exactly_the_valid_patterns(case):
    p, maskable, n, values, kind = case
    bits = as_input(values, kind)
    flat = values.ravel().tolist()
    zero_one = all(v in (0, 1) for v in flat)
    width_ok = values.shape[-1] == p
    outside = [j for j in range(values.shape[-1]) if j not in maskable]
    support_ok = not np.any(values.reshape(-1, values.shape[-1])[:, outside] == 1)

    if not all(0 <= j < p for j in maskable):
        zero = np.zeros(p, dtype=np.uint8)
        for build in (
            lambda: MissingPattern.bits_of(zero, p, maskable),
            lambda: apply_mask(np.ones(p), zero, maskable),
            lambda: init_params(Architecture(input_dim=p), "lr", True, seed=0, maskable=maskable),
            lambda: UncertaintySet(n_features=p, maskable=maskable, budget=0),
        ):
            with pytest.raises(DomainError):
                build()
        return

    if zero_one and values.ndim == 1:
        np.testing.assert_array_equal(MissingPattern(bits=bits).bits, values.astype(np.uint8))
    else:
        with pytest.raises(DomainError):
            MissingPattern(bits=bits)

    f = fixtures(p, maskable, n)
    for name, (ranks, support, call) in ENTRY_POINTS.items():
        valid = zero_one and width_ok and values.ndim in ranks and (support_ok or not support)
        if valid:
            expected = call(f, values.astype(np.uint8))
            np.testing.assert_array_equal(call(f, bits), expected, err_msg=name)
        else:
            with pytest.raises(DomainError):
                call(f, bits)
                pytest.fail(f"{name} accepted {kind} bits {flat} (p={p}, maskable={maskable})")


@pytest.mark.parametrize("bits", [[0.7, 1.0], [1.9, 0], [-1, 0], [0, 2], [np.nan, 0], [[0, 1]]])
def test_pattern_rejects_what_is_not_one_bit_vector(bits):
    with pytest.raises(DomainError):
        MissingPattern(bits=bits)


@pytest.mark.parametrize("mask", [[[0.6, 1.0]], [[0, 2]], [[-1, 0]], [0, 1]])
def test_obs_mask_rejects_what_is_not_a_bit_matrix(mask):
    with pytest.raises(DomainError):
        ObsMaskSeries(mask=mask)


def test_negative_maskable_index_does_not_wrap_onto_the_bias():
    with pytest.raises(DomainError, match="out of range"):
        apply_mask(np.ones(3), [0, 0, 1], (-1,))
    with pytest.raises(DomainError, match="out of range"):
        init_params(Architecture(input_dim=3, bias_index=2), "lr", True, seed=0, maskable=(-1,))
    with pytest.raises(DomainError, match="out of range"):
        UncertaintySet(n_features=3, maskable=(5,), budget=1)


def test_bit_of_two_on_the_bias_column_is_rejected_not_negated():
    params = init_params(Architecture(input_dim=3, bias_index=2), "lr", False, seed=0,
                         maskable=(0, 1))
    x = np.array([[0.3, 0.8, 1.0]])
    with pytest.raises(DomainError, match="0 or 1"):
        predict(params, x, np.array([0, 0, 2]))
    with pytest.raises(DomainError, match=r"non-maskable feature\(s\) \[2\]"):
        predict(params, x, np.array([0, 0, 1]))
