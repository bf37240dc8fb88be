"""Forward evaluation and exact gradients for the four model families.

Two base families, each with an optional adaptive variant whose parameters
shift linearly with the missing pattern a (restricted to the maskable set):

* linear:     f(x, a) = w . x(a)                  adaptive: (w + D a) . x(a)
* network:    g1 = W0 x(a) + b0                   (first affine map, linear)
              g{m+1} = relu(Wm gm + bm)           for the remaining layers
              f = w_out . gM + b_out
  The adaptive variant adds the vector Dm a to every row of Wm (a rank-one
  row broadcast, so the pre-activation gains the scalar (Dm a) . gm on each
  unit) and D_out a to the output weights.

x(a) zeroes the missing coordinates. Gradients are hand-derived; there is no
autodiff dependency. All functions are pure; parameters are treated as
immutable snapshots, except that a training run updates its own params in
place through the flat vector their blocks are views of (see from_vector).

loss_and_grad writes its gradient into a flat vector the caller gives: the
StepBuffers of a training run, which also hold the decay masks and the
row buffers, made once per run. What a call writes there stays valid until
the next call with those buffers. The run binds each epoch's pattern once
(bind_pattern) and hands the bound pattern to every mini-batch.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._util import array_from_json, array_to_json
from .dataio import maskable_indices
from .exceptions import ConfigError, DomainError, ParseError, SizeError
from .missingness import MissingPattern

LR = "lr"
NN = "nn"


@dataclass(frozen=True)
class Architecture:
    """Shape of a model: input width, hidden widths (empty for linear), and
    optionally which input feature is the constant bias (kept out of weight
    decay for the linear family)."""

    input_dim: int
    hidden: tuple[int, ...] = ()
    bias_index: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        if any(w < 1 for w in self.hidden):
            raise ConfigError("hidden widths must be positive")
        if self.bias_index is not None and not (0 <= self.bias_index < self.input_dim):
            raise ConfigError("bias_index out of range")


@dataclass(frozen=True)
class ModelParams:
    """Parameter blocks for one model, keyed by block name.

    Linear family blocks: ``w`` (p,) and, when adaptive, ``D`` (p, |P|).
    Network blocks per hidden layer m: ``Wm`` (out, in), ``bm`` (out,) and,
    when adaptive, ``Dm`` (in, |P|); output blocks ``w_out`` (width,),
    ``b_out`` (1,) and ``D_out`` (width, |P|). Column j of every D block
    belongs to maskable[j].
    """

    family: str
    adaptive: bool
    n_features: int
    maskable: tuple[int, ...]
    bias_index: int | None
    arrays: dict[str, np.ndarray]

    @property
    def n_hidden_layers(self) -> int:
        return sum(1 for k in self.arrays if k.startswith("W"))

    @property
    def hidden(self) -> tuple[int, ...]:
        """The hidden widths: the output count of each W layer."""
        return tuple(self.arrays[f"W{m}"].shape[0] for m in range(self.n_hidden_layers))

    def block_names(self) -> list[str]:
        """Canonical block order used for vectorization and optimizer state."""
        return list(_layout(self.family, self.adaptive, self.n_features, self.hidden,
                            len(self.maskable)))

    def copy(self) -> "ModelParams":
        return replace(self, arrays={k: v.copy() for k, v in self.arrays.items()})

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.arrays[k].ravel() for k in self.block_names()])

    def from_vector(self, vec: np.ndarray) -> "ModelParams":
        """These params stored in `vec` (laid out as to_vector's): each block
        is a view of its slice of vec, not a copy. Only the training loop
        writes to such a vector, its own; elsewhere params stay snapshots."""
        arrays = {}
        offset = 0
        for name in self.block_names():
            block = self.arrays[name]
            arrays[name] = vec[offset : offset + block.size].reshape(block.shape)
            offset += block.size
        if offset != vec.size:
            raise DomainError("vector length does not match parameter count")
        return replace(self, arrays=arrays)


def _layout(family: str, adaptive: bool, p: int, hidden: tuple[int, ...],
            n_mask: int) -> dict[str, tuple[int, ...]]:
    """The parameter blocks of a model, name -> shape, in canonical order:
    widths chain from the p inputs through each hidden width (the linear
    family has none), and every D block has one column per maskable
    feature (see ModelParams)."""
    if family == LR:
        return {"w": (p,), "D": (p, n_mask)} if adaptive else {"w": (p,)}
    blocks, width = {}, p
    for m, out in enumerate(hidden):
        blocks.update({f"W{m}": (out, width), f"b{m}": (out,)})
        width = out
    blocks.update({"w_out": (width,), "b_out": (1,)})
    if adaptive:
        ins = (p, *hidden)
        blocks.update({f"D{m}": (ins[m], n_mask) for m in range(len(hidden))})
        blocks["D_out"] = (width, n_mask)
    return blocks


def init_params(
    arch: Architecture,
    family: str,
    adaptive: bool,
    seed: int,
    maskable: tuple[int, ...] = (),
) -> ModelParams:
    """Random initialization, deterministic per seed.

    Blocks draw in canonical order. The linear weights draw from +-1/sqrt(p)
    and network weight matrices from the scaled-uniform range
    +-sqrt(6/(fan_in + fan_out)) (fan_out 1 for w_out); biases and every
    adaptive correction block start at exact zero, so an adaptive model is
    initially identical to its base model.
    """
    if family not in (LR, NN):
        raise ConfigError(f"unknown family {family!r}")
    if family == NN and not arch.hidden:
        raise ConfigError("network family needs at least one hidden layer")
    maskable = maskable_indices(maskable, arch.input_dim)
    rng = np.random.default_rng(seed)
    p = arch.input_dim
    arrays: dict[str, np.ndarray] = {}
    for name, shape in _layout(family, adaptive, p, arch.hidden, len(maskable)).items():
        if name[0] in "bD":
            arrays[name] = np.zeros(shape)
            continue
        fan_out, fan_in = shape if len(shape) == 2 else (1, shape[0])
        bound = 1.0 / np.sqrt(p) if family == LR else np.sqrt(6.0 / (fan_in + fan_out))
        arrays[name] = rng.uniform(-bound, bound, size=shape)
    return ModelParams(
        family=family,
        adaptive=adaptive,
        n_features=p,
        maskable=maskable,
        bias_index=arch.bias_index,
        arrays=arrays,
    )


def _mask_columns(bits: np.ndarray, maskable: tuple[int, ...]) -> np.ndarray:
    """Restrict bits to the maskable coordinates, as float (n, |P|) or (|P|,)."""
    cols = list(maskable)
    return bits[..., cols].astype(np.float64)


def predict(params: ModelParams, X: np.ndarray, alpha) -> np.ndarray:
    """Batched prediction. alpha may be a single pattern shared by every row
    or an (n, p) bit matrix with one pattern per row."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    bits = MissingPattern.bits_of(alpha, params.n_features, params.maskable)
    per_row = bits.ndim == 2
    if per_row and bits.shape[0] != X.shape[0]:
        raise DomainError("per-row pattern count does not match batch size")
    xm = X * (1.0 - bits.astype(np.float64))
    if params.family == LR:
        preds = xm @ params.arrays["w"]
        if params.adaptive and params.maskable:
            a = _mask_columns(bits, params.maskable)
            d = params.arrays["D"]
            if per_row:
                preds = preds + np.einsum("ij,ij->i", xm, a @ d.T)
            else:
                preds = preds + xm @ (d @ a)
        return preds
    return _nn_forward(params, xm, bits, per_row)[0]


def forward(params: ModelParams, x: np.ndarray, alpha) -> float:
    """Single-observation prediction."""
    return float(predict(params, np.asarray(x, dtype=np.float64)[None, :], alpha)[0])


def _nn_forward(
    params: ModelParams,
    xm: np.ndarray,
    bits: np.ndarray,
    per_row: bool,
    layers: list[np.ndarray] | None = None,
):
    """Forward pass over the masked inputs xm; returns (predictions, gs, a).

    gs[m] is the input of hidden layer m and gs[-1] the output of the last
    one, which is all backprop needs: a ReLU unit is active exactly where its
    output is > 0. a is the pattern on the maskable columns (None for a
    non-adaptive model). Each layer's pre-activation is summed in place,
    into layers[m] when the caller gives (n, width_m) buffers for it, so a
    scorer running many forwards allocates no activations per pass. Layer m
    reads only gs[m], so layers[m] may share memory with layers[m - 2]; gs
    then holds the caller's buffers, of which only the last two are intact.
    """
    adaptive = params.adaptive and bool(params.maskable)
    a = _mask_columns(bits, params.maskable) if adaptive else None
    gs = [xm]
    for m in range(params.n_hidden_layers):
        g, w = gs[-1], params.arrays[f"W{m}"]
        z = g @ w.T if layers is None else np.matmul(g, w.T, out=layers[m])
        z += params.arrays[f"b{m}"]
        if adaptive:
            d = params.arrays[f"D{m}"]
            if per_row:
                z += np.einsum("ij,ij->i", g, a @ d.T)[:, None]
            else:
                z += (g @ (d @ a))[:, None]
        if m:
            np.maximum(z, 0.0, out=z)
        gs.append(z)
    g = gs[-1]
    preds = g @ params.arrays["w_out"] + params.arrays["b_out"][0]
    if adaptive:
        d_out = params.arrays["D_out"]
        if per_row:
            preds = preds + np.einsum("ij,ij->i", g, a @ d_out.T)
        else:
            preds = preds + g @ (d_out @ a)
    return preds, gs, a


def _decayed_mask(params: ModelParams, name: str) -> np.ndarray | float:
    """1 where the block enters the weight-decay penalty.

    Explicit network biases are excluded; for the linear family the weight on
    the constant bias feature is excluded. Adaptive correction blocks are
    always included.
    """
    if params.family == LR and name == "w" and params.bias_index is not None:
        mask = np.ones(params.n_features)
        mask[params.bias_index] = 0.0
        return mask
    if name.startswith("b"):
        return 0.0
    return 1.0


def mse_loss(params: ModelParams, X: np.ndarray, y: np.ndarray, alpha) -> float:
    """Plain mean squared error at the given pattern (no decay term); this is
    the quantity reported as validation loss and used for bounds."""
    preds = predict(params, X, alpha)
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean((preds - y) ** 2))


class BoundPattern(NamedTuple):
    """One batch pattern checked against a model's layout and expanded for
    loss_and_grad: its uint8 bits, keep = 1 - bits as float, and a, the
    pattern on the maskable columns as float (None unless the model is
    adaptive with maskable features). layout records what it was bound for
    (_step_layout). The training loop binds each epoch's pattern once."""

    layout: tuple
    bits: np.ndarray
    keep: np.ndarray
    a: np.ndarray | None


def _step_layout(params: ModelParams) -> tuple:
    """What a bound pattern and StepBuffers depend on, besides block shapes."""
    return params.family, params.adaptive, params.n_features, params.maskable, params.bias_index


def bind_pattern(params: ModelParams, alpha) -> BoundPattern:
    """alpha, one pattern for a whole batch, checked by MissingPattern.bits_of
    (DomainError unless it is one 0/1 vector of the model's width marking
    only maskable features) and expanded for loss_and_grad."""
    bits = MissingPattern.bits_of(alpha, params.n_features, params.maskable, ndim=1)
    a = _mask_columns(bits, params.maskable) if params.adaptive and params.maskable else None
    return BoundPattern(_step_layout(params), bits, 1.0 - bits.astype(np.float64), a)


class StepBuffers:
    """What the loss_and_grad calls of one training run reuse, sized once for
    batches of up to `rows` rows: the flat gradient vector `grad` (blocks in
    block_names() order, the layout adam_step reads) with a view per block
    in `blocks`, each block's weight-decay mask (_decayed_mask), and the
    masked-input and residual rows. A call overwrites all of it, so what it
    returns stays valid until the next call with these buffers."""

    def __init__(self, params: ModelParams, rows: int):
        self.layout = _step_layout(params)
        self.rows = rows
        self.grad = np.empty(sum(block.size for block in params.arrays.values()))
        self.blocks = params.from_vector(self.grad).arrays
        self.decay = {name: _decayed_mask(params, name) for name in self.blocks}
        self.xm = np.empty((rows, params.n_features))
        self.resid = np.empty(rows)
        self.sq = np.empty(rows)


def loss_and_grad(
    params: ModelParams,
    X: np.ndarray,
    y: np.ndarray,
    alpha,
    weight_decay: float = 0.0,
    work: StepBuffers | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Training objective and exact gradients for every parameter block.

    The objective is mean squared error plus weight_decay times the sum of
    squared decayed weights (see _decayed_mask), summed block by block. One
    pattern applies to the whole batch: alpha is a pattern, checked here, or
    a BoundPattern of this model's layout, checked when bound (the training
    loop binds each epoch's pattern once and passes it to every batch).

    The gradient is written into the flat vector work.grad of the caller's
    StepBuffers, built for this layout and at least n rows; the returned
    blocks are views of it, valid, like the rest of work, until the next
    call with that work. Without work the call allocates its own buffers.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if n == 0:
        raise SizeError("empty batch")
    if not isinstance(alpha, BoundPattern):
        alpha = bind_pattern(params, alpha)
    if work is None:
        work = StepBuffers(params, n)
    if n > work.rows:
        raise SizeError(f"batch of {n} rows exceeds buffers for {work.rows}")
    layout = _step_layout(params)
    if alpha.layout != layout or work.layout != layout:
        raise DomainError("pattern or buffers bound for another model layout")
    grads = work.blocks
    xm = np.multiply(X, alpha.keep, out=work.xm[:n])
    resid = work.resid[:n]

    if params.family == LR:
        a = alpha.a
        w = params.arrays["w"]
        w_eff = w + params.arrays["D"] @ a if a is not None else w
        np.matmul(xm, w_eff, out=resid)
        resid -= y
    else:
        preds, gs, a = _nn_forward(params, xm, alpha.bits, False)
        np.subtract(preds, y, out=resid)
    loss = float(np.add.reduce(np.square(resid, out=work.sq[:n])) / n)
    r = np.multiply(resid, 2.0 / n, out=resid)

    if params.family == LR:
        gw = np.matmul(xm.T, r, out=grads["w"])
        if a is not None:
            np.multiply(gw[:, None], a, out=grads["D"])
        elif params.adaptive:
            grads["D"].fill(0.0)
    else:
        g_out = np.matmul(gs[-1].T, r, out=grads["w_out"])
        grads["b_out"][0] = np.add.reduce(r)
        w_eff = params.arrays["w_out"]
        if a is not None:
            np.multiply(g_out[:, None], a, out=grads["D_out"])
            w_eff = w_eff + params.arrays["D_out"] @ a
        elif params.adaptive:
            grads["D_out"].fill(0.0)
        dg = np.multiply(r[:, None], w_eff)
        for m in range(params.n_hidden_layers - 1, -1, -1):
            # dg becomes delta, the gradient at layer m's pre-activation
            if m:
                dg *= gs[m + 1] > 0.0
            g_in = gs[m]
            np.matmul(dg.T, g_in, out=grads[f"W{m}"])
            np.add.reduce(dg, axis=0, out=grads[f"b{m}"])
            if a is not None:
                srow = np.add.reduce(dg, axis=1)
                np.multiply((g_in.T @ srow)[:, None], a, out=grads[f"D{m}"])
            elif params.adaptive:
                grads[f"D{m}"].fill(0.0)
            if m:  # the gradient at layer 0's inputs is never read
                dg = dg @ params.arrays[f"W{m}"]
                if a is not None:
                    dg += np.multiply(srow[:, None], params.arrays[f"D{m}"] @ a)

    if weight_decay:
        for name, mask in work.decay.items():
            decayed = params.arrays[name] * mask
            loss += weight_decay * float(np.add.reduce(np.square(decayed), axis=None))
            grads[name] += (2.0 * weight_decay) * decayed

    return loss, grads


def params_to_json(params: ModelParams) -> dict:
    return {
        "family": params.family,
        "adaptive": params.adaptive,
        "n_features": params.n_features,
        "maskable": list(params.maskable),
        "bias_index": params.bias_index,
        "arrays": {name: array_to_json(params.arrays[name]) for name in params.block_names()},
    }


def params_from_json(obj: dict) -> ModelParams:
    """The parameter set `params_to_json` encoded. DomainError when the
    family is unknown, a network has no hidden layer (as init_params
    refuses), or the blocks are not the names and shapes the layout gives
    for n_features, the maskable count and the W layers' output counts;
    ParseError (from array_from_json) when an array is malformed."""
    family, adaptive, p, maskable, bias = (
        obj[k] for k in ("family", "adaptive", "n_features", "maskable", "bias_index"))
    if family not in (LR, NN) or not isinstance(adaptive, bool) or type(p) is not int or p < 1 \
            or not (isinstance(maskable, list) and all(type(j) is int for j in maskable)) \
            or maskable != sorted(maskable) \
            or not (bias is None or type(bias) is int and 0 <= bias < p):
        raise DomainError(f"inadmissible model: family {family!r}, adaptive {adaptive!r}, "
                          f"n_features {p!r}, maskable {maskable!r}, bias_index {bias!r}")
    if not isinstance(obj["arrays"], dict):
        raise ParseError("a model's arrays must be an object keyed by block name")
    arrays = {k: array_from_json(v) for k, v in obj["arrays"].items()}
    # an absent or non-matrix W layer gets width -1, which no shape matches
    w_layers = [arrays.get(f"W{m}") for m in range(sum(1 for k in arrays if k.startswith("W")))]
    hidden = tuple(w.shape[0] if w is not None and w.ndim == 2 else -1 for w in w_layers)
    if family == NN and not hidden:
        raise DomainError("a network needs at least one hidden layer, got no W0 block")
    layout = _layout(family, adaptive, p, hidden, len(maskable))
    if list(arrays) != list(layout):
        raise DomainError(f"{family} blocks must be {list(layout)}, got {list(arrays)}")
    bad = [f"{k} {arrays[k].shape} (need {shape})" for k, shape in layout.items()
           if arrays[k].shape != shape]
    if bad:
        raise DomainError("parameter block shapes do not chain: " + ", ".join(bad))
    return ModelParams(
        family=family,
        adaptive=adaptive,
        n_features=p,
        maskable=maskable_indices(maskable, p),
        bias_index=bias,
        arrays=arrays,
    )
