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

x(a) zeroes the missing coordinates. A model's layout (family, adaptivity,
widths, bias feature and maskable set) is one Architecture, which every
ModelParams holds and every routine here reads; a file states it once, as
dataclasses.asdict(arch) (arch_from_json reads it), and each model by its
blocks' bytes (params_to_json, params_from_json). Gradients are
hand-derived; there is no autodiff dependency. All functions are pure;
parameters are treated as immutable snapshots, except that a training run
updates its own params in place through the flat vector their blocks are
views of (see from_vector).

loss_and_grad takes its pattern, its weight decay and its buffers from one
StepBuffers, made once per training run: the run's weight decay, the decay
masks, the row buffers and the flat vector the gradient is written into.
What a call writes there stays valid until the next call with those
buffers. The run binds each epoch's pattern to them once (StepBuffers.bind)
and every mini-batch of the epoch applies it.
"""
from __future__ import annotations

import base64
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from ._util import only_keys
from .dataio import maskable_indices
from .exceptions import ConfigError, DomainError, ParseError, SizeError
from .missingness import MissingPattern, _masked

LR = "lr"
NN = "nn"


def _integer(value, what: str) -> int:
    """value as an int; ConfigError for a bool, a float or anything else
    that is no integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Architecture:
    """The layout of a model: its family (LR or NN), whether it adapts to the
    missing pattern, its input width, its hidden widths (none for the linear
    family, one or more for a network), which input feature is the constant
    bias (kept out of weight decay for the linear family; None when there is
    none) and the maskable features, ascending: column j of every adaptive
    block belongs to maskable[j]. maskable_cols, derived once, holds the
    maskable set as a read-only index array (see _adaptation).

    ConfigError for a layout no model has; DomainError (from
    maskable_indices) for a maskable index out of range or repeated, and
    for a maskable set out of order."""

    family: str
    adaptive: bool
    input_dim: int
    hidden: tuple[int, ...] = ()
    bias_index: int | None = None
    maskable: tuple[int, ...] = ()

    def __post_init__(self):
        if self.family not in (LR, NN):
            raise ConfigError(f"unknown family {self.family!r}")
        if not isinstance(self.adaptive, bool):
            raise ConfigError(f"adaptive must be true or false, got {self.adaptive!r}")
        p = _integer(self.input_dim, "input_dim")
        hidden = tuple(_integer(w, "a hidden width") for w in self.hidden)
        bias = None if self.bias_index is None else _integer(self.bias_index, "bias_index")
        given = tuple(_integer(j, "a maskable index") for j in self.maskable)
        if p < 1:
            raise ConfigError("input_dim must be >= 1")
        if any(w < 1 for w in hidden):
            raise ConfigError("hidden widths must be positive")
        if self.family == NN and not hidden:
            raise ConfigError("a network needs at least one hidden layer")
        if self.family == LR and hidden:
            raise ConfigError(f"the linear family has no hidden layers, got widths {hidden}")
        if bias is not None and not 0 <= bias < p:
            raise ConfigError(f"bias_index {bias} out of range for {p} features")
        maskable = maskable_indices(given, p)
        if maskable != given:
            raise DomainError(f"maskable indices {list(given)} are not in ascending order")
        cols = np.array(maskable, dtype=np.intp)
        cols.setflags(write=False)
        for name, value in (("input_dim", p), ("hidden", hidden), ("bias_index", bias),
                            ("maskable", maskable), ("maskable_cols", cols)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ModelParams:
    """One model: its layout and its parameter blocks, keyed by block name
    in the order _layout(arch) gives.

    Linear family blocks: ``w`` (p,) and, when adaptive, ``D`` (p, |P|).
    Network blocks per hidden layer m: ``Wm`` (out, in), ``bm`` (out,) and,
    when adaptive, ``Dm`` (in, |P|); output blocks ``w_out`` (width,),
    ``b_out`` (1,) and ``D_out`` (width, |P|). Column j of every D block
    belongs to arch.maskable[j].
    """

    arch: Architecture
    arrays: dict[str, np.ndarray]

    def block_names(self) -> list[str]:
        """Canonical block order used for vectorization and optimizer state."""
        return list(_layout(self.arch))

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


def _layout(arch: Architecture) -> dict[str, tuple[int, ...]]:
    """The parameter blocks of a model, name -> shape, in canonical order:
    widths chain from the p inputs through each hidden width (the linear
    family has none), and every D block has one column per maskable
    feature (see ModelParams)."""
    p, hidden, n_mask = arch.input_dim, arch.hidden, len(arch.maskable)
    if arch.family == LR:
        return {"w": (p,), "D": (p, n_mask)} if arch.adaptive else {"w": (p,)}
    blocks, width = {}, p
    for m, out in enumerate(hidden):
        blocks.update({f"W{m}": (out, width), f"b{m}": (out,)})
        width = out
    blocks.update({"w_out": (width,), "b_out": (1,)})
    if arch.adaptive:
        ins = (p, *hidden)
        blocks.update({f"D{m}": (ins[m], n_mask) for m in range(len(hidden))})
        blocks["D_out"] = (width, n_mask)
    return blocks


def init_params(arch: Architecture, seed: int) -> ModelParams:
    """Random initialization, deterministic per seed.

    Blocks draw in canonical order. The linear weights draw from +-1/sqrt(p)
    and network weight matrices from the scaled-uniform range
    +-sqrt(6/(fan_in + fan_out)) (fan_out 1 for w_out); biases and every
    adaptive correction block start at exact zero, so an adaptive model is
    initially identical to its base model.
    """
    rng = np.random.default_rng(seed)
    p = arch.input_dim
    arrays: dict[str, np.ndarray] = {}
    for name, shape in _layout(arch).items():
        if name[0] in "bD":
            arrays[name] = np.zeros(shape)
            continue
        fan_out, fan_in = shape if len(shape) == 2 else (1, shape[0])
        bound = 1.0 / np.sqrt(p) if arch.family == LR else np.sqrt(6.0 / (fan_in + fan_out))
        arrays[name] = rng.uniform(-bound, bound, size=shape)
    return ModelParams(arch, arrays)


def predict(params: ModelParams, X: np.ndarray, alpha) -> np.ndarray:
    """Batched prediction. alpha may be a single pattern shared by every row
    or an (n, p) bit matrix with one pattern per row; it passes the pattern
    gate, MissingPattern.bits_of, and X the batch check, _batch, before
    _predict_bits runs."""
    arch = params.arch
    X = _batch(X, arch.input_dim)
    bits = MissingPattern.bits_of(alpha, arch.input_dim, arch.maskable)
    if bits.ndim == 2 and bits.shape[0] != X.shape[0]:
        raise DomainError("per-row pattern count does not match batch size")
    return _predict_bits(params, X, bits)


def _batch(X, width: int | None) -> np.ndarray:
    """X as a float64 batch, one vector being one row; DomainError unless
    it holds rows of `width` numbers (of any one width when None)."""
    try:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    except (TypeError, ValueError):  # text, or rows of unequal length
        X = None
    if X is None or X.ndim != 2 or width not in (None, X.shape[1]):
        raise DomainError(f"X must hold rows of {width or 'equally many'} numbers")
    return X


def _predict_bits(params: ModelParams, X: np.ndarray, bits: np.ndarray):
    """The forecasts of float64 X at pattern bits that have passed the gate:
    one (p,) row at one (p,) pattern gives a scalar, an (n, p) batch gives n
    of them, at one (p,) pattern or at an (n, p) matrix with one pattern per
    row.

    Every prediction runs this one kernel; _masked hides the missing slots."""
    xm = _masked(X, bits)
    a = _adaptation(params.arch, bits)
    if params.arch.family == LR:
        preds = xm @ params.arrays["w"]
        if a is not None:
            d = params.arrays["D"]
            if a.ndim == 2:
                preds = preds + np.einsum("ij,ij->i", xm, a @ d.T)
            else:
                preds = preds + xm @ (d @ a)
        return preds
    return _nn_forward(params, xm, a)[0]


def _adaptation(arch: Architecture, bits: np.ndarray) -> np.ndarray | None:
    """a, what the adaptive blocks of a model of layout arch read: the bits
    (one pattern, or one per row) on the maskable columns, as float. None
    unless the model is adaptive with maskable features."""
    if not (arch.adaptive and arch.maskable):
        return None
    return bits.take(arch.maskable_cols, axis=-1).astype(np.float64)


def _nn_forward(params: ModelParams, xm: np.ndarray, a: np.ndarray | None,
                layers: list[np.ndarray] | None = None):
    """Forward pass over the masked inputs xm, an (n, p) batch or one (p,)
    row, at the adaptation a (_adaptation: None, one vector, or one row per
    row of xm); returns (predictions, gs).

    gs[m] is the input of hidden layer m and gs[-1] the output of the last
    one, which is all backprop needs: a ReLU unit is active exactly where its
    output is > 0. Each layer's pre-activation is summed in place,
    into layers[m] when the caller gives (n, width_m) buffers for it, so a
    scorer running many forwards allocates no activations per pass. Layer m
    reads only gs[m], so layers[m] may share memory with layers[m - 2]; gs
    then holds the caller's buffers, of which only the last two are intact.
    """
    arch = params.arch
    adaptive = a is not None
    per_row = adaptive and a.ndim == 2
    gs = [xm]
    for m in range(len(arch.hidden)):
        g, w = gs[-1], params.arrays[f"W{m}"]
        z = g @ w.T if layers is None else np.matmul(g, w.T, out=layers[m])
        z += params.arrays[f"b{m}"]
        if adaptive:
            d = params.arrays[f"D{m}"]
            if per_row:
                z += np.einsum("ij,ij->i", g, a @ d.T)[:, None]
            else:
                z += (g @ (d @ a))[..., None]
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
    return preds, gs


def _decayed_mask(arch: Architecture, name: str) -> np.ndarray | float:
    """1 where the block `name` of a model of layout arch enters the
    weight-decay penalty.

    Explicit network biases are excluded; for the linear family the weight on
    the constant bias feature is excluded. Adaptive correction blocks are
    always included.
    """
    if arch.family == LR and name == "w" and arch.bias_index is not None:
        mask = np.ones(arch.input_dim)
        mask[arch.bias_index] = 0.0
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


class StepBuffers:
    """What the loss_and_grad calls of one training run reuse, sized once for
    batches of up to `rows` rows: the flat gradient vector `grad` (blocks in
    block_names() order, the layout adam_step reads) with a view per block
    in `blocks`, each block's weight-decay mask (_decayed_mask) and the run's
    weight_decay, and the masked-input and residual rows, all for the layout
    `arch`. bind(pattern) sets the pattern every following call applies. A
    call overwrites the rest, so what it returns stays valid until the next
    call with these buffers."""

    def __init__(self, params: ModelParams, rows: int, weight_decay: float):
        self.arch = params.arch
        self.rows = rows
        self.weight_decay = weight_decay
        self.grad = np.empty(sum(block.size for block in params.arrays.values()))
        self.blocks = params.from_vector(self.grad).arrays
        self.decay = {name: _decayed_mask(self.arch, name) for name in self.blocks}
        self.xm = np.empty((rows, self.arch.input_dim))
        self.resid = np.empty(rows)
        self.sq = np.empty(rows)
        self.bits = self.a = None

    def bind(self, pattern) -> None:
        """Apply pattern, one pattern for a whole batch, to the calls that
        follow: DomainError unless it passes MissingPattern.bits_of as one
        0/1 vector of the layout's width marking only maskable features.
        Keeps its bits and its adaptation a (_adaptation)."""
        arch = self.arch
        self.bits = MissingPattern.bits_of(pattern, arch.input_dim, arch.maskable, ndim=1)
        self.a = _adaptation(arch, self.bits)


def loss_and_grad(
    params: ModelParams,
    X: np.ndarray,
    y: np.ndarray,
    work: StepBuffers,
) -> tuple[float, dict[str, np.ndarray]]:
    """Training objective and exact gradients for every parameter block.

    The objective is mean squared error plus work.weight_decay times the sum
    of squared decayed weights (see _decayed_mask), summed block by block.
    One pattern applies to the whole batch: the one bound to work (the
    training loop binds each epoch's pattern once); DomainError when none
    is.

    The gradient is written into the flat vector work.grad of the caller's
    StepBuffers, built for this layout and at least n rows; the returned
    blocks are views of it, valid, like the rest of work, until the next
    call with that work.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if n == 0:
        raise SizeError("empty batch")
    if n > work.rows:
        raise SizeError(f"batch of {n} rows exceeds buffers for {work.rows}")
    arch = params.arch
    # the usual case, params and buffers sharing one Architecture, costs no
    # field comparison
    if work.arch is not arch and work.arch != arch:
        raise DomainError("buffers built for another model layout")
    if work.bits is None:
        raise DomainError("no pattern bound to the buffers")
    grads = work.blocks
    xm = _masked(X, work.bits, out=work.xm[:n])
    resid = work.resid[:n]
    a = work.a

    if arch.family == LR:
        w = params.arrays["w"]
        w_eff = w + params.arrays["D"] @ a if a is not None else w
        np.matmul(xm, w_eff, out=resid)
        resid -= y
    else:
        preds, gs = _nn_forward(params, xm, a)
        np.subtract(preds, y, out=resid)
    loss = float(np.add.reduce(np.square(resid, out=work.sq[:n])) / n)
    r = np.multiply(resid, 2.0 / n, out=resid)

    if arch.family == LR:
        gw = np.matmul(xm.T, r, out=grads["w"])
        if a is not None:
            np.multiply(gw[:, None], a, out=grads["D"])
    else:
        g_out = np.matmul(gs[-1].T, r, out=grads["w_out"])
        grads["b_out"][0] = np.add.reduce(r)
        w_eff = params.arrays["w_out"]
        if a is not None:
            np.multiply(g_out[:, None], a, out=grads["D_out"])
            w_eff = w_eff + params.arrays["D_out"] @ a
        dg = np.multiply(r[:, None], w_eff)
        for m in range(len(arch.hidden) - 1, -1, -1):
            # dg becomes delta, the gradient at layer m's pre-activation
            if m:
                dg *= gs[m + 1] > 0.0
            g_in = gs[m]
            np.matmul(dg.T, g_in, out=grads[f"W{m}"])
            np.add.reduce(dg, axis=0, out=grads[f"b{m}"])
            if a is not None:
                srow = np.add.reduce(dg, axis=1)
                np.multiply((g_in.T @ srow)[:, None], a, out=grads[f"D{m}"])
            if m:  # the gradient at layer 0's inputs is never read
                dg = dg @ params.arrays[f"W{m}"]
                if a is not None:
                    dg += np.multiply(srow[:, None], params.arrays[f"D{m}"] @ a)

    weight_decay = work.weight_decay
    if weight_decay:
        for name, mask in work.decay.items():
            decayed = params.arrays[name] * mask
            loss += weight_decay * float(np.add.reduce(np.square(decayed), axis=None))
            grads[name] += (2.0 * weight_decay) * decayed

    return loss, grads


def params_to_json(params: ModelParams) -> dict:
    """Each block, in block order, as the base64 of its little-endian float64
    bytes in C order; the file states the layout once, as asdict(arch)."""
    return {name: base64.b64encode(np.asarray(params.arrays[name], dtype="<f8").tobytes())
            .decode("ascii") for name in params.block_names()}


def arch_from_json(obj: dict) -> Architecture:
    """The layout a file states as asdict(arch): ParseError unless it holds
    exactly Architecture's fields, DomainError when Architecture refuses it."""
    names = [f.name for f in fields(Architecture)]
    missing = [name for name in names if name not in obj]
    if missing:
        raise ParseError(f"a layout lacks the key {missing[0]!r}")
    try:
        return Architecture(**only_keys(obj, names, "a layout"))
    except ConfigError as exc:
        raise DomainError(f"inadmissible model: {exc}") from None


def params_from_json(obj: dict, arch: Architecture) -> ModelParams:
    """The set `params_to_json` encoded, each block a fresh float64 array of
    the shape the file's layout arch gives it. ParseError for an entry that
    is no object or a block that is no base64 text; DomainError unless the
    blocks are _layout(arch)'s, in its order, each 8 bytes per float."""
    if not isinstance(obj, dict):
        raise ParseError("a parameter set must be an object keyed by block name")
    layout = _layout(arch)
    if list(obj) != list(layout):
        raise DomainError(f"{arch.family} blocks must be {list(layout)}, got {list(obj)}")
    arrays = {}
    for name, shape in layout.items():
        try:
            raw = base64.b64decode(obj[name], validate=True)
        except (TypeError, ValueError) as exc:  # binascii.Error included
            raise ParseError(f"block {name} is not base64 text: {exc}") from None
        if len(raw) != 8 * math.prod(shape):
            raise DomainError(f"block {name} holds {len(raw)} bytes, not 8 per float of {shape}")
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    return ModelParams(arch, arrays)
