"""Loss functions, weight penalties, and dropout masking.

The total training objective is the batch-mean loss plus one penalty per
weight matrix. The eigenvalue-decay penalty charges C * sqrt(lambda_dom) of
the layer gram matrix W W^T, with lambda_dom estimated by the power method
so the whole term stays differentiable in the weights.
"""

from dataclasses import dataclass
import math

import numpy as np

from .data import _is_int, _is_real
from .linalg import NONFINITE_MATRIX, POWER_STEPS, gram, power_dominant_eigen
from .model import forward_batch

LOSS_KINDS = (
    "mse",
    "binary_cross_entropy",
    "categorical_cross_entropy",
    "multiclass_hinge",
)

PENALTY_KINDS = ("none", "eigen_decay", "l1", "l2")


def _loss_inputs(kind, Yhat, Y):
    """Outputs and targets as float batches, each 1-D array a batch of one
    row, once their shapes match, the batch has rows and outputs, the kind
    is known and the targets are +/-1."""
    Yhat, Y = (np.asarray(a, dtype=float) for a in (Yhat, Y))
    Yhat, Y = (a.reshape(1, -1) if a.ndim == 1 else a for a in (Yhat, Y))
    if Yhat.shape != Y.shape:
        raise ValueError(f"shape mismatch {Yhat.shape} vs {Y.shape}")
    n, L = Yhat.shape[-2:]  # a 0-d array raises ValueError here
    if n == 0 or L == 0:
        raise ValueError("batch must be nonempty")
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; pick one of {LOSS_KINDS}")
    if not np.all(np.abs(Y) == 1.0):
        raise ValueError(f"{kind} targets must be encoded as +/-1")
    return Yhat, Y


def _logsumexp(z):
    m = np.max(z, axis=-1, keepdims=True)
    return m[..., 0] + np.log(np.sum(np.exp(z - m), axis=-1))


def loss_batch(kind, Yhat, Y):
    """Mean loss over a batch of row-per-example outputs and targets.

    A stack of batches (R, n, L) gives an (R,) array of each member's mean,
    with the bits of the 2-D call on that member.
    """
    Yhat, Y = _loss_inputs(kind, Yhat, Y)
    if kind == "mse":
        per_example = np.mean((Yhat - Y) ** 2, axis=-1)
    elif kind == "multiclass_hinge":
        per_example = np.sum(np.maximum(0.0, 1.0 - Y * Yhat), axis=-1)
    elif kind == "binary_cross_entropy":
        t = (Y + 1.0) / 2.0
        # -[t log s(z) + (1-t) log(1-s(z))] = softplus(z) - t z, summed
        per_example = np.sum(np.logaddexp(0.0, Yhat) - t * Yhat, axis=-1)
    else:  # categorical_cross_entropy
        t = (Y + 1.0) / 2.0
        per_example = np.sum(t, axis=-1) * _logsumexp(Yhat) - np.sum(t * Yhat, axis=-1)
    if per_example.ndim == 1:
        return float(np.mean(per_example))
    return np.mean(per_example, axis=-1)


def loss_gradient_batch(kind, Yhat, Y):
    """Gradient of the batch-mean loss with respect to each output row.

    A stack of batches (R, n, L) gives each member's gradient, with the bits
    of the 2-D call on that member.
    """
    Yhat, Y = _loss_inputs(kind, Yhat, Y)
    n, L = Yhat.shape[-2:]
    if kind == "mse":
        return 2.0 * (Yhat - Y) / (L * n)
    if kind == "multiclass_hinge":
        violated = (1.0 - Y * Yhat) > 0.0
        return np.where(violated, -Y, 0.0) / n
    t = (Y + 1.0) / 2.0
    if kind == "binary_cross_entropy":
        s = 1.0 / (1.0 + np.exp(-np.clip(Yhat, -500, 500)))
        return (s - t) / n
    # categorical_cross_entropy
    z = Yhat - np.max(Yhat, axis=-1, keepdims=True)
    ez = np.exp(z)
    p = ez / np.sum(ez, axis=-1, keepdims=True)
    return (p * np.sum(t, axis=-1, keepdims=True) - t) / n


def eigen_decay_penalty(c, lambda_dom):
    """C * sqrt(lambda_dom) for each member of a stack: c and lambda_dom
    are (R,) arrays, lambda_dom the power-method dominant eigenvalue of
    each member's W W^T from _lambdas, which gives a zero W 0."""
    return c * np.sqrt(np.maximum(lambda_dom, 0.0))


def sample_dropout_masks(rates, hidden_dims, batch_size, rng):
    """Pre-scaled dropout masks per hidden layer, or None when all rates
    are zero. Entries are 0 or 1/(1-rate)."""
    if rates is None or not any(r > 0 for r in rates):
        return None
    if len(rates) != len(hidden_dims):
        raise ValueError("one dropout rate per hidden layer expected")
    masks = []
    for rate, width in zip(rates, hidden_dims):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
        if rate == 0.0:
            masks.append(None)
        else:
            keep = rng.random((batch_size, width)) >= rate
            masks.append(keep / (1.0 - rate))
    return masks


@dataclass(frozen=True)
class LayerPenalty:
    kind: str = "none"
    c: float = 0.0
    p: int = POWER_STEPS  # power-method steps, eigen_decay only

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValueError(
                f"unknown penalty kind {self.kind!r}; pick one of {PENALTY_KINDS}"
            )
        if not _is_real(self.c) or not 0.0 <= self.c < math.inf:
            raise ValueError(f"penalty coefficient must be finite and >= 0, got {self.c!r}")
        if not _is_int(self.p):
            raise ValueError(f"power-method step count must be an integer, got {self.p!r}")
        if self.p < 1:
            raise ValueError(f"power-method step count must be >= 1, got {self.p}")


@dataclass(frozen=True)
class RegularizerSpec:
    layers: tuple  # one LayerPenalty per weight matrix, hidden first
    dropout: tuple = ()  # one rate per hidden layer; empty means none

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "dropout", tuple(self.dropout))
        for entry in self.layers:
            if not isinstance(entry, LayerPenalty):
                raise ValueError("layers must hold LayerPenalty entries")
        for rate in self.dropout:
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")

    @classmethod
    def none(cls, n_layers, n_hidden=None):
        if n_hidden is None:
            n_hidden = n_layers - 1
        return cls(
            layers=tuple(LayerPenalty() for _ in range(n_layers)),
            dropout=(0.0,) * n_hidden,
        )

    def check_against(self, model):
        if len(self.layers) != len(model.layers):
            raise ValueError(
                f"{len(self.layers)} penalty entries for a model with "
                f"{len(model.layers)} weight layers"
            )
        if self.dropout and len(self.dropout) != len(model.hidden):
            raise ValueError(
                f"{len(self.dropout)} dropout rates for {len(model.hidden)} "
                f"hidden layers"
            )

    @property
    def has_dropout(self):
        return any(r > 0 for r in self.dropout)


@dataclass
class ObjectiveValue:
    loss: float
    penalties: tuple
    total: float


@dataclass(frozen=True)
class _Group:
    """The members of a stack that share one layer's penalty kind and
    power-method step count, with each one's coefficient."""

    kind: str
    p: int
    members: np.ndarray  # stack positions, ascending
    c: np.ndarray


class _StackSpecs(tuple):
    """A stack's specs, one RegularizerSpec per member, with .layers: per
    weight layer, one _Group per (kind, p) of the members whose entry is
    penalized (kind none and C == 0 are not), in order of first member.

    It stands wherever a stack's specs are taken; train builds one per set
    of live members, so no step regroups them."""

    def __new__(cls, regs):
        self = super().__new__(cls, regs)
        self.layers = []
        for entries in zip(*(reg.layers for reg in self)):
            groups = {}
            for r, entry in enumerate(entries):
                if entry.kind != "none" and entry.c != 0.0:
                    groups.setdefault((entry.kind, entry.p), []).append(r)
            self.layers.append([
                _Group(kind, p, np.array(idx), np.array([entries[r].c for r in idx], dtype=float))
                for (kind, p), idx in groups.items()
            ])
        return self


def _grouped(regs):
    """regs as a _StackSpecs, grouped here unless they already are."""
    return regs if isinstance(regs, _StackSpecs) else _StackSpecs(regs)


def _lambdas(w, p):
    """(lambda, failed) for a weight stack (R, out, in): one stacked p-step
    power iteration on the grams. A zero W gets 0, as the iteration cannot
    start there; failed maps each nonzero member whose iteration fails to
    its error, and its lambda is nan."""
    lam, failed = power_dominant_eigen(gram(w), p)
    nonzero = w.any(axis=(1, 2))
    failed = {r: exc for r, exc in failed.items() if nonzero[r]}
    return np.where(nonzero, lam, 0.0), failed


def penalties(model, reg):
    """Per-layer penalty values.

    Only penalized eigen-decay layers run the power iteration, once per
    layer and step count for all the members that share them. Eigen decay
    fails where the iteration on a nonzero W fails, l1 and l2 where W is not
    finite; kind none and C == 0 never fail.

    A stacked model (see model.DenseLayer) takes reg as one RegularizerSpec
    per member, each already checked against the model (or a _StackSpecs
    of them), and returns (values, lambdas, failed): one tuple of values
    per member, the (R, layers) array of the lambda each eigen-decay value
    read (nan on other layers), and {member: its first error in layer
    order}, whose values are not meaningful. The 2-D call is the stack of one; it returns the tuple
    of values or raises its error.
    """
    stacked = model.output.weights.ndim == 3
    if not stacked:
        reg.check_against(model)
    specs = _grouped(reg if stacked else [reg])
    R, K = len(specs), len(model.layers)
    values = np.zeros((R, K))
    lambdas = np.full((R, K), math.nan)
    failed = {}
    for k, (layer, groups) in enumerate(zip(model.layers, specs.layers)):
        w = layer.weights if stacked else layer.weights[None]
        for g in groups:
            idx = g.members
            wk = w if len(idx) == R else w[idx]
            if g.kind == "eigen_decay":
                lam, errors = _lambdas(wk, g.p)
                lambdas[idx, k] = lam
                values[idx, k] = eigen_decay_penalty(g.c, lam)
            else:
                bad = ~np.isfinite(wk).all(axis=(1, 2))
                errors = {j: ValueError(NONFINITE_MATRIX) for j in np.flatnonzero(bad).tolist()}
                values[idx, k] = g.c * (abs(wk) if g.kind == "l1" else wk * wk).sum(axis=(1, 2))
            for j, exc in errors.items():
                failed.setdefault(int(idx[j]), exc)
    out = [tuple(row) for row in values.tolist()]
    if stacked:
        return out, lambdas, failed
    if failed:
        raise failed[0]
    return out[0]


def _objective_value(loss, pens):
    total = loss
    for p in pens:
        total += p
    return ObjectiveValue(loss, pens, total)


def total_objective(model, X, Y, loss_kind, reg, dropout_masks=None):
    """Batch-mean loss plus per-layer penalties.

    Pass dropout_masks (from sample_dropout_masks) to evaluate the
    stochastic training objective at a fixed mask; omitting them is
    evaluation mode. The 2-D call returns an ObjectiveValue or raises the
    error penalties() raises.

    A stacked model takes (R, n, .) batches and masks, and reg as
    penalties() does, and returns (objectives, lambdas, failed): one
    ObjectiveValue per member, each with the bits of the 2-D call on that
    member, and penalties()' lambdas and {member: error}, whose members'
    2-D calls raise.
    """
    _, _, Yhat = forward_batch(model, X, dropout_masks)
    e = loss_batch(loss_kind, Yhat, Y)
    if model.output.weights.ndim == 2:
        return _objective_value(e, penalties(model, reg))
    pens, lambdas, failed = penalties(model, reg)
    return [_objective_value(float(er), p) for er, p in zip(e, pens)], lambdas, failed
