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
from .linalg import gram, power_dominant_eigen
from .model import forward_batch

LOSS_KINDS = (
    "mse",
    "binary_cross_entropy",
    "categorical_cross_entropy",
    "multiclass_hinge",
)

PENALTY_KINDS = ("none", "eigen_decay", "l1", "l2")


def _as_batch(a):
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return a


def _check_pm1(y, kind):
    if not np.all(np.abs(y) == 1.0):
        raise ValueError(f"{kind} targets must be encoded as +/-1")


def _logsumexp(z):
    m = np.max(z, axis=-1, keepdims=True)
    return m[..., 0] + np.log(np.sum(np.exp(z - m), axis=-1))


def _loss_per_example(kind, Yhat, Y):
    if kind == "mse":
        _check_pm1(Y, kind)
        return np.mean((Yhat - Y) ** 2, axis=-1)
    if kind == "multiclass_hinge":
        _check_pm1(Y, kind)
        return np.sum(np.maximum(0.0, 1.0 - Y * Yhat), axis=-1)
    if kind == "binary_cross_entropy":
        _check_pm1(Y, kind)
        t = (Y + 1.0) / 2.0
        # -[t log s(z) + (1-t) log(1-s(z))] = softplus(z) - t z, summed
        return np.sum(np.logaddexp(0.0, Yhat) - t * Yhat, axis=-1)
    if kind == "categorical_cross_entropy":
        _check_pm1(Y, kind)
        t = (Y + 1.0) / 2.0
        return np.sum(t, axis=-1) * _logsumexp(Yhat) - np.sum(t * Yhat, axis=-1)
    raise ValueError(f"unknown loss kind {kind!r}; pick one of {LOSS_KINDS}")


def loss_batch(kind, Yhat, Y):
    """Mean loss over a batch of row-per-example outputs and targets.

    A stack of batches (R, n, L) gives an (R,) array of each member's mean,
    with the bits of the 2-D call on that member.
    """
    Yhat = _as_batch(Yhat)
    Y = _as_batch(Y)
    if Yhat.shape != Y.shape:
        raise ValueError(f"shape mismatch {Yhat.shape} vs {Y.shape}")
    if Yhat.shape[-2] == 0:
        raise ValueError("batch must be nonempty")
    per_example = _loss_per_example(kind, Yhat, Y)
    if per_example.ndim == 1:
        return float(np.mean(per_example))
    return np.mean(per_example, axis=-1)


def loss_gradient_batch(kind, Yhat, Y):
    """Gradient of the batch-mean loss with respect to each output row.

    A stack of batches (R, n, L) gives each member's gradient, with the bits
    of the 2-D call on that member.
    """
    Yhat = _as_batch(Yhat)
    Y = _as_batch(Y)
    if Yhat.shape != Y.shape:
        raise ValueError(f"shape mismatch {Yhat.shape} vs {Y.shape}")
    n, L = Yhat.shape[-2:]
    if n == 0:
        raise ValueError("batch must be nonempty")
    if kind == "mse":
        _check_pm1(Y, kind)
        return 2.0 * (Yhat - Y) / (L * n)
    if kind == "multiclass_hinge":
        _check_pm1(Y, kind)
        violated = (1.0 - Y * Yhat) > 0.0
        return np.where(violated, -Y, 0.0) / n
    if kind == "binary_cross_entropy":
        _check_pm1(Y, kind)
        t = (Y + 1.0) / 2.0
        s = 1.0 / (1.0 + np.exp(-np.clip(Yhat, -500, 500)))
        return (s - t) / n
    if kind == "categorical_cross_entropy":
        _check_pm1(Y, kind)
        t = (Y + 1.0) / 2.0
        z = Yhat - np.max(Yhat, axis=-1, keepdims=True)
        ez = np.exp(z)
        p = ez / np.sum(ez, axis=-1, keepdims=True)
        return (p * np.sum(t, axis=-1, keepdims=True) - t) / n
    raise ValueError(f"unknown loss kind {kind!r}; pick one of {LOSS_KINDS}")


def eigen_decay_penalty(w, C, lambda_dom):
    """C * sqrt(lambda_dom), where lambda_dom is the power-method dominant
    eigenvalue of W W^T (penalty_lambdas computes it).

    The zero matrix has dominant eigenvalue 0 and is handled directly; the
    power iteration itself cannot start there. A stack (R, m, n), with C
    and lambda_dom per member, gives an (R,) array with the 2-D call's bits.
    """
    cs = np.asarray(C, dtype=float)
    if np.any(cs < 0):
        raise ValueError(f"penalty coefficient must be >= 0, got {C}")
    w = np.asarray(w, dtype=float)
    live = (cs != 0.0) & w.any(axis=(-2, -1))
    value = np.where(live, cs * np.sqrt(np.maximum(lambda_dom, 0.0)), 0.0)
    return value if w.ndim == 3 else float(value)


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
    p: int = 9  # power-method steps, eigen_decay only

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


def penalty_lambdas(weights, regs):
    """(lambdas, failed) for one (R, out, in) weight stack per layer and
    one RegularizerSpec per member.

    lambdas (R, layers) comes from one stacked power iteration per layer
    and step count: the entry's p for eigen decay, 9 otherwise. A zero W
    gets 0, as the iteration cannot start there; a failed iteration, nan.
    failed maps each member to the first error in layer order that its
    penalty values raise: kind none and C == 0 raise nothing, eigen decay
    raises where the iteration on a nonzero W fails, l1 and l2 where W is
    not finite.
    """
    R = len(regs)
    lambdas = np.zeros((R, len(weights)))
    failed = {}
    for k, w in enumerate(weights):
        entries = [reg.layers[k] for reg in regs]
        groups = {}
        for r, entry in enumerate(entries):
            groups.setdefault(entry.p if entry.kind == "eigen_decay" else 9, []).append(r)
        for p, idx in groups.items():
            wk = w if len(idx) == R else w[idx]
            est = power_dominant_eigen(gram(wk, check=False), p)
            nonzero = wk.any(axis=(1, 2))
            lambdas[idx, k] = np.where(nonzero, est.lambda_dom, 0.0)
            for i, exc in est.failed.items():
                entry = entries[idx[i]]
                if entry.kind == "none" or entry.c == 0.0 or not nonzero[i]:
                    continue
                # a W that is not finite fails with NONFINITE_MATRIX
                if entry.kind == "eigen_decay" or not np.isfinite(wk[i]).all():
                    failed.setdefault(idx[i], exc)
    return lambdas, failed


def penalties(model, reg, *, lambdas=None):
    """Per-layer penalty values. lambdas, when given, is penalty_lambdas'
    estimate for members it reports no failure for; without it, it is
    computed here and the first failing member's error is raised.

    A stacked model (see model.DenseLayer) takes reg as one RegularizerSpec
    per member, each already checked against the model, and lambdas as an
    (R, layers) array, and gives one tuple of values per member. The 2-D
    call is the stack of one.
    """
    stacked = model.output.weights.ndim == 3
    if not stacked:
        reg.check_against(model)
    regs = list(reg) if stacked else [reg]
    weights = [layer.weights if stacked else layer.weights[None] for layer in model.layers]
    if lambdas is None:
        lambdas, failed = penalty_lambdas(weights, regs)
        if failed:
            raise failed[min(failed)]
    lambdas = np.reshape(lambdas, (len(regs), len(weights)))
    values = np.zeros(lambdas.shape)
    for k, w in enumerate(weights):
        kinds = {}
        for r, spec in enumerate(regs):
            entry = spec.layers[k]
            if entry.kind != "none" and entry.c != 0.0:
                kinds.setdefault(entry.kind, []).append(r)
        for kind, idx in kinds.items():
            c = np.array([regs[r].layers[k].c for r in idx], dtype=float)
            wk = w if len(idx) == len(w) else w[idx]
            if kind == "eigen_decay":
                values[idx, k] = eigen_decay_penalty(wk, c, lambdas[idx, k])
            elif kind == "l1":
                values[idx, k] = c * abs(wk).sum(axis=(1, 2))
            else:
                values[idx, k] = c * (wk * wk).sum(axis=(1, 2))
    out = [tuple(row) for row in values.tolist()]
    return out if stacked else out[0]


def _objective_value(loss, pens):
    total = loss
    for p in pens:
        total += p
    return ObjectiveValue(loss, pens, total)


def total_objective(model, X, Y, loss_kind, reg, dropout_masks=None, *, lambdas=None):
    """Batch-mean loss plus per-layer penalties.

    Pass dropout_masks (from sample_dropout_masks) to evaluate the
    stochastic training objective at a fixed mask; omitting them is
    evaluation mode. lambdas is passed on to penalties().

    A stacked model takes (R, n, .) batches and masks and reg and lambdas
    as penalties() does, and gives one ObjectiveValue per member, each with
    the bits of the 2-D call on that member.
    """
    X = np.asarray(X, dtype=float)
    stacked = model.output.weights.ndim == 3
    if X.ndim != 2 + stacked or X.shape[-2] == 0:
        shape = "(R, n, d)" if stacked else "(n, d)"
        raise ValueError(f"batch must be a nonempty {shape} array")
    _, _, Yhat = forward_batch(model, X, dropout_masks)
    e = loss_batch(loss_kind, Yhat, Y)
    pens = penalties(model, reg, lambdas=lambdas)
    if not stacked:
        return _objective_value(e, pens)
    return [_objective_value(float(er), p) for er, p in zip(e, pens)]
