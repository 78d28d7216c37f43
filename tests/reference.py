"""Frozen plain-numpy copies of the arithmetic the bit tests pin.

Each function is a piece of the program's maths as it was written before
a change that had to keep its bits: the program must keep the bits,
errors and warnings of these copies. Each piece is written once here, and
none calls a program kernel. From eigendecay the module takes only data
classes, error classes and message or tolerance constants
(tests/test_reference.py checks this), and the only program code it runs
is the data classes' own checks, so a change inside a kernel moves one
side of a comparison, never both.

Input checks the program makes are left out where no compared input
reaches them. Stacked arguments have a leading member axis R, as in the
program.
"""

import copy
from dataclasses import dataclass
import math

import numpy as np

from eigendecay.linalg import (
    DEGENERATE_START,
    ITERATE_OVERFLOW,
    NONFINITE_MATRIX,
    DegenerateIterateError,
)
from eigendecay.margin import (
    BISECTION_MAX_STEPS,
    BISECTION_TOL,
    BOUND_EPS_REL,
    AnchorSamplingError,
    BisectionToleranceError,
    DegenerateGradientError,
    MarginReport,
    NoCrossingError,
    NonFiniteMidpointError,
    PointRecord,
)
from eigendecay.model import MlpModel
from eigendecay.objectives import LOSS_KINDS


# activations

def sigmoid(v):
    """The sigmoid with its numerator picked by np.where and every result a
    new array."""
    e = np.exp(np.minimum(v, -v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def activation(kind, v):
    if kind == "sigmoid":
        return sigmoid(v)
    if kind == "tanh":
        return np.tanh(v)
    if kind == "relu":
        return np.maximum(v, 0.0)
    return v


def slope(kind, v):
    """The activation's derivative at the preactivation v. The relu slope
    reads the same at a relu value as at its input."""
    if kind == "sigmoid":
        s = sigmoid(v)
        return s * (1.0 - s)
    if kind == "tanh":
        t = np.tanh(v)
        return 1.0 - t * t
    if kind == "relu":
        return np.where(v > 0, 1.0, 0.0)
    return np.ones_like(v)


# the gram, the power iteration and its gradient

def gram(w):
    """W W^T of W (m, n) or a stack, the upper triangle mirrored from the
    lower through np.where."""
    g = w @ w.swapaxes(-1, -2)
    return np.where(np.tri(g.shape[-1], dtype=bool), g, g.swapaxes(-1, -2)) + 0.0


def power(m, p):
    """(lambda, error) of the p-step power iteration on one symmetric
    matrix m from the all-ones start, with 1-D numpy: each step a GEMV,
    then a division by the max-abs peak and one by np.linalg.norm. error
    is what power_dominant_eigen records for m, else None, and lambda is
    nan where it is not None."""
    if not np.isfinite(m).all():
        return math.nan, ValueError(NONFINITE_MATRIX)
    v = np.ones(m.shape[0])
    with np.errstate(all="ignore"):
        for _ in range(p):
            v = m @ v
            peak = float(np.max(np.abs(v)))
            if peak == 0.0:
                return math.nan, DegenerateIterateError(DEGENERATE_START)
            v = v / peak
            v = v / float(np.linalg.norm(v))
        num, den = float((m @ v) @ v), float(v @ v)
    if not (math.isfinite(num) and math.isfinite(den)):
        return math.nan, OverflowError(ITERATE_OVERFLOW)
    return num / den, None


def raw_power(m, p):
    """The power iteration from the all-ones vector without per-step
    rescaling: the raw iterate m^p 1 grows like lambda^p. Returns the
    Rayleigh quotient and the iterate; OverflowError once either leaves
    float range."""
    v = np.ones(m.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(p):
            v = m @ v
        num, den = float((m @ v) @ v), float(v @ v)
    if not (math.isfinite(num) and math.isfinite(den)):
        raise OverflowError("unnormalized iterate overflowed")
    return num / den, v


def raw_power_gradient(w, C, p):
    """Gradient of C * sqrt(lambda) where lambda is the Rayleigh quotient
    of the raw iterate (W W^T)^p 1: the reverse pass of raw_power."""
    m = gram(w)
    iterates = [np.ones(m.shape[0])]
    for _ in range(p):
        iterates.append(m @ iterates[-1])
    v = iterates[-1]
    mv = m @ v
    num, den = mv @ v, v @ v
    gm = np.outer(v, v) / den
    dv = 2.0 * mv / den - 2.0 * v * num / (den * den)
    for t in range(p, 0, -1):
        gm += np.outer(dv, iterates[t - 1])
        dv = m @ dv
    return C / (2.0 * np.sqrt(num / den)) * ((gm + gm.T) @ w)


def _mv(m, v):
    return (m @ v[..., None])[..., 0]


def _dot(a, b):
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def power_gradient(ws, cs, p):
    """eigen_decay_gradient's (grad, failed) for a weight stack (R, m, n)
    and positive coefficients (R,), on (R, m) row iterates with power()'s
    steps: a division by the max-abs peak, then one by the norm. The
    reverse pass divides by the norm, then the peak, and sums the outer
    products as one product over the p + 1 stacked columns. A member with
    a nonzero W takes the error power() gives on its gram; a zero W, a
    failed member and an estimate at or below 0 get a zero gradient."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        m = gram(ws)
        iterates = [np.ones(ws.shape[:2])]
        peaks, norms = [], []
        v = iterates[0]
        for _ in range(p):
            v = _mv(m, v)
            peak = np.abs(v).max(axis=1)
            v = v / peak[:, None]
            nrm = np.sqrt(_dot(v, v))
            v = v / nrm[:, None]
            peaks.append(peak)
            norms.append(nrm)
            iterates.append(v)
        den = _dot(v, v)
        mv = _mv(m, v)
        num = _dot(mv, v)
        lam = num / den
        dnum = 1.0 / den
        dden = -num / (den * den)
        dv = 2.0 * mv * dnum[:, None] + 2.0 * v * dden[:, None]
        dus = [v * dnum[:, None]]
        for t in range(p, 0, -1):
            vt = iterates[t]
            du = (dv - vt * _dot(vt, dv)[:, None]) / norms[t - 1][:, None] / peaks[t - 1][:, None]
            dus.append(du)
            if t > 1:
                dv = _mv(m, du)
        gm = np.stack(dus, axis=2) @ np.stack(iterates[::-1], axis=1)
        dlam_dw = (gm + gm.swapaxes(-1, -2)) @ ws
        grad = dlam_dw * (cs / (2.0 * np.sqrt(lam)))[:, None, None]
    failed = {}
    for r in np.flatnonzero(ws.any(axis=(1, 2))).tolist():
        _, error = power(m[r], p)
        if error is not None:
            failed[r] = error
    live = lam > 0.0
    live[list(failed)] = False
    if not live.all():
        grad = np.where(live[:, None, None], grad, 0.0)
    return grad, failed


def jacobi(m, tol=1e-12, max_sweeps=60):
    """Every eigenvalue of a symmetric matrix by cyclic Jacobi rotations of
    numpy columns, about ten numpy calls per pivot."""
    a = np.array(m, dtype=float)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0]])
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return np.zeros(n)
    skip = tol * scale / (10.0 * n)
    for _ in range(max_sweeps):
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off <= tol * scale:
            return np.diag(a).copy()
        for k in range(n - 1):
            for l in range(k + 1, n):
                akl = a[k, l]
                if abs(akl) <= skip:
                    continue
                diff = a[l, l] - a[k, k]
                if abs(akl) < abs(diff) * 1e-36:
                    t = akl / diff
                else:
                    phi = diff / (2.0 * akl)
                    t = 1.0 / (abs(phi) + math.sqrt(phi * phi + 1.0))
                    if phi < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                akk = a[k, k]
                all_ = a[l, l]
                col_k = c * a[:, k] - s * a[:, l]
                col_l = s * a[:, k] + c * a[:, l]
                a[:, k] = col_k
                a[:, l] = col_l
                a[k, :] = col_k
                a[l, :] = col_l
                a[k, k] = akk - t * akl
                a[l, l] = all_ + t * akl
                a[k, l] = 0.0
                a[l, k] = 0.0
    raise RuntimeError(f"jacobi rotations did not converge in {max_sweeps} sweeps")


# penalties, losses and the objective

def _penalized(entry):
    return entry.kind != "none" and entry.c != 0.0


def lambdas(weights, regs):
    """(lambdas, errors) of a stack, weights one (R, out, in) array per
    layer and regs one RegularizerSpec per member. lambdas[r, k] is power()
    on the gram of member r's layer k, with the entry's p for eigen decay
    and 9 otherwise: 0 for a zero W, nan where the iteration fails. errors
    maps a member to its first error in layer order on a penalized layer
    (kind none and C == 0 are not): eigen decay where the iteration on a
    nonzero W fails, l1 and l2 where W is not finite."""
    lam = np.zeros((len(regs), len(weights)))
    errors = {}
    for r, reg in enumerate(regs):
        for k, entry in enumerate(reg.layers):
            w = weights[k][r]
            error = None
            if np.any(w):
                lam[r, k], error = power(gram(w), entry.p if entry.kind == "eigen_decay" else 9)
            if entry.kind != "eigen_decay":
                error = None if np.isfinite(w).all() else ValueError(NONFINITE_MATRIX)
            if error is not None and _penalized(entry):
                errors.setdefault(r, error)
    return lam, errors


def penalty(entry, w, lam):
    """One member's penalty on its layer weights w, lam the layer's lambda
    from lambdas()."""
    if not _penalized(entry):
        return 0.0
    if entry.kind == "l1":
        return entry.c * float(np.sum(np.abs(w)))
    if entry.kind == "l2":
        return entry.c * float(np.sum(w * w))
    return entry.c * math.sqrt(max(lam, 0.0))


def loss(kind, Yhat, Y):
    """The mean loss of a (n, L) batch, after the checks loss_batch made."""
    Yhat, Y = np.asarray(Yhat, dtype=float), np.asarray(Y, dtype=float)
    if Yhat.shape != Y.shape:
        raise ValueError(f"shape mismatch {Yhat.shape} vs {Y.shape}")
    n, L = Yhat.shape[-2:]
    if n == 0 or L == 0:
        raise ValueError("batch must be nonempty")
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; pick one of {LOSS_KINDS}")
    if not np.all(np.abs(Y) == 1.0):
        raise ValueError(f"{kind} targets must be encoded as +/-1")
    if kind == "mse":
        per_example = np.mean((Yhat - Y) ** 2, axis=-1)
    elif kind == "multiclass_hinge":
        per_example = np.sum(np.maximum(0.0, 1.0 - Y * Yhat), axis=-1)
    elif kind == "binary_cross_entropy":
        t = (Y + 1.0) / 2.0
        per_example = np.sum(np.logaddexp(0.0, Yhat) - t * Yhat, axis=-1)
    else:
        t = (Y + 1.0) / 2.0
        top = np.max(Yhat, axis=-1, keepdims=True)
        lse = top[..., 0] + np.log(np.sum(np.exp(Yhat - top), axis=-1))
        per_example = np.sum(t, axis=-1) * lse - np.sum(t * Yhat, axis=-1)
    return float(np.mean(per_example))


def loss_gradient(kind, Yhat, Y):
    """The gradient of the mean loss of a batch, or of each member's, with
    respect to each output row."""
    n, L = Yhat.shape[-2:]
    if kind == "mse":
        return 2.0 * (Yhat - Y) / (L * n)
    if kind == "multiclass_hinge":
        return np.where((1.0 - Y * Yhat) > 0.0, -Y, 0.0) / n
    t = (Y + 1.0) / 2.0
    if kind == "binary_cross_entropy":
        s = 1.0 / (1.0 + np.exp(-np.clip(Yhat, -500, 500)))
        return (s - t) / n
    z = Yhat - np.max(Yhat, axis=-1, keepdims=True)
    ez = np.exp(z)
    p = ez / np.sum(ez, axis=-1, keepdims=True)
    return (p * np.sum(t, axis=-1, keepdims=True) - t) / n


def dropout_masks(rates, hidden_dims, batch_size, rng):
    """Pre-scaled masks per hidden layer, None for a zero rate, or None
    when no rate is positive, drawn as sample_dropout_masks draws them."""
    if not any(r > 0 for r in rates):
        return None
    return [None if rate == 0.0 else (rng.random((batch_size, width)) >= rate) / (1.0 - rate)
            for rate, width in zip(rates, hidden_dims)]


def objective(model, X, Y, loss_kind, reg, masks=None):
    """total_objective on a 2-D model as [loss, *penalties, total], each
    penalty summed onto the loss in turn, raising what it raised."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[-1] != model.n_in:
        raise ValueError(f"batch has shape {X.shape} but the model expects (n, {model.n_in})")
    total = e = loss(loss_kind, forward_batch(model, X, masks)[-1], Y)
    reg.check_against(model)
    lam, errors = lambdas([layer.weights[None] for layer in model.layers], [reg])
    if errors:
        raise errors[0]
    pens = [penalty(entry, layer.weights, lam[0, k])
            for k, (entry, layer) in enumerate(zip(reg.layers, model.layers))]
    for pen in pens:
        total += pen
    return [e, *pens, total]


def model_gradient(model, X, Y, loss_kind, reg, h=1e-5, masks=None):
    """The finite-difference gradient as a list per parameter: one
    objective() call per +h and per -h perturbation of each entry, the
    entry perturbed in place and restored."""
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    grads = []
    for arr in [a for layer in model.layers for a in (layer.weights, layer.bias)]:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = objective(model, X, Y, loss_kind, reg, masks)[-1]
            flat[i] = orig - h
            fm = objective(model, X, Y, loss_kind, reg, masks)[-1]
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


# forward passes, backward and the SGD step

def forward_batch(model, X, masks=None):
    """The row-per-example forward pass of a 2-D or stacked model:
    (preactivations, activations before dropout, activations after it,
    outputs), the first three lists over hidden layers."""
    vs, acts, ys = [], [], []
    Y = X
    for k, layer in enumerate(model.hidden):
        V = Y @ layer.weights.swapaxes(-1, -2) + layer.bias[..., None, :]
        A = activation(layer.activation.kind, V)
        Y = A if masks is None or masks[k] is None else A * masks[k]
        vs.append(V)
        acts.append(A)
        ys.append(Y)
    out = model.output
    return vs, acts, ys, Y @ out.weights.swapaxes(-1, -2) + out.bias[..., None, :]


def backward(model, X, Y, loss_kind, regs, masks):
    """A stacked backward's (dW, db, failed), the activation derivative
    taken at the preactivations, each product a new array."""
    vs, _, ys, Yhat = forward_batch(model, X, masks)
    G = loss_gradient(loss_kind, Yhat, Y)
    K = len(model.hidden)
    dW, db = [None] * (K + 1), [None] * (K + 1)
    dW[K] = G.swapaxes(-1, -2) @ ys[-1]
    db[K] = G.sum(axis=-2)
    D = G @ model.output.weights
    for k in range(K - 1, -1, -1):
        layer = model.hidden[k]
        if masks is not None and masks[k] is not None:
            D = D * masks[k]
        D = D * slope(layer.activation.kind, vs[k])
        prev = X if k == 0 else ys[k - 1]
        dW[k] = D.swapaxes(-1, -2) @ prev
        db[k] = D.sum(axis=-2)
        if k > 0:
            D = D @ layer.weights
    failed = {}
    for k, layer in enumerate(model.layers):
        # one penalty gradient call per (kind, p) of the penalized members
        groups = {}
        for r, reg in enumerate(regs):
            if _penalized(reg.layers[k]):
                groups.setdefault((reg.layers[k].kind, reg.layers[k].p), []).append(r)
        w, d = layer.weights, dW[k]
        for (kind, p), members in groups.items():
            idx = np.array(members)
            c = np.array([regs[r].layers[k].c for r in members])
            wk = w if len(idx) == len(w) else w[idx]
            if kind == "l1":
                pg = c[:, None, None] * np.sign(wk)
            elif kind == "l2":
                pg = (2.0 * c)[:, None, None] * wk
            else:
                pg, errors = power_gradient(wk, c, p)
                for j, exc in errors.items():
                    failed.setdefault(int(idx[j]), exc)
                if errors:
                    ok = [j for j in range(len(idx)) if j not in errors]
                    idx, pg = idx[ok], pg[ok]
            if len(idx) == len(d):
                d = d + pg
            elif len(idx):
                d[idx] += pg
        dW[k] = d
    return dW, db, failed


def sgd(model, dataset, loss_kind, reg, config):
    """sgd_train's final parameters, each step the frozen backward on the
    stack of one and an update that forms each learning-rate product as a
    new array."""
    params = [a[None].copy() for layer in model.layers for a in (layer.weights, layer.bias)]
    velocity = [np.zeros_like(p) for p in params]
    rng = np.random.default_rng(config.seed)
    n = len(dataset)
    for _ in range(config.max_epochs):
        rows = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = rows[start:start + config.batch_size]
            masks = dropout_masks(reg.dropout, model.hidden_dims, len(idx), rng)
            if masks is not None:
                masks = [None if m is None else m[None] for m in masks]
            layers = []
            for k, layer in enumerate(model.layers):
                layer = copy.copy(layer)
                layer.weights, layer.bias = params[2 * k], params[2 * k + 1]
                layers.append(layer)
            dW, db, failed = backward(
                MlpModel(layers[:-1], layers[-1]), dataset.features[idx][None],
                dataset.encoded[idx][None], loss_kind, [reg], masks)
            assert failed == {}
            for p, g, v in zip(params, [a for pair in zip(dW, db) for a in pair], velocity):
                if config.momentum == 0.0:
                    p -= config.learning_rate * g
                else:
                    v *= config.momentum
                    v -= config.learning_rate * g
                    p += v
    return [p[0] for p in params]


# the margin path

@dataclass
class Trace:
    input: np.ndarray
    preactivations: list
    activations: list
    output: np.ndarray


def forward(model, x):
    """The column forward pass of one input x (n_in,), keeping the
    preactivations."""
    x = np.asarray(x, dtype=float)
    vs, ys = [], []
    y = x
    for layer in model.hidden:
        v = (layer.weights @ y[:, None])[:, 0] + layer.bias
        y = activation(layer.activation.kind, v)
        vs.append(v)
        ys.append(y)
    out = model.output
    return Trace(x, vs, ys, (out.weights @ y[:, None])[:, 0] + out.bias)


def input_gradient(model, trace, l):
    g = model.output.weights[l]
    for layer, v in zip(reversed(model.hidden), reversed(trace.preactivations)):
        g = (g * slope(layer.activation.kind, v)) @ layer.weights
    return g


def signed_distance(model, x_i, point, l, trace):
    g = input_gradient(model, trace, l)
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        raise DegenerateGradientError(
            f"class-{l} output gradient vanishes at the surface point"
        )
    return float(g @ (x_i - point)) / norm


def omega(model, trace):
    """(omega, lambda_activ): omega the product of W_k^T Gamma_k^T across
    hidden layers, lambda_activ the largest squared slope per layer."""
    lambda_activ = []
    product = None
    for layer, v in zip(model.hidden, trace.preactivations):
        slopes = slope(layer.activation.kind, v)
        lambda_activ.append(float(np.max(slopes**2)))
        factor = layer.weights.T * slopes  # W_k^T Gamma_k^T, Gamma diagonal
        product = factor if product is None else product @ factor
    return product, lambda_activ


def bound(model, x_i, point, l, y_target, trace, lambda_dom):
    """(bound, size) at one surface point. The bound's numerator is
    y_target * w_l omega^T (x_i - point); size is the bound with every
    product of its numerator taken by absolute value, so the numerator's
    sums round by a few ulps of it, whichever order multiplies them and
    however much they cancel. A zero denominator fails as per_point_bound
    fails the row, with the ZeroDivisionError as its context."""
    product, lambda_activ = omega(model, trace)
    w_row = model.output.weights[l]
    w_norm = float(np.linalg.norm(w_row))
    if w_norm == 0.0:
        raise DegenerateGradientError(f"output row {l} is zero")
    if not math.isfinite(w_norm):
        raise OverflowError(f"the norm of output row {l} overflows float range")
    dom_product = 1.0
    for lam in lambda_dom:
        dom_product *= max(lam, 0.0)
    activ_product = 1.0
    for lam in lambda_activ:
        activ_product *= lam
    denominator = w_norm * math.sqrt(activ_product) * math.sqrt(dom_product)
    size = np.abs(w_row)
    for layer, v in zip(reversed(model.hidden), reversed(trace.preactivations)):
        size = (size * np.abs(slope(layer.activation.kind, v))) @ np.abs(layer.weights)
    try:
        return (float(y_target * (w_row @ product.T @ (x_i - point))) / denominator,
                float(size @ np.abs(x_i - point)) / denominator)
    except ZeroDivisionError:
        raise DegenerateGradientError(
            f"class-{l} bound denominator underflows to zero at the surface point"
        ) from None


def surface_point(model, x_a, x_b, l):
    """find_surface_point as it bisected one segment at a time."""
    x_a, x_b = np.asarray(x_a, dtype=float), np.asarray(x_b, dtype=float)
    fa, fb = (float(forward(model, x).output[l]) for x in (x_a, x_b))
    if fa == 0.0 or fb == 0.0 or (fa > 0) == (fb > 0):
        raise NoCrossingError(
            f"class-{l} output does not change sign along the segment "
            f"({fa:.3e} vs {fb:.3e})"
        )
    lo, hi = x_a, x_b
    for _ in range(BISECTION_MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if not np.isfinite(mid).all():
            raise NonFiniteMidpointError("bisection midpoint entries must be finite")
        fm = float(forward(model, mid).output[l])
        if abs(fm) < BISECTION_TOL:
            return mid
        if (fm > 0) == (fa > 0):
            lo = mid
        else:
            hi = mid
    raise BisectionToleranceError(
        f"bisection did not reach |output| < {BISECTION_TOL:g} in "
        f"{BISECTION_MAX_STEPS} steps"
    )


def anchors(dataset, yl, i, anchors_per_example):
    """Example i's nearest opposite-prediction points, searched alone."""
    x_i = dataset.features[i]
    anchor_pool = np.arange(len(dataset))
    opposite = anchor_pool[yl[anchor_pool] * yl[i] < 0.0]
    if opposite.size < anchors_per_example:
        raise AnchorSamplingError(
            f"example {i}: only {opposite.size} opposite-prediction anchors "
            f"available, {anchors_per_example} requested"
        )
    dists = np.linalg.norm(dataset.features[opposite] - x_i, axis=1)
    order = np.argsort(dists, kind="stable")[:anchors_per_example]
    return dataset.features[opposite[order]]


def reports(model, dataset, l, anchors_per_example, sizes=None):
    """verify_theorem1 one point at a time: the anchor search, bisection,
    forward pass, distance and bound of each point alone, raising each
    error as it comes, and each layer's lambda from jacobi(). If sizes is a
    list, each point's bound size is appended to it."""
    yl = forward_batch(model, dataset.features)[-1][:, l]
    lambda_dom = [float(np.max(jacobi(gram(layer.weights)))) for layer in model.hidden]
    out = []
    for i in range(len(dataset)):
        if not dataset.encoded[i, l] * yl[i] > 0.0:
            continue
        x_i = dataset.features[i]
        target = float(dataset.encoded[i, l])
        records = []
        for anchor in anchors(dataset, yl, i, anchors_per_example):
            point = surface_point(model, x_i, anchor, l)
            trace = forward(model, point)
            d = signed_distance(model, x_i, point, l, trace)
            b, size = bound(model, x_i, point, l, target, trace, lambda_dom)
            if sizes is not None:
                sizes.append(size)
            records.append(
                PointRecord(d, b, target * d >= b - BOUND_EPS_REL * (1.0 + abs(d)))
            )
        out.append(MarginReport(
            index=i,
            cls=l,
            target=target,
            points=records,
            margin=min(r.distance * target for r in records),
            theorem_bound=min(r.bound for r in records),
            ok=all(r.ok for r in records),
        ))
    return out
