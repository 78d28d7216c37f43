"""Numerical verification of the classification-margin lower bound.

For a correctly classified example and any point on the class-l decision
surface, the signed first-order distance can be bounded from below using
only per-layer dominant eigenvalues: the gradient norm in the distance
denominator is at most the product of the layer spectral norms times the
largest activation slopes. Surface points are located by bisection toward
opposite-prediction anchors; the bound factors use the exact eigensolver so
a violation cannot be blamed on eigenvalue underestimation.

The layer eigenvalues depend on the weights alone, so verify_theorem1
computes them once per call (layer_lambda_dom). The segments from one
example to its anchors are bisected together: each step evaluates the
class output of every unfinished segment in one column pass, which gives
each segment the bits of its bisection alone. The surface points of the
whole call then go through one stacked per-point pass per chunk: one
forward pass, shared by the signed distances and the bound terms, and
row-wise products that give each point the bits of its single-point
calls.
"""

from dataclasses import dataclass
import json
import math

import numpy as np

from .linalg import _dot, as_vector, exact_dominant_eigen, gram
from .model import (
    SMOOTH_ACTIVATIONS,
    STACK_FLOATS,
    _column_pass,
    forward,
    forward_batch,
    input_gradient,
)

BISECTION_TOL = 1e-10
BISECTION_MAX_STEPS = 200
BOUND_EPS_REL = 1e-6


class NoCrossingError(ValueError):
    """Segment endpoints put the class output on the same side."""


class NonFiniteMidpointError(ValueError):
    """A bisection midpoint left float range: endpoint features near the
    float maximum overflow when summed."""


class BisectionToleranceError(RuntimeError):
    """Bisection exhausted its step budget above the residual tolerance."""


class DegenerateGradientError(RuntimeError):
    """Output gradient vanished where a direction was needed."""


class AnchorSamplingError(RuntimeError):
    """Not enough opposite-prediction points to anchor the bisections."""


@dataclass
class SurfacePoint:
    point: np.ndarray
    cls: int
    residual: float


@dataclass
class PointRecord:
    distance: float
    bound: float
    ok: bool


@dataclass
class MarginReport:
    """Per-example record of the margin check.

    margin and theorem_bound minimize over the candidate surface points
    only, so margin is an upper estimate of the true margin (the real
    minimizer may not be among the anchors); the per-point inequality in
    points is the assertable statement.
    """

    index: int
    cls: int
    target: float  # +/-1 for the inspected class
    points: list  # list[PointRecord]
    margin: float  # min over points of target * distance
    theorem_bound: float  # min over points of the bound terms
    ok: bool


def find_surface_point(model, x_a, x_b, l):
    """Bisect each segment [x_a[s], x_b[s]] until the class-l output
    magnitude at its midpoint drops below BISECTION_TOL.

    x_a and x_b are (S, d) stacks of endpoints, bisected together: each
    step evaluates the class output of every unfinished segment in one
    column pass, and a segment that has finished or failed never moves
    again. Returns (points, failed): points[s] is segment s's SurfacePoint,
    or None where failed maps s to its NoCrossingError,
    NonFiniteMidpointError or BisectionToleranceError. Every segment takes
    the steps, and has the bits, of its bisection alone.

    1-D endpoints are the stack of one: the call returns the SurfacePoint
    or raises the segment's error. Endpoints of the wrong shape or length,
    or with non-finite entries, raise ValueError for the whole call.
    """
    single = np.ndim(x_a) == 1
    x_a = as_vector(x_a, stacked=not single)
    x_b = as_vector(x_b, stacked=not single)
    for x in (x_a, x_b):
        if x.shape[-1] != model.n_in:
            raise ValueError(
                f"input has length {x.shape[-1]} but the model expects {model.n_in}"
            )
    if single:
        x_a, x_b = x_a[None], x_b[None]
    elif x_a.shape != x_b.shape:
        raise ValueError(
            f"endpoint stacks have shapes {x_a.shape} and {x_b.shape}"
        )

    def class_output(X):
        return _column_pass(model, X)[2][:, l]

    fa = class_output(x_a)
    fb = class_output(x_b)
    points, failed = [None] * len(x_a), {}
    crossing = (fa != 0.0) & (fb != 0.0) & ((fa > 0) != (fb > 0))
    for s in np.flatnonzero(~crossing).tolist():
        failed[s] = NoCrossingError(
            f"class-{l} output does not change sign along the segment "
            f"({fa[s]:.3e} vs {fb[s]:.3e})"
        )
    # the unfinished segments, compacted whenever some finish
    ids = np.flatnonzero(crossing)
    lo, hi, positive_a = x_a[ids], x_b[ids], fa[ids] > 0
    for _ in range(BISECTION_MAX_STEPS):
        if ids.size == 0:
            break
        mid = 0.5 * (lo + hi)
        finite = np.isfinite(mid)
        if not finite.all():
            finite = finite.all(axis=1)
            for s in ids[~finite].tolist():
                failed[s] = NonFiniteMidpointError(
                    "bisection midpoint entries must be finite")
            ids, lo, hi, positive_a, mid = (
                a[finite] for a in (ids, lo, hi, positive_a, mid))
        fm = class_output(mid)
        residual = np.abs(fm)
        done = residual < BISECTION_TOL
        if done.any():
            for s, point, r in zip(ids[done].tolist(), mid[done], residual[done]):
                points[s] = SurfacePoint(point, l, float(r))
            ids, lo, hi, positive_a, mid, fm = (
                a[~done] for a in (ids, lo, hi, positive_a, mid, fm))
        to_lo = ((fm > 0) == positive_a)[:, None]
        lo = np.where(to_lo, mid, lo)
        hi = np.where(to_lo, hi, mid)
    for s in ids.tolist():
        failed[s] = BisectionToleranceError(
            f"bisection did not reach |output| < {BISECTION_TOL:g} in "
            f"{BISECTION_MAX_STEPS} steps"
        )
    if not single:
        return points, failed
    if failed:
        raise failed[0]
    return points[0]


def _unstack(single, values, failed):
    # a stack returns its values and failed rows; the stack of one
    # returns its float or raises its row's error
    if not single:
        return values, failed
    if failed:
        raise failed[0]
    return float(values[0])


def signed_distance(model, x_i, surface_point, l, *, trace):
    """First-order signed distance from x_i to the surface point, using the
    output gradient evaluated at the surface point. Negative values mean
    x_i sits on the negative side of the class-l output.

    trace is forward(model, surface_point.point). x_i may be an (N, d)
    stack, with surface_point.point (N, d) and a stacked trace: the call
    returns (distances, failed), failed mapping a row whose gradient
    vanishes to its DegenerateGradientError (its distance is nan). Each
    row has the bits of its single-point call, which returns the float or
    raises the error."""
    single = np.ndim(x_i) == 1
    x_i = as_vector(x_i, stacked=not single)
    g = input_gradient(model, trace, l)
    diff = x_i - surface_point.point
    if single:
        g, diff = g[None], diff[None]
    norm = np.sqrt(_dot(g, g))
    degenerate = norm == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        distance = np.where(degenerate, np.nan, _dot(g, diff) / norm)
    failed = {
        s: DegenerateGradientError(
            f"class-{l} output gradient vanishes at the surface point")
        for s in np.flatnonzero(degenerate).tolist()
    }
    return _unstack(single, distance, failed)


@dataclass
class BoundIngredients:
    omega: np.ndarray  # product of W_k^T Gamma_k^T across hidden layers
    lambda_activ: list  # dominant eigenvalue of Gamma Gamma^T per layer
    lambda_dom: list  # dominant eigenvalue of W W^T per hidden layer


def _require_smooth(model):
    for layer in model.hidden:
        if layer.activation.kind not in SMOOTH_ACTIVATIONS:
            raise ValueError(
                f"margin analysis needs differentiable activations "
                f"({'/'.join(SMOOTH_ACTIVATIONS)}); got "
                f"{layer.activation.kind!r}"
            )


def layer_lambda_dom(model):
    """Dominant eigenvalue of W W^T for each hidden layer, from the exact
    solver. Raises ValueError for a layer wider than its side cap."""
    return [exact_dominant_eigen(gram(layer.weights)) for layer in model.hidden]


def bound_ingredients(model, surface_point, l, *, trace, lambda_dom):
    """Per-layer factors of the margin bound, evaluated at a surface point.

    Gamma_k is the diagonal of activation derivatives at the layer's
    pre-activation; omega transposed equals the output-row input gradient;
    the eigenvalues come from the exact solver. trace is
    forward(model, surface_point.point) and lambda_dom is
    layer_lambda_dom(model). A stacked trace gives omega as (N, n_in, h)
    and each lambda_activ entry as an (N,) array, each point with the bits
    of its single-point call.
    """
    _require_smooth(model)
    lambda_activ = []
    omega = None
    for layer, v in zip(model.hidden, trace.preactivations):
        slopes = layer.activation.deriv(v)
        peak = np.max(slopes**2, axis=-1)
        lambda_activ.append(peak if np.ndim(peak) else float(peak))
        # W_k^T Gamma_k^T, Gamma diagonal
        factor = layer.weights.T * slopes[..., None, :]
        omega = factor if omega is None else omega @ factor
    return BoundIngredients(omega, lambda_activ, list(lambda_dom))


def per_point_bound(model, x_i, surface_point, l, y_target, *, trace,
                    lambda_dom):
    """One term of the margin lower bound: the gradient numerator rescaled
    by the layer spectral norms and activation slopes instead of the true
    gradient norm. trace and lambda_dom are passed to bound_ingredients.

    x_i may be an (N, d) stack, with y_target an (N,) array and a stacked
    surface point and trace: the call returns (bounds, failed), failed
    mapping a row whose denominator is zero to the ZeroDivisionError its
    single-point call raises (its bound is nan). A target other than +/-1
    or a zero output row raises for the whole call."""
    single = np.ndim(x_i) == 1
    x_i = as_vector(x_i, stacked=not single)
    wrong = [t for t in np.ravel(y_target).tolist() if t not in (-1.0, 1.0)]
    if wrong:
        raise ValueError(f"target must be +/-1, got {wrong[0]}")
    ing = bound_ingredients(model, surface_point, l, trace=trace,
                            lambda_dom=lambda_dom)
    w_row = model.output.weights[l]
    w_norm = float(np.linalg.norm(w_row))
    if w_norm == 0.0:
        raise DegenerateGradientError(f"output row {l} is zero")
    u = w_row @ ing.omega.swapaxes(-1, -2)
    diff = x_i - surface_point.point
    if single:
        u, diff = u[None], diff[None]
    numerator = np.asarray(y_target, dtype=float) * _dot(u, diff)
    dom_product = 1.0
    for lam in ing.lambda_dom:
        dom_product *= max(lam, 0.0)
    activ_product = 1.0
    for lam in ing.lambda_activ:
        activ_product *= lam
    denom = w_norm * np.sqrt(activ_product) * math.sqrt(dom_product)
    zero = denom == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(zero, np.nan, numerator / denom)
    failed = {s: ZeroDivisionError("float division by zero")
              for s in np.flatnonzero(zero).tolist()}
    return _unstack(single, bound, failed)


def _nearest_anchors(dataset, yl, examples, k):
    """Yield (i, anchors) for each example i in order: the features of its
    k nearest opposite-prediction points by euclidean distance, ties to the
    lower index. Raises AnchorSamplingError at the first example with fewer
    than k of them.

    Each sign group's features are gathered once per call, and the
    distances of a chunk of examples come from one norm over the chunk,
    each row with the bits of np.linalg.norm(features[opposite] - x_i,
    axis=1).
    """
    features = dataset.features
    groups = {}
    for positive in (True, False):
        # the points a positive example's opposite set is drawn from
        group = np.flatnonzero(yl < 0.0 if positive else yl > 0.0)
        groups[positive] = (group, features[group])
    chunk = max(1, STACK_FLOATS // max(features.size, 1))
    for start in range(0, len(examples), chunk):
        ids = examples[start:start + chunk]
        sides = yl[ids] > 0.0
        dists, rows = {}, {True: 0, False: 0}
        for side, (group, group_features) in groups.items():
            x = features[ids[sides == side]]
            dists[side] = np.linalg.norm(group_features - x[:, None, :], axis=-1)
        for i, side in zip(ids.tolist(), sides.tolist()):
            group, _ = groups[side]
            d = dists[side][rows[side]]
            rows[side] += 1
            # a product that underflows to zero is not opposite
            opposite = yl[group] * yl[i] < 0.0
            if not opposite.all():
                group, d = group[opposite], d[opposite]
            if group.size < k:
                raise AnchorSamplingError(
                    f"example {i}: only {group.size} opposite-prediction anchors "
                    f"available, {k} requested"
                )
            yield i, features[group[np.argsort(d, kind="stable")[:k]]]


def _point_floats(model):
    # the largest per-point array of the per-point pass: a layer factor of
    # the omega chain, or omega itself
    return max(max(model.n_in, layer.in_dim) * layer.out_dim
               for layer in model.hidden)


def verify_theorem1(model, dataset, l, anchors_per_example=5):
    """Check the per-surface-point margin inequality over a labeled dataset.

    For every example the model classifies correctly for class l (target
    sign matches the class-l output sign), bisect toward the nearest
    opposite-prediction anchors and require

        target * distance >= bound - 1e-6 * (1 + |distance|)

    at each surface point. Returns (reports, all_ok), ordered by example
    index.

    The check runs in two stages. The first walks the examples in order:
    the anchor search, then one find_surface_point stack per example. The
    second makes the per-point calls over every surface point found, in
    stacks of about model.STACK_FLOATS floats. Errors come as the
    one-example-at-a-time loop raised them: the first failing example
    raises, whatever the stage, and within an example the anchor search
    comes first, then the segments in anchor order, then point by point
    the signed distance before the bound.
    Misclassified examples are skipped, so a dataset with no correct
    examples passes vacuously with an empty report list. The layer
    eigenvalues are computed on entry, so a hidden layer wider than the
    exact solver's cap raises ValueError before any bisection.
    """
    _require_smooth(model)
    if not 0 <= l < model.n_out:
        raise ValueError(f"class index {l} out of range for {model.n_out} outputs")
    if anchors_per_example < 1:
        raise ValueError("anchors_per_example must be >= 1")
    lambda_dom = layer_lambda_dom(model)
    _, _, Yhat = forward_batch(model, dataset.features)
    yl = Yhat[:, l]
    targets = dataset.encoded[:, l]
    correct = np.flatnonzero(targets * yl > 0.0)

    # stage 1: the surface points, example by example; an error waits
    # until the examples before it have had their per-point calls
    found, points, residuals, pending = [], [], [], None
    try:
        for i, anchors in _nearest_anchors(dataset, yl, correct, anchors_per_example):
            x_i = dataset.features[i]
            stack, failed = find_surface_point(
                model, np.broadcast_to(x_i, anchors.shape), anchors, l)
            if failed:
                raise failed[min(failed)]
            found.append(i)
            points += [sp.point for sp in stack]
            residuals += [sp.residual for sp in stack]
    except (AnchorSamplingError, BisectionToleranceError, ValueError) as exc:
        pending = exc

    # stage 2: one stacked per-point pass over a chunk of points at a time
    owners = np.repeat(np.asarray(found, dtype=int), anchors_per_example)
    points = np.asarray(points, dtype=float).reshape(len(owners), model.n_in)
    residuals = np.asarray(residuals, dtype=float)
    distances = np.empty(len(owners))
    bounds = np.empty(len(owners))
    chunk = max(1, STACK_FLOATS // _point_floats(model))
    for start in range(0, len(owners), chunk):
        rows = slice(start, start + chunk)
        x_i = dataset.features[owners[rows]]
        sp = SurfacePoint(points[rows], l, residuals[rows])
        trace = forward(model, sp.point)
        d, d_failed = signed_distance(model, x_i, sp, l, trace=trace)
        b, b_failed = per_point_bound(model, x_i, sp, l, targets[owners[rows]],
                                      trace=trace, lambda_dom=lambda_dom)
        if d_failed or b_failed:
            s = min(d_failed.keys() | b_failed.keys())
            raise d_failed[s] if s in d_failed else b_failed[s]
        distances[rows], bounds[rows] = d, b
    if pending is not None:
        raise pending

    ok = targets[owners] * distances >= bounds - BOUND_EPS_REL * (1.0 + abs(distances))
    reports = []
    for start in range(0, len(owners), anchors_per_example):
        rows = range(start, start + anchors_per_example)
        records = [PointRecord(float(distances[s]), float(bounds[s]), bool(ok[s]))
                   for s in rows]
        i = owners[start]
        target = float(targets[i])
        reports.append(MarginReport(
            index=int(i),
            cls=int(l),
            target=target,
            points=records,
            margin=float(min(r.distance * target for r in records)),
            theorem_bound=float(min(r.bound for r in records)),
            ok=all(r.ok for r in records),
        ))
    return reports, all(r.ok for r in reports)


def verify_denominator_inequality(w_row, gamma, w):
    """Check that the squared gradient-row norm through one layer is bounded
    by the layer's dominant eigenvalue times the slope-scaled row norm:

        || W^T Gamma^T w^T ||^2  <=  lambda_dom(W W^T) * || Gamma^T w^T ||^2

    gamma is the vector of activation slopes, the diagonal of Gamma.
    """
    w_row = as_vector(w_row)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != w_row.shape:
        raise ValueError(
            f"gamma shape {gamma.shape} does not match row shape {w_row.shape}"
        )
    u = gamma * w_row
    t = u @ w
    lhs = float(t @ t)
    rhs = exact_dominant_eigen(gram(w)) * float(u @ u)
    return lhs <= rhs + 1e-9 * max(1.0, abs(lhs), abs(rhs))


def report_to_dict(report):
    return {
        "index": report.index,
        "class": report.cls,
        "target": report.target,
        "distances": [r.distance for r in report.points],
        "bounds": [r.bound for r in report.points],
        "margin": report.margin,
        "theorem_bound": report.theorem_bound,
        "ok": report.ok,
    }


def save_margin_reports(reports, path):
    header = {
        "schema_version": 1,
        "kind": "margin_report",
        "surface_points": "segment bisection toward opposite-prediction "
        "anchors; distances use the gradient at each surface point",
        "note": "margin and theorem_bound minimize over the candidate "
        "surface points only (upper estimates of the true minima)",
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for report in reports:
            fh.write(json.dumps(report_to_dict(report), sort_keys=True) + "\n")
