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
class output of every unfinished segment in one row pass, the forward
pass training runs. The surface points of the whole call then go through
one per_point_bound call per chunk: one forward pass of the chunk and one
input gradient per point, whose dot with the example's offset is the
numerator of both the signed distance and the bound term. A point's bits
depend on which points share its stack, and the stacks are the same on
every run.
"""

from dataclasses import dataclass
import math

import numpy as np

from .data import write_jsonl
from .linalg import _dot, as_matrix, as_vector, exact_dominant_eigen, gram
from .model import (
    SMOOTH_ACTIVATIONS,
    STACK_FLOATS,
    _row_pass,
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
    step evaluates the class output of every unfinished segment, in
    segment order, in one row pass, and a segment that has finished or
    failed never moves again. Returns (points, failed): points is (S, d),
    row s segment s's surface point, or nan where failed maps s to its
    NoCrossingError, NonFiniteMidpointError or BisectionToleranceError.
    Endpoints of the wrong shape or length, or with non-finite entries,
    raise ValueError for the whole call.
    """
    x_a = as_vector(x_a, stacked=True)
    x_b = as_vector(x_b, stacked=True)
    for x in (x_a, x_b):
        if x.shape[-1] != model.n_in:
            raise ValueError(
                f"input has length {x.shape[-1]} but the model expects {model.n_in}"
            )
    if x_a.shape != x_b.shape:
        raise ValueError(
            f"endpoint stacks have shapes {x_a.shape} and {x_b.shape}"
        )

    def class_output(X):
        return _row_pass(model, X)[2][:, l]

    fa = class_output(x_a)
    fb = class_output(x_b)
    points, failed = np.full(x_a.shape, np.nan), {}
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
        done = np.abs(fm) < BISECTION_TOL
        if done.any():
            points[ids[done]] = mid[done]
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
    return points, failed


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
    solver."""
    return [exact_dominant_eigen(gram(layer.weights)) for layer in model.hidden]


def per_point_bound(model, X, P, l, targets, lambda_dom):
    """First-order signed distance, and margin-bound term, of each example
    X[s] from its class-l surface point P[s].

    The distance divides the dot of the input gradient at P[s] with
    X[s] - P[s] by the gradient norm; negative values mean X[s] sits on
    the negative side. The bound term takes targets[s] times the same dot
    and divides it by |w_l| times the square roots of the layers' largest
    squared activation slopes at P[s] and of lambda_dom,
    layer_lambda_dom(model), instead of the gradient norm.

    X and P are (N, d) stacks and targets (N,) +/-1 values; the call makes
    one forward pass of P. Returns (distances, bounds, failed): failed maps
    a row whose gradient vanishes, or else whose bound denominator is
    zero, to its DegenerateGradientError; the value that could not be
    formed is nan. A target other than +/-1 or a zero output row raises
    for the whole call, and so does an output row whose norm overflows
    (OverflowError).
    """
    _require_smooth(model)
    X = as_vector(X, stacked=True)
    trace = forward(model, as_vector(P, stacked=True))
    if X.shape != trace.input.shape:
        raise ValueError(
            f"example and point stacks have shapes {X.shape} and {trace.input.shape}"
        )
    diff = X - trace.input
    g = input_gradient(model, trace, l)
    wrong = [t for t in np.ravel(targets).tolist() if t not in (-1.0, 1.0)]
    if wrong:
        raise ValueError(f"target must be +/-1, got {wrong[0]}")
    w_row = model.output.weights[l]
    w_norm = float(np.linalg.norm(w_row))
    if w_norm == 0.0:
        raise DegenerateGradientError(f"output row {l} is zero")
    if not math.isfinite(w_norm):
        raise OverflowError(f"the norm of output row {l} overflows float range")
    lambda_activ = [np.max(layer.activation.slope(y)**2, axis=-1)
                    for layer, y in zip(model.hidden, trace.activations)]
    # left folds, as the layer loop multiplied them
    dom_product = math.prod(max(lam, 0.0) for lam in lambda_dom)
    denom = w_norm * np.sqrt(math.prod(lambda_activ)) * math.sqrt(dom_product)
    numerator = _dot(g, diff)
    norm = np.sqrt(_dot(g, g))
    vanishing, zero = norm == 0.0, denom == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        distances = np.where(vanishing, np.nan, numerator / norm)
        bounds = np.where(zero, np.nan,
                          np.asarray(targets, dtype=float) * numerator / denom)
    failed = {
        s: DegenerateGradientError(
            f"class-{l} output gradient vanishes at the surface point" if vanishing[s]
            else f"class-{l} bound denominator underflows to zero at the surface point")
        for s in np.flatnonzero(vanishing | zero).tolist()
    }
    return distances, bounds, failed


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
    second makes one per_point_bound call per chunk of the surface points
    found, about model.STACK_FLOATS floats each. Errors come as the
    one-example-at-a-time loop raised them: the first failing example
    raises, whatever the stage, and within an example the anchor search
    comes first, then the segments in anchor order, then the points in
    anchor order.
    Misclassified examples are skipped, so a dataset with no correct
    examples passes vacuously with an empty report list. The layer
    eigenvalues are computed once, on entry.
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
    found, points, pending = [], [], None
    try:
        for i, anchors in _nearest_anchors(dataset, yl, correct, anchors_per_example):
            stack, failed = find_surface_point(
                model, np.repeat(dataset.features[i][None], len(anchors), axis=0), anchors, l)
            if failed:
                raise failed[min(failed)]
            found.append(i)
            points.append(stack)
    except (AnchorSamplingError, BisectionToleranceError, ValueError) as exc:
        pending = exc

    # stage 2: one stacked per-point pass over a chunk of points at a time
    owners = np.repeat(np.asarray(found, dtype=int), anchors_per_example)
    points = np.asarray(points, dtype=float).reshape(len(owners), model.n_in)
    distances = np.empty(len(owners))
    bounds = np.empty(len(owners))
    # a point's largest array in the per-point pass is one layer's input or
    # output vector
    chunk = max(1, STACK_FLOATS // max(model.n_in, *model.hidden_dims, model.n_out))
    for start in range(0, len(owners), chunk):
        rows = slice(start, start + chunk)
        d, b, failed = per_point_bound(model, dataset.features[owners[rows]], points[rows],
                                       l, targets[owners[rows]], lambda_dom)
        if failed:
            raise failed[min(failed)]
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
    w = as_matrix(w)
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
        "kind": "margin_report",
        "note": "margin and theorem_bound minimize over the candidate "
        "surface points only (upper estimates of the true minima)",
        "schema_version": 1,
        "surface_points": "segment bisection toward opposite-prediction "
        "anchors; distances use the gradient at each surface point",
    }
    write_jsonl(path, header, [report_to_dict(report) for report in reports])
