"""Numerical verification of the classification-margin lower bound.

For a correctly classified example and any point on the class-l decision
surface, the signed first-order distance can be bounded from below using
only per-layer dominant eigenvalues: the gradient norm in the distance
denominator is at most the product of the layer spectral norms times the
largest activation slopes. Surface points are located by bisection toward
opposite-prediction anchors; the bound factors use the exact eigensolver so
a violation cannot be blamed on eigenvalue underestimation.

The layer eigenvalues depend on the weights alone, so verify_theorem1
computes them once per call (layer_lambda_dom). Each surface point then
costs one forward pass, shared by its signed distance and its bound term;
the bisection steps that find it evaluate the class output without
building a trace.
"""

from dataclasses import dataclass
import json
import math

import numpy as np

from .linalg import as_vector, exact_dominant_eigen, gram
from .model import SMOOTH_ACTIVATIONS, forward, forward_batch, input_gradient

BISECTION_TOL = 1e-10
BISECTION_MAX_STEPS = 200
BOUND_EPS_REL = 1e-6


class NoCrossingError(ValueError):
    """Segment endpoints put the class output on the same side."""


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


def _class_output(model, x, l):
    # the per-layer arithmetic of forward(), without its input checks or trace
    y = x
    for layer in model.hidden:
        y = layer.activation.value(layer.weights @ y + layer.bias)
    return float((model.output.weights @ y + model.output.bias)[l])


def find_surface_point(model, x_a, x_b, l, tol=BISECTION_TOL):
    """Bisect the segment [x_a, x_b] until the class-l output magnitude
    drops below tol."""
    x_a = as_vector(x_a)
    x_b = as_vector(x_b)
    for x in (x_a, x_b):
        if x.shape[0] != model.n_in:
            raise ValueError(
                f"input has length {x.shape[0]} but the model expects {model.n_in}"
            )
    fa = _class_output(model, x_a, l)
    fb = _class_output(model, x_b, l)
    if fa == 0.0 or fb == 0.0 or (fa > 0) == (fb > 0):
        raise NoCrossingError(
            f"class-{l} output does not change sign along the segment "
            f"({fa:.3e} vs {fb:.3e})"
        )
    lo, hi = x_a, x_b
    for _ in range(BISECTION_MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if not np.isfinite(mid).all():
            raise ValueError("vector entries must be finite")
        fm = _class_output(model, mid, l)
        if abs(fm) < tol:
            return SurfacePoint(mid, l, abs(fm))
        if (fm > 0) == (fa > 0):
            lo = mid
        else:
            hi = mid
    raise BisectionToleranceError(
        f"bisection did not reach |output| < {tol:g} in "
        f"{BISECTION_MAX_STEPS} steps"
    )


def signed_distance(model, x_i, surface_point, l, *, trace=None):
    """First-order signed distance from x_i to the surface point, using the
    output gradient evaluated at the surface point. Negative values mean
    x_i sits on the negative side of the class-l output.

    trace, when given, is forward(model, surface_point.point)."""
    x_i = as_vector(x_i)
    if trace is None:
        trace = forward(model, surface_point.point)
    g = input_gradient(model, trace, l)
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        raise DegenerateGradientError(
            f"class-{l} output gradient vanishes at the surface point"
        )
    return float(g @ (x_i - surface_point.point)) / norm


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


def bound_ingredients(model, surface_point, l, *, trace=None, lambda_dom=None):
    """Per-layer factors of the margin bound, evaluated at a surface point.

    Gamma_k is the diagonal of activation derivatives at the layer's
    pre-activation; omega transposed equals the output-row input gradient;
    the eigenvalues come from the exact solver. trace, when given, is
    forward(model, surface_point.point); lambda_dom, when given, is
    layer_lambda_dom(model).
    """
    _require_smooth(model)
    if trace is None:
        trace = forward(model, surface_point.point)
    if lambda_dom is None:
        lambda_dom = layer_lambda_dom(model)
    lambda_activ = []
    omega = None
    for layer, v in zip(model.hidden, trace.preactivations):
        slopes = layer.activation.deriv(v)
        lambda_activ.append(float(np.max(slopes**2)))
        factor = layer.weights.T * slopes  # W_k^T Gamma_k^T, Gamma diagonal
        omega = factor if omega is None else omega @ factor
    return BoundIngredients(omega, lambda_activ, list(lambda_dom))


def per_point_bound(model, x_i, surface_point, l, y_target, *, trace=None,
                    lambda_dom=None):
    """One term of the margin lower bound: the gradient numerator rescaled
    by the layer spectral norms and activation slopes instead of the true
    gradient norm. trace and lambda_dom are passed to bound_ingredients."""
    x_i = as_vector(x_i)
    if y_target not in (-1.0, 1.0, -1, 1):
        raise ValueError(f"target must be +/-1, got {y_target}")
    ing = bound_ingredients(model, surface_point, l, trace=trace,
                            lambda_dom=lambda_dom)
    w_row = model.output.weights[l]
    w_norm = float(np.linalg.norm(w_row))
    if w_norm == 0.0:
        raise DegenerateGradientError(f"output row {l} is zero")
    numerator = float(y_target * (w_row @ ing.omega.T @ (x_i - surface_point.point)))
    dom_product = 1.0
    for lam in ing.lambda_dom:
        dom_product *= max(lam, 0.0)
    activ_product = 1.0
    for lam in ing.lambda_activ:
        activ_product *= lam
    denom = w_norm * math.sqrt(activ_product) * math.sqrt(dom_product)
    return numerator / denom


def _report_for_example(model, dataset, i, l, yl, anchor_pool, anchors_per_example,
                        tol, lambda_dom):
    x_i = dataset.features[i]
    target = float(dataset.encoded[i, l])
    # nearest opposite-prediction anchors, by euclidean distance
    opposite = anchor_pool[yl[anchor_pool] * yl[i] < 0.0]
    if opposite.size < anchors_per_example:
        raise AnchorSamplingError(
            f"example {i}: only {opposite.size} opposite-prediction anchors "
            f"available, {anchors_per_example} requested"
        )
    dists = np.linalg.norm(dataset.features[opposite] - x_i, axis=1)
    order = np.argsort(dists, kind="stable")[:anchors_per_example]
    records = []
    for j in opposite[order]:
        sp = find_surface_point(model, x_i, dataset.features[j], l, tol)
        trace = forward(model, sp.point)
        d = signed_distance(model, x_i, sp, l, trace=trace)
        bound = per_point_bound(model, x_i, sp, l, target, trace=trace,
                                lambda_dom=lambda_dom)
        ok = target * d >= bound - BOUND_EPS_REL * (1.0 + abs(d))
        records.append(PointRecord(float(d), float(bound), bool(ok)))
    margin = min(r.distance * target for r in records)
    theorem_bound = min(r.bound for r in records)
    return MarginReport(
        index=int(i),
        cls=int(l),
        target=target,
        points=records,
        margin=float(margin),
        theorem_bound=float(theorem_bound),
        ok=all(r.ok for r in records),
    )


def verify_theorem1(model, dataset, l, anchors_per_example=5, tol=BISECTION_TOL):
    """Check the per-surface-point margin inequality over a labeled dataset.

    For every example the model classifies correctly for class l (target
    sign matches the class-l output sign), bisect toward the nearest
    opposite-prediction anchors and require

        target * distance >= bound - 1e-6 * (1 + |distance|)

    at each surface point. Returns (reports, all_ok); examples are checked
    one after another and reports are ordered by example index.
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
    correct = [
        i for i in range(len(dataset)) if dataset.encoded[i, l] * yl[i] > 0.0
    ]
    anchor_pool = np.arange(len(dataset))
    reports = [
        _report_for_example(
            model, dataset, i, l, yl, anchor_pool, anchors_per_example, tol,
            lambda_dom,
        )
        for i in correct
    ]
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
