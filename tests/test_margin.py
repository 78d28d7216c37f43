from dataclasses import dataclass
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from conftest import linear_layer, reference_deriv, rotation, small_model

from eigendecay import margin
from eigendecay.data import Dataset, gen_two_gaussians
from eigendecay.linalg import as_vector
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
    find_surface_point,
    layer_lambda_dom,
    per_point_bound,
    report_to_dict,
    save_margin_reports,
    verify_denominator_inequality,
    verify_theorem1,
)
from eigendecay.model import (
    Activation,
    DenseLayer,
    MlpModel,
    _column_pass,
    forward,
    forward_batch,
    init_mlp,
    input_gradient,
)
from eigendecay.objectives import LayerPenalty, RegularizerSpec
from eigendecay.train import TrainConfig, evaluate, sgd_train


def _projector_model():
    """Linear model computing yhat = (x1, x2): class-0 surface is x1 = 0."""
    return MlpModel([linear_layer(np.eye(2))], linear_layer(np.eye(2)))


# The stack of one, with the layer eigenvalues that verify_theorem1 hands
# per_point_bound computed for each call

def _surface_point(model, x_a, x_b, l):
    """find_surface_point on one segment: its point, or its error raised."""
    points, failed = find_surface_point(model, np.array([x_a], dtype=float),
                                        np.array([x_b], dtype=float), l)
    if failed:
        raise failed[0]
    return points[0]


def _per_point(model, x_i, point, l, y_target=1.0):
    """per_point_bound on one point: (distance, bound), or its error raised."""
    d, b, failed = per_point_bound(model, np.array([x_i], dtype=float),
                                   np.array([point], dtype=float), l, [y_target],
                                   layer_lambda_dom(model))
    if failed:
        raise failed[0]
    return d[0], b[0]


def _distance(model, x_i, point, l):
    return _per_point(model, x_i, point, l)[0]


def _bound(model, x_i, point, l, y_target):
    return _per_point(model, x_i, point, l, y_target)[1]


class TestFindSurfacePoint:
    def test_linear_root(self):
        model = _projector_model()
        points, failed = find_surface_point(model, np.array([[-1.0, 0.0]]),
                                            np.array([[1.0, 0.0]]), 0)
        assert failed == {}
        np.testing.assert_allclose(points[0], [0.0, 0.0], atol=1e-10)
        assert abs(forward(model, points[0]).output[0]) < 1e-10

    def test_endpoint_length_checked(self):
        model = _projector_model()
        with pytest.raises(ValueError, match="expects 2"):
            find_surface_point(model, np.array([[-1.0, 0.0, 0.0]]), np.array([[1.0, 0.0]]), 0)

    @pytest.mark.parametrize("x_a, x_b, match", [
        ([[-1.0, 0.0]], [[1.0, 0.0, 0.0]], "expects 2"),
        ([[-1.0, 0.0]] * 2, [[1.0, 0.0]] * 3, "shapes"),
        ([-1.0, 0.0], [[1.0, 0.0]], "2-d"),
        ([[-1.0, np.inf]], [[1.0, 0.0]], "finite"),
    ], ids=["length", "stack_sizes", "mixed_ranks", "non_finite"])
    def test_stacked_endpoints_checked_for_the_whole_call(self, x_a, x_b, match):
        model = _projector_model()
        with pytest.raises(ValueError, match=match):
            find_surface_point(model, np.array(x_a), np.array(x_b), 0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_each_segment_keeps_its_own_error(self):
        # the class-0 output is 1e20-steep in x1 and offset by 0.5, so near
        # the root it moves in steps of 4096 and never drops below the
        # tolerance; x2 has no weight, and at x2 = 1e308 the first midpoint
        # overflows
        lin = Activation("linear")
        model = MlpModel(
            [DenseLayer(np.array([[1e20, 0.0]]), np.array([-3e19]), lin)],
            DenseLayer(np.array([[1.0], [-1.0]]), np.array([0.5, -0.5]), lin),
        )
        x_a = np.array([[-1.0, 0.0], [-1.0, 1e308]])
        x_b = np.array([[1.0, 0.0], [1.0, 1e308]])
        points, failed = find_surface_point(model, x_a, x_b, 0)
        assert np.isnan(points).all()
        errors = (BisectionToleranceError, NonFiniteMidpointError)
        assert [type(failed[s]) for s in (0, 1)] == list(errors)
        assert str(failed[0]) == "bisection did not reach |output| < 1e-10 in 200 steps"
        assert str(failed[1]) == "bisection midpoint entries must be finite"
        for s, error in enumerate(errors):
            _, one = find_surface_point(model, x_a[s:s + 1], x_b[s:s + 1], 0)
            assert type(one[0]) is error and str(one[0]) == str(failed[s])
        # an example whose nearer anchor's segment misses the tolerance after
        # 200 steps and whose farther anchor's overflows at step 1: the
        # nearer one's error is raised, as bisecting one segment at a time did
        ds = Dataset.from_arrays(
            np.array([[1.0, 6e307], [-1.0, 6e307], [-1.0, 1.5e308]]),
            np.array([0, 1, 1]), n_classes=2)
        with pytest.raises(BisectionToleranceError) as got:
            verify_theorem1(model, ds, 0, anchors_per_example=2)
        with pytest.raises(BisectionToleranceError) as want:
            _reference_reports(model, ds, 0, 2)
        assert str(got.value) == str(want.value)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_midpoint_rejected(self):
        model = _projector_model()
        points, failed = find_surface_point(model, np.array([[-1.0, 1e308]]),
                                            np.array([[1.0, 1e308]]), 0)
        assert type(failed[0]) is NonFiniteMidpointError and "finite" in str(failed[0])
        assert np.isnan(points[0]).all()
        assert issubclass(NonFiniteMidpointError, ValueError)

    def test_same_sign_endpoints_rejected(self):
        model = _projector_model()
        _, failed = find_surface_point(model, np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]]), 0)
        assert type(failed[0]) is NoCrossingError

    def test_trained_model_residual_below_tolerance(self):
        ds = gen_two_gaussians(60, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.5, seed=2)
        model = small_model(dims=(2, 6, 2), seed=1)
        sgd_train(model, ds, "mse", RegularizerSpec.none(2, 1),
                  TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=80, seed=4))
        a = ds.features[ds.targets == 0][0]
        b = ds.features[ds.targets == 1][0]
        assert abs(forward(model, _surface_point(model, a, b, 0)).output[0]) < 1e-10


def _outcome(point, error):
    if error is not None:
        return type(error), str(error)
    return point.tobytes()


def _alone(model, x_a, x_b, l, bisect):
    try:
        return _outcome(bisect(model, x_a, x_b, l), None)
    except (NoCrossingError, NonFiniteMidpointError, BisectionToleranceError) as exc:
        return _outcome(None, exc)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["sigmoid", "tanh", "linear"]),
       widths=st.lists(st.integers(1, 16), min_size=1, max_size=2),
       n_in=st.integers(2, 5), S=st.integers(1, 6), huge=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_bisection_equals_each_segment_alone(kind, widths, n_in, S, huge, seed):
    # endpoints near x and -x, so that many segments cross; with huge, the
    # last coordinate is the same large value at both ends, which overflows
    # the midpoint for about two segments in three, and has no weight
    rng = np.random.default_rng(seed)
    model = init_mlp([n_in, *widths, 2], kind, seed=seed)
    for layer in model.layers:
        layer.bias[:] = rng.normal(scale=0.2, size=layer.bias.shape)
    x_a = 2.0 * rng.standard_normal((S, n_in))
    x_b = -x_a + 0.2 * rng.standard_normal((S, n_in))
    if huge:
        x_a[:, -1] = x_b[:, -1] = rng.uniform(0.3, 1.0, S) * 1.7e308
        model.hidden[0].weights[:, -1] = 0.0
    l = int(rng.integers(2))
    points, failed = find_surface_point(model, x_a, x_b, l)
    for s in range(S):
        want = _alone(model, x_a[s], x_b[s], l, _reference_surface_point)
        assert _outcome(points[s], failed.get(s)) == want
        assert np.isnan(points[s]).all() == (s in failed)
        assert _alone(model, x_a[s], x_b[s], l, _surface_point) == want


class TestSignedDistance:
    def test_distance_to_hyperplane(self):
        model = _projector_model()
        assert _distance(model, [0.5, 0.0], [0.0, 0.0], 0) == pytest.approx(0.5)

    def test_point_on_surface(self):
        model = _projector_model()
        assert _distance(model, [0.0, 0.3], [0.0, 0.3], 0) == 0.0

    def test_negative_side(self):
        model = _projector_model()
        assert _distance(model, [-2.0, 1.0], [0.0, 0.0], 0) == pytest.approx(-2.0)

    def test_two_hidden_linear_hand_case(self):
        # overall map yhat = 2*x1 + 1: surface at x1 = -0.5, gradient (2, 0)
        h1 = linear_layer(np.array([[2.0, 0.0], [0.0, 1.0]]))
        h2 = linear_layer(np.eye(2))
        model = MlpModel([h1, h2], linear_layer(np.array([[1.0, 0.0]]), np.array([1.0])))
        point = _surface_point(model, [0.0, 0.0], [-1.0, 0.0], 0)
        assert point[0] == pytest.approx(-0.5, abs=1e-10)
        assert _distance(model, [0.0, 0.0], point, 0) == pytest.approx(0.5)

    def test_invariant_under_output_row_rescaling(self):
        ds = gen_two_gaussians(40, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.4, seed=3)
        model = small_model(dims=(2, 5, 2), seed=5)
        sgd_train(model, ds, "mse", RegularizerSpec.none(2, 1),
                  TrainConfig(learning_rate=0.5, batch_size=8, max_epochs=60, seed=9))
        x = ds.features[ds.targets == 0][0]
        anchor = ds.features[ds.targets == 1][0]
        point = _surface_point(model, x, anchor, 0)
        d1 = _distance(model, x, point, 0)
        model.output.weights[0] *= 7.5
        d2 = _distance(model, x, point, 0)
        assert abs(d1 - d2) <= 1e-9 * max(1.0, abs(d1))

    def test_zero_gradient_raises(self):
        h = DenseLayer(np.zeros((2, 2)), np.zeros(2), Activation("sigmoid"))
        model = MlpModel([h], linear_layer(np.ones((1, 2))))
        with pytest.raises(DegenerateGradientError, match="gradient vanishes"):
            _distance(model, [1.0, 0.0], [0.0, 0.0], 0)


class TestBoundIngredients:
    def test_all_linear(self):
        # W = I and every slope is 1, so the input gradient is the output
        # row (1, 0) and the bound term is x1 with no rounding
        model = _projector_model()
        assert layer_lambda_dom(model) == [1.0]
        assert _bound(model, [0.5, 0.0], [0.0, 0.0], 0, 1.0) == 0.5

    def test_sigmoid_at_zero(self):
        # W = I and every sigmoid slope is 0.25, so the input gradient is
        # (0.25, 0.25): the numerator is 0.25 x1 + 0.25 x2 and the denominator
        # |(1, 1)| * sqrt(0.0625) * sqrt(1)
        h = DenseLayer(np.eye(2), np.zeros(2), Activation("sigmoid"))
        model = MlpModel([h], linear_layer(np.ones((1, 2))))
        b = _bound(model, [1.0, 0.0], [0.0, 0.0], 0, 1.0)
        assert b == pytest.approx(0.25 / (math.sqrt(2.0) * 0.25), rel=1e-15)

    def test_omega_transpose_is_input_gradient(self, rng):
        model = small_model(dims=(3, 4, 4, 2), activation="tanh", seed=31)
        point = rng.standard_normal(3)
        omega, _, _ = _reference_bound_ingredients(model, point, 1,
                                                   trace=_reference_forward(model, point),
                                                   lambda_dom=layer_lambda_dom(model))
        g = input_gradient(model, forward(model, point), 1)
        np.testing.assert_allclose(model.output.weights[1] @ omega.T, g, rtol=1e-12)

    def test_relu_rejected(self):
        model = small_model(activation="relu")
        with pytest.raises(ValueError, match="differentiable"):
            _per_point(model, np.zeros(2), np.zeros(2), 0)


class TestPerPointBound:
    def test_identity_hidden_bound_equals_distance(self):
        model = MlpModel([linear_layer(np.eye(2))], linear_layer(np.array([[1.0, 0.0]])))
        b = _bound(model, [0.5, 0.0], [0.0, 0.0], 0, 1.0)
        assert b == pytest.approx(0.5)

    def test_misclassified_bound_negative(self):
        model = MlpModel([linear_layer(np.eye(2))], linear_layer(np.array([[1.0, 0.0]])))
        assert _bound(model, [0.5, 0.0], [0.0, 0.0], 0, -1.0) < 0

    def test_invariant_under_hidden_weight_scaling(self):
        # doubling W1 doubles the numerator and quadruples lambda_dom, so
        # the bound term is unchanged
        x, point = [0.5, 0.0], [0.0, 0.0]
        b1 = _bound(
            MlpModel([linear_layer(np.eye(2))], linear_layer(np.array([[1.0, 0.0]]))),
            x, point, 0, 1.0,
        )
        b2 = _bound(
            MlpModel([linear_layer(2 * np.eye(2))], linear_layer(np.array([[1.0, 0.0]]))),
            x, point, 0, 1.0,
        )
        assert b1 == pytest.approx(b2, rel=1e-12)

    def test_zero_output_row_raises(self):
        model = MlpModel([linear_layer(np.eye(2))], linear_layer(np.zeros((1, 2))))
        with pytest.raises(DegenerateGradientError, match="output row 0 is zero"):
            _bound(model, [0.5, 0.0], [0.0, 0.0], 0, 1.0)

    def test_zero_denominator_fails_its_row(self):
        # at the surface point x1 = 0 every sigmoid slope is about 1.9e-174,
        # whose square underflows: the distance is finite, the bound
        # denominator is zero
        model = _underflowing_slopes_model()
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        P = np.array([[0.0, 0.0], [0.0, 5.0]])
        d, b, failed = per_point_bound(model, X, P, 0, [1.0, 1.0], layer_lambda_dom(model))
        assert list(failed) == [0, 1]
        assert all(type(e) is DegenerateGradientError for e in failed.values())
        assert str(failed[0]) == ZERO_DENOMINATOR
        assert np.isfinite(d).all() and np.isnan(b).all()
        with pytest.raises(ZeroDivisionError):
            _reference_per_point_bound(model, X[0], P[0], 0, 1.0,
                                       trace=_reference_forward(model, P[0]),
                                       lambda_dom=layer_lambda_dom(model))

    @pytest.mark.parametrize("X, P, targets, match", [
        ([[0.5, 0.0]], [[0.0, 0.0]], [0.5], "target must be"),
        ([[0.5, 0.0]] * 2, [[0.0, 0.0]], [1.0], "shapes"),
        ([0.5, 0.0], [0.0, 0.0], [1.0], "2-d"),
    ], ids=["target", "stack_sizes", "one_d"])
    def test_whole_call_errors(self, X, P, targets, match):
        model = _projector_model()
        with pytest.raises(ValueError, match=match):
            per_point_bound(model, np.array(X), np.array(P), 0, targets,
                            layer_lambda_dom(model))


class TestVerifyTheorem1:
    def test_all_linear_isotropic_bound_tight(self):
        # scaled plane rotations: every layer gram is a multiple of the
        # identity, so the denominator inequality is an equality; the angles
        # cancel so the composite map separates the blobs along x1
        def rot2(scale, theta):
            c, s = np.cos(theta), np.sin(theta)
            return scale * np.array([[c, -s], [s, c]])

        lin = Activation("linear")
        model = MlpModel(
            [
                DenseLayer(rot2(1.7, 0.9), np.array([0.1, -0.2]), lin),
                DenseLayer(rot2(0.6, -0.4), np.array([0.0, 0.3]), lin),
            ],
            DenseLayer(rot2(2.3, -0.5), np.array([0.05, -0.1]), lin),
        )
        ds = gen_two_gaussians(40, centers=((2.0, 0.0), (-2.0, 0.0)), sigma=0.8, seed=7)
        reports, ok = verify_theorem1(model, ds, 0, anchors_per_example=2)
        assert ok
        assert len(reports) > 60
        for r in reports:
            for rec in r.points:
                assert abs(r.target * rec.distance - rec.bound) <= 1e-9 * (
                    1.0 + abs(rec.distance)
                )

    def test_trained_sigmoid_model_no_violations(self):
        train = gen_two_gaussians(80, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.5, seed=11)
        model = small_model(dims=(2, 8, 2), seed=3)
        sgd_train(model, train, "mse", RegularizerSpec.none(2, 1),
                  TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=120, seed=5))
        test = gen_two_gaussians(50, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.5, seed=12)
        reports, ok = verify_theorem1(model, test, 0, anchors_per_example=3)
        assert ok
        assert all(r.ok for r in reports)
        assert len(reports) >= 40

    @pytest.mark.parametrize("c", [0.0, 0.01], ids=["plain", "eigen_decay"])
    def test_deep_multiclass_net_no_violations(self, c):
        # the paper's extension of the bound: two hidden layers and three
        # classes, trained without a penalty and with eigen decay on both
        # hidden layers; every class is checked
        centers = ((-2.0, 0.0), (2.0, 0.0), (0.0, 2.5))
        train = gen_two_gaussians(40, centers=centers, sigma=0.6, seed=1)
        test = gen_two_gaussians(20, centers=centers, sigma=0.6, seed=2)
        model = init_mlp([2, 10, 8, 3], "sigmoid", seed=3)
        reg = RegularizerSpec((LayerPenalty("eigen_decay", c), LayerPenalty("eigen_decay", c),
                               LayerPenalty()), (0.0, 0.0))
        sgd_train(model, train, "mse", reg,
                  TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=60, seed=4))
        assert evaluate(model, test)["accuracy"] == 1.0
        for l in range(3):
            reports, ok = verify_theorem1(model, test, l, anchors_per_example=3)
            assert ok
            assert len(reports) == 60

    def test_wide_deep_multiclass_net_no_violations(self):
        # a first hidden layer wider than 64, on 64-d inputs: its gram's
        # exact eigenvalue comes from the same Jacobi solver as a narrow
        # layer's, and every class is checked
        centers = np.random.default_rng(5).standard_normal((3, 64))
        train = gen_two_gaussians(40, centers=centers, sigma=1.0, seed=1)
        test = gen_two_gaussians(10, centers=centers, sigma=1.0, seed=2)
        model = init_mlp([64, 80, 40, 3], "sigmoid", seed=3)
        sgd_train(model, train, "mse", RegularizerSpec.none(3, 2),
                  TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=30, seed=4))
        assert evaluate(model, test)["accuracy"] == 1.0
        for l in range(3):
            reports, ok = verify_theorem1(model, test, l, anchors_per_example=1)
            assert ok
            assert len(reports) == 30

    def test_vacuous_pass_when_nothing_correct(self):
        # model output for class 0 is always +1, targets all -1
        h = DenseLayer(np.zeros((2, 2)), np.zeros(2), Activation("sigmoid"))
        model = MlpModel([h], linear_layer(np.array([[1.0, 1.0], [0.0, 0.0]]),
                                           np.array([0.0, 10.0])))
        features = np.array([[0.1, 0.2], [0.3, 0.4]])
        ds = Dataset.from_arrays(features, np.array([1, 1]), n_classes=2)
        reports, ok = verify_theorem1(model, ds, 0, anchors_per_example=1)
        assert ok
        assert reports == []

    @pytest.mark.parametrize("l", [0, 1])
    def test_zero_bound_denominator_raises(self, l):
        ds = Dataset.from_arrays(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0, 1]),
                                 n_classes=2)
        model = _underflowing_slopes_model()
        got = _run(lambda: verify_theorem1(model, ds, l, anchors_per_example=1))
        assert got == _run(lambda: _reference_reports(model, ds, l, 1))
        assert got == (DegenerateGradientError, ZERO_DENOMINATOR.replace("0", str(l), 1))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("l", [0, 1])
    def test_overflowing_output_row_raises_not_a_violation(self, l):
        # the norm of |w_l| overflows to inf: the bound would be nan and
        # the point a false violation
        ds = Dataset.from_arrays(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0, 1]),
                                 n_classes=2)
        model = _underflowing_slopes_model(1e170)
        got = _run(lambda: verify_theorem1(model, ds, l, anchors_per_example=1))
        assert got == _run(lambda: _reference_reports(model, ds, l, 1))
        assert got == (OverflowError, f"the norm of output row {l} overflows float range")

    def test_insufficient_anchors_raises(self):
        model = _projector_model()
        features = np.array([[1.0, 0.0], [2.0, 0.0]])  # all on the same side
        ds = Dataset.from_arrays(features, np.array([0, 0]), n_classes=2)
        with pytest.raises(AnchorSamplingError):
            verify_theorem1(model, ds, 0, anchors_per_example=1)


def _reference_class_output(model, x, l):
    # the per-layer arithmetic of forward(), without its input checks or trace
    y = x
    for layer in model.hidden:
        y = layer.activation.value(layer.weights @ y + layer.bias)
    return float((model.output.weights @ y + model.output.bias)[l])


def _reference_surface_point(model, x_a, x_b, l):
    """find_surface_point as it bisected one segment at a time, frozen as
    the reference for the stacked bisection."""
    x_a = as_vector(x_a)
    x_b = as_vector(x_b)
    for x in (x_a, x_b):
        if x.shape[0] != model.n_in:
            raise ValueError(
                f"input has length {x.shape[0]} but the model expects {model.n_in}"
            )
    fa = _reference_class_output(model, x_a, l)
    fb = _reference_class_output(model, x_b, l)
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
        fm = _reference_class_output(model, mid, l)
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


@dataclass
class _ReferenceTrace:
    input: np.ndarray
    preactivations: list
    activations: list
    output: np.ndarray


def _reference_forward(model, x):
    """forward as it passed one input at a time, keeping the
    preactivations, frozen as the reference for the stacked per-point
    pass."""
    x = as_vector(x)
    if x.shape[0] != model.n_in:
        raise ValueError(
            f"input has length {x.shape[0]} but the model expects {model.n_in}"
        )
    vs, ys = [], []
    y = x
    for layer in model.hidden:
        v = (layer.weights @ y[:, None])[:, 0] + layer.bias
        y = layer.activation.value(v)
        vs.append(v)
        ys.append(y)
    out = model.output
    return _ReferenceTrace(x, vs, ys, (out.weights @ y[:, None])[:, 0] + out.bias)


def _reference_input_gradient(model, trace, l):
    if not 0 <= l < model.n_out:
        raise ValueError(f"class index {l} out of range for {model.n_out} outputs")
    g = model.output.weights[l].copy()
    for layer, v in zip(reversed(model.hidden), reversed(trace.preactivations)):
        g = (g * reference_deriv(layer.activation.kind, v)) @ layer.weights
    return g


def _reference_signed_distance(model, x_i, point, l, *, trace):
    x_i = as_vector(x_i)
    g = _reference_input_gradient(model, trace, l)
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        raise DegenerateGradientError(
            f"class-{l} output gradient vanishes at the surface point"
        )
    return float(g @ (x_i - point)) / norm


def _reference_bound_ingredients(model, point, l, *, trace, lambda_dom):
    """(omega, lambda_activ, lambda_dom): omega the product of W_k^T
    Gamma_k^T across hidden layers, lambda_activ the largest squared slope
    per layer."""
    lambda_activ = []
    omega = None
    for layer, v in zip(model.hidden, trace.preactivations):
        slopes = reference_deriv(layer.activation.kind, v)
        lambda_activ.append(float(np.max(slopes**2)))
        factor = layer.weights.T * slopes  # W_k^T Gamma_k^T, Gamma diagonal
        omega = factor if omega is None else omega @ factor
    return omega, lambda_activ, list(lambda_dom)


def _reference_per_point_bound(model, x_i, point, l, y_target, *, trace, lambda_dom):
    x_i = as_vector(x_i)
    if y_target not in (-1.0, 1.0, -1, 1):
        raise ValueError(f"target must be +/-1, got {y_target}")
    omega, lambda_activ, lambda_dom = _reference_bound_ingredients(
        model, point, l, trace=trace, lambda_dom=lambda_dom)
    w_row = model.output.weights[l]
    w_norm = float(np.linalg.norm(w_row))
    if w_norm == 0.0:
        raise DegenerateGradientError(f"output row {l} is zero")
    if not math.isfinite(w_norm):
        raise OverflowError(f"the norm of output row {l} overflows float range")
    numerator = float(y_target * (w_row @ omega.T @ (x_i - point)))
    return numerator / _reference_denominator(w_norm, lambda_activ, lambda_dom)


def _reference_denominator(w_norm, lambda_activ, lambda_dom):
    dom_product = 1.0
    for lam in lambda_dom:
        dom_product *= max(lam, 0.0)
    activ_product = 1.0
    for lam in lambda_activ:
        activ_product *= lam
    return w_norm * math.sqrt(activ_product) * math.sqrt(dom_product)


def _reference_bound_size(model, x_i, point, l, *, trace, lambda_dom):
    """The frozen bound with every product of its numerator taken by
    absolute value. The numerator's sums round by a few ulps of this,
    whichever order multiplies them and however much they cancel."""
    _, lambda_activ, lambda_dom = _reference_bound_ingredients(
        model, point, l, trace=trace, lambda_dom=lambda_dom)
    size = np.abs(model.output.weights[l])
    for layer, v in zip(reversed(model.hidden), reversed(trace.preactivations)):
        size = (size * np.abs(reference_deriv(layer.activation.kind, v))) @ np.abs(layer.weights)
    w_norm = float(np.linalg.norm(model.output.weights[l]))
    return float(size @ np.abs(as_vector(x_i) - point)) / _reference_denominator(
        w_norm, lambda_activ, lambda_dom)


# per_point_bound forms the bound's numerator from the input gradient, the
# frozen reference from omega: the two agree to this share of the bound's
# size, _reference_bound_size
BOUND_REL_TOL = 1e-12


def _reference_bound(model, x_i, point, l, y_target, *, trace, lambda_dom):
    # the frozen bound, its zero denominator failed as per_point_bound
    # fails the row
    try:
        return _reference_per_point_bound(model, x_i, point, l, y_target, trace=trace,
                                          lambda_dom=lambda_dom)
    except ZeroDivisionError:
        raise DegenerateGradientError(
            f"class-{l} bound denominator underflows to zero at the surface point"
        ) from None


def _reference_anchors(dataset, yl, i, anchors_per_example):
    """The per-example nearest-anchor search, frozen as the reference for
    the search that gathers each sign group once per call."""
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


def _reference_reports(model, dataset, l, anchors_per_example, sizes=None):
    """verify_theorem1 rebuilt from the frozen single-point calls, each of
    which recomputes its own forward pass and layer eigenvalues, from the
    one-segment-at-a-time bisection and from the per-example anchor search,
    raising each error as it comes. If sizes is a list, each point's
    _reference_bound_size is appended to it."""
    _, _, Yhat = forward_batch(model, dataset.features)
    yl = Yhat[:, l]
    reports = []
    for i in range(len(dataset)):
        if not dataset.encoded[i, l] * yl[i] > 0.0:
            continue
        x_i = dataset.features[i]
        target = float(dataset.encoded[i, l])
        records = []
        for anchor in _reference_anchors(dataset, yl, i, anchors_per_example):
            point = _reference_surface_point(model, x_i, anchor, l)
            trace = _reference_forward(model, point)
            lambda_dom = layer_lambda_dom(model)
            d = _reference_signed_distance(model, x_i, point, l, trace=trace)
            b = _reference_bound(model, x_i, point, l, target, trace=trace,
                                 lambda_dom=lambda_dom)
            if sizes is not None:
                sizes.append(_reference_bound_size(model, x_i, point, l, trace=trace,
                                                   lambda_dom=lambda_dom))
            records.append(
                PointRecord(d, b, target * d >= b - BOUND_EPS_REL * (1.0 + abs(d)))
            )
        reports.append(MarginReport(
            index=i,
            cls=l,
            target=target,
            points=records,
            margin=min(r.distance * target for r in records),
            theorem_bound=min(r.bound for r in records),
            ok=all(r.ok for r in records),
        ))
    return reports


def _run(call):
    """The call's value, or its error's type and text."""
    try:
        return call()
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


def _assert_agrees_with_reference(got, model, dataset, l, anchors):
    """got, the _run outcome of verify_theorem1's reports, against that of
    _reference_reports: the same error, or reports with the same bytes but
    for the bounds, each within BOUND_REL_TOL of its size."""
    sizes = []
    want = _run(lambda: _reference_reports(model, dataset, l, anchors, sizes))
    if isinstance(got, tuple) or isinstance(want, tuple):
        assert got == want
        return
    got, want = ([report_to_dict(r) for r in reports] for reports in (got, want))
    bounds, theorem_bounds = [], []
    for reports in (got, want):
        bounds.append(np.array([r.pop("bounds") for r in reports]).reshape(-1, anchors))
        theorem_bounds.append(np.array([r.pop("theorem_bound") for r in reports]))
    # bytes, so that a -0.0 for a 0.0 fails and a nan equals itself
    assert json.dumps(got) == json.dumps(want)
    tol = BOUND_REL_TOL * np.array(sizes).reshape(-1, anchors)
    assert (np.abs(bounds[0] - bounds[1]) <= tol).all()
    assert (np.abs(theorem_bounds[0] - theorem_bounds[1]) <= tol.max(axis=1)).all()


class TestSharedPerPointWork:
    """verify_theorem1 shares one forward pass per surface point and one
    eigenvalue per layer across its calls; its reports must equal those of
    the per-point calls left to recompute everything: bit for bit, but for
    the bounds, which agree to BOUND_REL_TOL of their size."""

    def _assert_matches_reference(self, model, dataset, anchors):
        reports, _ = verify_theorem1(model, dataset, 0, anchors_per_example=anchors)
        assert len(reports) >= 10
        _assert_agrees_with_reference(reports, model, dataset, 0, anchors)

    def test_two_hidden_tanh_model(self):
        ds = gen_two_gaussians(30, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.5, seed=41)
        model = small_model(dims=(2, 5, 4, 2), activation="tanh", seed=42)
        sgd_train(model, ds, "mse", RegularizerSpec.none(3, 2),
                  TrainConfig(learning_rate=0.2, batch_size=8, max_epochs=30, seed=43))
        self._assert_matches_reference(model, ds, 3)

    def test_trained_sigmoid_model(self):
        train = gen_two_gaussians(60, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.5, seed=44)
        model = small_model(dims=(2, 8, 2), seed=45)
        sgd_train(model, train, "mse", RegularizerSpec.none(2, 1),
                  TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=60, seed=46))
        test = gen_two_gaussians(25, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.5, seed=47)
        self._assert_matches_reference(model, test, 5)

    def test_bisection_output_is_forward_output(self, rng):
        # the stacked column pass the bisection steps make gives each row
        # the bits of forward on that row and of the frozen per-layer loop
        for width in range(1, 65, 3):
            for kind, n_out in (("sigmoid", 10), ("tanh", 3)):
                model = small_model(dims=(3, width, width, n_out), activation=kind,
                                    seed=width)
                X = rng.standard_normal((5, 3))
                outputs = _column_pass(model, X)[1]
                for x, out in zip(X, outputs):
                    assert out.tobytes() == forward(model, x).output.tobytes()
                    assert [_reference_class_output(model, x, l)
                            for l in range(n_out)] == list(out)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _alone_outcome(call):
    outcome = _run(call)
    return outcome if isinstance(outcome, tuple) else _bits(outcome).tolist()


def _row_outcomes(values, failed, s):
    # the row's (distance, bound), or its error for both
    if s in failed:
        return [(type(failed[s]), str(failed[s]))] * 2
    return [_bits(v[s]).tolist() for v in values]


def _random_points(kind, widths, n_in, n_out, N, seed):
    """(model, l, X, P, targets): a net with random biases, and N example
    and point rows. About one point in four is scaled by 1e3, which
    saturates every sigmoid and tanh unit: its gradient vanishes and its
    bound divides by zero."""
    rng = np.random.default_rng(seed)
    model = init_mlp([n_in, *widths, n_out], kind, seed=seed)
    for layer in model.layers:
        layer.bias[:] = rng.normal(scale=0.2, size=layer.bias.shape)
    l = int(rng.integers(n_out))
    scale = np.where(rng.random(N) < 0.25, 1e3, 2.0)[:, None]
    P = scale * rng.standard_normal((N, n_in))
    X = 2.0 * rng.standard_normal((N, n_in))
    return model, l, X, P, rng.choice([-1.0, 1.0], N)


RANDOM_POINTS = dict(kind=st.sampled_from(["sigmoid", "tanh", "linear"]),
                     widths=st.lists(st.integers(1, 16), min_size=1, max_size=3),
                     n_in=st.integers(1, 5), n_out=st.integers(1, 3), N=st.integers(1, 40),
                     seed=st.integers(0, 2**32 - 1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(**RANDOM_POINTS)
def test_stacked_per_point_pass_equals_each_point_alone(kind, widths, n_in, n_out, N,
                                                        seed):
    model, l, X, P, targets = _random_points(kind, widths, n_in, n_out, N, seed)
    lambda_dom = layer_lambda_dom(model)
    trace = forward(model, P)
    g = input_gradient(model, trace, l)
    d, b, failed = per_point_bound(model, X, P, l, targets, lambda_dom)
    for s in range(N):
        ref = _reference_forward(model, P[s])
        for got, want in [(trace.input, ref.input), (trace.output, ref.output),
                          *zip(trace.activations, ref.activations)]:
            np.testing.assert_array_equal(_bits(got[s]), _bits(want))
        np.testing.assert_array_equal(
            _bits(g[s]), _bits(_reference_input_gradient(model, ref, l)))
        got = _row_outcomes((d, b), failed, s)
        # the stack of one
        *one, one_failed = per_point_bound(model, X[s:s + 1], P[s:s + 1], l,
                                           targets[s:s + 1], lambda_dom)
        assert _row_outcomes(one, one_failed, 0) == got
        want = [_alone_outcome(lambda: _reference_signed_distance(
                    model, X[s], P[s], l, trace=ref)),
                _alone_outcome(lambda: _reference_bound(
                    model, X[s], P[s], l, targets[s], trace=ref, lambda_dom=lambda_dom))]
        # the row keeps its first error: a vanishing gradient before a zero
        # denominator. A bound that is formed is compared with the frozen
        # one in the test below.
        errors = [w for w in want if isinstance(w, tuple)]
        if errors:
            assert got == [errors[0]] * 2
        else:
            assert got[0] == want[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(**RANDOM_POINTS)
def test_bounds_agree_with_the_frozen_omega_arithmetic(kind, widths, n_in, n_out, N, seed):
    # per_point_bound's numerator is the input gradient's dot with
    # X[s] - P[s]; the frozen reference forms it through omega, the product
    # of W_k^T Gamma_k^T. The distance divides the same dot by the gradient
    # norm, so it keeps its bits, and so does the point's flag in
    # verify_theorem1.
    model, l, X, P, targets = _random_points(kind, widths, n_in, n_out, N, seed)
    lambda_dom = layer_lambda_dom(model)
    d, b, failed = per_point_bound(model, X, P, l, targets, lambda_dom)
    for s in sorted(set(range(N)) - set(failed)):
        ref = _reference_forward(model, P[s])
        want_d = _reference_signed_distance(model, X[s], P[s], l, trace=ref)
        want_b = _reference_bound(model, X[s], P[s], l, targets[s], trace=ref,
                                  lambda_dom=lambda_dom)
        size = _reference_bound_size(model, X[s], P[s], l, trace=ref,
                                     lambda_dom=lambda_dom)
        assert _bits(d[s]) == _bits(want_d)
        assert abs(b[s] - want_b) <= BOUND_REL_TOL * size
        t = targets[s]
        assert ((t * d[s] >= b[s] - BOUND_EPS_REL * (1.0 + abs(d[s])))
                == (t * want_d >= want_b - BOUND_EPS_REL * (1.0 + abs(want_d))))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["sigmoid", "tanh", "linear"]),
       widths=st.lists(st.integers(1, 8), min_size=1, max_size=3),
       chunk=st.integers(1, 7), anchors=st.integers(1, 3), flip=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_chunked_verify_theorem1_equals_the_reference(kind, widths, chunk, anchors, flip,
                                                      seed):
    # labels follow the model's own class-0 sign, so most examples are
    # checked; with flip, some are misclassified and skipped
    rng = np.random.default_rng(seed)
    model = init_mlp([2, *widths, 2], kind, seed=seed)
    for layer in model.layers:
        layer.bias[:] = rng.normal(scale=0.2, size=layer.bias.shape)
    features = 2.0 * rng.standard_normal((12, 2))
    labels = np.where(forward_batch(model, features)[2][:, 0] > 0.0, 0, 1)
    if flip:
        labels[rng.random(12) < 0.3] ^= 1
    ds = Dataset.from_arrays(features, labels, n_classes=2)
    calls = []

    def spy(model, x):
        calls.append(len(x))
        return forward(model, x)

    # a chunk of surface points is sized by the widest layer vector
    widest = max(model.n_in, *model.hidden_dims, model.n_out)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(margin, "STACK_FLOATS", chunk * widest + widest - 1)
        mp.setattr(margin, "forward", spy)
        got = _run(lambda: verify_theorem1(model, ds, 0, anchors)[0])
    _assert_agrees_with_reference(got, model, ds, 0, anchors)
    if not isinstance(got, tuple):
        points = sum(len(r.points) for r in got)
        assert calls == [min(chunk, points - start) for start in range(0, points, chunk)]


class TestNearestAnchors:
    """The anchor search gathers each sign group once per call and takes the
    distances of a chunk of examples at a time; every example must get the
    anchors, or the error, of the frozen per-example search."""

    def _assert_matches_reference(self, features, yl, k):
        ds = Dataset.from_arrays(features, (yl < 0.0).astype(int), n_classes=2)
        examples = np.flatnonzero(yl != 0.0)
        want = []
        for i in examples.tolist():
            outcome = _run(lambda: _reference_anchors(ds, yl, i, k))
            if isinstance(outcome, tuple):
                want.append(outcome)
                break
            want.append((i, outcome.tobytes()))
        got = []
        try:
            for i, anchors in margin._nearest_anchors(ds, yl, examples, k):
                got.append((i, anchors.tobytes()))
        except AnchorSamplingError as exc:
            got.append((type(exc), str(exc)))
        assert got == want
        return got

    def test_exact_ties_go_to_the_lower_index(self):
        # every opposite point of the origin lies at distance 5, and the
        # two at (3, 4) are duplicates
        features = np.array([[0.0, 0.0], [3.0, 4.0], [5.0, 0.0], [3.0, 4.0],
                             [0.0, -5.0], [-4.0, 3.0], [0.5, 0.5], [-3.0, -4.0]])
        yl = np.array([1.0, -1.0, -2.0, -1.0, -0.5, -3.0, 2.0, -1.0])
        for k in (1, 3, 6):
            got = self._assert_matches_reference(features, yl, k)
        assert isinstance(got[-1][0], type)  # 6 anchors: the positives have only 2

    def test_784_d_points(self, rng):
        features = rng.standard_normal((60, 784))
        features[7] = features[3]  # a duplicate, so one tie in each search
        yl = rng.standard_normal(60)
        self._assert_matches_reference(features, yl, 5)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_chunk_boundaries(self, rng, monkeypatch, chunk):
        features = rng.standard_normal((20, 6))
        yl = rng.standard_normal(20)
        monkeypatch.setattr(margin, "STACK_FLOATS", chunk * features.size)
        self._assert_matches_reference(features, yl, 4)

    def test_an_underflowing_product_is_not_opposite(self):
        # 1e-200 * -1e-200 rounds to -0.0, which is not below zero
        features = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        yl = np.array([1e-200, -1e-200, -1.0, 4.0])
        self._assert_matches_reference(features, yl, 1)
        got = self._assert_matches_reference(features, yl, 2)
        assert got[-1] == (AnchorSamplingError, "example 0: only 1 opposite-prediction "
                                                "anchors available, 2 requested")


def _underflowing_slopes_model(scale=1e150):
    """Class 0 reads scale * (sigmoid(x1 - 400) - sigmoid(-x1 - 400)), zero
    on the surface x1 = 0. There both slopes are about 1.9e-174: at scale
    1e150 the gradient, about (3.8e-24, 0), is finite, but the squared
    slopes underflow to zero and with them the bound denominator. At 1e170
    the output rows' norms overflow. x2 has no weight."""
    return MlpModel(
        [DenseLayer(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-400.0, -400.0]),
                    Activation("sigmoid"))],
        DenseLayer(scale * np.array([[1.0, -1.0], [-1.0, 1.0]]), np.zeros(2),
                   Activation("linear")),
    )


def _flat_root_model():
    """Class 0 reads tanh(100 x1 + 50) + tanh(100 x1 - 50): two saturated
    units that cancel exactly for |x1| < 0.3, where every slope is 0. x2
    has no weight. A segment from x1 = 1 to x1 = -1 or -1.5 finds its root
    at the first midpoint, where the gradient vanishes."""
    return MlpModel(
        [DenseLayer(np.array([[100.0, 0.0], [100.0, 0.0]]), np.array([50.0, -50.0]),
                    Activation("tanh"))],
        DenseLayer(np.array([[1.0, 1.0], [-1.0, -1.0]]), np.zeros(2),
                   Activation("linear")),
    )


# (features, labels, anchors) whose first example by index has a vanishing
# gradient and whose later one fails before any per-point call: a missing
# anchor, or a midpoint whose x2 = 1e308 + 1e308 overflows; and the same
# rows reversed, so that the later failure comes first
VANISHING = "class-0 output gradient vanishes at the surface point"
ZERO_DENOMINATOR = "class-0 bound denominator underflows to zero at the surface point"
ERROR_ORDER_CASES = {
    "missing_anchor": ([[1.0, 0.0], [-1.0, 0.0], [-1.5, 0.0]], [0, 1, 1], 2,
                       AnchorSamplingError,
                       "only 1 opposite-prediction anchors available, 2 requested"),
    "overflowing_midpoint": ([[1.0, 0.0], [1.0, 1e308], [-1.0, 0.0], [-1.0, 1e308]],
                             [0, 0, 1, 1], 1, NonFiniteMidpointError,
                             "bisection midpoint entries must be finite"),
}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("case", sorted(ERROR_ORDER_CASES))
@pytest.mark.parametrize("reverse", [False, True], ids=["gradient_first", "gradient_last"])
def test_first_failing_example_raises_whatever_the_stage(case, reverse):
    features, labels, anchors, error, text = ERROR_ORDER_CASES[case]
    if reverse:
        features, labels = features[::-1], labels[::-1]
    ds = Dataset.from_arrays(np.array(features), np.array(labels), n_classes=2)
    model = _flat_root_model()
    got = _run(lambda: verify_theorem1(model, ds, 0, anchors_per_example=anchors))
    assert got == _run(lambda: _reference_reports(model, ds, 0, anchors))
    if reverse:
        assert got[0] is error and text in got[1]
    else:
        assert got == (DegenerateGradientError, VANISHING)


class TestDenominatorInequality:
    def test_orthogonal_weights_equality(self):
        w = rotation(3, 1.0, 5)
        w_row = np.array([0.3, -0.7, 1.1])
        gamma = np.array([0.9, 0.2, 0.5])
        assert verify_denominator_inequality(w_row, gamma, w)

    def test_zero_row(self):
        assert verify_denominator_inequality(
            np.zeros(2), np.ones(2), np.ones((2, 3))
        )

    def test_random_triples_always_hold(self, rng):
        for _ in range(100):
            r = int(rng.integers(1, 8))
            c = int(rng.integers(1, 8))
            w_row = rng.standard_normal(r)
            gamma = rng.uniform(-1, 1, size=r)
            w = rng.standard_normal((r, c))
            assert verify_denominator_inequality(w_row, gamma, w)

    def test_rejects_gamma_of_another_shape(self):
        # gamma is the slope vector; a diagonal matrix is no longer unpacked
        for gamma in (np.ones(3), np.ones(1), np.eye(2)):
            with pytest.raises(ValueError, match="does not match row shape"):
                verify_denominator_inequality(np.ones(2), gamma, np.eye(2))


def test_margin_report_serialization(tmp_path):
    ds = gen_two_gaussians(30, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.4, seed=31)
    model = small_model(dims=(2, 6, 2), seed=7)
    sgd_train(model, ds, "mse", RegularizerSpec.none(2, 1),
              TrainConfig(learning_rate=0.5, batch_size=8, max_epochs=60, seed=1))
    reports, _ = verify_theorem1(model, ds, 0, anchors_per_example=2)
    path = tmp_path / "margin.jsonl"
    save_margin_reports(reports, path)
    lines = path.read_text().splitlines()

    header = json.loads(lines[0])
    assert header["schema_version"] == 1
    assert len(lines) == len(reports) + 1
    first = json.loads(lines[1])
    assert set(first) == {
        "index", "class", "target", "distances", "bounds", "margin",
        "theorem_bound", "ok",
    }
