import numpy as np
import pytest

from conftest import linear_layer, rotation, small_model

from eigendecay.data import Dataset, gen_two_gaussians
from eigendecay.margin import (
    BOUND_EPS_REL,
    _class_output,
    AnchorSamplingError,
    DegenerateGradientError,
    MarginReport,
    NoCrossingError,
    NonFiniteMidpointError,
    PointRecord,
    SurfacePoint,
    bound_ingredients,
    find_surface_point,
    layer_lambda_dom,
    per_point_bound,
    report_to_dict,
    save_margin_reports,
    signed_distance,
    verify_denominator_inequality,
    verify_theorem1,
)
from eigendecay.model import Activation, DenseLayer, MlpModel, forward, forward_batch
from eigendecay.objectives import RegularizerSpec
from eigendecay.train import TrainConfig, sgd_train


def _projector_model():
    """Linear model computing yhat = (x1, x2): class-0 surface is x1 = 0."""
    return MlpModel([linear_layer(np.eye(2))], linear_layer(np.eye(2)))


# The per-point calls with the forward pass at the surface point and the
# layer eigenvalues that verify_theorem1 hands them, computed for each call

def _distance(model, x_i, sp, l):
    return signed_distance(model, x_i, sp, l, trace=forward(model, sp.point))


def _ingredients(model, sp, l):
    return bound_ingredients(model, sp, l, trace=forward(model, sp.point),
                             lambda_dom=layer_lambda_dom(model))


def _bound(model, x_i, sp, l, y_target):
    return per_point_bound(model, x_i, sp, l, y_target, trace=forward(model, sp.point),
                           lambda_dom=layer_lambda_dom(model))


class TestFindSurfacePoint:
    def test_linear_root(self):
        model = _projector_model()
        sp = find_surface_point(model, np.array([-1.0, 0.0]), np.array([1.0, 0.0]), 0)
        np.testing.assert_allclose(sp.point, [0.0, 0.0], atol=1e-10)
        assert sp.residual < 1e-10

    def test_endpoint_length_checked(self):
        model = _projector_model()
        with pytest.raises(ValueError, match="expects 2"):
            find_surface_point(model, np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.0]), 0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_midpoint_rejected(self):
        model = _projector_model()
        with pytest.raises(NonFiniteMidpointError, match="finite"):
            find_surface_point(model, np.array([-1.0, 1e308]), np.array([1.0, 1e308]), 0)
        assert issubclass(NonFiniteMidpointError, ValueError)

    def test_same_sign_endpoints_rejected(self):
        model = _projector_model()
        with pytest.raises(NoCrossingError):
            find_surface_point(model, np.array([1.0, 0.0]), np.array([2.0, 0.0]), 0)

    def test_trained_model_residual_below_tolerance(self):
        ds = gen_two_gaussians(60, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.5, seed=2)
        model = small_model(dims=(2, 6, 2), seed=1)
        sgd_train(model, ds, "mse", RegularizerSpec.none(2, 1),
                  TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=80, seed=4))
        a = ds.features[ds.targets == 0][0]
        b = ds.features[ds.targets == 1][0]
        sp = find_surface_point(model, a, b, 0)
        assert abs(forward(model, sp.point).output[0]) < 1e-10


class TestSignedDistance:
    def test_distance_to_hyperplane(self):
        model = _projector_model()
        sp = SurfacePoint(np.array([0.0, 0.0]), 0, 0.0)
        assert _distance(model, np.array([0.5, 0.0]), sp, 0) == pytest.approx(0.5)

    def test_point_on_surface(self):
        model = _projector_model()
        sp = SurfacePoint(np.array([0.0, 0.3]), 0, 0.0)
        assert _distance(model, np.array([0.0, 0.3]), sp, 0) == 0.0

    def test_negative_side(self):
        model = _projector_model()
        sp = SurfacePoint(np.array([0.0, 0.0]), 0, 0.0)
        assert _distance(model, np.array([-2.0, 1.0]), sp, 0) == pytest.approx(-2.0)

    def test_two_hidden_linear_hand_case(self):
        # overall map yhat = 2*x1 + 1: surface at x1 = -0.5, gradient (2, 0)
        h1 = linear_layer(np.array([[2.0, 0.0], [0.0, 1.0]]))
        h2 = linear_layer(np.eye(2))
        model = MlpModel([h1, h2], linear_layer(np.array([[1.0, 0.0]]), np.array([1.0])))
        sp = find_surface_point(model, np.array([0.0, 0.0]), np.array([-1.0, 0.0]), 0)
        assert sp.point[0] == pytest.approx(-0.5, abs=1e-10)
        assert _distance(model, np.array([0.0, 0.0]), sp, 0) == pytest.approx(0.5)

    def test_invariant_under_output_row_rescaling(self):
        ds = gen_two_gaussians(40, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.4, seed=3)
        model = small_model(dims=(2, 5, 2), seed=5)
        sgd_train(model, ds, "mse", RegularizerSpec.none(2, 1),
                  TrainConfig(learning_rate=0.5, batch_size=8, max_epochs=60, seed=9))
        x = ds.features[ds.targets == 0][0]
        anchor = ds.features[ds.targets == 1][0]
        sp = find_surface_point(model, x, anchor, 0)
        d1 = _distance(model, x, sp, 0)
        model.output.weights[0] *= 7.5
        d2 = _distance(model, x, sp, 0)
        assert abs(d1 - d2) <= 1e-9 * max(1.0, abs(d1))

    def test_zero_gradient_raises(self):
        h = DenseLayer(np.zeros((2, 2)), np.zeros(2), Activation("sigmoid"))
        model = MlpModel([h], linear_layer(np.ones((1, 2))))
        sp = SurfacePoint(np.array([0.0, 0.0]), 0, 0.0)
        with pytest.raises(DegenerateGradientError):
            _distance(model, np.array([1.0, 0.0]), sp, 0)


class TestBoundIngredients:
    def test_all_linear(self):
        model = _projector_model()
        sp = SurfacePoint(np.array([0.0, 0.0]), 0, 0.0)
        ing = _ingredients(model, sp, 0)
        # W = I, so omega = W^T Gamma^T = I holds exactly when every slope is 1
        np.testing.assert_array_equal(ing.omega, np.eye(2))
        assert ing.lambda_activ == [1.0]
        assert ing.lambda_dom[0] == pytest.approx(1.0)

    def test_sigmoid_at_zero(self):
        h = DenseLayer(np.eye(2), np.zeros(2), Activation("sigmoid"))
        model = MlpModel([h], linear_layer(np.ones((1, 2))))
        sp = SurfacePoint(np.array([0.0, 0.0]), 0, 0.0)
        ing = _ingredients(model, sp, 0)
        # W = I, so omega carries the sigmoid slopes 0.25 on its diagonal
        np.testing.assert_allclose(ing.omega, 0.25 * np.eye(2))
        assert ing.lambda_activ[0] == pytest.approx(0.0625)

    def test_omega_transpose_is_input_gradient(self, rng):
        model = small_model(dims=(3, 4, 4, 2), activation="tanh", seed=31)
        point = rng.standard_normal(3)
        sp = SurfacePoint(point, 1, 0.0)
        ing = _ingredients(model, sp, 1)
        from eigendecay.model import input_gradient

        g = input_gradient(model, forward(model, point), 1)
        np.testing.assert_allclose(model.output.weights[1] @ ing.omega.T, g, rtol=1e-12)

    def test_relu_rejected(self):
        model = small_model(activation="relu")
        sp = SurfacePoint(np.zeros(2), 0, 0.0)
        with pytest.raises(ValueError):
            _ingredients(model, sp, 0)


class TestPerPointBound:
    def test_identity_hidden_bound_equals_distance(self):
        model = MlpModel([linear_layer(np.eye(2))], linear_layer(np.array([[1.0, 0.0]])))
        sp = SurfacePoint(np.array([0.0, 0.0]), 0, 0.0)
        b = _bound(model, np.array([0.5, 0.0]), sp, 0, 1.0)
        assert b == pytest.approx(0.5)

    def test_misclassified_bound_negative(self):
        model = MlpModel([linear_layer(np.eye(2))], linear_layer(np.array([[1.0, 0.0]])))
        sp = SurfacePoint(np.array([0.0, 0.0]), 0, 0.0)
        assert _bound(model, np.array([0.5, 0.0]), sp, 0, -1.0) < 0

    def test_invariant_under_hidden_weight_scaling(self):
        # doubling W1 doubles the numerator and quadruples lambda_dom, so
        # the bound term is unchanged
        sp = SurfacePoint(np.array([0.0, 0.0]), 0, 0.0)
        x = np.array([0.5, 0.0])
        b1 = _bound(
            MlpModel([linear_layer(np.eye(2))], linear_layer(np.array([[1.0, 0.0]]))),
            x, sp, 0, 1.0,
        )
        b2 = _bound(
            MlpModel([linear_layer(2 * np.eye(2))], linear_layer(np.array([[1.0, 0.0]]))),
            x, sp, 0, 1.0,
        )
        assert b1 == pytest.approx(b2, rel=1e-12)

    def test_zero_output_row_raises(self):
        model = MlpModel([linear_layer(np.eye(2))], linear_layer(np.zeros((1, 2))))
        sp = SurfacePoint(np.array([0.0, 0.0]), 0, 0.0)
        with pytest.raises(DegenerateGradientError):
            _bound(model, np.array([0.5, 0.0]), sp, 0, 1.0)


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

    def test_insufficient_anchors_raises(self):
        model = _projector_model()
        features = np.array([[1.0, 0.0], [2.0, 0.0]])  # all on the same side
        ds = Dataset.from_arrays(features, np.array([0, 0]), n_classes=2)
        with pytest.raises(AnchorSamplingError):
            verify_theorem1(model, ds, 0, anchors_per_example=1)


def _reference_reports(model, dataset, l, anchors_per_example):
    """verify_theorem1 rebuilt from the per-point calls, each of which
    recomputes its own forward pass and layer eigenvalues."""
    _, _, Yhat = forward_batch(model, dataset.features)
    yl = Yhat[:, l]
    reports = []
    for i in range(len(dataset)):
        if not dataset.encoded[i, l] * yl[i] > 0.0:
            continue
        x_i = dataset.features[i]
        target = float(dataset.encoded[i, l])
        opposite = np.flatnonzero(yl * yl[i] < 0.0)
        dists = np.linalg.norm(dataset.features[opposite] - x_i, axis=1)
        records = []
        for j in opposite[np.argsort(dists, kind="stable")[:anchors_per_example]]:
            sp = find_surface_point(model, x_i, dataset.features[j], l)
            d = _distance(model, x_i, sp, l)
            b = _bound(model, x_i, sp, l, target)
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


class TestSharedPerPointWork:
    """verify_theorem1 shares one forward pass per surface point and one
    eigenvalue per layer across its calls; its reports must equal, bit for
    bit, those of the per-point calls left to recompute everything."""

    def _assert_matches_reference(self, model, dataset, anchors):
        reports, _ = verify_theorem1(model, dataset, 0, anchors_per_example=anchors)
        reference = _reference_reports(model, dataset, 0, anchors)
        assert len(reports) >= 10
        assert [report_to_dict(r) for r in reports] == [
            report_to_dict(r) for r in reference
        ]

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
        for width in range(1, 65, 3):
            for kind, n_out in (("sigmoid", 10), ("tanh", 3)):
                model = small_model(dims=(3, width, width, n_out), activation=kind,
                                    seed=width)
                x = rng.standard_normal(3)
                out = forward(model, x).output
                assert [_class_output(model, x, l) for l in range(n_out)] == list(out)

    def test_width_cap_raised_before_any_bisection(self):
        # nothing is classified correctly, so no surface point is sought
        model = small_model(dims=(2, 80, 2), seed=49)
        features = np.array([[0.1, 0.2], [0.3, 0.4]])
        _, _, Yhat = forward_batch(model, features)
        labels = np.where(Yhat[:, 0] > 0.0, 1, 0)
        ds = Dataset.from_arrays(features, labels, n_classes=2)
        with pytest.raises(ValueError, match="cap"):
            verify_theorem1(model, ds, 0, anchors_per_example=1)


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
    import json

    header = json.loads(lines[0])
    assert header["schema_version"] == 1
    assert len(lines) == len(reports) + 1
    first = json.loads(lines[1])
    assert set(first) == {
        "index", "class", "target", "distances", "bounds", "margin",
        "theorem_bound", "ok",
    }
