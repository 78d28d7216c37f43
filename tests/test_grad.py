import numpy as np
import pytest

from conftest import linear_layer, max_rel_err, small_model

from eigendecay.data import encode_batch_pm1
from eigendecay.grad import (
    Gradients,
    backward,
    eigen_decay_gradient,
    finite_diff_gradient,
    finite_diff_model_gradient,
)
from eigendecay.linalg import DegenerateIterateError
from eigendecay.model import MlpModel
from eigendecay.objectives import (
    LayerPenalty,
    RegularizerSpec,
    eigen_decay_penalty,
    sample_dropout_masks,
    total_objective,
)


def _unnormalized_gradient(w, C, p):
    """Gradient of C * sqrt(lambda) where lambda is the Rayleigh quotient of
    the raw iterate (W W^T)^p 1, without per-step rescaling: the reverse
    pass of the plain power iteration."""
    m = w @ w.T
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


class TestFiniteDiffOracle:
    def test_quadratic(self, rng):
        w = rng.standard_normal((3, 2))
        g = finite_diff_gradient(lambda ps: float(np.sum(ps[0] ** 2)), [w], h=1e-5)[0]
        assert np.max(np.abs(g - 2 * w)) < 1e-8

    def test_constant(self):
        w = np.ones((2, 2))
        g = finite_diff_gradient(lambda ps: 3.5, [w], h=1e-5)[0]
        assert np.array_equal(g, np.zeros((2, 2)))

    def test_single_entry_linear(self):
        w = np.zeros((2, 2))
        g = finite_diff_gradient(lambda ps: float(ps[0][0, 0]), [w], h=1e-5)[0]
        np.testing.assert_allclose(g, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda ps: 0.0, [np.zeros(2)], h=0.0)

    def test_restores_parameters(self, rng):
        w = rng.standard_normal((2, 2))
        before = w.copy()
        finite_diff_gradient(lambda ps: float(np.sum(ps[0])), [w], h=1e-4)
        assert np.array_equal(w, before)


class TestEigenDecayGradient:
    def test_zero_coefficient(self):
        g = eigen_decay_gradient(np.eye(3), 0.0, 9)
        assert np.array_equal(g, np.zeros((3, 3)))

    def test_diag_gradient_concentrates_on_dominant_entry(self):
        # penalty ~ C * w11 for w11 clearly dominant, so the gradient is
        # approximately C at (0,0) and negligible elsewhere
        C = 0.8
        g = eigen_decay_gradient(np.diag([2.0, 1.0]), C, 9)
        fd = finite_diff_gradient(
            lambda ps: eigen_decay_penalty(ps[0], C, 9), [np.diag([2.0, 1.0])], h=1e-6
        )[0]
        # absolute term covers the structurally-zero entries, where central
        # differences only deliver roundoff noise
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-9)
        assert g[0, 0] == pytest.approx(C, rel=1e-3)
        assert abs(g[1, 1]) < 1e-3 * C

    def test_scaled_identity_gradient_is_uniform(self):
        # at W = c*I every direction is an eigendirection, the Rayleigh
        # quotient is stationary in the iterate, and only the explicit
        # rank-one term survives: gradient = C/n * ones * ones^T
        n, C = 3, 0.5
        g = eigen_decay_gradient(1.7 * np.eye(n), C, 9)
        np.testing.assert_allclose(g, np.full((n, n), C / n), rtol=1e-12)
        fd = finite_diff_gradient(
            lambda ps: eigen_decay_penalty(ps[0], C, 9), [1.7 * np.eye(n)], h=1e-6
        )[0]
        assert max_rel_err(g, fd) <= 1e-4

    def test_matches_finite_differences_random(self, rng):
        for _ in range(8):
            w = rng.standard_normal((int(rng.integers(1, 5)), int(rng.integers(1, 5))))
            C = float(rng.uniform(0.05, 1.0))
            p = int(rng.choice([1, 3, 9]))
            g = eigen_decay_gradient(w, C, p)
            fd = finite_diff_gradient(
                lambda ps: eigen_decay_penalty(ps[0], C, p), [w], h=1e-6
            )[0]
            assert max_rel_err(g, fd) <= 1e-4

    def test_normalize_toggle_agrees(self, rng):
        for _ in range(6):
            w = rng.standard_normal((4, 3))
            a = eigen_decay_gradient(w, 0.7, 9)
            b = _unnormalized_gradient(w, 0.7, 9)
            assert max_rel_err(a, b) <= 1e-6

    def test_zero_matrix_gradient_is_zero(self):
        # matches the penalty value, which is 0 there
        for shape in ((2, 2), (3, 5)):
            w = np.zeros(shape)
            assert eigen_decay_penalty(w, 0.5, 9) == 0.0
            g = eigen_decay_gradient(w, 0.5, 9)
            assert np.array_equal(g, np.zeros(shape))

    def test_kernel_start_raises_in_value_and_gradient(self):
        # W W^T = [[1, -1], [-1, 1]] sends the all-ones start to zero
        w = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(DegenerateIterateError):
            eigen_decay_penalty(w, 0.5, 9)
        with pytest.raises(DegenerateIterateError):
            eigen_decay_gradient(w, 0.5, 9)

    def test_near_zero_spectrum_warns_and_returns_zero(self):
        w = np.full((2, 2), 1e-9)
        with pytest.warns(RuntimeWarning):
            g = eigen_decay_gradient(w, 0.5, 9)
        assert np.array_equal(g, np.zeros((2, 2)))


def _least_squares_oracle(model, X, Y):
    """Closed-form gradient of mean componentwise squared error for an
    all-linear single-hidden-layer model."""
    W1, b1 = model.hidden[0].weights, model.hidden[0].bias
    W2, b2 = model.output.weights, model.output.bias
    n, L = Y.shape
    H = X @ W1.T + b1
    R = H @ W2.T + b2 - Y  # residuals
    scale = 2.0 / (n * L)
    dW2 = scale * R.T @ H
    db2 = scale * R.sum(axis=0)
    dW1 = scale * (R @ W2).T @ X
    db1 = scale * (R @ W2).sum(axis=0)
    return Gradients([dW1, dW2], [db1, db2])


class TestBackward:
    def test_mismatched_spec_raises(self, rng):
        # the 2-D call checks its spec; stacked calls rely on train._member
        model = small_model()
        X = rng.standard_normal((3, 2))
        Y = encode_batch_pm1(np.array([0, 1, 0]), 2)
        for reg in (RegularizerSpec.none(3, 1),
                    RegularizerSpec((LayerPenalty(), LayerPenalty()), (0.1, 0.1))):
            with pytest.raises(ValueError, match="penalty entries|dropout rates"):
                backward(model, X, Y, "mse", reg)

    def test_linear_least_squares_closed_form(self, rng):
        h = linear_layer(rng.standard_normal((2, 2)))
        model = MlpModel([h], linear_layer(rng.standard_normal((2, 2))))
        X = rng.standard_normal((6, 2))
        Y = encode_batch_pm1(rng.integers(0, 2, size=6), 2)
        reg = RegularizerSpec.none(2, 1)
        got = backward(model, X, Y, "mse", reg)
        want = _least_squares_oracle(model, X, Y)
        for a, b in zip(got.as_list(), want.as_list()):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_zero_penalty_equals_plain_backprop(self, rng):
        model = small_model(dims=(3, 4, 2), seed=6)
        X = rng.standard_normal((5, 3))
        Y = encode_batch_pm1(rng.integers(0, 2, size=5), 2)
        none = RegularizerSpec.none(2, 1)
        zero_c = RegularizerSpec(
            (LayerPenalty("eigen_decay", 0.0), LayerPenalty("l2", 0.0)), (0.0,)
        )
        a = backward(model, X, Y, "mse", none)
        b = backward(model, X, Y, "mse", zero_c)
        for x, y in zip(a.as_list(), b.as_list()):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("loss_kind", [
        "mse", "binary_cross_entropy", "categorical_cross_entropy", "multiclass_hinge",
    ])
    @pytest.mark.parametrize("penalty", ["none", "eigen_decay", "l1", "l2"])
    def test_matches_finite_differences(self, loss_kind, penalty, rng):
        model = small_model(dims=(3, 4, 3, 2), activation="tanh", seed=13)
        X = rng.standard_normal((4, 3))
        Y = encode_batch_pm1(rng.integers(0, 2, size=4), 2)
        if penalty == "none":
            entries = (LayerPenalty(), LayerPenalty(), LayerPenalty())
        else:
            entries = tuple(LayerPenalty(penalty, 0.05) for _ in range(3))
        reg = RegularizerSpec(entries, (0.0, 0.0))
        got = backward(model, X, Y, loss_kind, reg)
        want = finite_diff_model_gradient(model, X, Y, loss_kind, reg, h=1e-5)
        for a, b in zip(got.as_list(), want.as_list()):
            assert max_rel_err(a, b) <= 1e-4

    def test_fixed_dropout_mask_is_differentiated(self, rng):
        model = small_model(dims=(3, 5, 2), seed=17)
        X = rng.standard_normal((4, 3))
        Y = encode_batch_pm1(rng.integers(0, 2, size=4), 2)
        reg = RegularizerSpec(
            (LayerPenalty("eigen_decay", 0.1), LayerPenalty()), (0.4,)
        )
        masks = sample_dropout_masks(reg.dropout, model.hidden_dims, 4, rng)
        got = backward(model, X, Y, "mse", reg, masks)
        want = finite_diff_model_gradient(model, X, Y, "mse", reg, 1e-5, masks)
        for a, b in zip(got.as_list(), want.as_list()):
            assert max_rel_err(a, b) <= 1e-4

    def test_gradient_descends_objective(self, rng):
        model = small_model(dims=(2, 4, 2), seed=23)
        X = rng.standard_normal((8, 2))
        Y = encode_batch_pm1(rng.integers(0, 2, size=8), 2)
        reg = RegularizerSpec(
            (LayerPenalty("eigen_decay", 0.05), LayerPenalty("l2", 0.01)), (0.0,)
        )
        before = total_objective(model, X, Y, "mse", reg).total
        grads = backward(model, X, Y, "mse", reg)
        for layer, dW, db in zip(model.layers, grads.dW, grads.db):
            layer.weights -= 0.1 * dW
            layer.bias -= 0.1 * db
        after = total_objective(model, X, Y, "mse", reg).total
        assert after < before
