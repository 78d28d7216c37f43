import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import linear_layer, rotation, small_model

from eigendecay.grad import backward
from eigendecay.linalg import exact_dominant_eigen, gram
from eigendecay.model import Activation, DenseLayer, MlpModel, _with_params, model_params
from eigendecay.objectives import (
    LOSS_KINDS,
    LayerPenalty,
    RegularizerSpec,
    eigen_decay_penalty,
    loss_batch,
    loss_gradient_batch,
    penalties,
    sample_dropout_masks,
    total_objective,
)


def _penalty(kind, w, c):
    """The penalty value of weights w, as the first layer of a model."""
    w = np.asarray(w, dtype=float)
    model = MlpModel([DenseLayer(w, np.zeros(len(w)), Activation("sigmoid"))],
                     linear_layer(np.zeros((1, len(w)))))
    return penalties(model, RegularizerSpec((LayerPenalty(kind, c), LayerPenalty()), (0.0,)))[0]


def _example_loss(kind, y_hat, y_target):
    """Loss of one example, as the mean over a batch of one row."""
    return loss_batch(kind, np.array([y_hat], dtype=float),
                      np.array([y_target], dtype=float))


class TestLoss:
    def test_hinge_satisfied_margins_cost_nothing(self):
        assert _example_loss("multiclass_hinge", [1.5, -2.0], [1.0, -1.0]) == 0.0
        # zero exactly on the margin boundary y*yhat = 1
        assert _example_loss("multiclass_hinge", [1.0, -1.0], [1.0, -1.0]) == 0.0

    def test_hinge_hand_value(self):
        # max(0, 1-0.2) = 0.8 on the first output, second is beyond margin
        assert _example_loss("multiclass_hinge", [0.2, -2.0], [1.0, -1.0]) == pytest.approx(0.8)

    def test_mse_perfect_fit(self):
        assert _example_loss("mse", [1.0, -1.0], [1.0, -1.0]) == 0.0

    def test_mse_rejects_unencoded_targets(self):
        with pytest.raises(ValueError):
            _example_loss("mse", [0.5, 0.5], [0.3, -1.0])

    def test_hinge_rejects_unencoded_targets(self):
        with pytest.raises(ValueError):
            _example_loss("multiclass_hinge", [0.5], [0.0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            _example_loss("huber", [0.0], [1.0])

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    @pytest.mark.parametrize("shape", [(0,), (3, 0), (2, 3, 0)])
    @pytest.mark.parametrize("fn", [loss_batch, loss_gradient_batch])
    def test_zero_width_batch_rejected(self, fn, shape, kind):
        # an empty 1-D pair is a batch of one row with no outputs
        with pytest.raises(ValueError, match="^batch must be nonempty$"):
            fn(kind, np.zeros(shape), np.zeros(shape))

    @pytest.mark.parametrize(
        "kind",
        ["mse", "binary_cross_entropy", "categorical_cross_entropy", "multiclass_hinge"],
    )
    def test_nonnegative(self, kind, rng):
        for _ in range(20):
            L = int(rng.integers(1, 5))
            yhat = rng.standard_normal(L) * 3
            target = np.full(L, -1.0)
            target[rng.integers(0, L)] = 1.0
            assert _example_loss(kind, yhat, target) >= 0.0

    def test_categorical_matches_probability_form(self, rng):
        for _ in range(10):
            L = int(rng.integers(2, 6))
            z = rng.standard_normal(L)
            target = np.full(L, -1.0)
            c = int(rng.integers(0, L))
            target[c] = 1.0
            p = np.exp(z) / np.sum(np.exp(z))
            assert _example_loss("categorical_cross_entropy", z, target) == pytest.approx(
                -np.log(p[c]), rel=1e-12
            )

    def test_binary_matches_probability_form(self, rng):
        for _ in range(10):
            z = rng.standard_normal(3)
            target = np.where(rng.random(3) < 0.5, 1.0, -1.0)
            t = (target + 1) / 2
            s = 1 / (1 + np.exp(-z))
            ref = -np.sum(t * np.log(s) + (1 - t) * np.log(1 - s))
            assert _example_loss("binary_cross_entropy", z, target) == pytest.approx(ref, rel=1e-10)

    def test_gradients_match_finite_differences(self, rng):
        h = 1e-6
        for kind in (
            "mse",
            "binary_cross_entropy",
            "categorical_cross_entropy",
            "multiclass_hinge",
        ):
            Yhat = rng.standard_normal((3, 4))
            Y = np.full((3, 4), -1.0)
            Y[np.arange(3), [1, 0, 3]] = 1.0
            G = loss_gradient_batch(kind, Yhat, Y)
            for i, j in np.ndindex(Yhat.shape):
                up, dn = Yhat.copy(), Yhat.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd = (loss_batch(kind, up, Y) - loss_batch(kind, dn, Y)) / (2 * h)
                assert G[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestEigenDecayPenalty:
    def test_hand_value(self):
        # gram([[3,0],[0,0]]) = diag(9, 0); the ones start has overlap with
        # e1, and the iterate converges to it exactly at any p
        assert _penalty("eigen_decay", [[3.0, 0.0], [0.0, 0.0]], 0.1) == pytest.approx(0.3)

    def test_zero_coefficient(self, rng):
        w = rng.standard_normal((3, 2))
        assert _penalty("eigen_decay", w, 0.0) == 0.0
        assert eigen_decay_penalty(w, 0.0, 4.0) == 0.0

    def test_identity_gram(self):
        assert _penalty("eigen_decay", np.eye(4), 0.7) == pytest.approx(0.7)

    def test_zero_matrix_has_zero_penalty(self):
        assert _penalty("eigen_decay", np.zeros((3, 2)), 0.5) == 0.0
        # the iteration cannot start there, and its lambda is not read
        assert eigen_decay_penalty(np.zeros((3, 2)), 0.5, np.nan) == 0.0

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            eigen_decay_penalty(np.eye(2), -0.1, 1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_right_rotation(self, seed):
        # W and WQ share the same gram spectrum; checked through the exact
        # solver, which is exactly rotation-invariant
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        w = rng.standard_normal((rows, cols))
        q = rotation(cols, 1.0, seed + 1)
        a = exact_dominant_eigen(gram(w))
        b = exact_dominant_eigen(gram(w @ q))
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_l2_trace_dominates_dominant_eigenvalue(self, seed):
        # c * sum(w^2) = c * trace(W W^T) >= c * lambda_dom(W W^T)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        c = 0.3
        assert _penalty("l2", w, c) >= c * exact_dominant_eigen(gram(w)) - 1e-12


class TestElementwisePenalties:
    def test_hand_values(self):
        w = np.array([[1.0, -2.0]])
        assert _penalty("l1", w, 1.0) == pytest.approx(3.0)
        assert _penalty("l2", w, 1.0) == pytest.approx(5.0)

    def test_zero_coefficient(self):
        w = np.array([[1.0, -2.0]])
        assert _penalty("l1", w, 0.0) == 0.0
        assert _penalty("l2", w, 0.0) == 0.0

    def test_zero_matrix(self):
        assert _penalty("l1", np.zeros((2, 2)), 1.0) == 0.0
        assert _penalty("l2", np.zeros((2, 2)), 1.0) == 0.0


class TestDropout:
    def test_rate_zero_is_identity(self, rng):
        assert sample_dropout_masks((0.0,), [3], 4, rng) is None
        masks = sample_dropout_masks((0.0, 0.5), [3, 2], 4, rng)
        assert masks[0] is None
        assert masks[1].shape == (4, 2)

    def test_seeded_mask_reproducible(self):
        a = sample_dropout_masks((0.5,), [10], 3, np.random.default_rng(77))[0]
        b = sample_dropout_masks((0.5,), [10], 3, np.random.default_rng(77))[0]
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {0.0, 2.0}

    def test_rejects_bad_rate(self, rng):
        with pytest.raises(ValueError):
            sample_dropout_masks((1.0,), [3], 2, rng)
        with pytest.raises(ValueError):
            RegularizerSpec((LayerPenalty(), LayerPenalty()), (1.0,))

    def test_survivor_scaling_is_unbiased(self):
        # monte-carlo oracle: the mean over many draws approaches the input
        rng = np.random.default_rng(5)
        y = np.array([2.0, -1.0, 0.5])
        mask = sample_dropout_masks((0.5,), [3], 100_000, rng)[0]
        mean = np.mean(mask * y, axis=0)
        assert np.all(np.abs(mean - y) <= 0.02 * np.abs(y))


class TestTotalObjective:
    def test_no_penalties_equals_loss(self, rng):
        model = small_model(seed=4)
        X = rng.standard_normal((5, 2))
        Y = np.tile([1.0, -1.0], (5, 1))
        reg = RegularizerSpec.none(2, 1)
        obj = total_objective(model, X, Y, "mse", reg)
        assert obj.total == obj.loss
        assert obj.penalties == (0.0, 0.0)

    def test_zero_weight_model_has_zero_eigen_penalty(self):
        h = DenseLayer(np.zeros((3, 2)), np.zeros(3), Activation("sigmoid"))
        model = MlpModel([h], linear_layer(np.zeros((2, 3))))
        reg = RegularizerSpec(
            (LayerPenalty("eigen_decay", 0.5), LayerPenalty()), (0.0,)
        )
        X = np.array([[0.1, 0.2]])
        Y = np.array([[-1.0, 1.0]])
        obj = total_objective(model, X, Y, "mse", reg)
        assert obj.penalties[0] == 0.0
        assert obj.total == obj.loss

    def test_hand_penalty_composition(self):
        h = DenseLayer(
            np.array([[3.0, 0.0], [0.0, 0.0]]), np.zeros(2), Activation("sigmoid")
        )
        model = MlpModel([h], linear_layer(np.eye(2)))
        reg = RegularizerSpec(
            (LayerPenalty("eigen_decay", 0.1), LayerPenalty()), (0.0,)
        )
        X = np.array([[1.0, 1.0]])
        Y = np.array([[1.0, -1.0]])
        obj = total_objective(model, X, Y, "mse", reg)
        assert obj.penalties[0] == pytest.approx(0.3)
        assert obj.total == pytest.approx(obj.loss + 0.3)

    def test_total_never_below_loss(self, rng):
        model = small_model(dims=(2, 4, 2), seed=8)
        X = rng.standard_normal((4, 2))
        Y = np.tile([1.0, -1.0], (4, 1))
        for kind in ("eigen_decay", "l1", "l2"):
            reg = RegularizerSpec(
                (LayerPenalty(kind, 0.2), LayerPenalty(kind, 0.1)), (0.0,)
            )
            obj = total_objective(model, X, Y, "mse", reg)
            assert obj.total >= obj.loss

    def test_empty_batch_rejected(self):
        model = small_model()
        reg = RegularizerSpec.none(2, 1)
        with pytest.raises(ValueError):
            total_objective(model, np.zeros((0, 2)), np.zeros((0, 2)), "mse", reg)

    def test_layer_count_mismatch_rejected(self, rng):
        model = small_model()
        reg = RegularizerSpec.none(3, 1)
        with pytest.raises(ValueError):
            total_objective(
                model, rng.standard_normal((2, 2)), np.tile([1.0, -1.0], (2, 1)),
                "mse", reg,
            )


MEMBERS = 3
REJECTED_BATCHES = ["x_1d", "wrong_rank", "wrong_width", "empty", "targets", "y_shape",
                    "loss_kind"]


def _rejected_batch(case, stacked):
    """(X, Y, loss kind, error pattern) of one batch that a 2-3-2 model, or
    a stack of MEMBERS of them, rejects. wrong_rank is a 3-D X on the 2-D
    model and a 2-D X on the stack."""
    lead = (MEMBERS,) if stacked else ()
    X = np.random.default_rng(0).standard_normal(lead + (4, 2))
    Y = np.broadcast_to([1.0, -1.0], lead + (4, 2))
    shaped = {"x_1d": X.reshape(-1)[:2], "wrong_rank": X[0] if stacked else X[None],
              "wrong_width": X[..., :1]}
    if case in shaped:
        X = shaped[case]
        expects = f"({'R, ' if stacked else ''}n, 2)"
        return X, Y, "mse", re.escape(f"batch has shape {X.shape} but the model expects {expects}")
    return {
        "empty": (X[..., :0, :], Y[..., :0, :], "mse", "batch must be nonempty"),
        "targets": (X, 0.5 * Y, "mse", re.escape("mse targets must be encoded as +/-1")),
        "y_shape": (X, Y[..., :3, :], "mse", "shape mismatch"),
        "loss_kind": (X, Y, "huber", "unknown loss kind 'huber'"),
    }[case]


@pytest.mark.parametrize("case", REJECTED_BATCHES)
@pytest.mark.parametrize("stacked", [False, True], ids=["2d", "stacked"])
@pytest.mark.parametrize("fn", [total_objective, backward], ids=["total_objective", "backward"])
def test_rejected_batch_raises_its_error(fn, stacked, case):
    model = small_model()
    reg = RegularizerSpec.none(2, 1)
    if stacked:
        model = _with_params(model, [np.stack([p] * MEMBERS) for p in model_params(model)])
        reg = [reg] * MEMBERS
    X, Y, loss_kind, pattern = _rejected_batch(case, stacked)
    with pytest.raises(ValueError, match=pattern):
        fn(model, X, Y, loss_kind, reg)
