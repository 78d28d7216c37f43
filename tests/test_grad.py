import copy

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from conftest import _warned, linear_layer, max_rel_err, small_model
import reference

from eigendecay import grad
from eigendecay.data import encode_batch_pm1
from eigendecay.grad import (
    Gradients,
    backward,
    eigen_decay_gradient,
    finite_diff_gradient,
    finite_diff_model_gradient,
)
from eigendecay.linalg import ITERATE_OVERFLOW, NONFINITE_MATRIX, DegenerateIterateError
from eigendecay.model import Activation, DenseLayer, MlpModel, init_mlp, model_params
from eigendecay.objectives import (
    LOSS_KINDS,
    LayerPenalty,
    RegularizerSpec,
    _StackSpecs,
    penalties,
    sample_dropout_masks,
    total_objective,
)


class TestFiniteDiffOracle:
    # the objective takes stacked parameters and gives one value per member
    def test_quadratic(self, rng):
        w = rng.standard_normal((3, 2))
        g = finite_diff_gradient(lambda ps: np.sum(ps[0] ** 2, axis=(1, 2)), [w], h=1e-5)[0]
        assert np.max(np.abs(g - 2 * w)) < 1e-8

    def test_constant(self):
        w = np.ones((2, 2))
        g = finite_diff_gradient(lambda ps: np.full(len(ps[0]), 3.5), [w], h=1e-5)[0]
        assert np.array_equal(g, np.zeros((2, 2)))

    def test_single_entry_linear(self):
        w = np.zeros((2, 2))
        g = finite_diff_gradient(lambda ps: ps[0][:, 0, 0], [w], h=1e-5)[0]
        np.testing.assert_allclose(g, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda ps: np.zeros(len(ps[0])), [np.zeros(2)], h=0.0)

    def test_restores_parameters(self, rng):
        w = rng.standard_normal((2, 2))
        before = w.copy()
        finite_diff_gradient(lambda ps: np.sum(ps[0], axis=(1, 2)), [w], h=1e-4)
        assert np.array_equal(w, before)

    def test_members_in_parameter_entry_sign_order(self):
        # one member per call: each call sees the next perturbation in order
        a, b = np.array([1.0, 2.0]), np.array([[3.0]])
        seen = []

        def objective(ps):
            seen.extend(zip(ps[0].tolist(), ps[1][:, 0, 0].tolist()))
            return np.zeros(len(ps[0]))

        finite_diff_gradient(objective, [a, b], h=0.5, member_floats=grad.STACK_FLOATS)
        assert seen == [
            ([1.5, 2.0], 3.0), ([0.5, 2.0], 3.0),
            ([1.0, 2.5], 3.0), ([1.0, 1.5], 3.0),
            ([1.0, 2.0], 3.5), ([1.0, 2.0], 2.5),
        ]


def _penalty_values(C, p):
    """The eigen-decay penalty value of each member of a stack of W, from a
    stacked objectives.penalties call on a net whose hidden layer is W;
    raises the first member's error, as finite_diff_model_gradient does."""
    reg = RegularizerSpec((LayerPenalty("eigen_decay", C, p), LayerPenalty()), (0.0,))

    def values(ps):
        R, m = ps[0].shape[:2]
        model = MlpModel([DenseLayer(ps[0], np.zeros((R, m)), Activation("sigmoid"))],
                         DenseLayer(np.zeros((R, 1, m)), np.zeros((R, 1)),
                                    Activation("linear")))
        pens, _, failed = penalties(model, [reg] * R)
        if failed:
            raise failed[min(failed)]
        return [pen[0] for pen in pens]
    return values


def _penalty_value(w, C, p):
    return _penalty_values(C, p)([np.asarray(w, dtype=float)[None]])[0]


def _gradient(w, C, p):
    """The penalty gradient of one W, as a stack of one, once its bits and
    error match reference.power_gradient's; raises the member's error."""
    ws, cs = np.asarray(w, dtype=float)[None], np.array([C])
    grad, failed = eigen_decay_gradient(ws, cs, p)
    want, want_failed = reference.power_gradient(ws, cs, p)
    assert {r: (type(e), str(e)) for r, e in failed.items()} == \
        {r: (type(e), str(e)) for r, e in want_failed.items()}
    np.testing.assert_array_equal(grad.view(np.int64), want.view(np.int64))
    if failed:
        raise failed[0]
    return grad[0]


class TestEigenDecayGradient:
    def test_diag_gradient_concentrates_on_dominant_entry(self):
        # penalty ~ C * w11 for w11 clearly dominant, so the gradient is
        # approximately C at (0,0) and negligible elsewhere
        C = 0.8
        g = _gradient(np.diag([2.0, 1.0]), C, 9)
        fd = finite_diff_gradient(_penalty_values(C, 9), [np.diag([2.0, 1.0])], h=1e-6)[0]
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
        g = _gradient(1.7 * np.eye(n), C, 9)
        np.testing.assert_allclose(g, np.full((n, n), C / n), rtol=1e-12)
        fd = finite_diff_gradient(_penalty_values(C, 9), [1.7 * np.eye(n)], h=1e-6)[0]
        assert max_rel_err(g, fd) <= 1e-4

    def test_matches_finite_differences_random(self, rng):
        for _ in range(8):
            w = rng.standard_normal((int(rng.integers(1, 5)), int(rng.integers(1, 5))))
            C = float(rng.uniform(0.05, 1.0))
            p = int(rng.choice([1, 3, 9]))
            g = _gradient(w, C, p)
            fd = finite_diff_gradient(_penalty_values(C, p), [w], h=1e-6)[0]
            assert max_rel_err(g, fd) <= 1e-4

    def test_normalize_toggle_agrees(self, rng):
        for _ in range(6):
            w = rng.standard_normal((4, 3))
            a = _gradient(w, 0.7, 9)
            b = reference.raw_power_gradient(w, 0.7, 9)
            assert max_rel_err(a, b) <= 1e-6

    def test_zero_matrix_gradient_is_zero(self):
        # matches the penalty value, which is 0 there
        for shape in ((2, 2), (3, 5)):
            w = np.zeros(shape)
            assert _penalty_value(w, 0.5, 9) == 0.0
            g = _gradient(w, 0.5, 9)
            assert np.array_equal(g, np.zeros(shape))

    def test_kernel_start_raises_in_value_and_gradient(self):
        # W W^T = [[1, -1], [-1, 1]] sends the all-ones start to zero
        w = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert isinstance(reference.power(reference.gram(w), 9)[1], DegenerateIterateError)
        with pytest.raises(DegenerateIterateError):
            _penalty_value(w, 0.5, 9)
        with pytest.raises(DegenerateIterateError):
            _gradient(w, 0.5, 9)

    def test_near_zero_spectrum_gives_c_u_vt(self):
        # W = 1e-9 * ones has lambda = 4e-18, and its top singular vectors
        # u = v = (1, 1)/sqrt(2) lie along the all-ones start, so the
        # gradient of C * sqrt(lambda) = C * ||W||_2 is C * u v^T
        g = _gradient(np.full((2, 2), 1e-9), 0.5, 9)
        np.testing.assert_allclose(g, np.full((2, 2), 0.25), rtol=1e-12)

    def test_estimate_below_zero_gets_zero_gradient(self):
        # the column sums to about 0, so the all-ones start is nearly in the
        # kernel of W W^T, and one step reads lambda from rounding alone:
        # about -3e-16 here. The value reads max(lambda, 0), which is flat
        # there, and the gradient is 0 rather than nan.
        w = np.array([[-0.7723013541726013], [1.5825995690031542], [-0.8102982148305529]])
        assert reference.power(reference.gram(w), 1)[0] < 0.0
        assert _penalty_value(w, 0.5, 1) == 0.0
        assert np.array_equal(_gradient(w, 0.5, 1), np.zeros((3, 1)))

    def test_gradient_is_scale_free(self, rng):
        # C * ||W||_2 is linear in the scale of W, so its gradient is the
        # same at s * W as at W for any s whose gram does not underflow
        # and whose penalty value is finite
        w = rng.standard_normal((4, 3))
        want = _gradient(w, 0.5, 9)
        for k in [-k for k in range(8, 61)] + list(range(1, 154)):
            got, warned = _warned(lambda: _gradient(10.0 ** k * w, 0.5, 9))
            assert warned == []
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), k

    def test_gradient_fails_where_the_value_fails_at_huge_scales(self):
        # past 1e153 the first iterate overflows, and past about 1e154 the
        # gram does: the value and the gradient take the same error, with no
        # warning
        w = init_mlp([2, 4, 2], "sigmoid", seed=0).hidden[0].weights
        for k, error, text in ((154, OverflowError, ITERATE_OVERFLOW),
                               (160, ValueError, NONFINITE_MATRIX)):
            def value():
                with pytest.raises(error, match=f"^{text}$"):
                    _penalty_value(10.0 ** k * w, 0.5, 9)
            _, warned = _warned(value)
            assert warned == []
            (grad, failed), warned = _warned(
                lambda: eigen_decay_gradient(10.0 ** k * w[None], np.array([0.5]), 9))
            assert warned == []
            assert {r: (type(e), str(e)) for r, e in failed.items()} == {0: (error, text)}
            assert not grad.any()
            with pytest.raises(error, match=f"^{text}$"):
                _gradient(10.0 ** k * w, 0.5, 9)


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
        # a C = 0 entry joins no penalty group, so no penalty kernel sees it
        assert _StackSpecs([zero_c]).layers == [[], []]
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


def _outcome(fn, *args):
    # the gradient's bits, or the type and text of what the call raised
    try:
        return [np.ascontiguousarray(g).view(np.int64) for g in fn(*args)]
    except Exception as exc:  # whatever the reference raises, the oracle must too
        return (type(exc), str(exc))


def _assert_same_as_reference(model, X, Y, loss_kind, reg, h=1e-5, masks=None):
    before = [p.copy() for p in model_params(model)]
    got = _outcome(lambda *a: finite_diff_model_gradient(*a).as_list(),
                   model, X, Y, loss_kind, reg, h, masks)
    # the stacked oracle leaves the model as it was, even when it raises;
    # the reference left its failing perturbation in place, so it gets a copy
    for p, q in zip(model_params(model), before):
        np.testing.assert_array_equal(p.view(np.int64), q.view(np.int64))
    want = _outcome(reference.model_gradient, copy.deepcopy(model), X, Y, loss_kind,
                    reg, h, masks)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
    else:
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
    return want


_PENALTIES = st.sampled_from([
    LayerPenalty(),
    LayerPenalty("l1", 0.07),
    LayerPenalty("l2", 0.3),
    LayerPenalty("eigen_decay", 0.2, 3),
    LayerPenalty("eigen_decay", 0.05, 9),
    LayerPenalty("eigen_decay", 0.0, 9),
    LayerPenalty("l1", 0.0),
])


@st.composite
def _oracle_cases(draw):
    n_hidden = draw(st.integers(1, 2))
    dims = [draw(st.integers(1, 4)) for _ in range(n_hidden + 2)]
    activation = draw(st.sampled_from(["sigmoid", "tanh", "relu", "linear"]))
    model = init_mlp(dims, activation, seed=draw(st.integers(0, 1000)))
    zero = draw(st.sampled_from([None] + list(range(n_hidden + 1))))
    if zero is not None:
        model.layers[zero].weights[...] = 0.0
    rng = np.random.default_rng(draw(st.integers(0, 1000)))
    for layer in model.layers:
        layer.bias[...] = rng.standard_normal(layer.bias.shape)
    batch = draw(st.integers(1, 4))
    X = rng.standard_normal((batch, dims[0]))
    Y = encode_batch_pm1(rng.integers(0, dims[-1], size=batch), dims[-1])
    dropout = draw(st.booleans())
    reg = RegularizerSpec(
        tuple(draw(_PENALTIES) for _ in range(n_hidden + 1)),
        (0.25,) * n_hidden if dropout else (0.0,) * n_hidden,
    )
    masks = sample_dropout_masks(reg.dropout, model.hidden_dims, batch, rng)
    return model, X, Y, draw(st.sampled_from(LOSS_KINDS)), reg, masks


class TestStackedOracleBits:
    """finite_diff_model_gradient against the frozen per-perturbation loop:
    the same bits, or the same first error."""

    @given(_oracle_cases())
    @settings(max_examples=80, deadline=None)
    def test_small_models(self, case):
        _assert_same_as_reference(*case[:5], masks=case[5])

    def test_perturbations_span_several_chunks(self, rng, monkeypatch):
        # 1,570 members of 1,025 floats each: about 64 per chunk
        model = small_model(dims=(20, 30, 5), activation="tanh", seed=3)
        X = rng.standard_normal((8, 20))
        Y = encode_batch_pm1(rng.integers(0, 5, size=8), 5)
        reg = RegularizerSpec(
            (LayerPenalty("eigen_decay", 0.1, 9), LayerPenalty("l2", 0.01)), (0.2,))
        masks = sample_dropout_masks(reg.dropout, model.hidden_dims, 8, rng)
        chunks = []
        stacked_calls = grad.total_objective

        def spy(model, X, *args, **kwargs):
            if X.ndim == 3:
                chunks.append(model.output.weights.shape[0])
            return stacked_calls(model, X, *args, **kwargs)

        monkeypatch.setattr(grad, "total_objective", spy)
        _assert_same_as_reference(model, X, Y, "categorical_cross_entropy", reg, masks=masks)
        assert len(chunks) > 20 and sum(chunks) == 2 * 785

    # W W^T = [[1, -1], [-1, 1]] sends the all-ones start to zero; any
    # weight perturbation moves it out of the kernel, any other does not
    KERNEL = [[1.0, 0.0], [-1.0, 0.0]]
    # entries whose gram overflows, for every perturbation
    HUGE = [[1e160, 2e160], [3e160, -1e160]]

    @pytest.mark.parametrize("hidden, output, error", [
        # the first bias perturbation is the first to raise
        (KERNEL, None, DegenerateIterateError),
        # the first perturbation raises in the output layer only, the last
        # one in both: the first perturbation's error is raised
        (KERNEL, HUGE, ValueError),
        # every perturbation raises in both layers: the first layer's error
        (HUGE, KERNEL, ValueError),
    ], ids=["kernel_start", "first_perturbation", "first_layer"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_raises_the_first_error(self, rng, hidden, output, error):
        out = rng.standard_normal((2, 2)) if output is None else np.array(output)
        model = MlpModel([DenseLayer(np.array(hidden), np.zeros(2), Activation("tanh"))],
                         linear_layer(out))
        X = rng.standard_normal((3, 2))
        Y = encode_batch_pm1(np.array([0, 1, 1]), 2)
        reg = RegularizerSpec(
            (LayerPenalty("eigen_decay", 0.5),
             LayerPenalty("l1" if output is None else "eigen_decay", 0.1)), (0.0,))
        want = _assert_same_as_reference(model, X, Y, "mse", reg)
        assert want[0] is error

    def test_zero_penalties_ignore_failed_iterates(self, rng):
        # C == 0 on the kernel start, and C > 0 on the zero matrix, whose
        # iterations both fail, give 0 and raise nothing
        model = MlpModel([DenseLayer(np.array(self.KERNEL), np.zeros(2), Activation("tanh"))],
                         linear_layer(np.zeros((2, 2))))
        X = rng.standard_normal((3, 2))
        Y = encode_batch_pm1(np.array([0, 1, 1]), 2)
        reg = RegularizerSpec(
            (LayerPenalty("eigen_decay", 0.0), LayerPenalty("eigen_decay", 0.3)), (0.0,))
        want = _assert_same_as_reference(model, X, Y, "mse", reg)
        assert not isinstance(want, tuple)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_parameters(self, rng, value):
        # no check rejects them; a penalized layer raises, others give nan
        model = small_model(dims=(2, 3, 2), seed=5)
        X = rng.standard_normal((3, 2))
        Y = encode_batch_pm1(np.array([0, 1, 1]), 2)
        model.output.bias[1] = value
        for kinds in (("eigen_decay", "none"), ("l2", "l1")):
            reg = RegularizerSpec(tuple(LayerPenalty(k, 0.1) for k in kinds), (0.0,))
            _assert_same_as_reference(model, X, Y, "mse", reg)
        model.hidden[0].weights[0, 0] = value
        for kinds in (("none", "l1"), ("eigen_decay", "l1"), ("l2", "eigen_decay")):
            reg = RegularizerSpec(tuple(LayerPenalty(k, 0.1) for k in kinds), (0.0,))
            _assert_same_as_reference(model, X, Y, "mse", reg)

    def test_input_errors_keep_their_text(self, rng):
        model = small_model(dims=(2, 3, 2), seed=5)
        Y = encode_batch_pm1(np.array([0, 1]), 2)
        reg = RegularizerSpec((LayerPenalty("l1", 0.1), LayerPenalty()), (0.0,))
        bad_masks = [np.ones((3, 3))]
        for X, loss, r, masks, h in (
            (rng.standard_normal((2, 5)), "mse", reg, None, 1e-5),
            (rng.standard_normal((2, 2)), "mse", reg, bad_masks, 1e-5),
            (rng.standard_normal((2, 2)), "nope", reg, None, 1e-5),
            (rng.standard_normal((2, 2)), "mse", RegularizerSpec.none(3, 1), None, 1e-5),
            (rng.standard_normal((0, 2)), "mse", reg, None, 1e-5),
            (rng.standard_normal((2, 5)), "mse", reg, None, 0.0),
        ):
            want = _assert_same_as_reference(model, X, Y, loss, r, h, masks)
            assert isinstance(want, tuple)

    @pytest.mark.parametrize("kinds, iterated", [
        (("none", "l2"), set()),
        (("l1", "none"), set()),
        (("eigen_decay", "l1"), {(3, 3)}),
        (("l2", "eigen_decay"), {(4, 4)}),
        (("eigen_decay", "eigen_decay"), {(3, 3), (4, 4)}),
    ])
    def test_iterates_only_penalized_eigen_decay_layers(self, rng, monkeypatch, kinds,
                                                        iterated):
        # the hidden gram is 3x3 and the output gram 4x4; no other layer's
        # lambda is read, so none is computed, not even by the preflight call
        from eigendecay import objectives

        grams = []
        original = objectives.power_dominant_eigen

        def counting(m, *args, **kwargs):
            grams.append(m.shape[1:])
            return original(m, *args, **kwargs)

        monkeypatch.setattr(objectives, "power_dominant_eigen", counting)
        model = small_model(dims=(2, 3, 4), seed=5)
        X = rng.standard_normal((5, 2))
        Y = encode_batch_pm1(rng.integers(0, 4, size=5), 4)
        for c in (0.0, 0.1):
            grams.clear()
            reg = RegularizerSpec(tuple(LayerPenalty(k, c) for k in kinds), (0.0,))
            finite_diff_model_gradient(model, X, Y, "mse", reg)
            assert set(grams) == (iterated if c else set())
