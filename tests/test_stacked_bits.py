"""numpy over a leading member axis gives each slice exactly the bits of the
2-D call. The stacked SGD loop (train._sgd_stack) rests on this: a numpy or
BLAS upgrade that breaks it fails here, before any output changes."""

import warnings

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from eigendecay import train
from eigendecay.data import gen_two_gaussians
from eigendecay.grad import backward, eigen_decay_gradient
from eigendecay.linalg import DegenerateIterateError, gram, power_dominant_eigen
from eigendecay.model import Activation, DenseLayer, MlpModel, init_mlp, model_params
from eigendecay.objectives import (
    LOSS_KINDS,
    LayerPenalty,
    RegularizerSpec,
    loss_batch,
    total_objective,
)
from eigendecay.train import DivergenceError, TrainConfig, sgd_train

# (layer sizes, batch): the gauss_grid net and the digits_epoch net
SHAPES = [((2, 8, 2), 16), ((784, 128, 10), 128)]
STACKS = [1, 3]


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_bitwise(stacked, slices):
    assert stacked.shape == (len(slices),) + slices[0].shape
    for got, want in zip(stacked, slices):
        np.testing.assert_array_equal(_bits(got), _bits(want))


def _stack(shape, R, rng):
    # a sign mix and a spread of magnitudes, so rounding has work to do
    return rng.standard_normal((R,) + shape) * rng.uniform(0.1, 3.0, (R,) + shape)


@pytest.mark.parametrize("R", STACKS)
@pytest.mark.parametrize("sizes, B", SHAPES)
class TestPrimitives:
    def test_forward_gemm_with_transposed_weights(self, sizes, B, R):
        rng = np.random.default_rng(1)
        for d, h in zip(sizes[:-1], sizes[1:]):
            Y, W = _stack((B, d), R, rng), _stack((h, d), R, rng)
            assert_bitwise(Y @ np.swapaxes(W, -1, -2), [Y[r] @ W[r].T for r in range(R)])

    def test_weight_gradient_gt_y(self, sizes, B, R):
        rng = np.random.default_rng(2)
        for d, h in zip(sizes[:-1], sizes[1:]):
            G, Y = _stack((B, h), R, rng), _stack((B, d), R, rng)
            assert_bitwise(np.swapaxes(G, -1, -2) @ Y, [G[r].T @ Y[r] for r in range(R)])

    def test_backprop_g_w(self, sizes, B, R):
        rng = np.random.default_rng(3)
        for d, h in zip(sizes[:-1], sizes[1:]):
            G, W = _stack((B, h), R, rng), _stack((h, d), R, rng)
            assert_bitwise(G @ W, [G[r] @ W[r] for r in range(R)])

    def test_w_wt(self, sizes, B, R):
        rng = np.random.default_rng(4)
        for d, h in zip(sizes[:-1], sizes[1:]):
            W = _stack((h, d), R, rng)
            assert_bitwise(W @ np.swapaxes(W, -1, -2), [W[r] @ W[r].T for r in range(R)])

    def test_gemv(self, sizes, B, R):
        rng = np.random.default_rng(5)
        for h in sizes[1:]:
            M, v = _stack((h, h), R, rng), _stack((h,), R, rng)
            assert_bitwise((M @ v[..., None])[..., 0], [M[r] @ v[r] for r in range(R)])

    def test_dot(self, sizes, B, R):
        rng = np.random.default_rng(6)
        for n in sizes:
            a, b = _stack((n,), R, rng), _stack((n,), R, rng)
            stacked = (a[:, None, :] @ b[:, :, None])[:, 0, 0]
            assert_bitwise(stacked[:, None], [np.array([a[r] @ b[r]]) for r in range(R)])

    def test_norm_is_sqrt_of_dot(self, sizes, B, R):
        rng = np.random.default_rng(7)
        for n in sizes:
            v = _stack((n,), R, rng)
            stacked = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
            assert_bitwise(stacked[:, None],
                           [np.array([np.linalg.norm(v[r])]) for r in range(R)])

    def test_outer_is_broadcast_product(self, sizes, B, R):
        rng = np.random.default_rng(8)
        for n in sizes[1:]:
            a, b = _stack((n,), R, rng), _stack((n,), R, rng)
            assert_bitwise(a[:, :, None] * b[:, None, :],
                           [np.outer(a[r], b[r]) for r in range(R)])

    def test_bias_sums_over_the_batch_axis(self, sizes, B, R):
        rng = np.random.default_rng(9)
        for h in sizes[1:]:
            G = _stack((B, h), R, rng)
            assert_bitwise(G.sum(axis=1), [G[r].sum(axis=0) for r in range(R)])

    def test_gram_mirror(self, sizes, B, R):
        rng = np.random.default_rng(10)
        for d, h in zip(sizes[:-1], sizes[1:]):
            W = _stack((h, d), R, rng)
            W[:, 0] = 0.0
            W[:, 0, 0] = -0.0  # a -0.0 on the diagonal becomes +0.0 either way
            want = []
            for r in range(R):
                g = W[r] @ W[r].T
                want.append(np.tril(g) + np.tril(g, -1).T)
            g = W @ np.swapaxes(W, -1, -2)
            mirrored = np.where(np.tri(h, dtype=bool), g, np.swapaxes(g, -1, -2)) + 0.0
            assert_bitwise(mirrored, want)
            assert_bitwise(gram(W), want)


@pytest.mark.parametrize("R", STACKS)
@pytest.mark.parametrize("sizes, B", SHAPES)
def test_eigen_decay_gradient_stack_matches_each_member(sizes, B, R):
    rng = np.random.default_rng(11)
    for d, h in zip(sizes[:-1], sizes[1:]):
        W = _stack((h, d), R, rng)
        C = rng.uniform(0.001, 0.1, R)
        stacked = eigen_decay_gradient(W, C, 9)
        assert_bitwise(stacked, [eigen_decay_gradient(W[r], C[r], 9) for r in range(R)])


def test_eigen_decay_gradient_stack_zeroes_dead_members():
    rng = np.random.default_rng(12)
    W = _stack((4, 3), 4, rng)
    W[1] = 0.0
    W[3] *= 1e-9  # lambda ~ 1e-18, below the gradient floor
    C = np.array([0.5, 0.5, 0.0, 0.5])
    with pytest.warns(RuntimeWarning, match="below"):
        stacked = eigen_decay_gradient(W, C)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert_bitwise(stacked, [eigen_decay_gradient(W[r], C[r]) for r in range(4)])
    assert not np.any(stacked[[1, 2, 3]])


def test_degenerate_members_are_marked_and_zeroed():
    rng = np.random.default_rng(13)
    W = _stack((2, 2), 5, rng)
    for r in (1, 3):
        W[r, 1] = -W[r, 0]  # W W^T maps the all-ones start to zero
    W[4, 0, 1] = np.nan
    grad, failed = eigen_decay_gradient(W, 0.5, return_failed=True)
    assert sorted(failed) == [1, 3, 4]
    for r in (1, 3):
        assert isinstance(failed[r], DegenerateIterateError)
        assert "zero vector" in str(failed[r])
    assert type(failed[4]) is ValueError
    assert str(failed[4]) == "matrix entries must be finite"
    assert not np.any(grad[[1, 3, 4]])
    assert_bitwise(grad[[0, 2]], [eigen_decay_gradient(W[r], 0.5) for r in (0, 2)])
    with pytest.raises(ValueError, match="must be finite"):
        eigen_decay_gradient(W, 0.5)
    with pytest.raises(DegenerateIterateError, match="zero vector"):
        eigen_decay_gradient(W[:4], 0.5)
    with pytest.raises(DegenerateIterateError, match="zero vector"):
        eigen_decay_gradient(W[1], 0.5)
    with pytest.raises(ValueError, match="must be finite"):
        eigen_decay_gradient(W[4], 0.5, return_failed=True)
    grad, failed = eigen_decay_gradient(W[1], 0.5, return_failed=True)
    assert list(failed) == [0] and not np.any(grad)


@pytest.mark.parametrize("R", STACKS)
@pytest.mark.parametrize("sizes, B", SHAPES)
def test_backward_stack_matches_each_member(sizes, B, R):
    rng = np.random.default_rng(14)
    models = [init_mlp(list(sizes), "tanh", seed=int(s)) for s in rng.integers(0, 99, R)]
    params = [np.stack(p) for p in zip(*(model_params(m) for m in models))]
    act = Activation("tanh")
    stack = MlpModel([DenseLayer(params[0], params[1], act)],
                     DenseLayer(params[2], params[3], Activation("linear")))
    X = rng.uniform(0.0, 1.0, (R, B, sizes[0]))
    Y = np.where(rng.random((R, B, sizes[-1])) < 0.5, -1.0, 1.0)
    masks = [np.where(rng.random((R, B, sizes[1])) < 0.2, 0.0, 1.25)]
    penalties = [LayerPenalty("eigen_decay", 0.01), LayerPenalty("l1", 0.001),
                 LayerPenalty("l2", 0.002), LayerPenalty()]
    regs = [RegularizerSpec((penalties[r % 4], penalties[(r + 1) % 4]), (0.2,))
            for r in range(R)]
    got = backward(stack, X, Y, "categorical_cross_entropy", regs, masks)
    assert got.failed == {}
    want = [backward(models[r], X[r], Y[r], "categorical_cross_entropy", regs[r],
                     [masks[0][r]]) for r in range(R)]
    for k, stacked in enumerate(got.as_list()):
        assert_bitwise(stacked, [w.as_list()[k] for w in want])


def test_backward_stack_reports_failed_members():
    rng = np.random.default_rng(15)
    W0 = _stack((2, 2), 3, rng)
    W0[0, 1] = -W0[0, 0]  # member 0 degenerates
    stack = MlpModel([DenseLayer(W0, np.zeros((3, 2)), Activation("tanh"))],
                     DenseLayer(_stack((2, 2), 3, rng), np.zeros((3, 2)),
                                Activation("linear")))
    # member 2's weights go non-finite during training, after the check
    stack.hidden[0].weights[2, 0, 0] = np.inf
    reg = RegularizerSpec((LayerPenalty("eigen_decay", 0.1), LayerPenalty()), (0.0,))
    X = rng.standard_normal((3, 4, 2))
    Y = np.where(rng.random((3, 4, 2)) < 0.5, -1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = backward(stack, X, Y, "mse", [reg] * 3)
    assert sorted(got.failed) == [0, 2]
    assert "zero vector" in str(got.failed[0])
    assert str(got.failed[2]) == "matrix entries must be finite"
    # the healthy member's slice is its single-run gradient
    single = MlpModel([DenseLayer(W0[1], np.zeros(2), Activation("tanh"))],
                      DenseLayer(stack.output.weights[1], np.zeros(2), Activation("linear")))
    want = backward(single, X[1], Y[1], "mse", reg)
    for stacked, w in zip(got.as_list(), want.as_list()):
        np.testing.assert_array_equal(_bits(stacked[1]), _bits(w))


def _power_1d(m, p):
    """The normalized power iteration written with 1-D numpy: GEMV, the
    max-abs peak and np.linalg.norm."""
    v = np.ones(m.shape[0])
    for _ in range(p):
        v = m @ v
        v = v / float(np.max(np.abs(v)))
        v = v / float(np.linalg.norm(v))
    return float((m @ v) @ v) / float(v @ v), v


@pytest.mark.parametrize("R", STACKS)
@pytest.mark.parametrize("sizes, B", SHAPES)
def test_power_dominant_eigen_stack_matches_each_member(sizes, B, R):
    rng = np.random.default_rng(16)
    for d, h in zip(sizes[:-1], sizes[1:]):
        M = gram(_stack((h, d), R, rng))
        for p in (1, 5, 9):
            est = power_dominant_eigen(M, p)
            assert est.failed == {} and est.iterations_used == p
            want = [power_dominant_eigen(M[r], p) for r in range(R)]
            assert_bitwise(est.lambda_dom[:, None], [np.array([w.lambda_dom]) for w in want])
            assert_bitwise(est.v_dom, [w.v_dom for w in want])
            # and the 2-D call has the bits of the 1-D iteration
            for r, w in enumerate(want):
                lam, v = _power_1d(M[r], p)
                assert_bitwise(np.array([[w.lambda_dom]]), [np.array([lam])])
                assert_bitwise(w.v_dom[None], [v])


@pytest.mark.parametrize("kind", LOSS_KINDS)
@pytest.mark.parametrize("R", STACKS)
@pytest.mark.parametrize("sizes, B", SHAPES)
def test_loss_batch_stack_matches_each_member(sizes, B, R, kind):
    rng = np.random.default_rng(17)
    L = sizes[-1]
    # a minibatch, and a full-data pass long enough for pairwise summation
    for n in (B, 1000):
        Yhat = _stack((n, L), R, rng)
        Y = np.where(rng.random((R, n, L)) < 0.5, -1.0, 1.0)
        got = loss_batch(kind, Yhat, Y)
        want = [loss_batch(kind, Yhat[r], Y[r]) for r in range(R)]
        assert all(type(w) is float for w in want)
        assert_bitwise(got[:, None], [np.array([w]) for w in want])


@pytest.mark.parametrize("R", STACKS)
@pytest.mark.parametrize("sizes, B", SHAPES)
def test_total_objective_stack_matches_each_member(sizes, B, R):
    rng = np.random.default_rng(18)
    models = [init_mlp(list(sizes), "sigmoid", seed=int(s)) for s in rng.integers(0, 99, R)]
    params = [np.stack(p) for p in zip(*(model_params(m) for m in models))]
    stack = MlpModel([DenseLayer(params[0], params[1], Activation("sigmoid"))],
                     DenseLayer(params[2], params[3], Activation("linear")))
    X = rng.uniform(0.0, 1.0, (R, B, sizes[0]))
    Y = np.where(rng.random((R, B, sizes[-1])) < 0.5, -1.0, 1.0)
    penalties = [LayerPenalty("eigen_decay", 0.01, 5), LayerPenalty("l1", 0.001),
                 LayerPenalty("l2", 0.002), LayerPenalty()]
    regs = [RegularizerSpec((penalties[r % 4], penalties[(r + 2) % 4]), (0.0,))
            for r in range(R)]
    for lambdas in (None, [(1.5, 2.5)] * R):
        got = total_objective(stack, X, Y, "multiclass_hinge", regs, lambdas=lambdas)
        want = [total_objective(models[r], X[r], Y[r], "multiclass_hinge", regs[r],
                                lambdas=None if lambdas is None else lambdas[r])
                for r in range(R)]
        assert [(o.loss, o.penalties, o.total) for o in got] == \
            [(o.loss, o.penalties, o.total) for o in want]
        assert all(type(o.total) is float for o in got)


def _outcome(call):
    """What a call gives: ("ok", result) or ("raise", type, message)."""
    try:
        return ("ok", call())
    except (ValueError, OverflowError, DegenerateIterateError) as exc:
        return ("raise", type(exc), str(exc))


# Penalty edge cases: zero weights (the iteration cannot start), rank-1
# weights, weights whose gram is huge or overflows, and weights whose gram
# sends the all-ones start to zero (two rows w and -w)
EDGE_KINDS = ("gaussian", "zero", "rank1", "huge", "kernel")


@st.composite
def edge_stacks(draw):
    rows, cols = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(EDGE_KINDS), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ws = []
    for kind in kinds:
        w = rng.standard_normal((rows, cols))
        if kind == "zero":
            w[:] = 0.0
        elif kind == "rank1":
            w = np.outer(rng.standard_normal(rows), rng.standard_normal(cols))
        elif kind == "huge":
            # gram entries from about 1e280 (finite) to 1e400 (overflow)
            w *= 10.0 ** draw(st.integers(140, 200))
        elif kind == "kernel":
            w[2:] = 0.0
            w[1] = -w[0]
        ws.append(w)
    return np.stack(ws)


def _assert_same_eigen_outcomes(W, p):
    est = power_dominant_eigen(gram(W), p)
    for r in range(len(W)):
        want = _outcome(lambda: power_dominant_eigen(gram(W[r]), p).lambda_dom)
        if want[0] == "ok":
            assert r not in est.failed
            assert_bitwise(est.lambda_dom[r:r + 1, None], [np.array([want[1]])])
        else:
            exc = est.failed[r]
            assert ("raise", type(exc), str(exc)) == want
            assert np.isnan(est.lambda_dom[r])


def _assert_same_gradient_outcomes(W, C, p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        grad, failed = eigen_decay_gradient(W, C, p, return_failed=True)
        for r in range(len(W)):
            want = _outcome(lambda: eigen_decay_gradient(W[r], C, p))
            value = _outcome(lambda: power_dominant_eigen(gram(W[r]), p).lambda_dom)
            if want[0] == "ok":
                assert r not in failed
                assert np.isfinite(want[1]).all()
                assert_bitwise(grad[r:r + 1], [want[1]])
            else:
                assert ("raise", type(failed[r]), str(failed[r])) == want
                assert not np.any(grad[r])
            # where the penalty value fails for a gram or iterate past float
            # range, the gradient fails with the same error, and only there
            overflowed = [o[0] == "raise" and o[1] in (ValueError, OverflowError)
                          for o in (want, value)]
            if any(overflowed):
                assert want == value


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@given(edge_stacks(), st.sampled_from([1, 3, 9]))
@settings(max_examples=60, deadline=None)
def test_stacked_eigen_edge_cases_match_each_member(W, p):
    _assert_same_eigen_outcomes(W, p)
    _assert_same_gradient_outcomes(W, 0.5, p)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_all_ones_start_in_the_kernel():
    W = np.stack([np.array([[1.0, 0.0], [-1.0, 0.0]]), np.eye(2), np.zeros((2, 2)),
                  np.full((2, 2), 1e200)])
    est = power_dominant_eigen(gram(W), 9)
    assert sorted(est.failed) == [0, 2, 3]
    assert isinstance(est.failed[0], DegenerateIterateError)
    assert str(est.failed[3]) == "matrix entries must be finite"
    assert est.lambda_dom[1] == 1.0
    _assert_same_eigen_outcomes(W, 9)
    _assert_same_gradient_outcomes(W, 0.5, 9)


def test_overflowing_member_fails_at_once_and_leaves_the_others_alone():
    # member 1's gram overflows (hidden weights near 1e160): its penalty
    # gradient fails on the first step, as the penalty value on those
    # weights does, instead of feeding a nan update into the next step
    ds = gen_two_gaussians(20, centers=((-1.0, 0.0), (1.0, 0.0)), sigma=0.6, seed=3)
    cfg = TrainConfig(learning_rate=0.2, batch_size=8, max_epochs=4, seed=1)
    reg = RegularizerSpec((LayerPenalty("eigen_decay", 0.01), LayerPenalty("l2", 1e-3)),
                          (0.0,))
    models = [init_mlp([2, 4, 2], "sigmoid", seed=r) for r in range(3)]
    models[1].hidden[0].weights *= 1e160
    start = [a.copy() for a in model_params(models[1])]
    members = [train._member(m, ds, None, "mse", reg, cfg) for m in models]
    results = train._sgd_stack(members, ds, "mse", cfg)

    assert isinstance(results[1], DivergenceError)
    assert str(results[1]) == "parameters diverged during epoch 0: matrix entries must be finite"
    # it ends on the finite weights its failed gradient was formed at
    for got, want in zip(model_params(models[1]), start):
        np.testing.assert_array_equal(_bits(got), _bits(want))
    for r in (0, 2):
        alone = init_mlp([2, 4, 2], "sigmoid", seed=r)
        _, history = sgd_train(alone, ds, "mse", reg, cfg)
        assert results[r].records() == history.records()
        for got, want in zip(model_params(models[r]), model_params(alone)):
            np.testing.assert_array_equal(_bits(got), _bits(want))
