import numpy as np
import pytest

from conftest import linear_layer, max_rel_err, small_model

from eigendecay.data import Dataset
from eigendecay.model import (
    Activation,
    DenseLayer,
    MlpModel,
    _sigmoid,
    forward,
    forward_batch,
    init_mlp,
    input_gradient,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from eigendecay.train import evaluate


class TestActivation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Activation("softmax")

    def test_sigmoid_values(self):
        act = Activation("sigmoid")
        assert act.value(np.array([0.0]))[0] == pytest.approx(0.5)
        assert act.slope(act.value(np.array([0.0])))[0] == pytest.approx(0.25)

    def test_relu_kink_derivative_is_zero(self):
        act = Activation("relu")
        assert act.slope(act.value(np.array([0.0])))[0] == 0.0
        assert act.slope(act.value(np.array([-1.0, 2.0]))).tolist() == [0.0, 1.0]

    def test_sigmoid_extreme_inputs_stay_finite(self):
        act = Activation("sigmoid")
        v = act.value(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(v))
        assert v[0] == pytest.approx(0.0, abs=1e-300)
        assert v[1] == pytest.approx(1.0)


def _masked_sigmoid(v):
    """The two-branch stable sigmoid written with boolean masks."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


class TestSigmoidBits:
    def _assert_same_bits(self, v):
        got, want = _sigmoid(v), _masked_sigmoid(v)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_special_values(self):
        specials = [0.0, 1e-300, 700.0, 800.0, np.inf, np.nan]
        self._assert_same_bits(np.array(specials + [-v for v in specials]))

    def test_random_arrays(self, rng):
        for width in range(1, 131):
            for scale in (1.0, 30.0, 800.0):
                self._assert_same_bits(scale * rng.standard_normal(width))
                self._assert_same_bits(scale * rng.standard_normal((3, width)))


class TestModelConstruction:
    def test_bias_length_checked(self):
        with pytest.raises(ValueError):
            DenseLayer(np.eye(2), np.zeros(3), Activation("linear"))

    def test_dims_must_chain(self):
        h1 = DenseLayer(np.ones((3, 2)), np.zeros(3), Activation("tanh"))
        h2 = DenseLayer(np.ones((2, 4)), np.zeros(2), Activation("tanh"))
        out = linear_layer(np.ones((1, 2)))
        with pytest.raises(ValueError):
            MlpModel([h1, h2], out)

    def test_output_must_be_linear(self):
        h = DenseLayer(np.ones((2, 2)), np.zeros(2), Activation("tanh"))
        bad = DenseLayer(np.ones((1, 2)), np.zeros(1), Activation("sigmoid"))
        with pytest.raises(ValueError):
            MlpModel([h], bad)

    def test_needs_hidden_layer(self):
        with pytest.raises(ValueError):
            MlpModel([], linear_layer(np.ones((1, 2))))


class TestForward:
    def test_zero_weights_sigmoid_gives_half(self):
        h = DenseLayer(np.zeros((3, 2)), np.zeros(3), Activation("sigmoid"))
        model = MlpModel([h], linear_layer(np.zeros((1, 3))))
        trace = forward(model, np.array([0.7, -2.0]))
        np.testing.assert_array_equal(trace.activations[0], [0.5, 0.5, 0.5])

    def test_identity_composition(self):
        h = DenseLayer(np.eye(2), np.zeros(2), Activation("linear"))
        model = MlpModel([h], linear_layer(np.eye(2)))
        x = np.array([0.3, -1.2])
        np.testing.assert_array_equal(forward(model, x).output, x)

    def test_hand_evaluated_tanh_net(self):
        # v1 = 1*0.3 - 1*0.3 = 0, tanh(0) = 0, output = 2*0 + 0.5
        h = DenseLayer(np.array([[1.0, -1.0]]), np.zeros(1), Activation("tanh"))
        model = MlpModel([h], linear_layer(np.array([[2.0]]), np.array([0.5])))
        trace = forward(model, np.array([0.3, 0.3]))
        assert trace.output[0] == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        model = small_model()
        with pytest.raises(ValueError):
            forward(model, np.zeros(5))

    def test_deterministic_bit_identical(self):
        model = small_model(seed=3)
        x = np.array([0.2, -0.4])
        a = forward(model, x).output
        b = forward(model, x).output
        assert np.array_equal(a, b)

    def test_batch_matches_single(self, rng):
        model = small_model(dims=(3, 4, 4, 2), seed=9)
        X = rng.standard_normal((6, 3))
        _, _, Yhat = forward_batch(model, X)
        for i in range(6):
            np.testing.assert_allclose(Yhat[i], forward(model, X[i]).output, rtol=1e-12)

    def test_trace_satisfies_layer_recurrences(self, rng):
        model = small_model(dims=(3, 4, 3, 2), activation="tanh", seed=15)
        x = rng.standard_normal(3)
        trace = forward(model, x)
        prev = x
        for layer, y in zip(model.hidden, trace.activations):
            np.testing.assert_allclose(y, np.tanh(layer.weights @ prev + layer.bias),
                                       rtol=1e-15)
            prev = y
        np.testing.assert_allclose(
            trace.output, model.output.weights @ prev + model.output.bias, rtol=1e-15
        )


class TestPredictClass:
    """Predictions are the argmax of forward_batch outputs, as evaluate
    scores them."""

    def test_unique_max(self):
        model = MlpModel(
            [linear_layer(np.eye(2))], linear_layer(np.array([[1.0, 0.0], [0.0, 1.0]]))
        )
        _, _, Yhat = forward_batch(model, np.array([[-1.0, 1.0], [0.9, -0.3]]))
        np.testing.assert_array_equal(np.argmax(Yhat, axis=1), [1, 0])

    def test_tie_breaks_low_index(self):
        model = MlpModel(
            [linear_layer(np.eye(2))],
            linear_layer(np.array([[1.0, 0.0], [1.0, 0.0]])),
        )
        _, _, Yhat = forward_batch(model, np.array([[0.5, 0.5]]))
        assert Yhat[0, 0] == Yhat[0, 1]
        assert np.argmax(Yhat, axis=1)[0] == 0
        # evaluate scores the tie as class 0: right for target 0, wrong for 1
        features = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert evaluate(model, Dataset.from_arrays(features, [0, 0], 2))["accuracy"] == 1.0
        assert evaluate(model, Dataset.from_arrays(features, [1, 1], 2))["accuracy"] == 0.0


class TestInputGradient:
    def test_linear_network(self):
        h = linear_layer(np.eye(2))
        model = MlpModel([h], linear_layer(np.array([[1.0, 0.0]])))
        trace = forward(model, np.array([3.0, -4.0]))
        np.testing.assert_array_equal(input_gradient(model, trace, 0), [1.0, 0.0])

    def test_sigmoid_slope_quarter_at_zero(self):
        h = DenseLayer(np.eye(2), np.zeros(2), Activation("sigmoid"))
        model = MlpModel([h], linear_layer(np.array([[1.0, 1.0]])))
        trace = forward(model, np.zeros(2))
        np.testing.assert_allclose(input_gradient(model, trace, 0), [0.25, 0.25])

    def test_matches_finite_differences(self, rng):
        h = 1e-5
        checked = 0
        while checked < 100:
            dims = [int(rng.integers(2, 5)) for _ in range(4)]
            kind = ("sigmoid", "tanh", "relu")[checked % 3]
            model = small_model(dims=dims, activation=kind,
                                seed=int(rng.integers(0, 10_000)))
            x = rng.standard_normal(dims[0])
            trace = forward(model, x)
            inputs = [x] + trace.activations[:-1]
            if kind == "relu" and any(
                np.min(np.abs(layer.weights @ y + layer.bias)) < 1e-3
                for layer, y in zip(model.hidden, inputs)
            ):
                continue  # differences across a kink say nothing about the slope
            l = int(rng.integers(0, dims[-1]))
            g = input_gradient(model, trace, l)
            fd = np.zeros_like(x)
            for i in range(x.size):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = (forward(model, xp).output[l] - forward(model, xm).output[l]) / (2 * h)
            assert max_rel_err(g, fd) <= 1e-5
            checked += 1

    def test_bad_class_index(self):
        model = small_model()
        trace = forward(model, np.zeros(2))
        with pytest.raises(ValueError):
            input_gradient(model, trace, 5)


class TestInit:
    def test_seeded_reproducible(self):
        a = init_mlp([4, 3, 2], "tanh", seed=11)
        b = init_mlp([4, 3, 2], "tanh", seed=11)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_glorot_range(self):
        model = init_mlp([100, 50, 10], seed=0)
        w = model.hidden[0].weights
        r = np.sqrt(6.0 / 150.0)
        assert np.all(np.abs(w) <= r)
        assert np.max(np.abs(w)) > 0.5 * r


class TestSerialization:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        model = small_model(dims=(3, 5, 4, 2), activation="tanh", seed=21)
        # make the floats ugly on purpose
        model.hidden[0].weights *= np.pi
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        for la, lb in zip(model.layers, loaded.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation

    def test_rejects_wrong_format(self):
        doc = model_to_dict(small_model())
        doc["format"] = "something-else"
        with pytest.raises(ValueError):
            model_from_dict(doc)

    def test_rejects_wrong_version(self):
        doc = model_to_dict(small_model())
        doc["version"] = 999
        with pytest.raises(ValueError):
            model_from_dict(doc)

