"""Dense multilayer perceptron: stacked nonlinear layers with a linear
read-out, forward evaluation with cached pre-activations, and the
input-space gradient row used by the margin analysis."""

from dataclasses import dataclass
import json

import numpy as np

from .linalg import as_matrix, as_vector


def _sigmoid(v):
    # exp of -|v| never overflows; 1/(1+e) for v >= 0 and e/(1+e) below
    # are the two stable forms. minimum(v, -v) is -|v| that keeps the sign
    # of a nan, so nan inputs pass through with their bits unchanged.
    e = np.exp(np.minimum(v, -v))
    d = 1.0 + e
    return np.where(v >= 0, 1.0 / d, e / d)


def _sigmoid_deriv(v):
    s = _sigmoid(v)
    return s * (1.0 - s)


def _tanh_deriv(v):
    t = np.tanh(v)
    return 1.0 - t * t


def _relu(v):
    return np.maximum(v, 0.0)


def _relu_deriv(v):
    # derivative at the kink (v == 0) is defined as 0
    return np.where(v > 0, 1.0, 0.0)


def _identity(v):
    return v


def _ones(v):
    return np.ones_like(v)


_ACTIVATIONS = {
    "sigmoid": (_sigmoid, _sigmoid_deriv),
    "tanh": (np.tanh, _tanh_deriv),
    "relu": (_relu, _relu_deriv),
    "linear": (_identity, _ones),
}

SMOOTH_ACTIVATIONS = ("sigmoid", "tanh", "linear")


@dataclass(frozen=True)
class Activation:
    kind: str

    def __post_init__(self):
        if self.kind not in _ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.kind!r}; "
                f"pick one of {sorted(_ACTIVATIONS)}"
            )

    def value(self, v):
        return _ACTIVATIONS[self.kind][0](np.asarray(v, dtype=float))

    def deriv(self, v):
        return _ACTIVATIONS[self.kind][1](np.asarray(v, dtype=float))


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: Activation

    def __post_init__(self):
        self.weights = as_matrix(self.weights)
        self.bias = as_vector(self.bias)
        if self.bias.shape[0] != self.weights.shape[0]:
            raise ValueError(
                f"bias length {self.bias.shape[0]} does not match the layer "
                f"output width {self.weights.shape[0]}"
            )

    @property
    def out_dim(self):
        return self.weights.shape[0]

    @property
    def in_dim(self):
        return self.weights.shape[1]


@dataclass
class MlpModel:
    hidden: list  # list[DenseLayer], K >= 1
    output: DenseLayer  # linear activation

    def __post_init__(self):
        if len(self.hidden) < 1:
            raise ValueError("model needs at least one hidden layer")
        for k, layer in enumerate(self.hidden[1:], start=1):
            if layer.in_dim != self.hidden[k - 1].out_dim:
                raise ValueError(
                    f"hidden layer {k} expects {layer.in_dim} inputs but the "
                    f"previous layer emits {self.hidden[k - 1].out_dim}"
                )
        if self.output.in_dim != self.hidden[-1].out_dim:
            raise ValueError(
                f"output layer expects {self.output.in_dim} inputs but the "
                f"last hidden layer emits {self.hidden[-1].out_dim}"
            )
        if self.output.activation.kind != "linear":
            raise ValueError("the output layer must be linear")

    @property
    def layers(self):
        return list(self.hidden) + [self.output]

    @property
    def n_in(self):
        return self.hidden[0].in_dim

    @property
    def n_out(self):
        return self.output.out_dim

    @property
    def hidden_dims(self):
        return [layer.out_dim for layer in self.hidden]


@dataclass
class ForwardTrace:
    input: np.ndarray
    preactivations: list  # v_k per hidden layer
    activations: list  # y_k per hidden layer
    output: np.ndarray


def forward(model, x):
    """Single-example forward pass keeping every intermediate."""
    x = as_vector(x)
    if x.shape[0] != model.n_in:
        raise ValueError(
            f"input has length {x.shape[0]} but the model expects {model.n_in}"
        )
    vs, ys = [], []
    y = x
    for layer in model.hidden:
        v = layer.weights @ y + layer.bias
        y = layer.activation.value(v)
        vs.append(v)
        ys.append(y)
    yhat = model.output.weights @ y + model.output.bias
    return ForwardTrace(x, vs, ys, yhat)


def forward_batch(model, X, dropout_masks=None):
    """Row-per-example forward pass.

    dropout_masks, when given, is one pre-scaled (batch, width) array per
    hidden layer (entries 0 or 1/keep-rate) multiplied into the hidden
    activations.

    Returns (preactivations, activations, outputs), the first two as lists
    over hidden layers.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_in:
        raise ValueError(
            f"batch has shape {X.shape} but the model expects (n, {model.n_in})"
        )
    vs, ys = [], []
    Y = X
    for k, layer in enumerate(model.hidden):
        V = Y @ layer.weights.T + layer.bias
        Y = layer.activation.value(V)
        if dropout_masks is not None and dropout_masks[k] is not None:
            Y = Y * dropout_masks[k]
        vs.append(V)
        ys.append(Y)
    Yhat = Y @ model.output.weights.T + model.output.bias
    return vs, ys, Yhat


def input_gradient(model, trace, l):
    """Gradient of output component l with respect to the model input.

    The row is the product of the output row with each hidden layer's
    weight matrix scaled by the activation derivatives cached in the trace.
    """
    if not 0 <= l < model.n_out:
        raise ValueError(f"class index {l} out of range for {model.n_out} outputs")
    g = model.output.weights[l].copy()
    for layer, v in zip(reversed(model.hidden), reversed(trace.preactivations)):
        g = (g * layer.activation.deriv(v)) @ layer.weights
    return g


def init_mlp(layer_sizes, hidden_activation="sigmoid", seed=0):
    """Fresh model with uniform weights in [-r, r], r = sqrt(6/(fan_in+fan_out)),
    and zero biases. layer_sizes runs input -> hidden... -> output."""
    if len(layer_sizes) < 3:
        raise ValueError("layer_sizes needs input, at least one hidden, and output")
    kinds = hidden_activation
    if isinstance(kinds, str):
        kinds = [kinds] * (len(layer_sizes) - 2)
    if len(kinds) != len(layer_sizes) - 2:
        raise ValueError("one hidden activation per hidden layer expected")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        r = np.sqrt(6.0 / (fan_in + fan_out))
        layers.append(rng.uniform(-r, r, size=(fan_out, fan_in)))
    hidden = [
        DenseLayer(w, np.zeros(w.shape[0]), Activation(kind))
        for w, kind in zip(layers[:-1], kinds)
    ]
    output = DenseLayer(layers[-1], np.zeros(layers[-1].shape[0]), Activation("linear"))
    return MlpModel(hidden, output)


def model_params(model):
    """Live references to every weight matrix and bias, layer by layer."""
    out = []
    for layer in model.layers:
        out.append(layer.weights)
        out.append(layer.bias)
    return out


def set_model_params(model, values):
    params = model_params(model)
    if len(values) != len(params):
        raise ValueError("parameter list length mismatch")
    for dst, src in zip(params, values):
        np.copyto(dst, src)


MODEL_FORMAT = "eigendecay-model"
MODEL_FORMAT_VERSION = 1


def model_to_dict(model):
    layers = []
    for layer in model.layers:
        layers.append(
            {
                "activation": layer.activation.kind,
                "out": layer.out_dim,
                "in": layer.in_dim,
                "weights": layer.weights.reshape(-1).tolist(),  # row-major
                "bias": layer.bias.tolist(),
            }
        )
    return {"format": MODEL_FORMAT, "version": MODEL_FORMAT_VERSION, "layers": layers}


def model_from_dict(doc):
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a model document (format={doc.get('format')!r})")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model document version {doc.get('version')!r}")
    layers = []
    for entry in doc["layers"]:
        w = np.array(entry["weights"], dtype=float).reshape(entry["out"], entry["in"])
        b = np.array(entry["bias"], dtype=float)
        layers.append(DenseLayer(w, b, Activation(entry["activation"])))
    if len(layers) < 2:
        raise ValueError("model document needs at least two layers")
    return MlpModel(layers[:-1], layers[-1])


def save_model(model, path):
    # json renders floats with repr, which round-trips doubles exactly
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True)
        fh.write("\n")


def load_model(path):
    with open(path) as fh:
        return model_from_dict(json.load(fh))
