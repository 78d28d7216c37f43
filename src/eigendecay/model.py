"""Dense multilayer perceptron: stacked nonlinear layers with a linear
read-out, forward evaluation with cached activations, and the
input-space gradient row used by the margin analysis."""

import copy
from dataclasses import dataclass
import json

import numpy as np

from .data import _check_count, _is_int, _is_real
from .linalg import _blocked_matmul, as_matrix, as_vector


def _sigmoid(v, out=None):
    # exp of -|v| never overflows; 1/(1+e) for v >= 0 and e/(1+e) below
    # are the two stable forms. minimum(v, -v) is -|v| that keeps the sign
    # of a nan, so nan inputs pass through with their bits unchanged.
    # The numerator max(e, v >= 0) is exactly 1.0 for v >= 0, where e <= 1,
    # and e below, where e >= +0.0; a nan e is returned as it is, so it has
    # the bits of picking 1.0 or e by v >= 0. One scratch array holds -v,
    # then the denominator.
    nonneg = v >= 0
    scratch = np.negative(v)
    e = np.minimum(v, scratch, out=out)
    np.exp(e, out=e)
    np.add(e, 1.0, out=scratch)
    np.maximum(e, nonneg, out=e)
    return np.divide(e, scratch, out=e)


def _sigmoid_slope(y):
    return y * (1.0 - y)


def _tanh_slope(y):
    return 1.0 - y * y


def _relu(v, out=None):
    return np.maximum(v, 0.0, out=out)


def _relu_slope(y):
    # the slope at the kink (y == 0) is defined as 0
    return (y > 0).astype(float)


def _identity(v, out=None):
    return np.positive(v, out=out)


# kind -> (value, slope): the value takes out= as a ufunc does, and may
# write into its input; the slope takes the activation's value y, not its
# input v, and performs the ops the derivative in v would after value
_ACTIVATIONS = {
    "sigmoid": (_sigmoid, _sigmoid_slope),
    "tanh": (np.tanh, _tanh_slope),
    "relu": (_relu, _relu_slope),
    "linear": (_identity, np.ones_like),
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

    def slope(self, y):
        """The derivative at the input whose activation value is y."""
        return _ACTIVATIONS[self.kind][1](np.asarray(y, dtype=float))


@dataclass
class DenseLayer:
    """One weight layer. Weights (R, out, in) with bias (R, out) make a
    stack of R same-shape members, which forward_batch and grad.backward
    run together."""

    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: Activation

    def __post_init__(self):
        stacked = np.ndim(self.weights) == 3
        self.weights = as_matrix(self.weights, stacked)
        self.bias = as_vector(self.bias, stacked)
        if self.bias.shape != self.weights.shape[:-1]:
            raise ValueError(
                f"bias shape {self.bias.shape} does not match the layer "
                f"output shape {self.weights.shape[:-1]}"
            )

    @property
    def out_dim(self):
        return self.weights.shape[-2]

    @property
    def in_dim(self):
        return self.weights.shape[-1]


@dataclass
class MlpModel:
    hidden: list  # list[DenseLayer], K >= 1
    output: DenseLayer  # linear activation

    def __post_init__(self):
        if len(self.hidden) < 1:
            raise ValueError("model needs at least one hidden layer")
        for layer in self.layers:
            if layer.out_dim < 1 or layer.in_dim < 1:
                raise ValueError(
                    f"every layer needs at least one input and one output, got "
                    f"{layer.in_dim} -> {layer.out_dim}"
                )
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
    """Every intermediate of forward; a stacked trace gives each array a
    leading axis of N inputs. The activation slopes are read from the
    activations (Activation.slope)."""

    input: np.ndarray
    activations: list  # y_k per hidden layer
    output: np.ndarray


def _activate(layer, V):
    """layer's activation of the preactivations V, written into V, which
    the caller made and nothing else reads."""
    return _ACTIVATIONS[layer.activation.kind][0](V, out=V)


def _row_pass(model, X, dropout_masks=None):
    """forward_batch without its input checks: X is (n, n_in), or (R, n,
    n_in) for a stacked model."""
    acts, ys = [], []
    Y = X
    for k, layer in enumerate(model.hidden):
        V = _blocked_matmul(Y, layer.weights.swapaxes(-1, -2))
        V += layer.bias[..., None, :]
        Y = _activate(layer, V)
        acts.append(Y)
        if dropout_masks is not None and dropout_masks[k] is not None:
            Y = Y * dropout_masks[k]
        ys.append(Y)
    out = model.output
    Yhat = _blocked_matmul(Y, out.weights.swapaxes(-1, -2))
    Yhat += out.bias[..., None, :]
    return acts, ys, Yhat


def forward(model, x):
    """Forward pass keeping every intermediate. x is one input (n_in,), or
    a stack of inputs (N, n_in) whose trace holds one row per input, from
    one row pass of the stack."""
    single = np.ndim(x) == 1
    x = as_vector(x, stacked=not single)
    if x.shape[-1] != model.n_in:
        raise ValueError(
            f"input has length {x.shape[-1]} but the model expects {model.n_in}"
        )
    acts, _, out = _row_pass(model, x[None] if single else x)
    if single:
        acts, out = [y[0] for y in acts], out[0]
    return ForwardTrace(x, acts, out)


def forward_batch(model, X, dropout_masks=None):
    """Row-per-example forward pass.

    dropout_masks, when given, is one pre-scaled (batch, width) array per
    hidden layer (entries 0 or 1/keep-rate) multiplied into the hidden
    activations.

    Returns (activations, inputs, outputs), the first two as lists over
    hidden layers: each hidden layer's activations before dropout, which
    grad.backward reads the slopes from, and after it, which the next
    layer takes as input. Without masks the two lists hold the same
    arrays.

    A stacked model (see DenseLayer) takes X as (R, n, d), masks as
    (R, n, width), and gives every array a leading member axis; each
    member's slice has the bits of the 2-D pass.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != model.output.weights.ndim or X.shape[-1] != model.n_in:
        lead = "R, " if model.output.weights.ndim == 3 else ""
        raise ValueError(
            f"batch has shape {X.shape} but the model expects ({lead}n, {model.n_in})"
        )
    return _row_pass(model, X, dropout_masks)


def input_gradient(model, trace, l):
    """Gradient of output component l with respect to the model input.

    The row is the product of the output row with each hidden layer's
    weight matrix scaled by the activation slopes read from the trace.
    A stacked trace gives one row per input, (N, n_in), from one product
    per layer.
    """
    if not 0 <= l < model.n_out:
        raise ValueError(f"class index {l} out of range for {model.n_out} outputs")
    g = model.output.weights[l]
    for layer, y in zip(reversed(model.hidden), reversed(trace.activations)):
        g = _blocked_matmul(g * layer.activation.slope(y), layer.weights)
    return g


def init_mlp(layer_sizes, hidden_activation="sigmoid", seed=0):
    """Fresh model with uniform weights in [-r, r], r = sqrt(6/(fan_in+fan_out)),
    and zero biases. layer_sizes runs input -> hidden... -> output."""
    if len(layer_sizes) < 3:
        raise ValueError("layer_sizes needs input, at least one hidden, and output")
    if not all(_is_int(size) for size in layer_sizes):
        raise ValueError(f"layer sizes must be integers, got {list(layer_sizes)}")
    if min(layer_sizes) < 1:
        raise ValueError(f"layer sizes must be >= 1, got {list(layer_sizes)}")
    kinds = hidden_activation
    if isinstance(kinds, str):
        kinds = [kinds] * (len(layer_sizes) - 2)
    if len(kinds) != len(layer_sizes) - 2:
        raise ValueError("one hidden activation per hidden layer expected")
    _check_count("seed", seed, 0)
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


# A stack holds as many members as keep its largest per-step array (a
# weight matrix or a gathered batch) near this many floats. Stacking tiny
# layers (2-8-2) removes per-step interpreter overhead; for large ones
# (784-128-10) the matmuls dominate, so stacking gains nothing and each
# member would add its own copy of every per-step array. The
# finite-difference oracle sizes its perturbation stacks from it too.
STACK_FLOATS = 1 << 16


def _stack_cap(model, batch_size):
    """Members per stacked SGD loop (train._trained) for model at this
    batch size."""
    widths = [model.n_in] + [layer.weights.shape[0] for layer in model.layers]
    largest = max(
        max(layer.weights.size for layer in model.layers), batch_size * max(widths)
    )
    return max(1, STACK_FLOATS // largest)


def model_params(model):
    """Live references to every weight matrix and bias, layer by layer."""
    out = []
    for layer in model.layers:
        out.append(layer.weights)
        out.append(layer.bias)
    return out


def _with_params(model, params):
    """model with each layer's weights and bias replaced by params[2k] and
    params[2k + 1], uncopied; (R, ...) params make a stacked model. Unlike
    a new DenseLayer, the arrays are not scanned for finiteness: a training
    stack carries a diverging member's params to its epoch end, and the
    objective checks none it is handed."""
    layers = []
    for k, layer in enumerate(model.layers):
        layer = copy.copy(layer)
        layer.weights, layer.bias = params[2 * k], params[2 * k + 1]
        layers.append(layer)
    return MlpModel(layers[:-1], layers[-1])


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


def _numbers(entry, key, k):
    """Layer k's field key as a float array: a flat list of numbers, as
    model_to_dict writes it."""
    values = entry.get(key)
    if isinstance(values, list) and all(_is_real(x) for x in values):
        try:
            return np.array(values, dtype=float)
        except OverflowError:  # an integer past float range
            pass
    raise ValueError(f"layer {k} field {key!r} must be a flat list of floats")


def model_from_dict(doc):
    """The model a document from model_to_dict describes. A document whose
    fields have the wrong type raises ValueError naming the field."""
    if not isinstance(doc, dict):
        raise ValueError(f"a model document is a JSON object, got {type(doc).__name__}")
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a model document (format={doc.get('format')!r})")
    if not _is_int(doc.get("version")) or doc["version"] != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model document version {doc.get('version')!r}")
    if not isinstance(doc.get("layers"), list):
        raise ValueError(f"model field 'layers' must be a list, got {doc.get('layers')!r}")
    layers = []
    for k, entry in enumerate(doc["layers"]):
        if not isinstance(entry, dict):
            raise ValueError(f"layer {k} must be a JSON object, got {entry!r}")
        for key in ("out", "in"):
            # a zero size is refused by MlpModel, with its own message
            if not _is_int(entry.get(key)) or entry[key] < 0:
                raise ValueError(f"layer {k} field {key!r} must be an integer >= 0, "
                                 f"got {entry.get(key)!r}")
        if not isinstance(entry.get("activation"), str):
            raise ValueError(f"layer {k} field 'activation' must be a string, "
                             f"got {entry.get('activation')!r}")
        w = _numbers(entry, "weights", k).reshape(entry["out"], entry["in"])
        layers.append(DenseLayer(w, _numbers(entry, "bias", k), Activation(entry["activation"])))
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
