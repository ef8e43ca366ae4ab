"""Trainable map from raw feature vectors to unit-norm embeddings.

The default encoder is a single linear layer followed by row-wise L2
normalization; an optional tanh hidden layer sits behind the hidden_dim
flag. Both run one loop over the weights, a tanh after all but the last.
Backward passes are hand-written chain rule (the normalization Jacobian
annihilates each row's radial direction), and the optimizer is a
pure-function Adam with classical L2 weight decay added into the gradient.
Its learning rate and weight decay live on AdamState; the moment decays
(beta1 0.9, beta2 0.999) and the denominator's eps (1e-8) are the fixed
module constants _BETA1, _BETA2 and _EPS.

Checkpoint format (bit-exact)
-----------------------------
Linear encoder, 16-byte header then float64 little-endian payload:

    bytes 0-3   magic b"RSM1"
    bytes 4-7   uint32 LE  d_in
    bytes 8-11  uint32 LE  d_out
    bytes 12-15 uint32 LE  flags (bit 0: bias present)
    then        weight, C-order (d_in * d_out doubles)
    then        bias (d_out doubles, only when flag set)

Hidden-layer encoder: magic b"RSM2", 20-byte header with uint32 LE fields
d_in, hidden, d_out, flags, then weight_in, weight_out, bias payloads in
that order. param_arrays gives the payload order; each weight matrix
takes its shape from consecutive header dims.
"""

import struct
from dataclasses import dataclass, fields, replace

import numpy as np

from .linalg import normalize_rows, product, project_out_radial
from .ranking import EmbeddingBatch

__all__ = [
    "EncoderParams",
    "TwoLayerParams",
    "AdamState",
    "CheckpointFormatError",
    "init_encoder",
    "param_arrays",
    "encode",
    "encode_backward",
    "adam_step",
    "save_encoder",
    "load_encoder",
]

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class CheckpointFormatError(ValueError):
    """A checkpoint file does not match the documented binary layout."""


@dataclass(frozen=True)
class EncoderParams:
    """Single linear projection: weight (d_in, d_out), optional bias."""

    weight: np.ndarray
    bias: np.ndarray | None = None


@dataclass(frozen=True)
class TwoLayerParams:
    """Optional variant: linear, tanh, linear, then normalization.
    weight_in (d_in, hidden), weight_out (hidden, d_out), optional bias."""

    weight_in: np.ndarray
    weight_out: np.ndarray
    bias: np.ndarray | None = None


def init_encoder(d_in, d_out, seed, bias=False, hidden_dim=None):
    """Fresh encoder parameters, uniform in +-1/sqrt(fan_in) per layer,
    drawn in layer order from dims [d_in, (hidden_dim,) d_out]."""
    rng = np.random.default_rng(seed)
    dims = (d_in, d_out) if hidden_dim is None else (d_in, hidden_dim, d_out)
    bounds = [1.0 / np.sqrt(fan_in) for fan_in in dims[:-1]]
    weights = [rng.uniform(-b, b, size=shape) for b, shape in zip(bounds, zip(dims, dims[1:]))]
    cls = EncoderParams if hidden_dim is None else TwoLayerParams
    return cls(*weights, bias=np.zeros(d_out) if bias else None)


# Checkpoint magic per parameter class.
_FORMATS = {b"RSM1": EncoderParams, b"RSM2": TwoLayerParams}


def param_arrays(params):
    """Named parameter arrays in field order (weights, then bias), leaving
    out an absent bias. This order is the checkpoint payload order."""
    return {name: array for name, array in vars(params).items() if array is not None}


def _weights(params):
    """The weight matrices by name, input layer first."""
    return {name: array for name, array in vars(params).items() if name != "bias"}


def _forward(features, params):
    """Each layer's input, and z, the output before normalization. A tanh
    follows every weight but the last."""
    inputs = [np.asarray(features, dtype=np.float64)]
    weights = list(_weights(params).values())
    if inputs[0].shape[-1] != len(weights[0]):
        raise ValueError(f"features have {inputs[0].shape[-1]} columns; "
                         f"the encoder takes {len(weights[0])}")
    *hidden, last = weights
    for weight in hidden:
        inputs.append(np.tanh(product(inputs[-1], weight)))
    z = product(inputs[-1], last)
    if params.bias is not None:
        z = z + params.bias
    return inputs, z


def encode(features, class_ids, params):
    """Project features and L2-normalize each row into an EmbeddingBatch.

    A row that projects to (near) zero cannot be normalized and raises,
    naming the row. Scaling the weights leaves the output unchanged.
    """
    _, z = _forward(features, params)
    unit, _ = normalize_rows(z)
    return EmbeddingBatch(unit, class_ids)


def encode_backward(features, params, upstream_grad):
    """Gradients of a loss w.r.t. the encoder parameters.

    upstream_grad is d loss / d embedding rows (the normalized output).
    Walks the layers from the output back, through a tanh only where an
    earlier layer remains. Returns a dict matching param_arrays(params).
    """
    inputs, z = _forward(features, params)
    unit, norms = normalize_rows(z)
    grad_z = project_out_radial(unit, norms, np.asarray(upstream_grad, dtype=np.float64))
    grads, grad = {}, grad_z
    for depth, (name, weight) in reversed(list(enumerate(_weights(params).items()))):
        grads[name] = product(inputs[depth].T, grad)
        if depth:
            grad = product(grad, weight.T) * (1.0 - inputs[depth] ** 2)
    if params.bias is not None:
        grads["bias"] = grad_z.sum(axis=0)
    return grads


@dataclass(frozen=True)
class AdamState:
    """Optimizer moments, learning rate and weight decay; advanced
    functionally."""

    moment1: dict
    moment2: dict
    step_count: int
    lr: float
    weight_decay: float

    @classmethod
    def initial(cls, params, lr, weight_decay):
        """Zero moments for params, before the first step."""
        moment1 = {k: np.zeros_like(v) for k, v in param_arrays(params).items()}
        moment2 = {k: np.zeros_like(v) for k, v in moment1.items()}
        return cls(moment1, moment2, 0, lr, weight_decay)


def adam_step(params, grads, state):
    """One bias-corrected Adam update; returns (new params, new state).

    Weight decay enters as an additive lambda * param term in the gradient
    (classical L2 placement). Pure: inputs are left untouched.
    """
    arrays = param_arrays(params)
    if set(grads) != set(arrays):
        raise ValueError(f"gradient keys {sorted(grads)} do not match params {sorted(arrays)}")
    t = state.step_count + 1
    bc1 = 1.0 - _BETA1**t
    bc2 = 1.0 - _BETA2**t
    new_arrays, new_m1, new_m2 = {}, {}, {}
    for name in arrays:
        p = arrays[name]
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for {name!r}")
        if state.weight_decay:
            g = g + state.weight_decay * p
        m1 = _BETA1 * state.moment1[name] + (1.0 - _BETA1) * g
        m2 = _BETA2 * state.moment2[name] + (1.0 - _BETA2) * (g * g)
        update = (m1 / bc1) / (np.sqrt(m2 / bc2) + _EPS)
        new_arrays[name] = p - state.lr * update
        new_m1[name] = m1
        new_m2[name] = m2
    new_state = replace(state, moment1=new_m1, moment2=new_m2, step_count=t)
    return replace(params, **new_arrays), new_state


def save_encoder(path, params):
    """Write params in the documented little-endian binary layout."""
    weights = list(_weights(params).values())
    dims = [weights[0].shape[0]] + [w.shape[1] for w in weights]
    magic = next(magic for magic, cls in _FORMATS.items() if isinstance(params, cls))
    flags = 1 if params.bias is not None else 0
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(f"<{len(dims) + 1}I", *dims, flags))
        for array in param_arrays(params).values():
            fh.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def _read_doubles(fh, count, what):
    raw = fh.read(8 * count)
    if len(raw) != 8 * count:
        raise CheckpointFormatError(f"truncated checkpoint while reading {what}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def load_encoder(path):
    """Read a checkpoint written by save_encoder."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic not in _FORMATS:
            raise CheckpointFormatError(f"bad magic {magic!r}; expected RSM1 or RSM2")
        cls = _FORMATS[magic]
        names = [f.name for f in fields(cls) if f.name != "bias"]
        header = fh.read(4 * (len(names) + 2))
        if len(header) != 4 * (len(names) + 2):
            raise CheckpointFormatError("truncated header")
        *dims, flags = struct.unpack(f"<{len(names) + 2}I", header)
        arrays = {
            name: _read_doubles(fh, rows * cols, name).reshape(rows, cols)
            for name, rows, cols in zip(names, dims, dims[1:])
        }
        if flags & 1:
            arrays["bias"] = _read_doubles(fh, dims[-1], "bias")
        if fh.read(1):
            raise CheckpointFormatError("trailing bytes after checkpoint payload")
    return cls(**arrays)
