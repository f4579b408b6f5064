"""Array maths of the network's layers, forward and reverse, and the optimizer.

Each layer of a ``network.CellNetwork`` pass is a plain function on float64
arrays: an affine ``dense``, a cell ``node``, a cell's ``mean_of`` and the
``softmax_cross_entropy`` loss, each with the gradient that the reverse walk
takes from it (``dense_grad``, ``node_grad``, ``mean_of_grad`` and
``softmax_cross_entropy_grad``).  ``rectify`` makes the rectifier that a
node's linear parts read, and ``relu_mask`` the mask of their gradients.
``param_grad`` gives a parameter block's gradient and ``block_variance`` its
per-example gradient variance, both from the output gradient of the block's
layer and the rows its weight multiplies.  No function writes its inputs,
and no layer checks a shape: ``network.CellNetwork`` checks a pass's shapes
before it starts.
The SGD optimizer with cosine annealing lives here as well, since it operates
on the same tensors.  The module does no I/O and knows no parameter layout
and no wiring: ``network.CellNetwork`` walks its plan over these functions,
and ``network.ParamLayout`` owns the checkpoint format.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeMismatch
from .rank1 import scaled, sum_of_squares


def rectify(x):
    """max(x, 0) in one op: fmax maps NaN to 0, so this is np.where(x > 0,
    x, 0.0) except for the sign of a zero, which numpy's scalar fmax path
    (arrays of under 8 elements, an odd tail, strided views) keeps as -0.0.
    No output reads that sign: a node part's product and a weight's
    ``param_grad`` are matrix products whose sums start at +0.0,
    ``relu_mask`` tests r > 0, and ``block_variance`` squares its rows or
    multiplies them in a matrix product."""
    return np.fmax(x, 0.0)


def dense(x, w, b):
    """The affine layer x @ w.T + b for x of shape (batch, in), w of shape
    (out, in) and b of shape (out,), the bias broadcast over the rows.  Each
    may carry a leading member axis K; an unstacked side broadcasts.  The
    shapes are the pass's, which ``network.CellNetwork`` checks before it
    starts."""
    xw = x @ w.swapaxes(-1, -2)
    xw += b[..., None, :]
    return xw


def dense_grad(g, w):
    """The gradient of ``dense``'s input for its output gradient ``g``."""
    return g @ w


def node(parts):
    """One cell node: the sum of its two parts, each ``(kind, x, wt)``.  A
    ``linear`` part is ``x``, its source's ``rectify``, times ``wt``, the
    transpose of its (dim, dim) weight, which the caller passes C-contiguous
    (the product of a strided transposed view costs about twice as much); an
    ``identity`` part is its source ``x`` and a ``zero`` part zeros shaped
    like it.  The sum runs in slot order and is written into the first
    part's own array, a linear part's product or a zero part's zeros; only
    two identity parts need a new array.  Values are bit for bit those of
    separate rectifier, matrix product, zeros and add steps on the same
    ``wt``."""
    (ka, a, wa), (kb, b, wb) = parts
    a = a @ wa if ka == "linear" else np.zeros_like(a) if ka == "zero" else a
    b = b @ wb if kb == "linear" else np.zeros_like(b) if kb == "zero" else b
    own = a if ka != "identity" else None if kb == "identity" else b
    return np.add(a, b, out=own)


def node_grad(kind, g, w, mask):
    """The gradient of a node part's source for the node's output gradient
    ``g``, the part being ``(kind, x, w)`` as ``node`` reads it: g @ w times
    the source's ``relu_mask`` for a linear part, g itself for an identity
    part and zeros for a zero part, shaped like ``g`` as every source of a
    pass is.  A source that several parts read adds up their gradients in
    the order of a reverse pass over separate steps: identity parts first in
    slot order, then the others in reverse slot order."""
    if kind == "linear":
        gx = g @ w
        gx *= mask  # gx is this function's own product
        return gx
    return g if kind == "identity" else np.zeros_like(g)


def relu_mask(r):
    """1.0 where the rectifier ``r`` is positive, else 0.0: the factor that a
    linear part's gradient takes, as float64 so that no product casts it."""
    return (r > 0.0).astype(np.float64)


def mean_of(parts):
    """Elementwise mean of same-shape arrays (fixed averaging projection):
    the parts added in order into a new array, then divided by their count.
    Where every part is -0.0 the mean is -0.0, not sum()'s +0.0; a mean
    reaches an output only through a rectifier, a sum with another part or
    a matrix product, none of which reads the sign of a zero (``rectify``)."""
    total = parts[0] + parts[1] if len(parts) > 1 else parts[0].copy()
    for p in parts[2:]:
        total += p
    total /= len(parts)
    return total


def mean_of_grad(g, count):
    """The gradient of each of ``mean_of``'s ``count`` parts, one array for
    all of them."""
    return g * (1.0 / count)


def _labelled(shape, labels):
    """The flat positions, in a C-contiguous array of ``shape`` (..., batch,
    classes), of each row's labelled entry, shaped like the rows."""
    return np.arange(0, math.prod(shape), shape[-1]).reshape(shape[:-1]) + labels


def softmax_cross_entropy(logits, labels):
    """(mean cross-entropy of softmax(logits) against integer labels, the
    log-probabilities): one batch mean per member, so a (K, batch, classes)
    input gives a loss of shape (K,).  Unstacked labels of shape (batch,)
    serve every member; the pass's check has matched them to the logits'
    rows and to range(classes).

    The bits are those of ``logits.max(axis=-1)`` and of the mean of a
    ``np.take_along_axis`` gather, for less work on a few classes: each
    row's max is a running ``np.maximum`` over the class columns, the same
    maximum, and the labelled log-probabilities are gathered with one fancy
    index into the flat array, so that they come out C-contiguous and their
    mean adds them in the same order (a gather laid out otherwise rounds
    differently).  The sum of exponentials stays a reduction, which numpy
    adds pairwise from 8 classes on."""
    top = logits[..., 0]
    for c in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., c])
    z = logits - top[..., None]
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return -logp.ravel()[_labelled(logp.shape, labels)].mean(axis=-1), logp


def softmax_cross_entropy_grad(logp, labels):
    """The gradient of the logits that every member's loss gets from its own
    ``softmax_cross_entropy``, from that loss's log-probabilities: softmax
    less 1 at each row's label, over the batch size.  Subtracting 1.0 only
    at the labels keeps the bits of subtracting a one-hot array, since
    x - 0.0 is x for everything ``np.exp`` returns."""
    grad = np.exp(logp)
    grad.ravel()[_labelled(logp.shape, labels)] -= 1.0
    grad /= logp.shape[-2]
    return grad


def param_grad(g, x):
    """A parameter block's gradient from its layer's output gradient ``g``:
    g.T @ x for a weight that multiplies the rows ``x``, the column sums of g
    for a bias (``x`` None)."""
    return g.sum(axis=-2) if x is None else g.swapaxes(-1, -2) @ x


def block_variance(g, x):
    """A parameter block's total variance (covariance trace) of its
    per-example gradients, from the ``g`` and ``x`` of ``param_grad`` on n
    rows of independent examples.

    The batch gradient is then a sum of per-row terms (see Goodfellow,
    arXiv:1510.01799): row i contributes the rank-1 block ``g[i] (x) x[i]``
    to a weight and ``g[i]`` to a bias.  The loss is a batch mean, so row i
    of ``g`` is 1/n of example i's own gradient and every per-example
    gradient is scaled by n.  A bias block is reduced to its centred sum of
    squares, and a weight block by ``rank1.sum_of_squares`` from its
    factors, each scaled by ``rank1.scaled``, so no (n, out, in) array of
    per-example gradients is built.  With a member axis, (K, n, out) ``g``
    beside stacked or shared rows, each member is reduced on its own: one
    total each."""
    if g.ndim == 3:
        xs = x if x is not None and x.ndim == 3 else [x] * len(g)
        return np.array([block_variance(gk, xk) for gk, xk in zip(g, xs)])
    g = g * len(g)
    if x is None:
        centred = g - g.mean(axis=0)
        return float(np.sum(centred * centred)) / len(g)
    return sum_of_squares(scaled(g), scaled(x)) / len(g)


# --- optimizer ------------------------------------------------------------


MOMENTUM = 0.9
WEIGHT_DECAY = 3e-4


def sgd_step(params, grads, velocity, lr):
    """v <- mu*v + (g + wd*w); w <- w - lr*v on flat params and grads, with
    the DARTS constants mu = MOMENTUM and wd = WEIGHT_DECAY; returns new
    (params, velocity) arrays and changes none of its inputs.  ``velocity``
    starts as zeros (a scalar 0.0 broadcasts); ``lr`` is a scalar, or one
    rate per member for (K, P) params.  Each sum and difference is written,
    its operands in the order above, into a product made here, so a step
    makes three arrays: wd*w, which then holds v; mu*v; and lr*v, which then
    holds the new w."""
    lr = np.asarray(lr, dtype=np.float64)
    if grads.shape != params.shape or params.shape[: lr.ndim] != lr.shape:
        raise ShapeMismatch(f"grad {grads.shape} vs param {params.shape}, lr {lr.shape}")
    decayed = WEIGHT_DECAY * params
    velocity = np.add(MOMENTUM * velocity, np.add(grads, decayed, out=decayed), out=decayed)
    step = lr.reshape(lr.shape + (1,) * (params.ndim - lr.ndim)) * velocity
    return np.subtract(params, step, out=step), velocity


def cosine_lr(epoch, total_epochs, base_lr):
    """Cosine annealing from base_lr (a number or an array) at epoch 0 to 0 at the final epoch."""
    if total_epochs < 1:
        raise ValueError("total_epochs must be >= 1")
    if not 0 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs}]")
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * epoch / total_epochs))

