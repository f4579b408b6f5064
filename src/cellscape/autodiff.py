"""Minimal reverse-mode autodiff over dense float64 arrays.

A ``Tape`` records one primitive per network layer of a forward pass over
``Value`` nodes: an affine ``dense``, a cell ``node``, a cell's ``mean_of``
and the loss.  ``backward`` replays the records in reverse to accumulate
gradients; a tape made with ``record=False`` runs them forward only.  A
node's parts read source ``Value``s, and each ``Value`` computes its
rectifier once, for every part that reads it.
``per_example_variance`` reads each parameter block's per-example gradient
variance off a recorded tape after one batched ``backward``, from the
block's rank-1 factors.
The SGD optimizer with cosine annealing lives here as well, since it operates
on the same tensors.  The module does no I/O and knows no parameter layout:
``network.ParamLayout`` owns the checkpoint format.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoTape, ShapeMismatch, SharedParameter
from .rank1 import sum_of_squares


class Value:
    """A node in the computation tape: an array plus its gradient buffer.
    Its rectifier is computed on first use and its mask on the first
    backward that needs it, once for every node part that reads it.  A pass
    that records nothing may free the rectifier (``del value.rectified``)."""

    __slots__ = ("data", "grad", "_rectified", "_mask")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = self._rectified = self._mask = None

    @property
    def rectified(self):
        if self._rectified is None:
            # fmax maps NaN to 0 and += 0.0 turns -0.0 into +0.0: bit for bit
            # np.where(x > 0, x, 0.0), at a fraction of its cost
            o = np.fmax(self.data, 0.0)
            o += 0.0
            self._rectified = o
        return self._rectified

    @rectified.deleter
    def rectified(self):
        """Free the rectifier; the next read computes it again."""
        self._rectified = None

    @property
    def mask(self):
        if self._mask is None:
            self._mask = self.rectified > 0.0
        return self._mask


class Tape:
    """Ordered record of primitive applications, sufficient for one reverse pass.

    With ``record=False`` ``_push`` keeps no record, so the forward values are
    the same, each backward closure is dropped uncalled, and ``backward`` on
    the tape raises ``NoTape``.
    """

    def __init__(self, record=True):
        self.record = record
        self._records = []  # (primitive, output, inputs, backward_fn, params)

    def _push(self, kind, out, inputs, backward, params=None):
        """Record one primitive.  ``params`` maps the slot in ``inputs`` of
        each weight to the array it multiplies, and of each bias to None, for
        ``per_example_variance``."""
        if self.record:
            self._records.append((kind, out, inputs, backward, params))
        return out

    # --- primitives -------------------------------------------------------

    def dense(self, x: Value, w: Value, b: Value) -> Value:
        """The affine layer x @ w.T + b for x of shape (batch, in), w of shape
        (out, in) and b of shape (out,), the bias broadcast over the rows.
        Each may carry a leading member axis K; an unstacked side broadcasts."""
        xw = _dense("dense", x.data, w.data)
        if b.data.ndim < 1 or b.data.shape[-1] != xw.shape[-1]:
            raise ShapeMismatch(f"dense: bias {b.data.shape} for outputs {xw.shape}")
        _members("dense", xw.shape[:-2], b.data.shape[:-1])

        def backward(g):
            return [g @ w.data, g.swapaxes(-1, -2) @ x.data, g.sum(axis=-2)]

        out = Value(xw + b.data[..., None, :])
        return self._push("dense", out, [x, w, b], backward, {1: x.data, 2: None})

    def node(self, parts) -> Value:
        """One cell node: the sum of the two parts in the list ``parts``, each
        ``(kind, source, w)`` with ``source`` a ``Value``.  A ``linear`` part
        is its source's ``rectified`` times the transpose of its (dim, dim)
        weight ``w``, an ``identity`` part its source and a ``zero`` part
        zeros; ``w`` is None unless the part is linear.  Every linear part
        that reads one Value shares its rectifier and mask.

        Values and gradients are bit for bit those of separate rectifier,
        matrix product, zeros and ``add`` records: the sum runs in slot order,
        and a source that several parts reach accumulates their gradients as
        ``backward`` replays those records, identity parts first in slot
        order, then the others in reverse slot order.  The sum is written
        into the first part's own array, a linear part's product or a zero
        part's zeros, and never into a source's data; only two identity
        parts need a new array."""
        terms, inputs, params = [], [], {}
        for kind, src, w in parts:
            if kind == "linear":
                terms.append(_dense("node", src.rectified, w.data))
            elif kind == "identity":
                terms.append(src.data)
                inputs.append(src)
            elif kind == "zero":
                terms.append(np.zeros_like(src.data))
            else:
                raise AssertionError(kind)
        a, b = terms
        if a.shape != b.shape:
            raise ShapeMismatch(f"node: parts of shapes {a.shape} and {b.shape}")
        # the sum goes into the first array this record made itself
        own = a if parts[0][0] != "identity" else None if parts[1][0] == "identity" else b
        identities = len(inputs)
        for kind, src, w in reversed(parts):
            if kind == "linear":
                params[len(inputs)] = src.rectified
                inputs += [w, src]
            elif kind == "zero":
                inputs.append(src)

        def backward(g):
            grads = [g] * identities
            for kind, src, w in reversed(parts):
                x = src.data
                if kind == "zero":
                    grads.append(np.zeros_like(x))
                elif kind == "linear":
                    gx = g @ w.data
                    if gx.ndim > x.ndim:  # the source was broadcast over the member axis
                        gx = gx.sum(axis=tuple(range(gx.ndim - x.ndim)))
                    gx *= src.mask  # gx is this closure's own product
                    grads += [g.swapaxes(-1, -2) @ src.rectified, gx]
            return grads

        return self._push("node", Value(np.add(a, b, out=own)), inputs, backward, params)

    def mean_of(self, parts) -> Value:
        """Elementwise mean of same-shape arrays (fixed averaging projection)."""
        shape = parts[0].data.shape
        for p in parts:
            if p.data.shape != shape:
                raise ShapeMismatch("mean_of: mismatched part shapes")
        total = parts[0].data + 0.0  # sum()'s 0 + first part: -0.0 becomes +0.0
        for p in parts[1:]:
            total += p.data
        total /= len(parts)
        inv = 1.0 / len(parts)
        return self._push("mean_of", Value(total), list(parts), lambda g: [g * inv] * len(parts))

    def softmax_cross_entropy(self, logits: Value, labels) -> Value:
        """Mean cross-entropy of softmax(logits) against integer labels: one
        batch mean per member, so a (K, batch, classes) input gives shape (K,).
        Unstacked labels of shape (batch,) serve every member."""
        labels = np.asarray(labels)
        lead = logits.data.shape[:-1]
        if (logits.data.ndim < 2 or labels.shape[-1:] != lead[-1:]
                or _members("xent", labels.shape[:-1], lead[:-1]) != lead[:-1]):
            raise ShapeMismatch(f"xent: {logits.data.shape} vs labels {labels.shape}")
        idx = np.broadcast_to(labels, lead)[..., None]
        z = logits.data - logits.data.max(axis=-1, keepdims=True)
        logsumexp = np.log(np.exp(z).sum(axis=-1, keepdims=True))
        logp = z - logsumexp
        n = lead[-1]
        out = Value(-np.take_along_axis(logp, idx, axis=-1)[..., 0].mean(axis=-1))

        def backward(g):
            grad = np.exp(logp) - (idx == np.arange(logp.shape[-1]))
            return [g[..., None, None] * grad / n]

        return self._push("xent", out, [logits], backward)


def _dense(op, x, w):
    """x @ w.T over the last two axes of x (batch, in) and w (out, in).
    Either may carry a leading member axis; an unstacked side broadcasts."""
    if x.ndim < 2 or w.ndim < 2 or x.shape[-1] != w.shape[-1]:
        raise ShapeMismatch(f"{op}: {x.shape} vs {w.shape}")
    try:
        return x @ w.swapaxes(-1, -2)
    except ValueError:  # member axes that do not broadcast
        raise ShapeMismatch(f"{op}: member axes of {x.shape} and {w.shape} differ") from None


def _members(op, *leading):
    """The broadcast shape of the leading (member) axes of an op's operands."""
    try:
        return np.broadcast_shapes(*leading)
    except ValueError:
        raise ShapeMismatch(f"{op}: member axes {leading} differ") from None


def backward(tape: Tape, loss: Value, keep_outputs=False):
    """Run the reverse pass from ``loss``, filling ``grad`` on every reachable
    leaf.  Op outputs' gradients are dropped once replayed; ``keep_outputs``
    keeps those of records with parameters for ``per_example_variance``."""
    if not any(out is loss for _, out, _, _, _ in tape._records):
        raise NoTape("loss was not produced by this tape, or the tape records nothing")
    for _, out, inputs, _, _ in tape._records:
        out.grad = None
        for v in inputs:
            v.grad = None
    loss.grad = np.ones_like(loss.data, dtype=np.float64)
    for _, out, inputs, bwd, params in reversed(tape._records):
        if out.grad is None:
            continue
        for v, g in zip(inputs, bwd(out.grad)):
            if g.ndim > v.data.ndim:  # v was broadcast over the member axis
                g = g.sum(axis=tuple(range(g.ndim - v.data.ndim)))
            v.grad = g if v.grad is None else v.grad + g
        if not (keep_outputs and params):
            out.grad = None


def per_example_variance(tape: Tape, leaves: dict) -> dict:
    """Each leaf's total variance (covariance trace) of its per-example
    gradients, as name -> float for the ``leaves`` (name -> Value) that the
    loss reaches, read off ``tape`` after one batched ``backward``.

    The rows of every record must be independent examples, and each leaf
    must feed exactly one record: as the weight or bias of a ``dense``, or as
    the weight of a linear ``node`` part.  Its batch gradient is
    then a sum of per-row terms (see Goodfellow, arXiv:1510.01799): row i
    contributes the rank-1 block ``g[i] (x) x[i]`` to a weight and ``g[i]``
    to a bias, where ``g`` is the record's output gradient and ``x`` the
    array the weight multiplies: a dense's input, or a node part's rectified
    source.  The loss is a batch mean, so row i of ``g`` is 1/n of example
    i's own gradient and every per-example gradient is scaled by the row
    count n.
    A bias block is reduced to its centred sum of squares, and a weight block
    from its factors by ``rank1.sum_of_squares``, so no (n, out, in) array
    of per-example gradients is built.  A leaf the loss does not reach has
    no entry.  Raises SharedParameter when a leaf feeds any other record.
    """
    uses = {}
    for kind, out, inputs, _, params in tape._records:
        params = params or {}
        for slot, v in enumerate(inputs):
            uses.setdefault(id(v), []).append((kind, slot in params, out, params.get(slot)))
    blocks = {}
    for name, leaf in leaves.items():
        found = uses.get(id(leaf), [])
        if len(found) > 1 or not all(u[1] for u in found):
            raise SharedParameter(
                f"parameter {name} feeds {[u[0] for u in found]}; per-example gradients "
                "need it to be the weight or bias of one dense, or the weight of one node part"
            )
        if not found or leaf.grad is None:
            continue
        _, _, out, x = found[0]
        if out.grad is None:
            raise NoTape("per-example gradients need backward(..., keep_outputs=True)")
        g = out.grad * len(out.grad)
        if x is None:
            centred = g - g.mean(axis=0)
            blocks[name] = float(np.sum(centred * centred)) / len(g)
        else:
            blocks[name] = sum_of_squares(g, x) / len(g)
    return blocks


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

