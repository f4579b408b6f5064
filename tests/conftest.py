import csv
import itertools
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from cellscape import (
    CellGenotype,
    NodeSpec,
    OpSpec,
    adapt_to_widest_shallowest,
    cell_depth,
    cell_width,
    load_fixture,
)
from cellscape.errors import (CellscapeError, DimensionMismatch, ParseError, ShapeMismatch,
                              UnsupportedInputCount)
from cellscape.genotype import rewired
from cellscape.landscape import Surface
from cellscape.linear_theory import (
    SMOOTHNESS_SLACK,
    LinearCellModel,
    _bound_check,
    grad_factors,
    linear_cell,
    random_model,
    spectral_norm,
)
from cellscape.rank1 import sum_of_squares
from cellscape.rng import stream
from cellscape.sampler import connection_space_counts

# slot assignments beyond which the enumeration oracle refuses to run
ENUMERATION_CAP = 10**6


class TooLarge(Exception):
    """The enumeration oracle's slot-assignment space exceeds its cap."""


# --- the tape oracle: the reverse-mode tape that the network's pass
# replaced, kept as the slow loop that every pass is checked against.  A
# ``Tape`` records one primitive per network layer of a forward pass over
# ``Value`` nodes; ``backward`` replays the records in reverse, and
# ``per_example_variance`` reads each parameter block's per-example
# gradient variance off a recorded tape.


class NoTape(CellscapeError):
    """backward() called on a value the tape did not produce."""


class SharedParameter(CellscapeError):
    """A parameter feeds more than one tape record, so its per-example
    gradients are not one rank-1 term per example."""


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


def tape_forward(net, x, params, record=True):
    """``net``'s forward pass on the tape, wired from its genotype alone:
    (logits Value, tape, name -> leaf Value map), the leaves being views of
    the params' blocks."""
    tape = Tape(record=record)
    leaves = {name: Value(view) for name, view in net.layout.views(params).items()}
    prev2 = prev1 = tape.dense(Value(x), leaves["stem.w"], leaves["stem.b"])
    for layer in range(net.cfg.layers):
        vals = [prev2, prev1]
        for i, node in enumerate(net.genotype.nodes):
            vals.append(tape.node([(op.kind, vals[op.source],
                                    leaves.get(f"cell{layer}.node{i}.op{slot}.w"))
                                   for slot, op in enumerate(node.ops)]))
        prev2, prev1 = prev1, tape.mean_of([vals[c] for c in net.genotype.concat])
    return tape.dense(prev1, leaves["head.w"], leaves["head.b"]), tape, leaves


def tape_loss_and_grads(net, x, y, params):
    """The oracle of ``CellNetwork.loss_and_grads``: a tape's backward, each
    leaf's gradient flattened in layout order and zeros for a leaf that the
    loss does not reach."""
    logits, tape, leaves = tape_forward(net, x, params)
    loss = tape.softmax_cross_entropy(logits, y)
    backward(tape, loss)
    lead = params.shape[:-1]
    grads = np.concatenate([
        (np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad).reshape(lead + (-1,))
        for leaf in leaves.values()
    ], axis=-1)
    return loss.data[()], grads


def tape_evaluate(net, x, y, params):
    """The oracle of ``CellNetwork.evaluate``, on a tape that records nothing."""
    logits, tape, _ = tape_forward(net, x, params, record=False)
    loss = tape.softmax_cross_entropy(logits, y)
    acc = np.mean(np.argmax(logits.data, axis=-1) == np.asarray(y), axis=-1)
    return loss.data[()], acc[()]


def tape_gradient_variance(net, x, y, params):
    """The oracle of ``CellNetwork.gradient_variance``: the running sum of
    ``per_example_variance``'s blocks in layout order."""
    logits, tape, leaves = tape_forward(net, x, params)
    loss = tape.softmax_cross_entropy(logits, y)
    backward(tape, loss, keep_outputs=True)
    total = 0.0
    for variance in per_example_variance(tape, leaves).values():
        total += variance
    return total


class LossTape(Tape):
    """Tape plus the ops that only test objectives use, and a cell node as
    separate rectifier, ``matmul``, zeros and ``add`` records: the bit-for-bit
    oracle of ``Tape.node``."""

    def matmul(self, x: Value, w: Value) -> Value:
        """x @ w.T: a ``dense`` without its bias, whose ``+ 0.0`` would turn
        a -0.0 into +0.0."""
        out = Value(x.data @ w.data.swapaxes(-1, -2))
        return self._push("matmul", out, [x, w],
                          lambda g: [g @ w.data, g.swapaxes(-1, -2) @ x.data])

    def relu(self, x: Value) -> Value:
        o = np.fmax(x.data, 0.0)
        o += 0.0
        return self._push("relu", Value(o), [x], lambda g: [g * (o > 0.0)])

    def add(self, a: Value, b: Value) -> Value:
        if a.data.shape != b.data.shape:
            raise ShapeMismatch(f"add: {a.data.shape} vs {b.data.shape}")
        return self._push("add", Value(a.data + b.data), [a, b], lambda g: [g, g])

    def zeros_like(self, x: Value) -> Value:
        out = Value(np.zeros_like(x.data))
        return self._push("zeros_like", out, [x], lambda g: [np.zeros_like(x.data)])

    def op(self, kind, x: Value, w) -> Value:
        """What an operation of ``kind`` computes from its source ``x``; only a
        ``linear`` op reads its (dim, dim) weight ``w``."""
        if kind == "linear":
            # pre-activation style: rectifier then dense map
            return self.matmul(self.relu(x), w)
        if kind == "identity":
            return x
        if kind == "zero":
            return self.zeros_like(x)
        raise AssertionError(kind)

    def unfused_node(self, parts) -> Value:
        """``Tape.node`` of ``parts``, each ``(kind, x, w)`` with ``x`` a Value."""
        (ka, xa, wa), (kb, xb, wb) = parts
        return self.add(self.op(ka, xa, wa), self.op(kb, xb, wb))

    def sub(self, a: Value, b: Value) -> Value:
        if a.data.shape != b.data.shape:
            raise ShapeMismatch(f"sub: {a.data.shape} vs {b.data.shape}")
        return self._push("sub", Value(a.data - b.data), [a, b], lambda g: [g, -g])

    def scale(self, x: Value, s: float) -> Value:
        return self._push("scale", Value(x.data * s), [x], lambda g: [g * s])

    def half_sum_sq(self, x: Value) -> Value:
        out = Value(0.5 * np.sum(x.data * x.data))
        return self._push("half_sum_sq", out, [x], lambda g: [g * x.data])


def per_example_sum_of_squares(g, x):
    """Brute-force oracle of a weight block's reduction: the centred sum of
    squares of the rank-1 terms ``g[i] (x) x[i]``, built as one (n, out, in)
    array."""
    terms = np.einsum("bo,bi->boi", g, x)
    centred = terms - terms.mean(axis=0)
    return float(np.sum(centred * centred))


def materialised_variance(grads):
    """Oracle of the variance check's reduction from every row's (d, d)
    gradient, (S, d, d) outer products v_s u_s^T built in full: centred and
    squared, they give each row's squared distance from their mean.  Returns
    the distances' mean and standard error, the std taken of the distances
    times the 2^-e that brings their largest into [0.5, 1), then times 2^e."""
    sq = np.sum(np.square(grads - grads.mean(axis=0)), axis=(1, 2))
    e = np.frexp(sq.max())[1]
    return float(sq.mean()), float(np.ldexp(np.ldexp(sq, -e).std(ddof=1), e) / np.sqrt(len(sq)))


def chain_sources(n):
    """The chain's wiring: node i reads node i - 1, node 0 being the input."""
    return tuple(range(n))


def widest_sources(n):
    """The widest cell's wiring: every node reads the input."""
    return (0,) * n


def block_grads(m, xs, sources):
    """Every block's (S, d, d) batch gradient of the model wired by
    ``sources``, from ``grad_factors``, in block order."""
    grads = {i: np.einsum("si,sj->sij", v, u)
             for i, v, u, _ in grad_factors(m, linear_cell(sources), xs)}
    return [grads[i] for i in range(1, m.n + 1)]


def one_row(m, x, sources):
    """Block gradients of a linear cell model at one input, through the batch
    gradient function: one (d, d) array per block."""
    return [g[0] for g in block_grads(m, np.asarray(x)[None], sources)]


# --- the linear cells' oracles: a forward pass and the quadratic objective,
# with the wiring passed in, and the chain's gradient as an explicit sum


def check_input(m, x):
    """One input row of the model as a float (d,) array."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (m.dim,):
        raise DimensionMismatch(f"input shape {x.shape}, expected ({m.dim},)")
    return x


def forward(x, m, sources):
    """Concatenation of nodes 1..n, where node i = W(i) node ``sources[i-1]``
    and node 0 = x."""
    nodes = [check_input(m, x)]
    for w, s in zip(m.weights, sources):
        nodes.append(w @ nodes[s])
    return np.concatenate(nodes[1:])


def loss(x, m, sources):
    """0.5 * sum_i ||node_i - t_i||^2 of the model wired by ``sources``."""
    nodes = np.split(forward(x, m, sources), m.n)
    return 0.5 * sum(float(np.sum((y - t) ** 2)) for y, t in zip(nodes, m.targets))


def chain_population(seed, count=100):
    """Criterion 4's random chains: from one ``stream(seed, "theory")``, count
    models of n in 1..4 blocks of size d in 2..8, each followed by its input."""
    rng = stream(seed, "theory")
    for _ in range(count):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(2, 9))
        m = random_model(n, d, rng)
        yield m, rng.standard_normal(d)


def chain_gradient(m, x, i):
    """Block-i gradient of the chained model at one input x, as the explicit
    sum over k >= i of (W(k)...W(i+1))^T (y_k - t_k) (W(i-1)...W(1) x)^T."""
    ys = [x]
    for w in m.weights:
        ys.append(w @ ys[-1])
    grad = np.zeros((m.dim, m.dim))
    for k in range(i, m.n + 1):
        b = np.eye(m.dim)
        for w in m.weights[i:k]:
            b = w @ b
        grad += np.outer(b.T @ (ys[k] - m.targets[k - 1]), ys[i - 1])
    return grad


def with_block(m, i, w):
    """Copy of the model with block i (1-based) replaced."""
    weights = [w.copy() for w in m.weights]
    weights[i - 1] = np.array(w, dtype=np.float64)
    return LinearCellModel(weights, [t.copy() for t in m.targets])


def two_gradient_ratio(m, x, i, w1, w2):
    """||g(W1) - g(W2)||_2 / ||W1 - W2||_2 for block i of the chained model,
    from two full gradient evaluations on copies of the model."""
    g1 = chain_gradient(with_block(m, i, w1), x, i)
    g2 = chain_gradient(with_block(m, i, w2), x, i)
    return np.linalg.norm(g1 - g2, ord=2) / np.linalg.norm(w1 - w2, ord=2)


def ball_perturbation(rng, shape, radius):
    """Uniform draw from the Frobenius ball of the given radius."""
    g = rng.standard_normal(shape)
    norm = np.linalg.norm(g)
    if norm == 0.0:
        g.flat[0] = 1.0
        norm = 1.0
    u = rng.uniform() ** (1.0 / g.size)
    return g * (radius * u / norm)


def per_trial_smoothness(m, x, i, rng, trials):
    """Monte-Carlo estimate of block i's smoothness constant, one trial at a
    time: each trial's two draws from the Frobenius ball of radius
    0.1 * ||W(i)|| around W(i) (0.1 when W(i) = 0), its D = W1 - W2 scaled to
    max|D| in [0.5, 1) by a power of two, its numerator ||A D u|| * ||u||
    (norms by ``math.hypot``, which squares nothing that can overflow) and
    its ||D||_2 (an SVD) in turn.  The largest ratio, nan when a pair is not
    finite, goes into a report shaped as ``verify_block_smoothness``'s; it
    can never exceed the exact constant."""
    x = check_input(m, x)
    w = m.weights[i - 1]
    norm = np.linalg.norm(w)
    if norm < np.sqrt(np.finfo(np.float64).tiny) and w.any():  # the squares underflowed
        top = np.abs(w).max()
        norm = top * np.linalg.norm(w / top)
    radius = 0.1 * norm or 0.1
    lambdas = [spectral_norm(w) for w in m.weights]
    l_widest = float(x @ x)
    bound = float(np.prod(lambdas[: i - 1])) * l_widest
    prefix = np.eye(m.dim)  # W(i-1)...W(1)
    for w in m.weights[: i - 1]:
        prefix = w @ prefix
    u = prefix @ x
    u_norm = math.hypot(*u)  # no square overflows in hypot
    eye = np.eye(m.dim)
    a = eye
    for w in reversed(m.weights[i:]):
        a = eye + w.T @ a @ w
    ratios = np.empty(trials)
    for t in range(trials):
        w1 = m.weights[i - 1] + ball_perturbation(rng, (m.dim, m.dim), radius)
        w2 = m.weights[i - 1] + ball_perturbation(rng, (m.dim, m.dim), radius)
        delta = w1 - w2
        if np.isfinite(delta).all():
            delta = np.ldexp(delta, -np.frexp(np.abs(delta).max())[1])
            ratios[t] = math.hypot(*(a @ (delta @ u))) * u_norm / np.linalg.norm(delta, ord=2)
        else:
            ratios[t] = np.nan
    return _bound_check("block_smoothness", i, lambdas, float(ratios.max()), bound,
                        SMOOTHNESS_SLACK, trials=trials, radius=float(radius),
                        input_norm_sq=l_widest)


def exact_block_smoothness(m, x, i):
    """L_i = ||W(i-1)...W(1) x||^2 * lambda_max(sum_{k>=i} B_k^T B_k) of the
    chain, B_k = W(k)...W(i+1) and B_i = I, as the benchmark's reference
    computes it: inf or nan once the sum is not finite."""
    u = check_input(m, x)
    for w in m.weights[: i - 1]:
        u = w @ u
    b = a = np.eye(m.dim)
    for w in m.weights[i:]:
        b = w @ b
        a = a + b.T @ b
    if not np.isfinite(a).all():  # eigvalsh may not converge on it
        return float(np.abs(a).max())
    return float(u @ u) * float(np.linalg.eigvalsh(a)[-1])


def within(estimate, exact):
    """Whether a smoothness estimate stays at or below the exact constant,
    allowing 1e-12 relative and, where a product of the estimate rounds in
    the subnormal range, 4 units there.  A nan on either side is no claim:
    an estimate from a pair that is not finite, or a constant past float
    range, which every float is below."""
    return (np.isnan(estimate) or np.isnan(exact)
            or estimate <= exact * (1 + 1e-12) + 4 * 5e-324)


# --- readers, writers and counts that no command uses


def load_grid_csv(path, kind="loss"):
    """Read back a square grid written by ``export_grid`` as CSV: its
    coordinates and its Surface."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [(float(a), float(b), float(v)) for a, b, v in reader]
    if header != ["alpha", "beta", "value"]:
        raise ParseError(f"{path}: unexpected header {header}")
    coords = sorted({r[0] for r in rows})
    if coords != sorted({r[1] for r in rows}):
        raise ParseError(f"{path}: alphas and betas differ")
    values = np.full((len(coords), len(coords)), np.nan)
    index = {v: i for i, v in enumerate(coords)}
    for a, b, v in rows:
        values[index[a], index[b]] = v
    return np.array(coords), Surface(kind, values)


def spec_to_json(spec, path):
    """Write a ``DatasetSpec`` as the JSON that ``spec_from_json`` reads."""
    with open(path, "w") as fh:
        json.dump(asdict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def cell_parameter_count(net):
    """Parameters in a network's cells, stem and head left out."""
    return sum(
        int(np.prod(shape))
        for name, (_, shape) in net.layout.blocks.items()
        if name.startswith("cell")
    )


# --- cells and variant sets that only tests build


def edges(g: CellGenotype):
    """(source, node) pairs of a cell's intermediate nodes, in slot order."""
    return [(op.source, g.num_inputs + i) for i, node in enumerate(g.nodes) for op in node.ops]


def _one_kind_cell(n, name, kind, num_inputs) -> CellGenotype:
    """n nodes of ``num_inputs`` ``kind`` ops each, left for a rewiring to wire."""
    return CellGenotype(name, num_inputs, (NodeSpec((OpSpec(kind, 0),) * num_inputs),) * n)


def rewire_to_chain(g: CellGenotype) -> CellGenotype:
    """Rewire every intermediate node after the first to its predecessor (plus
    input 0), producing the deepest variant; ops and node order preserved."""
    if g.num_inputs != 2:
        raise UnsupportedInputCount(
            f"rewiring supports exactly 2 input nodes, got {g.num_inputs}"
        )
    return rewired(g, f"{g.name}_chain",
                   lambda i, node: (OpSpec(op.kind, s) for op, s in
                                    zip(node.ops, (0, 1) if i == 0 else (i + 1, 0))))


def chain_cell(n, name="chain", kind="linear", num_inputs=2) -> CellGenotype:
    """Cell where node i sources node i-1 (and input 0), maximizing depth:
    ``rewire_to_chain`` of a cell of one op kind, so 2 input nodes only."""
    return replace(rewire_to_chain(_one_kind_cell(n, name, kind, num_inputs)), name=name)


def all_input_cell(n, name="all-input", kind="linear", num_inputs=2) -> CellGenotype:
    """Cell where every node sources only input nodes, widest and shallowest:
    the adaptation of a cell of one op kind, so 2 input nodes only."""
    g = adapt_to_widest_shallowest(_one_kind_cell(n, name, kind, num_inputs))
    return replace(g, name=name)


def enumerate_connection_variants(g: CellGenotype, cap=ENUMERATION_CAP):
    """Yield every connection variant of ``g`` in lexicographic source order:
    the oracle for ``connection_space_counts``.

    Each of the n*M slots independently ranges over the slot's preceding
    nodes; assignments whose nodes hold the same multiset of (kind, source)
    pairs are emitted once.  Raises TooLarge when the raw space exceeds the
    cap.
    """
    m = g.num_inputs
    raw, _, _ = connection_space_counts(g)
    if raw > cap:
        raise TooLarge(f"slot-assignment space of size {raw} exceeds cap {cap}")

    slot_ranges = []
    for i, node in enumerate(g.nodes):
        for _ in node.ops:
            slot_ranges.append(range(m + i))

    seen = set()
    for assignment in itertools.product(*slot_ranges):
        nodes = []
        pos = 0
        key = []
        for node in g.nodes:
            ops = tuple(
                OpSpec(op.kind, assignment[pos + j]) for j, op in enumerate(node.ops)
            )
            pos += len(node.ops)
            nodes.append(NodeSpec(ops))
            key.append(tuple(sorted((op.kind, op.source) for op in ops)))
        key = tuple(key)
        if key in seen:
            continue
        seen.add(key)
        yield CellGenotype(
            name=g.name, num_inputs=m, nodes=tuple(nodes), concat=g.concat
        )


def rank_variants(genotypes):
    """Stable sort by width ascending, then depth descending, then name."""
    def key(g):
        return (cell_width(g), -cell_depth(g), g.name)

    return sorted(genotypes, key=key)


@pytest.fixture
def darts():
    return load_fixture("darts")


@pytest.fixture
def snas():
    return load_fixture("snas")


@pytest.fixture
def toy_cell():
    # node1 <- (in0, in1), node2 <- (in0, node1): width 1.5c, depth 3
    return CellGenotype(
        name="toy",
        num_inputs=2,
        nodes=(
            NodeSpec((OpSpec("linear", 0), OpSpec("linear", 1))),
            NodeSpec((OpSpec("linear", 0), OpSpec("linear", 2))),
        ),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.PCG64(1234))


def central_difference(f, w, eps):
    """Central finite-difference gradient of scalar f at array w."""
    w = np.asarray(w, dtype=np.float64)
    g = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        wp = w.copy()
        wm = w.copy()
        wp[idx] += eps
        wm[idx] -= eps
        g[idx] = (f(wp) - f(wm)) / (2.0 * eps)
    return g
