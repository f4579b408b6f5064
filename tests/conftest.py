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
from cellscape.autodiff import Tape, Value
from cellscape.errors import DimensionMismatch, ParseError, ShapeMismatch, UnsupportedInputCount
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
from cellscape.rng import stream
from cellscape.sampler import connection_space_counts

# slot assignments beyond which the enumeration oracle refuses to run
ENUMERATION_CAP = 10**6


class TooLarge(Exception):
    """The enumeration oracle's slot-assignment space exceeds its cap."""


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
