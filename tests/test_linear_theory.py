import tracemalloc

import numpy as np
import pytest

from cellscape import linear_theory
from cellscape.autodiff import backward
from cellscape.errors import DimensionMismatch, ForwardReference, InsufficientSamples
from cellscape.genotype import OpSpec
from cellscape.linear_theory import (
    SMOOTHNESS_CHUNK,
    LinearCellModel,
    _total_variance,
    grad_factors,
    linear_cell,
    random_model,
    spectral_norm,
    theory_report,
    verify_block_smoothness,
    verify_gradient_variance,
)
from conftest import (
    LossTape,
    ball_perturbation,
    block_grads,
    central_difference,
    chain_gradient,
    chain_sources,
    forward,
    loss,
    one_row,
    per_trial_smoothness,
    two_gradient_ratio,
    widest_sources,
    with_block,
)


def make_rng(seed=0):
    return np.random.default_rng(np.random.PCG64(seed))


# --- forward passes -------------------------------------------------------


def test_forward_identity_weights():
    d, n = 4, 3
    eye = [np.eye(d) for _ in range(n)]
    targets = [np.zeros(d) for _ in range(n)]
    x = np.arange(d, dtype=float)
    m = LinearCellModel(eye, targets)
    assert np.allclose(forward(x, m, widest_sources(n)), np.tile(x, n))
    assert np.allclose(forward(x, m, chain_sources(n)), np.tile(x, n))


def test_forward_scalar_matrices_commute():
    d = 3
    weights = [2.0 * np.eye(d), 3.0 * np.eye(d)]
    targets = [np.zeros(d)] * 2
    m = LinearCellModel(weights, targets)
    x = np.ones(d)
    z = forward(x, m, chain_sources(2))
    assert np.allclose(z[d:], 6.0 * x)


def test_forward_matches_naive_oracle():
    rng = make_rng(1)
    m = random_model(3, 5, rng)
    x = rng.standard_normal(5)
    z = forward(x, m, widest_sources(3))
    for i, w in enumerate(m.weights):
        naive = np.array([float(np.dot(row, x)) for row in w])
        assert np.allclose(z[5 * i : 5 * (i + 1)], naive, atol=1e-12)


def test_forward_dimension_mismatch():
    m = random_model(2, 4, make_rng(0))
    with pytest.raises(DimensionMismatch):
        forward(np.ones(5), m, widest_sources(2))


def test_model_needs_a_weight_matrix():
    with pytest.raises(DimensionMismatch, match="at least one weight matrix"):
        LinearCellModel([], [])


def test_model_lambdas_are_spectral_norms():
    m = random_model(3, 5, make_rng(3))
    assert m.lambdas == tuple(spectral_norm(w) for w in m.weights)


def test_theory_report_computes_each_lambda_once(monkeypatch):
    calls = []

    def counting(w):
        calls.append(w)
        return spectral_norm(w)

    monkeypatch.setattr(linear_theory, "spectral_norm", counting)
    theory_report(n=3, dim=4, trials=3, samples=5, instances=2, seed=0, scale=1.0)
    assert len(calls) == 3 * 2


@pytest.mark.parametrize("i", [0, -1, 4])
def test_block_outside_range_is_rejected(i):
    rng = make_rng(18)
    m = random_model(3, 4, rng)
    x, xs = rng.standard_normal(4), rng.standard_normal((5, 4))
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"block -?\d+ is outside 1\.\.3"):
        verify_block_smoothness(m, x, i, rng, trials=5)
    with pytest.raises(ValueError, match=r"block -?\d+ is outside 1\.\.3"):
        verify_gradient_variance(m, i, xs)
    assert rng.bit_generator.state == state  # rejected before any draw


@pytest.mark.parametrize("shape", [(5,), (1, 4), ()])
def test_smoothness_input_of_other_shape_is_rejected(shape):
    # the chain's sweep checks the input as a one-row batch
    rng = make_rng(18)
    m = random_model(3, 4, rng)
    state = rng.bit_generator.state
    with pytest.raises(DimensionMismatch, match="batch shape"):
        verify_block_smoothness(m, np.ones(shape), 2, rng, trials=5)
    assert rng.bit_generator.state == state  # rejected before any draw


def test_n1_models_coincide():
    rng = make_rng(2)
    w = rng.standard_normal((6, 6))
    t = rng.standard_normal(6)
    x = rng.standard_normal(6)
    m = LinearCellModel([w], [t])
    assert np.allclose(forward(x, m, widest_sources(1)), forward(x, m, chain_sources(1)))
    assert np.allclose(one_row(m, x, widest_sources(1))[0], one_row(m, x, chain_sources(1))[0])
    assert loss(x, m, widest_sources(1)) == pytest.approx(loss(x, m, chain_sources(1)))


# --- gradient formulas ----------------------------------------------------


def fd_grads(m, x, sources, eps=1e-5):
    """Central finite differences of the quadratic objective per block."""
    out = []
    for i in range(1, m.n + 1):
        def f(wv, i=i):
            return loss(x, with_block(m, i, wv), sources)

        out.append(central_difference(f, m.weights[i - 1], eps))
    return out


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
    return np.max(np.abs(a - b)) / denom


def test_grad_widest_at_optimum_is_zero():
    rng = make_rng(3)
    m = random_model(2, 4, rng)
    x = rng.standard_normal(4)
    m.targets = [w @ x for w in m.weights]
    for g in one_row(m, x, widest_sources(2)):
        assert np.allclose(g, 0.0, atol=1e-12)


def test_grad_widest_basis_vector_column():
    rng = make_rng(4)
    m = random_model(1, 5, rng)
    x = np.zeros(5)
    x[0] = 1.0
    g = one_row(m, x, widest_sources(1))[0]
    assert np.all(g[:, 1:] == 0.0)
    assert np.any(g[:, 0] != 0.0)


def test_grad_narrowest_identity_collapse():
    d, n = 3, 3
    rng = make_rng(5)
    targets = [rng.standard_normal(d) for _ in range(n)]
    m = LinearCellModel([np.eye(d) for _ in range(n)], targets)
    x = rng.standard_normal(d)
    grads = one_row(m, x, chain_sources(n))
    for i in range(1, n + 1):
        expected = sum(np.outer(x - targets[k], x) for k in range(i - 1, n))
        assert np.allclose(grads[i - 1], expected, atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_gradients_match_finite_differences(seed):
    rng = make_rng(seed)
    n = int(rng.integers(1, 5))
    d = int(rng.integers(2, 9))
    x = rng.standard_normal(d)

    widest = random_model(n, d, rng)
    for g, fd in zip(one_row(widest, x, widest_sources(n)),
                     fd_grads(widest, x, widest_sources(n))):
        assert rel_err(g, fd) <= 1e-6

    narrowest = random_model(n, d, rng)
    for g, fd in zip(one_row(narrowest, x, chain_sources(n)),
                     fd_grads(narrowest, x, chain_sources(n))):
        assert rel_err(g, fd) <= 1e-6


def tape_grads(m, x, sources):
    """The objective of the model wired by ``sources`` rebuilt on the autodiff
    tape, one dense per block."""
    t = LossTape()
    leaves = [t.leaf(w) for w in m.weights]
    nodes = [t.leaf(x.reshape(1, -1))]
    total = None
    for leaf, target, s in zip(leaves, m.targets, sources):
        nodes.append(t.dense(nodes[s], leaf))
        term = t.half_sum_sq(t.sub(nodes[-1], t.leaf(target.reshape(1, -1))))
        total = term if total is None else t.add(total, term)
    backward(t, total)
    return [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("seed", range(10))
def test_grad_narrowest_matches_autodiff(seed):
    rng = make_rng(100 + seed)
    n = int(rng.integers(1, 5))
    d = int(rng.integers(2, 9))
    m = random_model(n, d, rng)
    x = rng.standard_normal(d)
    for closed, taped in zip(one_row(m, x, chain_sources(n)), tape_grads(m, x, chain_sources(n))):
        assert np.max(np.abs(closed - taped)) <= 1e-10


# node 1 is read by nodes 2 and 3, node 2 by node 4: a reverse sweep that
# neither extreme reaches, where a node's v sums two readers' terms
FAN_OUT = (0, 1, 1, 2)


@pytest.mark.parametrize("seed", range(5))
def test_fan_out_gradients_match_finite_differences_and_tape(seed):
    rng = make_rng(1000 + seed)
    d = int(rng.integers(2, 7))
    m = random_model(len(FAN_OUT), d, rng)
    x = rng.standard_normal(d)
    closed = one_row(m, x, FAN_OUT)
    for g, fd, taped in zip(closed, fd_grads(m, x, FAN_OUT), tape_grads(m, x, FAN_OUT)):
        assert rel_err(g, fd) <= 1e-6
        assert np.max(np.abs(g - taped)) <= 1e-10


# the sweep's Gram a on both extremes, a fan-out and a wiring whose node 3
# goes back to the input and whose node 5 branches off node 2
WIRINGS = {"chain": chain_sources(5), "widest": widest_sources(5), "fan_out": FAN_OUT,
           "branches": (0, 1, 0, 3, 2)}


def node_jacobian(m, sources, i, k):
    """d node_k / d node_i under the wiring: the weights on the path from node
    i to node k, multiplied from node k down, or 0 when no path leads there."""
    jac, j = np.eye(m.dim), k
    while j > i:
        jac = jac @ m.weights[j - 1]
        j = sources[j - 1]
    return jac if j == i else np.zeros((m.dim, m.dim))


@pytest.mark.parametrize("wiring", WIRINGS)
@pytest.mark.parametrize("seed", range(3))
def test_sweep_gram_is_sum_of_node_jacobians(wiring, seed):
    # a = sum_k J_k^T J_k over every node k, J_k = d node_k / d node_i
    sources = WIRINGS[wiring]
    rng = make_rng(1100 + seed)
    d = int(rng.integers(1, 6))
    m = random_model(len(sources), d, rng)
    for i, _, _, a in grad_factors(m, linear_cell(sources), rng.standard_normal((3, d))):
        jacobians = [node_jacobian(m, sources, i, k) for k in range(1, m.n + 1)]
        assert np.allclose(a, sum(j.T @ j for j in jacobians), rtol=1e-12, atol=1e-12)
        if wiring == "widest":
            assert np.array_equal(a, np.eye(d))


@pytest.mark.parametrize("wiring", WIRINGS)
@pytest.mark.parametrize("seed", range(3))
def test_sweep_gram_is_the_gradients_slope(wiring, seed):
    # W(i) -> W(i) + D moves the tape's block-i gradient by a D u u^T
    sources = WIRINGS[wiring]
    rng = make_rng(1200 + seed)
    d = int(rng.integers(1, 6))
    m = random_model(len(sources), d, rng)
    x = rng.standard_normal(d)
    before = tape_grads(m, x, sources)
    for i, _, u, a in grad_factors(m, linear_cell(sources), x[None]):
        delta = rng.standard_normal((d, d))
        moved = tape_grads(with_block(m, i, m.weights[i - 1] + delta), x, sources)
        change = a @ delta @ np.outer(u[0], u[0])
        assert np.max(np.abs(moved[i - 1] - before[i - 1] - change)) <= 1e-10


def test_chain_gradients_match_explicit_sum():
    rng = make_rng(25)
    m = random_model(4, 5, rng)
    x = rng.standard_normal(5)
    for i, g in enumerate(one_row(m, x, chain_sources(4)), start=1):
        assert np.allclose(g, chain_gradient(m, x, i), rtol=1e-12, atol=1e-12)


def test_linear_cell_is_one_linear_slot_per_node():
    cell = linear_cell(FAN_OUT)
    assert cell.num_inputs == 1
    assert [node.ops for node in cell.nodes] == [(OpSpec("linear", s),) for s in FAN_OUT]
    with pytest.raises(ForwardReference):
        linear_cell((0, 2))  # node 2 reads node 2


def test_wiring_must_match_the_model():
    rng = make_rng(26)
    m = random_model(3, 4, rng)
    with pytest.raises(ValueError, match="shorter"):  # zip(strict=True) of weights and nodes
        next(grad_factors(m, linear_cell((0, 0)), rng.standard_normal((5, 4))))


def test_batch_grads_match_single():
    # an S-row batch against S one-row calls
    rng = make_rng(6)
    m = random_model(3, 4, rng)
    xs = rng.standard_normal((7, 4))
    batched = block_grads(m, xs, chain_sources(3))
    for s in range(7):
        single = one_row(m, xs[s], chain_sources(3))
        for i in range(m.n):
            assert np.allclose(batched[i][s], single[i], atol=1e-12)
    batched_w = block_grads(m, xs, widest_sources(3))
    for s in range(7):
        single = one_row(m, xs[s], widest_sources(3))
        for i in range(m.n):
            assert np.allclose(batched_w[i][s], single[i], atol=1e-12)


def test_grad_widest_scaling_with_zero_targets():
    # with t = 0 the gradient is W x x^T, quadratic in the input scale
    rng = make_rng(7)
    m = random_model(2, 5, rng)
    m.targets = [np.zeros(5), np.zeros(5)]
    x = rng.standard_normal(5)
    g1 = one_row(m, x, widest_sources(2))
    g3 = one_row(m, 3.0 * x, widest_sources(2))
    for a, b in zip(g1, g3):
        assert np.allclose(9.0 * a, b, atol=1e-10)


# --- spectral norm --------------------------------------------------------


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-10)


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, 1.0, 0.5])) == pytest.approx(3.0, abs=1e-10)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((4, 4))) == 0.0


def test_spectral_norm_transpose_invariance():
    rng = make_rng(8)
    w = rng.standard_normal((6, 6))
    assert abs(spectral_norm(w) - spectral_norm(w.T)) <= 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_spectral_norm_matches_svd(seed):
    rng = make_rng(200 + seed)
    shape = (int(rng.integers(2, 9)), int(rng.integers(2, 9)))
    w = rng.standard_normal(shape)
    svd_top = np.linalg.svd(w, compute_uv=False)[0]
    assert spectral_norm(w) == pytest.approx(svd_top, abs=1e-8)


def test_spectral_norm_near_degenerate_matches_svd():
    # top singular values 1 and 1 - 1e-4: a power iteration converges too
    # slowly to meet a 1e-10 tolerance within 10^4 steps on this matrix
    rng = make_rng(9)
    q1 = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    q2 = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    w = q1 @ np.diag([1.0, 1.0 - 1e-4, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05]) @ q2.T
    svd_top = np.linalg.svd(w, compute_uv=False)[0]
    assert spectral_norm(w) == pytest.approx(svd_top, rel=1e-12)


def test_spectral_norm_of_nonfinite_matrix():
    # a nan entry makes the norm nan, an infinite one (without a nan) inf
    w = np.eye(3)
    w[0, 0] = -np.inf
    assert spectral_norm(w) == np.inf
    w[1, 2] = np.nan
    assert np.isnan(spectral_norm(w))


# --- theorem verifiers ----------------------------------------------------


def test_smoothness_block1_bound_is_input_norm():
    rng = make_rng(9)
    m = random_model(3, 4, rng)
    x = rng.standard_normal(4)
    report = verify_block_smoothness(m, x, 1, rng, trials=20)
    assert report["bound"] == pytest.approx(float(x @ x))


def test_smoothness_orthogonal_weights_unit_lambdas():
    rng = make_rng(10)
    d, n = 4, 3
    qs = [np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(n)]
    targets = [rng.standard_normal(d) for _ in range(n)]
    m = LinearCellModel(qs, targets)
    x = rng.standard_normal(d)
    for i in range(1, n + 1):
        report = verify_block_smoothness(m, x, i, rng, trials=10)
        assert report["bound"] == pytest.approx(float(x @ x), rel=1e-9)
        assert all(abs(l - 1.0) <= 1e-9 for l in report["lambdas"])


def test_smoothness_last_block_exact_constant():
    # for i = n the gradient is (W p - t) p^T with p the prefix product of x,
    # so the true block constant is exactly ||p||^2; the empirical estimate
    # can never exceed it (the stated bound uses ||x||^2 and spectral norms,
    # which the prefix vector can legitimately exceed; that case is reported)
    for seed in range(10):
        rng = make_rng(300 + seed)
        n = int(rng.integers(1, 5))
        d = int(rng.integers(2, 9))
        m = random_model(n, d, rng)
        x = rng.standard_normal(d)
        report = verify_block_smoothness(m, x, n, rng, trials=100)
        p = x
        for w in m.weights[: n - 1]:
            p = w @ p
        assert report["empirical"] <= float(p @ p) + 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_smoothness_ratio_matches_two_gradients(seed):
    # each one-trial estimate is the ratio of one perturbation pair; the same
    # pair, drawn from an identical generator, through two full gradients
    rng = make_rng(400 + seed)
    n = int(rng.integers(1, 5))
    d = int(rng.integers(2, 9))
    i = int(rng.integers(1, n + 1))
    m = random_model(n, d, rng)
    x = rng.standard_normal(d)
    oracle_rng = make_rng(500 + seed)
    rng = make_rng(500 + seed)
    for _ in range(5):
        r = verify_block_smoothness(m, x, i, rng, trials=1)
        w1 = m.weights[i - 1] + ball_perturbation(oracle_rng, (d, d), r["radius"])
        w2 = m.weights[i - 1] + ball_perturbation(oracle_rng, (d, d), r["radius"])
        assert r["empirical"] == pytest.approx(two_gradient_ratio(m, x, i, w1, w2), rel=1e-12)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def same_report(report, expected):
    """Every field equal, a nan to a nan."""
    assert report.keys() == expected.keys()
    for key, want in expected.items():
        got = report[key]
        assert type(got) is type(want), key
        assert got == want or np.isnan(got) and np.isnan(want), key


class ScaledDraws:
    """A generator whose every ``every``-th standard-normal draw is multiplied
    by ``factor``: 0 makes an all-zero direction, and 1e-161 one so short that
    dividing a large radius by its norm overflows, so that pair is not finite
    while the trials around it are."""

    def __init__(self, seed, every, factor):
        self.rng, self.every, self.factor, self.draws = make_rng(seed), every, factor, 0

    def standard_normal(self, size=None, out=None):
        g = self.rng.standard_normal(size, out=out)
        self.draws += 1
        if self.draws % self.every == 0:
            g *= self.factor
        return g

    def random(self):
        return self.rng.random()

    def uniform(self):
        return self.rng.uniform()


class RepeatedDraws:
    """A generator whose trial t draws exactly what trial t mod ``period``
    drew, so every ratio, the largest too, ties with several others, within
    a chunk and across chunks."""

    def __init__(self, seed, period):
        self.rng, self.period, self.draws, self.uniforms = make_rng(seed), period, 0, 0
        self.saved = {}

    def _replay(self, kind, count, value):
        trial, k = divmod(count, 2)
        key = (kind, trial % self.period, k)
        if trial < self.period:
            self.saved[key] = np.copy(value)
        return self.saved[key]

    def standard_normal(self, size=None, out=None):
        g = self.rng.standard_normal(size, out=out)
        g[...] = self._replay("normal", self.draws, g.ravel()).reshape(g.shape)
        self.draws += 1
        return g

    def _uniform(self, u):
        u = self._replay("uniform", self.uniforms, u)
        self.uniforms += 1
        return float(u)

    def random(self):
        return self._uniform(self.rng.random())

    def uniform(self):
        return self._uniform(self.rng.uniform())


CHUNK_TRIALS = [1, SMOOTHNESS_CHUNK - 1, SMOOTHNESS_CHUNK, SMOOTHNESS_CHUNK + 1,
                2 * SMOOTHNESS_CHUNK + 3, 600]


@pytest.mark.parametrize("scale", [0.0, 1.0, 1e154, 1e-160, 1e-300])
@pytest.mark.parametrize("trials", CHUNK_TRIALS)
@pytest.mark.parametrize("d", [1, 2, 8, 17])
def test_smoothness_matches_per_trial_oracle(d, trials, scale):
    # at scale 1e154 ||W(i)|| overflows in every block at d = 8 and 17 and in
    # the last at d = 2, so those blocks' pairs are not finite.  At 1e-160
    # every ||D||_F is below the normal range until D is scaled by a power of
    # two; at 1e-300 the squares of every W(i) underflow to 0, so its radius
    # comes from the rescaled norm, and in blocks 2 and 3 every numerator
    # ||A D u|| * ||u||, about 1e-600 or less, underflows to 0
    rng = make_rng(600 + d)
    m = random_model(3, d, rng, scale=scale)
    x = rng.standard_normal(d)
    oracle_rng = make_rng(700 + trials)
    rng = make_rng(700 + trials)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in (1, 2, 3):
            same_report(verify_block_smoothness(m, x, i, rng, trials),
                        per_trial_smoothness(m, x, i, oracle_rng, trials))
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("scale", [1e-160, 1e-300])
def test_smoothness_radius_of_tiny_weights(scale):
    # W(i)'s sum of squares is subnormal at 1e-160 and 0 at 1e-300; the radius
    # is still 0.1 ||W(i)||_F, here from a norm scaled by an exact power of two
    rng = make_rng(1)
    m = random_model(3, 8, rng, scale=scale)
    x = rng.standard_normal(8)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in (1, 2, 3):
            report = verify_block_smoothness(m, x, i, rng, trials=2)
            frobenius = np.linalg.norm(m.weights[i - 1] * 2.0**1000) / 2.0**1000
            assert report["radius"] == pytest.approx(0.1 * frobenius, rel=1e-12)


def test_smoothness_of_tiny_weights_is_measured():
    # at scale 1e-300 each D is about 1e-301, so the squares in block 1's
    # numerators underflow to 0 unless D is first scaled by a power of two
    rng = make_rng(0)
    m = random_model(3, 8, rng, scale=1e-300)
    x = rng.standard_normal(8)
    report = verify_block_smoothness(m, x, 1, rng, trials=200)
    assert report["empirical"] > 0.0 and not report["violated"]


DEGENERATE_DRAWS = {  # (weight scale, generator)
    "zero": (1e150, lambda seed: ScaledDraws(seed, 7, 0.0)),
    "tiny": (1e150, lambda seed: ScaledDraws(seed, 7, 1e-161)),
    "repeated": (1.0, lambda seed: RepeatedDraws(seed, 50)),
}


@pytest.mark.parametrize("draws", DEGENERATE_DRAWS)
@pytest.mark.parametrize("d", [1, 8])
def test_smoothness_oracle_with_degenerate_draws(d, draws):
    # at scale 1e150 the radius is about 1e149: a direction of norm 1e-161
    # overflows its pair, so non-finite rows sit among finite ones in every
    # chunk; at scale 1 repeated draws make the largest ratio a tie within a
    # chunk and across chunks, while most trials skip the SVD
    scale, draw = DEGENERATE_DRAWS[draws]
    m = random_model(2, d, make_rng(800 + d), scale=scale)
    x = make_rng(900).standard_normal(d)
    trials = 2 * SMOOTHNESS_CHUNK + 3
    rng, oracle_rng = draw(d), draw(d)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in (1, 2):
            same_report(verify_block_smoothness(m, x, i, rng, trials),
                        per_trial_smoothness(m, x, i, oracle_rng, trials))
            assert rng.rng.bit_generator.state == oracle_rng.rng.bit_generator.state
            assert rng.draws == oracle_rng.draws


def test_smoothness_runs_few_svds(monkeypatch):
    # only a trial whose ratio can reach the largest one needs ||D||_2
    rows = []
    norm = np.linalg.norm

    def counting(a, ord=None, axis=None, **kwargs):
        if np.ndim(a) == 3:
            rows.append(len(a))
        return norm(a, ord, axis, **kwargs)

    rng = make_rng(22)
    m = random_model(3, 8, rng)
    x = rng.standard_normal(8)
    monkeypatch.setattr(np.linalg, "norm", counting)
    for i in (1, 2, 3):
        rows.clear()
        verify_block_smoothness(m, x, i, rng, trials=200)
        assert 1 <= sum(rows) < 0.1 * 200


def test_smoothness_memory_does_not_grow_with_trials():
    # chunked, this peaks at about 0.8 MB, the (20000,) ratios included; one
    # batch of all 20 000 trials peaks at about 62 MB
    rng = make_rng(19)
    m = random_model(3, 8, rng)
    x = rng.standard_normal(8)
    tracemalloc.start()
    try:
        verify_block_smoothness(m, x, 2, rng, trials=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_smoothness_report_consistency():
    rng = make_rng(11)
    m = random_model(3, 5, rng)
    x = rng.standard_normal(5)
    for i in (1, 2, 3):
        r = verify_block_smoothness(m, x, i, rng, trials=50)
        assert r["violated"] == (r["empirical"] > r["bound"] + r["slack"])
        assert r["margin"] == r["bound"] - r["empirical"]
        assert r["trials"] == 50
        assert r["theorem"] == "block_smoothness"
        assert r["block"] == i


def test_variance_n1_models_coincide():
    rng = make_rng(13)
    m = random_model(1, 4, rng)
    report = verify_gradient_variance(m, 1, rng.standard_normal((500, 4)))
    # n=1: bound = (sigma_1)^2 and the models are the same network
    assert report["bound"] == pytest.approx(report["sigmas_sq"][0])
    assert report["empirical"] == pytest.approx(report["sigmas_sq"][0])
    assert not report["violated"]


def test_variance_point_mass_input_is_zero():
    rng = make_rng(14)
    m = random_model(2, 3, rng)
    fixed = rng.standard_normal(3)
    report = verify_gradient_variance(m, 1, np.tile(fixed, (100, 1)))
    assert report["empirical"] == pytest.approx(0.0, abs=1e-20)
    assert not report["violated"]


def test_variance_report_consistency():
    rng = make_rng(15)
    m = random_model(3, 4, rng)
    for i in (1, 2, 3):
        r = verify_gradient_variance(m, i, rng.standard_normal((400, 4)))
        assert r["violated"] == (r["empirical"] > r["bound"] + r["slack"])
        assert r["bound"] >= 0.0
        assert r["empirical"] >= 0.0


def test_overflowing_checks_are_violations():
    # at weight scale 1e120 the chained products overflow, and at 1e154 so do
    # ||W(i)|| and the perturbation pairs; a nan or inf estimate or bound is
    # reported as a violation, never passed
    for scale in (1e120, 1e154):
        rng = make_rng(17)
        m = random_model(3, 4, rng, scale=scale)
        x = rng.standard_normal(4)
        with np.errstate(over="ignore", invalid="ignore"):
            reports = [verify_block_smoothness(m, x, i, rng, trials=5) for i in (1, 2, 3)]
            reports += [verify_gradient_variance(m, i, rng.standard_normal((10, 4)))
                        for i in (1, 2, 3)]
        assert np.isnan(reports[0]["empirical"])
        for r in reports:
            assert not np.isfinite(r["empirical"] + r["bound"]) and r["violated"]


def test_variance_uses_one_gradient_buffer():
    # one (2000, 8, 8) buffer is 1 MB; a fresh array per block (n + 1 of
    # them) peaked at about 3.1 MB; one buffer peaks at about 1.4 MB
    rng = make_rng(23)
    m = random_model(3, 8, rng)
    xs = rng.standard_normal((2000, 8))
    for i in (1, 2, 3):
        tracemalloc.start()
        try:
            verify_gradient_variance(m, i, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def test_variance_matches_fresh_gradients():
    # the buffer holds, in turn, what the public gradient functions return
    rng = make_rng(24)
    m = random_model(3, 5, rng)
    xs = rng.standard_normal((300, 5))
    widest = [_total_variance(g)[0] for g in block_grads(m, xs, widest_sources(3))]
    for i in (1, 2, 3):
        r = verify_gradient_variance(m, i, xs)
        assert (r["empirical"], r["standard_error"]) == _total_variance(
            block_grads(m, xs, chain_sources(3))[i - 1])
        assert r["sigmas_sq"] == widest


@pytest.mark.parametrize("shape", [(2, 1, 1), (7, 3, 3), (500, 8, 8)])
def test_total_variance_in_place_matches_out_of_place(shape):
    grads = make_rng(20).standard_normal(shape) * 10.0 ** make_rng(21).integers(-5, 5, shape)
    sq = np.sum((grads - grads.mean(axis=0)) ** 2, axis=(1, 2))
    expected = (float(sq.mean()), float(sq.std(ddof=1) / np.sqrt(len(sq))))
    assert _total_variance(grads.copy()) == expected


@pytest.mark.parametrize("power", [300, -300])
def test_total_variance_scales_exactly_by_powers_of_two(power):
    # squared distances near 2^600 or 2^-600 have squares past float range,
    # yet the standard error scales with them exactly
    grads = make_rng(22).standard_normal((50, 3, 3))
    mean, se = _total_variance(grads.copy())
    assert _total_variance(np.ldexp(grads, power)) == (np.ldexp(mean, 2 * power),
                                                       np.ldexp(se, 2 * power))


def test_variance_of_huge_weights_has_finite_standard_error():
    # at scale 1e20 the empirical variances are about 1e202, past their
    # bounds; an overflowing standard error would make every slack inf
    doc = theory_report(3, 8, 200, 2000, 10, 0, 1e20)
    checks = [b["variance"] for r in doc["results"] for b in r["blocks"]]
    assert len(checks) == 30
    assert all(np.isfinite(c["standard_error"]) and c["violated"] for c in checks)


def test_variance_of_tiny_weights_has_positive_standard_error():
    # at scale 1e-100 block 2's squared distances are about 1e-199, and their
    # squares would underflow to a standard error and slack of 0
    doc = theory_report(3, 8, 200, 2000, 10, 0, 1e-100)
    checks = [b["variance"] for r in doc["results"] for b in r["blocks"] if b["block"] == 2]
    assert all(c["empirical"] > 0 and c["standard_error"] > 0 for c in checks)


def test_variance_insufficient_samples():
    rng = make_rng(16)
    m = random_model(2, 3, rng)
    with pytest.raises(InsufficientSamples):
        verify_gradient_variance(m, 1, rng.standard_normal((1, 3)))
