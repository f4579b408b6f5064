import tracemalloc

import numpy as np
import pytest

from cellscape import linear_theory, rank1
from cellscape.errors import DimensionMismatch, ForwardReference, InsufficientSamples
from cellscape.genotype import OpSpec
from cellscape.linear_theory import (
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
    Value,
    backward,
    ball_perturbation,
    block_grads,
    central_difference,
    chain_gradient,
    chain_population,
    chain_sources,
    exact_block_smoothness,
    forward,
    loss,
    materialised_variance,
    one_row,
    per_trial_smoothness,
    self_scaling_gradient_variance,
    two_gradient_ratio,
    widest_sources,
    with_block,
    within,
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
    theory_report(n=3, dim=4, samples=5, instances=2, seed=0, scale=1.0)
    assert len(calls) == 3 * 2


@pytest.mark.parametrize("i", [0, -1, 4])
def test_block_outside_range_is_rejected(i):
    rng = make_rng(18)
    m = random_model(3, 4, rng)
    x, xs = rng.standard_normal(4), rng.standard_normal((5, 4))
    with pytest.raises(ValueError, match=r"block -?\d+ is outside 1\.\.3"):
        verify_block_smoothness(m, x, i)
    with pytest.raises(ValueError, match=r"block -?\d+ is outside 1\.\.3"):
        verify_gradient_variance(m, i, xs)


@pytest.mark.parametrize("shape", [(5,), (1, 4), ()])
def test_smoothness_input_of_other_shape_is_rejected(shape):
    # the chain's sweep checks the input as a one-row batch
    rng = make_rng(18)
    m = random_model(3, 4, rng)
    with pytest.raises(DimensionMismatch, match="batch shape"):
        verify_block_smoothness(m, np.ones(shape), 2)


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
    tape, one dense of zero bias per block."""
    t = LossTape()
    leaves = [Value(w) for w in m.weights]
    nodes = [Value(x.reshape(1, -1))]
    total = None
    for leaf, target, s in zip(leaves, m.targets, sources):
        nodes.append(t.dense(nodes[s], leaf, Value(np.zeros(m.dim))))
        term = t.half_sum_sq(t.sub(nodes[-1], Value(target.reshape(1, -1))))
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


def assert_exact(report, m, x, i):
    """The report's constant is the conftest oracle's within 1e-12 relative
    (and one unit where it is subnormal), or nan and a violation where the
    oracle's is not finite."""
    exact = exact_block_smoothness(m, x, i)
    if np.isfinite(exact):
        assert report["empirical"] == pytest.approx(exact, rel=1e-12, abs=5e-324)
    else:
        assert np.isnan(report["empirical"]) and report["violated"]


def test_smoothness_block1_bound_is_input_norm():
    rng = make_rng(9)
    m = random_model(3, 4, rng)
    x = rng.standard_normal(4)
    report = verify_block_smoothness(m, x, 1)
    assert report["bound"] == pytest.approx(float(x @ x))


def test_smoothness_orthogonal_weights_unit_lambdas():
    # every B_k is orthogonal, so A = (n - i + 1) I and ||u|| = ||x||
    rng = make_rng(10)
    d, n = 4, 3
    qs = [np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(n)]
    targets = [rng.standard_normal(d) for _ in range(n)]
    m = LinearCellModel(qs, targets)
    x = rng.standard_normal(d)
    for i in range(1, n + 1):
        report = verify_block_smoothness(m, x, i)
        assert report["bound"] == pytest.approx(float(x @ x), rel=1e-9)
        assert all(abs(l - 1.0) <= 1e-9 for l in report["lambdas"])
        assert report["empirical"] == pytest.approx((n - i + 1) * float(x @ x), rel=1e-12)


def test_smoothness_last_block_exact_constant():
    # for i = n the gradient is (W p - t) p^T with p the prefix product of x,
    # so the block constant is exactly ||p||^2 (the stated bound uses ||x||^2
    # and spectral norms, which the prefix vector can legitimately exceed;
    # that case is reported)
    for seed in range(10):
        rng = make_rng(300 + seed)
        n = int(rng.integers(1, 5))
        d = int(rng.integers(2, 9))
        m = random_model(n, d, rng)
        x = rng.standard_normal(d)
        report = verify_block_smoothness(m, x, n)
        p = x
        for w in m.weights[: n - 1]:
            p = w @ p
        assert report["empirical"] == pytest.approx(float(p @ p), rel=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_smoothness_ratio_matches_two_gradients(seed):
    # the exact constant is the two-gradient ratio of the pair W(i) and
    # W(i) + v u^T / ||u||, v the top eigenvector of A; random pairs from the
    # ball around W(i) stay at or below it
    rng = make_rng(400 + seed)
    n = int(rng.integers(1, 5))
    d = int(rng.integers(2, 9))
    i = int(rng.integers(1, n + 1))
    m = random_model(n, d, rng)
    x = rng.standard_normal(d)
    exact = verify_block_smoothness(m, x, i)["empirical"]
    *_, (u,), a = next(f for f in grad_factors(m, linear_cell(chain_sources(n)), x[None])
                       if f[0] == i)
    top = np.linalg.eigh(a)[1][:, -1]
    w = m.weights[i - 1]
    assert two_gradient_ratio(m, x, i, w, w + np.outer(top, u) / np.linalg.norm(u)) == \
        pytest.approx(exact, rel=1e-9)
    for _ in range(5):
        w1 = w + ball_perturbation(rng, (d, d), 0.1)
        w2 = w + ball_perturbation(rng, (d, d), 0.1)
        assert within(two_gradient_ratio(m, x, i, w1, w2), exact)


def same_report(report, expected):
    """Every field equal, a nan to a nan."""
    assert report.keys() == expected.keys()
    for key, want in expected.items():
        got = report[key]
        assert type(got) is type(want), key
        assert got == want or np.isnan(got) and np.isnan(want), key


# the fields a smoothness report shares with the Monte-Carlo oracle's
SHARED_FIELDS = ("theorem", "block", "lambdas", "bound", "slack", "input_norm_sq")


@pytest.mark.parametrize("scale", [0.0, 1.0, 1e154, 1e-160, 1e-300])
@pytest.mark.parametrize("trials", [1, 127, 128, 129, 259, 600])
@pytest.mark.parametrize("d", [1, 2, 8, 17])
def test_smoothness_matches_per_trial_oracle(d, trials, scale):
    # the exact report has the Monte-Carlo oracle's bound and inputs, its
    # constant is the conftest oracle's, and the estimate never exceeds it.
    # At scale 1e154 every block's constant overflows, so it is nan, and so
    # is each estimate.  At 1e-160 block 2's constant is subnormal, and at
    # 1e-300 blocks 2 and 3 read 0.0 (about 1e-600); at d = 1 every trial's
    # ratio is the constant itself, up to rounding
    rng = make_rng(600 + d)
    m = random_model(3, d, rng, scale=scale)
    x = rng.standard_normal(d)
    oracle_rng = make_rng(700 + trials)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in (1, 2, 3):
            report = verify_block_smoothness(m, x, i)
            estimate = per_trial_smoothness(m, x, i, oracle_rng, trials)
            same_report({k: report[k] for k in SHARED_FIELDS},
                        {k: estimate[k] for k in SHARED_FIELDS})
            assert_exact(report, m, x, i)
            assert within(estimate["empirical"], report["empirical"])


def test_smoothness_of_tiny_weights_is_measured():
    # at scale 0 and 1e-300 every product W(k)^T W(k) in A is 0, so block 1
    # reads exactly ||x||^2, not a violation; at 1e-300 ||u||^2 of blocks 2
    # and 3 is below the smallest float, so they read 0.0
    for scale in (0.0, 1e-300):
        rng = make_rng(0)
        m = random_model(3, 8, rng, scale=scale)
        x = rng.standard_normal(8)
        reports = [verify_block_smoothness(m, x, i) for i in (1, 2, 3)]
        assert reports[0]["empirical"] == float(x @ x) and not reports[0]["violated"]
        assert [r["empirical"] for r in reports[1:]] == [0.0, 0.0]


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

    def uniform(self):
        return self.rng.uniform()


class RepeatedDraws:
    """A generator whose trial t draws exactly what trial t mod ``period``
    drew, so every ratio, the largest too, ties with several others."""

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

    def uniform(self):
        u = self._replay("uniform", self.uniforms, self.rng.uniform())
        self.uniforms += 1
        return float(u)


DEGENERATE_DRAWS = {  # (weight scale, generator)
    "zero": (1e150, lambda seed: ScaledDraws(seed, 7, 0.0)),
    "tiny": (1e150, lambda seed: ScaledDraws(seed, 7, 1e-161)),
    "repeated": (1.0, lambda seed: RepeatedDraws(seed, 50)),
}


@pytest.mark.parametrize("draws", DEGENERATE_DRAWS)
@pytest.mark.parametrize("d", [1, 8])
def test_smoothness_oracle_with_degenerate_draws(d, draws):
    # at scale 1e150 the constants are near 1e300, still finite or just past
    # float range; a direction of norm 1e-161 overflows its pair, so the
    # estimate is nan, no claim; at scale 1 repeated draws make the largest
    # ratio a tie.  The exact constant is the conftest oracle's either way
    scale, draw = DEGENERATE_DRAWS[draws]
    m = random_model(2, d, make_rng(800 + d), scale=scale)
    x = make_rng(900).standard_normal(d)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in (1, 2):
            report = verify_block_smoothness(m, x, i)
            assert_exact(report, m, x, i)
            estimate = per_trial_smoothness(m, x, i, draw(d), 259)
            assert within(estimate["empirical"], report["empirical"])


def test_smoothness_runs_few_svds(monkeypatch):
    # the exact constant takes one eigvalsh of A per block and no SVD
    svds, eigs = [], []
    norm, eigvalsh = np.linalg.norm, np.linalg.eigvalsh

    def counting_norm(a, ord=None, axis=None, **kwargs):
        if ord == 2:
            svds.append(a)
        return norm(a, ord, axis, **kwargs)

    def counting_eigvalsh(a, *args, **kwargs):
        eigs.append(a)
        return eigvalsh(a, *args, **kwargs)

    rng = make_rng(22)
    m = random_model(3, 8, rng)
    x = rng.standard_normal(8)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    for i in (1, 2, 3):
        svds.clear()
        eigs.clear()
        verify_block_smoothness(m, x, i)
        assert (len(svds), len(eigs)) == (0, 1)


def test_smoothness_report_consistency():
    rng = make_rng(11)
    m = random_model(3, 5, rng)
    x = rng.standard_normal(5)
    for i in (1, 2, 3):
        r = verify_block_smoothness(m, x, i)
        assert r["violated"] == (r["empirical"] > r["bound"] + r["slack"])
        assert r["margin"] == r["bound"] - r["empirical"]
        assert r["theorem"] == "block_smoothness"
        assert r["block"] == i


def test_smoothness_is_exact_on_the_population():
    # criterion 4's 100 random chains: each block's constant is the conftest
    # oracle's, and at most the provable bound
    # (prod_{j<i} lambda_j^2) * ||x||^2 * sum_{k>=i} prod_{i<j<=k} lambda_j^2
    blocks = 0
    for m, x in chain_population(0):
        for i in range(1, m.n + 1):
            r = verify_block_smoothness(m, x, i)
            assert_exact(r, m, x, i)
            assert r["empirical"] <= r["provable_bound"] * (1 + 1e-12)
            blocks += 1
    assert blocks > 200


def test_provable_bound_is_tight_for_one_block():
    # n = 1: A = I, so the constant, the stated and the provable bound are all ||x||^2
    rng = make_rng(27)
    m = random_model(1, 5, rng)
    x = rng.standard_normal(5)
    r = verify_block_smoothness(m, x, 1)
    assert r["empirical"] == r["bound"] == r["provable_bound"] == float(x @ x)


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
    # from weight scale 1e120 the chained products overflow, so every block's
    # smoothness constant is nan, where an inf constant under an inf bound
    # (block 3 at 1e154) would pass; a nan or inf value or bound is reported
    # as a violation, never passed
    for scale in (1e120, 1e154, 1e200):
        rng = make_rng(17)
        m = random_model(3, 4, rng, scale=scale)
        x = rng.standard_normal(4)
        with np.errstate(over="ignore", invalid="ignore"):
            reports = [verify_block_smoothness(m, x, i) for i in (1, 2, 3)]
            reports += [verify_gradient_variance(m, i, rng.standard_normal((10, 4)))
                        for i in (1, 2, 3)]
        assert np.isnan(reports[0]["empirical"])
        assert all(np.isnan(r["empirical"]) for r in reports[:3])
        for r in reports:
            assert not np.isfinite(r["empirical"] + r["bound"]) and r["violated"]


def test_variance_uses_one_gradient_buffer():
    # each block is reduced from its (2000, 8) factors, 125 KB each, and no
    # (2000, 8, 8) array of 1 MB is built: the peak is about 0.9 MB, where
    # one such buffer per check peaked at about 1.5 MB
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
        assert peak < 1.25 * 2**20


def assert_matches_oracle(got, want):
    # the factor form's mean within 1e-13 relative, its standard error
    # within 1e-13 of the mean
    (mean, se), (want_mean, want_se) = got, want
    assert mean == pytest.approx(want_mean, rel=1e-13, abs=0)
    assert abs(se - want_se) <= 1e-13 * want_mean


def test_variance_matches_fresh_gradients():
    # each check reduces the factors of what the public gradient function
    # returns, as the oracle reduces their outer products
    rng = make_rng(24)
    m = random_model(3, 5, rng)
    xs = rng.standard_normal((300, 5))
    widest = [materialised_variance(g)[0] for g in block_grads(m, xs, widest_sources(3))]
    for i in (1, 2, 3):
        r = verify_gradient_variance(m, i, xs)
        assert_matches_oracle((r["empirical"], r["standard_error"]),
                              materialised_variance(block_grads(m, xs, chain_sources(3))[i - 1]))
        assert r["sigmas_sq"] == pytest.approx(widest, rel=1e-13, abs=0)


def mixed_factors(rows, seed, dim=4):
    """(rows, dim) normal entries, each times 10^k for k drawn from -5..4."""
    rng = make_rng(seed)
    return rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-5, 5, (rows, dim))


@pytest.mark.parametrize("rows", [2, 7, 500])
def test_total_variance_matches_the_oracle(rows):
    v, u = mixed_factors(rows, 20), mixed_factors(rows, 21)
    assert_matches_oracle(_total_variance(v, u),
                          materialised_variance(np.einsum("si,sj->sij", v, u)))


@pytest.mark.parametrize("power", [300, -300])
def test_total_variance_scales_exactly_by_powers_of_two(power):
    # factors near 2^300 or 2^-300 have squares near 2^600 or 2^-600, whose
    # squares are past float range, yet the mean and the standard error scale
    # by exactly 2^(2(p + q)) when the factors scale by 2^p and 2^q; at
    # p = q = 300 they would scale past float range themselves
    rng = make_rng(22)
    v, u = rng.standard_normal((50, 3)), rng.standard_normal((50, 4))
    mean, se = _total_variance(v, u)
    for p, q in ((power, 0), (0, power), (power, -power)):
        assert _total_variance(np.ldexp(v, p), np.ldexp(u, q)) == (
            np.ldexp(mean, 2 * (p + q)), np.ldexp(se, 2 * (p + q)))


@pytest.mark.parametrize("power", [0, 300, -300])
def test_scaled_is_exact_and_reduces_each_row(power):
    # a factor comes back bit for bit from its scaled array and power of two,
    # its largest magnitude scaled into [0.5, 1), and the row sums are those
    # of the scaled array
    a = np.ldexp(mixed_factors(50, 25, dim=6), power)
    s, e, rows = rank1.scaled(a)
    assert np.array_equal(np.ldexp(s, e).view(np.int64), a.view(np.int64))
    assert 0.5 <= np.abs(s).max() < 1
    assert np.array_equal(rows.view(np.int64), np.square(s).sum(axis=1).view(np.int64))


def test_scaled_zero_factor_has_power_zero():
    s, e, rows = rank1.scaled(np.zeros((4, 3)))
    assert e == 0 and not s.any() and not rows.any()


def as_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@pytest.mark.parametrize("scale", [1e-160, 1.0, 1e200])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_variance_keeps_the_self_scaling_bits(seed, scale):
    # each factor scaled and its rows reduced once gives every bit of the
    # reduction that scales a factor wherever it reads it, overflowing or
    # underflowing checks included
    rng = make_rng(seed)
    m = random_model(3, 8, rng, scale=scale)
    xs = rng.standard_normal((300, 8))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in (1, 2, 3):
            r = verify_gradient_variance(m, i, xs)
            empirical, se, sigmas_sq = self_scaling_gradient_variance(m, i, xs)
            assert as_bits([r["empirical"], r["standard_error"]]) == as_bits([empirical, se])
            assert as_bits(r["sigmas_sq"]) == as_bits(sigmas_sq)


def test_variance_scales_each_factor_once(monkeypatch):
    # the chain block's v and u, each widest block's v, and the input rows
    # that are every widest block's u, once for all n: n + 3 factors
    calls = []

    def counting(a):
        calls.append(a)
        return rank1.scaled(a)

    monkeypatch.setattr(linear_theory, "scaled", counting)
    rng = make_rng(26)
    m = random_model(3, 4, rng)
    xs = rng.standard_normal((20, 4))
    for i in (1, 2, 3):
        calls.clear()
        verify_gradient_variance(m, i, xs)
        assert len(calls) == m.n + 3


def test_variance_of_huge_weights_has_finite_standard_error():
    # at scale 1e20 the empirical variances are about 1e202, past their
    # bounds; an overflowing standard error would make every slack inf
    doc = theory_report(3, 8, 2000, 10, 0, 1e20)
    checks = [b["variance"] for r in doc["results"] for b in r["blocks"]]
    assert len(checks) == 30
    assert all(np.isfinite(c["standard_error"]) and c["violated"] for c in checks)


def test_variance_of_tiny_weights_has_positive_standard_error():
    # at scale 1e-100 block 2's squared distances are about 1e-199, and their
    # squares would underflow to a standard error and slack of 0
    doc = theory_report(3, 8, 2000, 10, 0, 1e-100)
    checks = [b["variance"] for r in doc["results"] for b in r["blocks"] if b["block"] == 2]
    assert all(c["empirical"] > 0 and c["standard_error"] > 0 for c in checks)


def test_variance_insufficient_samples():
    rng = make_rng(16)
    m = random_model(2, 3, rng)
    with pytest.raises(InsufficientSamples):
        verify_gradient_variance(m, 1, rng.standard_normal((1, 3)))
