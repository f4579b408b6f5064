"""Linear widest/narrowest cell models and numerical checks of their
block-wise smoothness and gradient-variance bounds.

A model is n weight matrices W(1..n) of size d x d, read under a wiring: an
M = 1 genotype (``linear_cell``) whose node i is W(i) applied to one earlier
node, 0 being the input x.  The widest cell computes node i as W(i) x; the
narrowest chains them, node i = W(i)...W(1) x.  ``grad_factors`` gives the
gradients and their slopes under any wiring.  The objective is the block
quadratic 0.5 * sum_i ||node_i - t_i||^2, which makes the widest cell's
block smoothness constant exactly ||x||^2 and gives the bounds a computable
reference.  The verifiers estimate the chain's block constants empirically
and report whether they stay under the scaled widest-cell bounds;
violations are surfaced, never suppressed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InsufficientSamples, check_float64s
from .genotype import CellGenotype, NodeSpec, OpSpec
from .rng import stream

SMOOTHNESS_SLACK = 1e-9  # float round-off allowed over the smoothness bound
SE_FACTOR = 3.0  # standard errors of the variance estimate allowed over its bound
SMOOTHNESS_CHUNK = 128  # smoothness trials computed per batched call
# relative slack on the bounds of ||D||_2, per unit of d^2: their rounding
# error, and that of the SVD they stand in for, grows like d^2 * eps
NORM_BOUND_MARGIN = 1e-9
_SQRT_TINY = np.sqrt(np.finfo(np.float64).tiny)  # below it a sum of squares is subnormal


@dataclass
class LinearCellModel:
    """n stacked d x d weight matrices plus per-node quadratic targets, and
    n, d and each weight's spectral norm, computed once."""

    weights: list  # of (d, d) arrays
    targets: list  # of (d,) arrays
    n: int = field(init=False)
    dim: int = field(init=False)
    lambdas: tuple = field(init=False)  # spectral_norm of each weight

    def __post_init__(self):
        if not self.weights:
            raise DimensionMismatch("need at least one weight matrix")
        d = self.weights[0].shape[0]
        for w in self.weights:
            if w.shape != (d, d):
                raise DimensionMismatch(f"weight shape {w.shape}, expected ({d}, {d})")
        for t in self.targets:
            if t.shape != (d,):
                raise DimensionMismatch(f"target shape {t.shape}, expected ({d},)")
        if len(self.targets) != len(self.weights):
            raise DimensionMismatch("need one target per weight matrix")
        self.n, self.dim = len(self.weights), d
        self.lambdas = tuple(spectral_norm(w) for w in self.weights)


def random_model(n, dim, rng, scale=1.0):
    check_float64s(dim * dim, "a weight matrix")
    weights = [scale * rng.standard_normal((dim, dim)) / np.sqrt(dim) for _ in range(n)]
    targets = [rng.standard_normal(dim) for _ in range(n)]
    return LinearCellModel(weights, targets)


@functools.cache  # a genotype is frozen and valid, so one per wiring is shared
def linear_cell(sources):
    """The M = 1 cell whose node i is one linear slot reading node sources[i-1],
    node 0 being the input x: range(n) is the chain, (0,) * n the widest cell."""
    return CellGenotype("linear", 1, tuple(NodeSpec((OpSpec("linear", s),)) for s in sources))


def _check_batch(m, xs):
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != m.dim:
        raise DimensionMismatch(f"batch shape {xs.shape}, expected (S, {m.dim})")
    return xs


def _check_block(m, i):
    if not 1 <= i <= m.n:
        raise ValueError(f"block {i} is outside 1..{m.n}")


def _outer(v, y, out=None):
    """Row-wise outer products v_s y_s^T of two (S, d) factors, as (S, d, d)."""
    return np.einsum("si,sj->sij", v, y, out=out)


def grad_factors(m: LinearCellModel, cell, xs):
    """Yield (i, v, u, a) for blocks i = n..1 of the model wired by ``cell``:
    at row s of the inputs xs (S, d), d(loss)/dW(i) = v[s] u[s]^T.  u is node
    source(i), v = (node_i - t_i) + sum_k W(k)^T v_k over the nodes k reading
    node i: in the chain Horner's rule, in the widest cell W(i) x - t_i.  The
    (d, d) a = I + sum_k W(k)^T a_k W(k) over the same k is the slope of v in
    node i, so changing W(i) by D changes each row's gradient by a D u u^T:
    in the widest cell a = I."""
    xs = _check_batch(m, xs)
    eye = np.eye(m.dim)
    maps = [eye]  # the map from x to each node: I, then W(i) maps[source(i)]
    for w, node in zip(m.weights, cell.nodes, strict=True):
        maps.append(w @ maps[node.ops[0].source])
    nodes = [xs] + [xs @ p.T for p in maps[1:]]  # node 0 is the input
    # per node j, W(k)^T v_k and W(k)^T a_k W(k) for each node k that reads it
    readers, slopes = [[] for _ in nodes], [[] for _ in nodes]
    for i in range(m.n, 0, -1):
        v = sum(readers[i], nodes[i] - m.targets[i - 1])
        a = sum(slopes[i], eye)
        readers[i] = slopes[i] = nodes[i] = None  # no later step reads them: free them now
        source = cell.nodes[i - 1].ops[0].source
        yield i, v, nodes[source], a
        if source:
            w = m.weights[i - 1]
            readers[source].append(v @ w)
            slopes[source].append(w.T @ a @ w)


def spectral_norm(w):
    """Largest singular value of a matrix: numpy's exact 2-norm, or nan for a
    matrix with a nan entry and inf for one with an infinite entry."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {w.shape}")
    if not np.isfinite(w).all():
        return float(np.abs(w).max())  # max keeps a nan, else it is the inf
    return float(np.linalg.norm(w, 2))


def _bound_check(theorem, block, lambdas, empirical, bound, slack, trials, **details):
    """One bound check as it goes into the report.  It passes only when the
    estimate is at most its bound plus slack, so a nan anywhere is a violation."""
    return {"theorem": theorem, "block": block, "lambdas": lambdas, "empirical": empirical,
            "bound": bound, "margin": bound - empirical, "slack": slack, "trials": trials,
            "violated": not empirical <= bound + slack, **details}


def _row_norms(v):
    """Row 2-norms of a (..., k, 1) stack, one BLAS dot each as np.linalg.norm."""
    return np.sqrt(np.swapaxes(v, -1, -2) @ v)[..., 0, 0]


def _norm2_bounds(delta):
    """Lower and upper bounds on ||D||_2 for each matrix of a (k, d, d) stack,
    each widened by NORM_BOUND_MARGIN * d^2, from batched products alone.

    With N = D / ||D||_F and M = N^T N, four power steps from the all-ones
    vector give a unit v with sqrt(||M v||) <= ||N||_2, and
    ||N||_2^8 = lambda_max(M^4) <= ||M^4||_F.  Each D comes with max|D| in
    [0.5, 1), so ||D||_F lies in [0.5, d); a row whose power iterate is not a
    normal float gets nan bounds: only an SVD bounds it."""
    k, d = delta.shape[:2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        frob = _row_norms(delta.reshape(k, d * d, 1))
        unit = delta / frob[:, None, None]
        gram = np.swapaxes(unit, 1, 2) @ unit
        gram4 = gram @ gram
        gram4 = gram4 @ gram4
        v = gram4 @ np.ones((d, 1))
        v_norm = _row_norms(v)
        lo = np.sqrt(_row_norms(gram @ (v / v_norm[:, None, None])))
        hi = _row_norms(gram4.reshape(k, d * d, 1)) ** 0.125
    certain = v_norm >= _SQRT_TINY
    margin = NORM_BOUND_MARGIN * d * d
    return (np.where(certain, frob * lo * (1.0 - margin), np.nan),
            np.where(certain, frob * hi * (1.0 + margin), np.nan))


def verify_block_smoothness(m: LinearCellModel, x, i, rng, trials=200):
    """Empirical block-i Lipschitz constant of the chained model vs the bound
    (prod_{j<i} lambda_j) * ||x||^2 inherited from the widest quadratic.
    Each trial draws two points in the Frobenius ball of radius 0.1 * ||W(i)||
    (0.1 when W(i) = 0) around W(i); a trial whose pair is not finite gives
    a nan ratio, so the block is reported as violated.

    The block-i gradient is affine in W(i): g(W1) - g(W2) = A D u u^T with
    D = W1 - W2, and u = W(i-1)...W(1) x and A = sum_{k>=i} B_k^T B_k,
    B_k = W(k)...W(i+1), from the chain's ``grad_factors`` at x.  So each
    trial's ||g(W1) - g(W2)||_2 is the rank-1 norm ||A D u|| * ||u||.  The
    ratio does not depend on D's scale, so each finite D is first scaled by a
    power of two, exactly, to max|D| in [0.5, 1): no square in its numerator
    or bounds underflows.

    The draws are made one trial at a time, in stream order.  The ratios are
    computed SMOOTHNESS_CHUNK trials at a time, so memory does not grow with
    ``trials``.  Only the largest ratio is reported, so ||D||_2 comes from an
    SVD only for a trial whose ratio can reach it: one whose bounds from
    _norm2_bounds do not put its ratio below a ratio already certain.  The
    numerators, and each SVD, run the BLAS or LAPACK routine a lone trial
    uses on each matrix, so the largest ratio is bit for bit that of one
    trial at a time.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_float64s(trials, "the smoothness ratios")
    _check_block(m, i)
    x = np.asarray(x, dtype=np.float64)  # grad_factors' batch check rejects a bad shape
    *_, (u,), a = next(f for f in grad_factors(m, linear_cell(range(m.n)), x[None]) if f[0] == i)
    w_i = m.weights[i - 1]
    norm = np.linalg.norm(w_i)
    if norm < _SQRT_TINY and w_i.any():  # its sum of squares underflowed
        s = np.abs(w_i).max()
        norm = s * np.linalg.norm(w_i / s)
    radius = 0.1 * norm or 0.1
    l_widest = float(x @ x)
    bound = float(np.prod(m.lambdas[: i - 1])) * l_widest
    u_norm = np.linalg.norm(u)
    # its max keeps a nan, which Python's max drops; a trial that skips the
    # SVD holds a lower bound of its ratio, below the largest ratio
    ratios = np.full(trials, np.nan)
    best = -np.inf  # a ratio already certain: a lower bound or an SVD's ratio
    # each trial's two standard-normal directions, and their radii in the ball
    g = np.empty((min(trials, SMOOTHNESS_CHUNK), 2, m.dim * m.dim))
    r = np.empty(g.shape[:2])
    power = 1.0 / g.shape[2]
    for start in range(0, trials, len(g)):
        count = min(len(g), trials - start)
        for t in range(count):
            for k in (0, 1):
                rng.standard_normal(out=g[t, k])
                # the draw and value of uniform(), without its range checks
                r[t, k] = rng.random() ** power
        norms = _row_norms(g[:count, ..., None])
        g[:count, :, 0][norms == 0.0] = 1.0  # an all-zero direction becomes e1
        norms[norms == 0.0] = 1.0
        pairs = w_i.ravel() + g[:count] * (radius * r[:count] / norms)[..., None]
        delta = (pairs[:, 0] - pairs[:, 1]).reshape(count, m.dim, m.dim)
        # once ||W(i)|| overflows the radius is inf and the pair is not
        # finite: its ratio stays nan, a violation, where the SVD would raise
        finite = np.isfinite(delta).all(axis=(1, 2))
        rows = start + np.flatnonzero(finite)
        delta = delta[finite]
        delta = np.ldexp(delta, -np.frexp(np.abs(delta).max(axis=(1, 2)))[1][:, None, None])
        top = _row_norms(a @ (delta @ u)[..., None]) * u_norm
        lo, hi = _norm2_bounds(delta)
        ratios[rows] = top / hi
        best = np.fmax.reduce(ratios[rows], initial=best)
        svd = ~(top / lo < best)  # a nan bound cannot rule a trial out
        ratios[rows[svd]] = top[svd] / np.linalg.norm(delta[svd], 2, axis=(1, 2))
        best = np.fmax.reduce(ratios[rows[svd]], initial=best)
    return _bound_check("block_smoothness", i, list(m.lambdas), float(ratios.max()), bound,
                        SMOOTHNESS_SLACK, trials, radius=float(radius), input_norm_sq=l_widest)


def _total_variance(grads_sdd):
    """Mean and standard error over S of each (d, d) gradient's squared
    distance from their mean; centres and squares grads_sdd in place.  The
    std is taken of the distances times the 2^-e that brings their largest
    into [0.5, 1), so its squares stay in range, then times 2^e; both exact."""
    grads_sdd -= grads_sdd.mean(axis=0)
    sq = np.sum(np.square(grads_sdd, out=grads_sdd), axis=(1, 2))
    e = np.frexp(sq.max())[1]
    return float(sq.mean()), float(np.ldexp(np.ldexp(sq, -e).std(ddof=1), e) / np.sqrt(len(sq)))


def verify_gradient_variance(m: LinearCellModel, i, xs):
    """Empirical block-i gradient variance of the chained model over the
    input rows xs (S, d) vs the bound
    n * sum_{k>=i} (sigma_k * prod_{j<=k, j!=i} lambda_j)^2, with sigma_k
    estimated on the widest model from the same inputs.  Both wirings'
    gradients come from ``grad_factors``; each block's per-row gradients are
    built into, and reduced in, one (S, d, d) buffer."""
    xs = _check_batch(m, xs)
    if len(xs) < 2:
        raise InsufficientSamples(f"need >= 2 samples, got {len(xs)}")
    _check_block(m, i)

    buf = _outer(*next((v, u) for k, v, u, _ in grad_factors(m, linear_cell(range(m.n)), xs)
                       if k == i))
    empirical, emp_se = _total_variance(buf)
    # the widest cell with the same weights and targets, its blocks from n down
    sigmas_sq = [_total_variance(_outer(v, u, out=buf))[0]
                 for _, v, u, _ in grad_factors(m, linear_cell((0,) * m.n), xs)][::-1]

    prods = [math.prod(lam for j, lam in enumerate(m.lambdas[:k], 1) if j != i)
             for k in range(i, m.n + 1)]
    bound = m.n * sum(s * p * p for s, p in zip(sigmas_sq[i - 1:], prods))

    return _bound_check("gradient_variance", i, list(m.lambdas), empirical, bound,
                        SE_FACTOR * emp_se, len(xs), standard_error=emp_se, sigmas_sq=sigmas_sq)


def theory_report(n, dim, trials, samples, instances, seed, scale):
    """The ``theory`` report: ``instances`` random chained models, each block
    checked for smoothness and then for variance, all drawn in that order from
    one ``stream(seed, "theory")``.  A model with a violated block is recorded
    whole, with its weights, targets and input, once per such block."""
    check_float64s(samples * dim, "a variance check's inputs")
    rng = stream(seed, "theory")
    results, violations = [], []
    # an overflowing instance is a result, a non-finite check a violation
    with np.errstate(over="ignore", invalid="ignore"):
        for inst in range(instances):
            model = random_model(n, dim, rng, scale=scale)
            x = rng.standard_normal(dim)
            blocks = []
            for i in range(1, n + 1):
                smooth = verify_block_smoothness(model, x, i, rng, trials=trials)
                var = verify_gradient_variance(model, i, rng.standard_normal((samples, dim)))
                blocks.append({"block": i, "lambda": model.lambdas[i - 1],
                               "smoothness": smooth, "variance": var})
                if smooth["violated"] or var["violated"]:
                    violations.append({"instance": inst, "block": i,
                                       "weights": [w.tolist() for w in model.weights],
                                       "targets": [t.tolist() for t in model.targets],
                                       "input": x.tolist()})
            results.append({"instance": inst, "blocks": blocks})
    return {"n": n, "dim": dim, "trials": trials, "samples": samples, "instances": instances,
            "seed": seed, "scale": scale, "results": results,
            "violation_count": len(violations), "violations": violations}
