"""Linear widest/narrowest cell models and numerical checks of their
block-wise smoothness and gradient-variance bounds.

A model is n weight matrices W(1..n) of size d x d, read under a wiring: an
M = 1 genotype (``linear_cell``) whose node i is W(i) applied to one earlier
node, 0 being the input x.  The widest cell computes node i as W(i) x; the
narrowest chains them, node i = W(i)...W(1) x.  ``grad_factors`` gives the
gradients and their slopes under any wiring.  The objective is the block
quadratic 0.5 * sum_i ||node_i - t_i||^2, which makes the widest cell's
block smoothness constant exactly ||x||^2 and gives the bounds a computable
reference.  The smoothness check computes the chain's block constants
exactly, from the same sweep; the variance check estimates the block
variances from sampled inputs.  Both report whether they stay under the
scaled widest-cell bounds; violations are surfaced, never suppressed.
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


def _bound_check(theorem, block, lambdas, empirical, bound, slack, **details):
    """One bound check as it goes into the report.  It passes only when the
    value is at most its bound plus slack, so a nan anywhere is a violation."""
    return {"theorem": theorem, "block": block, "lambdas": lambdas, "empirical": empirical,
            "bound": bound, "margin": bound - empirical, "slack": slack,
            "violated": not empirical <= bound + slack, **details}


def verify_block_smoothness(m: LinearCellModel, x, i):
    """Exact block-i smoothness constant L_i of the chained model at the input
    x vs the bound (prod_{j<i} lambda_j) * ||x||^2 inherited from the widest
    quadratic, with the provable bound
    (prod_{j<i} lambda_j^2) * ||x||^2 * sum_{k>=i} prod_{i<j<=k} lambda_j^2.

    Block i's objective is quadratic in W(i): its gradient moves by A D u u^T
    when W(i) moves by D, with u = W(i-1)...W(1) x and
    A = sum_{k>=i} B_k^T B_k, B_k = W(k)...W(i+1), the u and a of the chain's
    ``grad_factors`` at x.  So L_i = ||u||^2 * lambda_max(A), reached by
    D = v u^T with v A's top eigenvector.  u is scaled by the power of two
    that brings max|u| into [0.5, 1) before it is squared, and the product
    scaled back, both exactly, so ||u||^2 is rounded once, not lost where its
    squares underflow.  A constant that is not finite is nan, a violation.
    """
    _check_block(m, i)
    x = np.asarray(x, dtype=np.float64)  # grad_factors' batch check rejects a bad shape
    *_, (u,), a = next(f for f in grad_factors(m, linear_cell(range(m.n)), x[None]) if f[0] == i)
    e = np.frexp(np.abs(u).max())[1]
    u = np.ldexp(u, -e)
    # eigvalsh may raise, not converging, on an A that overflowed
    top = np.linalg.eigvalsh(a)[-1] if np.isfinite(a).all() else np.nan
    exact = float(np.ldexp(float(u @ u) * top, 2 * e))
    if not math.isfinite(exact):
        exact = math.nan
    l_widest = float(x @ x)
    bound = float(np.prod(m.lambdas[: i - 1])) * l_widest
    squares = [lam * lam for lam in m.lambdas]
    provable = math.prod(squares[: i - 1]) * l_widest * sum(
        math.prod(squares[i:k]) for k in range(i, m.n + 1))
    return _bound_check("block_smoothness", i, list(m.lambdas), exact, bound,
                        SMOOTHNESS_SLACK, input_norm_sq=l_widest, provable_bound=provable)


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
                        SE_FACTOR * emp_se, trials=len(xs), standard_error=emp_se,
                        sigmas_sq=sigmas_sq)


def theory_report(n, dim, samples, instances, seed, scale):
    """The ``theory`` report: ``instances`` random chained models, each block
    checked for smoothness and then for variance.  One ``stream(seed,
    "theory")`` draws each instance's model, then its input, then each
    block's variance rows in turn.  A model with a violated block is recorded
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
                smooth = verify_block_smoothness(model, x, i)
                var = verify_gradient_variance(model, i, rng.standard_normal((samples, dim)))
                blocks.append({"block": i, "lambda": model.lambdas[i - 1],
                               "smoothness": smooth, "variance": var})
                if smooth["violated"] or var["violated"]:
                    violations.append({"instance": inst, "block": i,
                                       "weights": [w.tolist() for w in model.weights],
                                       "targets": [t.tolist() for t in model.targets],
                                       "input": x.tolist()})
            results.append({"instance": inst, "blocks": blocks})
    return {"n": n, "dim": dim, "samples": samples, "instances": instances,
            "seed": seed, "scale": scale, "results": results,
            "violation_count": len(violations), "violations": violations}
