"""Reference computations the benchmark checks the program against.

Everything here is written from the documented formats and formulas, with
plain numpy, and imports nothing from ``cellscape``:

- the random-stream derivation (PCG64 keyed by ``(seed, stream id)``), the
  default gaussian-mixture dataset and the landscape directions;
- the checkpoint container (4-byte header length, JSON header, float64 data);
- a forward pass of the stem / stacked cells / head network, and a
  vectorised per-example backward pass giving the total variance of
  per-example gradients;
- spectral norms by SVD and the exact block-smoothness constant of the
  chained linear cell;
- the raw, deduplicated and closed-form sizes of a cell's connection space.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter

import numpy as np

STREAM_IDS = {"data": 3, "directions": 4}


def stream(seed, name):
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([int(seed), STREAM_IDS[name]]))
    )


# --- inputs ------------------------------------------------------------------


def gaussian_mixture(dim=16, classes=4, train=2000, test=500, noise=3.0,
                     radius=24.0, seed=0):
    """(train_x, train_y, test_x, test_y) of the default dataset spec."""
    rng = stream(seed, "data")
    means = rng.standard_normal((classes, dim))
    means *= radius / np.linalg.norm(means, axis=1, keepdims=True)

    def draw(size):
        y = np.arange(size) % classes
        return means[y] + noise * rng.standard_normal((size, dim)), y

    train_x, train_y = draw(train)
    test_x, test_y = draw(test)
    return train_x, train_y, test_x, test_y


def held_out_subset(seed, test_size, subset):
    """Sorted indices of the held-out rows a landscape run evaluates on."""
    pick = stream(seed, "data").choice(test_size, size=min(subset, test_size),
                                       replace=False)
    return np.sort(pick)


def directions(checkpoint, seed):
    """Two blockwise-normalised gaussian directions, drawn block by block in
    sorted name order, first direction then second."""
    rng = stream(seed, "directions")
    out = []
    for _ in range(2):
        d = {}
        for name in sorted(checkpoint):
            ref = checkpoint[name]
            block = rng.standard_normal(ref.shape)
            norm = np.linalg.norm(ref)
            if norm != 0.0:
                block *= norm / np.linalg.norm(block)
            d[name] = block
        out.append(d)
    return out


def read_checkpoint(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    (header_len,) = struct.unpack_from("<I", raw, 0)
    header = json.loads(raw[4:4 + header_len])
    data = np.frombuffer(raw, dtype="<f8", offset=4 + header_len)
    params = {}
    for block in header:
        size = math.prod(block["shape"])
        params[block["name"]] = (
            data[block["offset"]:block["offset"] + size].astype(np.float64)
            .reshape(block["shape"])
        )
    return params


# --- the network -------------------------------------------------------------


def _cell_spec(genotype_doc):
    nodes = [[(op["kind"], op["source"]) for op in node["ops"]]
             for node in genotype_doc["nodes"]]
    m = genotype_doc["num_inputs"]
    concat = genotype_doc.get("concat") or list(range(m, m + len(nodes)))
    return nodes, concat


def forward(genotype_doc, params, x, layers=6):
    """Logits of the network, plus the activations the backward pass needs."""
    nodes, concat = _cell_spec(genotype_doc)
    stem = x @ params["stem.w"].T + params["stem.b"]
    prev2 = prev1 = stem
    cells = []
    for layer in range(layers):
        vals = [prev2, prev1]
        for i, node in enumerate(nodes):
            acc = 0.0
            for slot, (kind, src) in enumerate(node):
                if kind == "linear":
                    w = params[f"cell{layer}.node{i}.op{slot}.w"]
                    acc = acc + np.maximum(vals[src], 0.0) @ w.T
                elif kind == "identity":
                    acc = acc + vals[src]
                elif kind != "zero":
                    raise ValueError(f"unknown operation kind {kind!r}")
            vals.append(acc if not np.isscalar(acc) else np.zeros_like(stem))
        cells.append(vals)
        prev2, prev1 = prev1, sum(vals[c] for c in concat) / len(concat)
    logits = prev1 @ params["head.w"].T + params["head.b"]
    return logits, (x, cells, prev1)


def _log_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def loss_and_accuracy(genotype_doc, params, x, y, layers=6):
    """Mean softmax cross-entropy and accuracy on one split."""
    logits, _ = forward(genotype_doc, params, x, layers)
    logp = _log_softmax(logits)
    loss = float(-logp[np.arange(len(y)), y].mean())
    acc = float(np.mean(np.argmax(logits, axis=1) == y))
    return loss, acc


def per_example_gradient_variance(genotype_doc, params, x, y, layers=6):
    """Total variance (covariance trace) of the per-example gradients of the
    per-example loss, from one batched forward and backward pass.

    Each parameter block's per-example gradients are formed, reduced to their
    variance and dropped, so memory stays at one block of (B, out, in).
    """
    nodes, concat = _cell_spec(genotype_doc)
    logits, (x, cells, last) = forward(genotype_doc, params, x, layers)
    b = len(y)
    g = np.exp(_log_softmax(logits))
    g[np.arange(b), y] -= 1.0  # d loss_i / d logits_i, row by row

    total = 0.0

    def block(per_example):
        nonlocal total
        centred = per_example - per_example.mean(axis=0)
        total += float(np.sum(centred * centred)) / b

    block(np.einsum("bo,bi->boi", g, last))
    block(g)
    g_prev1 = g @ params["head.w"]
    g_prev2 = np.zeros_like(g_prev1)
    for layer in reversed(range(layers)):
        vals = cells[layer]
        grads = [np.zeros_like(v) for v in vals]
        for c in concat:
            grads[c] += g_prev1 / len(concat)
        for i in reversed(range(len(nodes))):
            gn = grads[2 + i]
            for slot, (kind, src) in enumerate(nodes[i]):
                if kind == "linear":
                    w = params[f"cell{layer}.node{i}.op{slot}.w"]
                    active = np.maximum(vals[src], 0.0)
                    block(np.einsum("bo,bi->boi", gn, active))
                    grads[src] += (gn @ w) * (vals[src] > 0.0)
                elif kind == "identity":
                    grads[src] += gn
        # cell inputs: node 0 is the cell two back, node 1 the previous cell
        g_prev1, g_prev2 = grads[1] + g_prev2, grads[0]
    g_stem = g_prev1 + g_prev2
    block(np.einsum("bo,bi->boi", g_stem, x))
    block(g_stem)
    return total


# --- linear cells --------------------------------------------------------------


def spectral_norm(w):
    return float(np.linalg.svd(np.asarray(w, dtype=np.float64), compute_uv=False)[0])


def exact_block_smoothness(weights, x, i):
    """L_i = ||W(i-1)...W(1) x||^2 * lambda_max(sum_{k>=i} B_k^T B_k), with
    B_k = W(k)...W(i+1) and B_i = I (blocks numbered from 1)."""
    weights = [np.asarray(w, dtype=np.float64) for w in weights]
    u = np.asarray(x, dtype=np.float64)
    for w in weights[:i - 1]:
        u = w @ u
    d = weights[0].shape[0]
    b = np.eye(d)
    a = np.eye(d)
    for w in weights[i:]:
        b = w @ b
        a += b.T @ b
    return float(u @ u) * float(np.linalg.eigvalsh(a)[-1])


def smoothness_bound(lambdas, x, i):
    """The stated bound (prod_{j<i} lambda_j) * ||x||^2."""
    return math.prod(lambdas[:i - 1]) * float(np.dot(x, x))


def variance_bound(lambdas, sigmas_sq, i):
    """The stated bound n * sum_{k>=i} sigma_k^2 * prod_{j<=k, j!=i} lambda_j^2."""
    n = len(lambdas)
    total = 0.0
    for k in range(i, n + 1):
        prod = math.prod(lambdas[j - 1] for j in range(1, k + 1) if j != i)
        total += sigmas_sq[k - 1] * prod * prod
    return n * total


# --- connection-space sizes ----------------------------------------------------


def connection_counts(genotype_doc):
    """(raw, deduplicated, closed form) for a genotype's connection space.

    Node i (from 0) has k = M + i candidate sources per slot.  Raw counts
    every slot assignment, k^M per node.  Deduplicated counts the distinct
    multisets of (kind, source) pairs: for each kind used by c slots of the
    node, C(k + c - 1, c) multisets of sources.  With M = 2 that is k^2 when
    the node's two kinds differ and k(k+1)/2 when they match.
    """
    m = genotype_doc["num_inputs"]
    raw = dedup = 1
    for i, node in enumerate(genotype_doc["nodes"]):
        k = m + i
        raw *= k ** m
        for c in Counter(op["kind"] for op in node["ops"]).values():
            dedup *= math.comb(k + c - 1, c)
    n_total = m + len(genotype_doc["nodes"]) + 1
    closed = math.factorial(n_total - 2) // math.factorial(m - 1)
    return raw, dedup, closed


def cell_depth(genotype_doc):
    """Edges on the longest input-to-output path, counting the output edge."""
    nodes, concat = _cell_spec(genotype_doc)
    m = genotype_doc["num_inputs"]
    dist = [0] * m
    for node in nodes:
        dist.append(1 + max(dist[src] for _, src in node))
    return 1 + max(dist[c] for c in concat)
