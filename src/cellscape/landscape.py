"""Loss and gradient-variance surfaces on a 2-D slice through parameter space.

Two random directions in the checkpoint's flat parameter layout span the
slice; each grid point evaluates the network at checkpoint + alpha*d1 + beta*d2,
with alpha and beta both read from one coordinate vector, made by
``grid_coordinates``.  The loss surface is the mean loss over the split, from
forward-only passes (``record=False``); the gradient-variance surface is the
total variance (covariance trace) of per-instance parameter gradients, from
batched forward and backward passes, each block reduced by
``autodiff.block_variance``, which states the rank-1 form it relies on.  Both
evaluate up to ``ROWS // len(x)`` consecutive grid points (at least one) as
the member rows of one pass, and every finite value is bit-identical to a
pass of that point alone.
Non-finite values are kept as computed and tagged by ``export_grid``, not
clipped.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

from .artifacts import write_csv, write_json
from .errors import DimensionMismatch, InvalidSpec, check_float64s
from .network import CellNetwork
from .rng import stream

# Rows (grid points x split rows) a pass of either surface holds: 2 points at
# the default subset of 256.  Caps of 1024 and 2048 were no faster on a 2-CPU
# x86-64 VM (landscape rounds 2.13-2.30 s vs 2.05-2.18 s at 512) and raised
# peak RSS.
ROWS = 512


class Surface(NamedTuple):
    """What a surface measured (``loss``, ``gradvar`` or ``gradstd``) and its
    (g, g) values, row a and column b at ``coords[a]``, ``coords[b]``.  The
    benchmark's tracer (``perfbench/spans.py``) counts a surface's points as
    its ``values.size``."""

    kind: str
    values: np.ndarray


def sample_directions(checkpoint, layout, seed, normalization="blockwise"):
    """Two flat directions ``(d1, d2)`` in ``layout`` order, both drawn
    standard normal; with ``blockwise`` normalization each block is rescaled
    to the checkpoint block's Frobenius norm, except that an all-zero
    checkpoint block leaves its draw as it is."""
    if normalization not in ("blockwise", "none"):
        raise ValueError(f"normalization must be blockwise|none, got {normalization!r}")
    rng = stream(seed, "directions")
    d1, d2 = (rng.standard_normal(layout.size) for _ in range(2))
    if normalization == "blockwise":
        norms = [np.linalg.norm(block) for block in layout.views(checkpoint).values()]
        for d in (d1, d2):
            for norm, block in zip(norms, layout.views(d).values()):
                if norm != 0.0:
                    block *= norm / np.linalg.norm(block)
    return d1, d2


def evaluation_subset(dataset, subset, seed):
    """The held-out ``(x, y)`` a landscape evaluates: ``subset`` test rows (all
    if fewer), drawn from ``stream(seed, "data")``, kept in split order."""
    n = len(dataset.test_y)
    pick = np.sort(stream(seed, "data").choice(n, size=min(subset, n), replace=False))
    return dataset.test_x[pick], dataset.test_y[pick]


def grid_coordinates(points, extent):
    """The ``points`` coordinates of both axes of a square grid over
    [-extent, extent]: linspace's, with the centre set to exactly 0.

    Raises InvalidSpec when they are not finite and strictly increasing: an
    extent too small to separate them, or so large that they overflow; or
    when numpy could not index the grid's points * points values."""
    if points < 1 or points % 2 == 0:
        raise ValueError("points must be odd so the grid is centered on 0")
    check_float64s(points * points, f"a {points} x {points} grid")
    with np.errstate(all="ignore"):
        coords = np.linspace(-extent, extent, points)
    coords[points // 2] = 0.0
    if not (np.all(np.isfinite(coords)) and np.all(np.diff(coords) > 0)):
        raise InvalidSpec(f"{points} grid coordinates over +/-{extent} are not finite "
                          "and strictly increasing")
    return coords


def _check_grid_inputs(network, checkpoint, pair, coords):
    need = (network.layout.size,)
    for what, v in (("checkpoint", checkpoint), *(("direction", d) for d in pair)):
        if np.shape(v) != need:
            raise DimensionMismatch(
                f"{what} has shape {np.shape(v)}, the network's parameters {need}"
            )
    if not np.any(np.asarray(coords) == 0.0):
        raise ValueError("grid coordinates must include 0")


def _grid(point, split_rows, checkpoint, pair, coords):
    """``point`` at every grid point.  The row-major points go in chunks of
    ``max(1, ROWS // split_rows)`` as one (K, P) stack of parameter vectors, and
    ``point`` returns their K values.  Non-finite values are results here,
    kept and tagged, so numpy's overflow warnings are off."""
    d1, d2 = pair
    grid_a, grid_b = (c.reshape(-1, 1) for c in np.meshgrid(coords, coords, indexing="ij"))
    per_pass = max(1, ROWS // split_rows)
    values = np.empty(len(grid_a))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(values), per_pass):
            a, b = grid_a[start:start + per_pass], grid_b[start:start + per_pass]
            values[start:start + len(a)] = point(checkpoint + a * d1 + b * d2)
    return values.reshape(len(coords), len(coords))


def loss_surface(network: CellNetwork, checkpoint, x, y, pair, coords) -> Surface:
    """Mean loss over the split at every grid point (evaluation only), on the
    slice that ``pair``, the directions ``(d1, d2)``, spans."""
    _check_grid_inputs(network, checkpoint, pair, coords)
    values = _grid(lambda stack: network.evaluate(x, y, stack)[0], len(x), checkpoint,
                   pair, coords)
    return Surface("loss", values)


def gradient_variance_surface(network: CellNetwork, checkpoint, x, y, pair, coords,
                              mode="gradvar") -> Surface:
    """Total variance of per-instance gradients at every grid point; mode
    ``gradstd`` emits the elementwise square root."""
    if mode not in ("gradvar", "gradstd"):
        raise ValueError(f"mode must be gradvar|gradstd, got {mode!r}")
    _check_grid_inputs(network, checkpoint, pair, coords)
    values = _grid(lambda stack: network.gradient_variance(x, y, stack), len(x), checkpoint,
                   pair, coords)
    if mode == "gradstd":
        values = np.sqrt(values)
    return Surface(mode, values)


def export_grid(path, coords, surface, metadata):
    """Write ``surface`` on the grid ``coords`` x ``coords`` as JSON with
    ``metadata`` when ``path`` ends in ``.json``, else as CSV rows
    alpha,beta,value (row-major).  Overflow entries are the literals
    ``inf``/``nan`` in CSV and ``null`` in JSON."""
    values = surface.values
    if values.shape != (len(coords), len(coords)):
        raise ValueError("values shape does not match coordinates")
    if Path(path).suffix != ".json":
        write_csv(path, ["alpha", "beta", "value"],
                  ([alpha, beta, values[a, b]] for a, alpha in enumerate(coords)
                   for b, beta in enumerate(coords)))
    else:
        axis = [float(v) for v in coords]
        doc = {
            "kind": surface.kind,
            "alphas": axis,
            "betas": axis,
            "values": values.tolist(),
            "overflow": [[bool(v) for v in row] for row in ~np.isfinite(values)],
            "metadata": metadata,
        }
        write_json(path, doc)
