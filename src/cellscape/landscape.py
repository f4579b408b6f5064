"""Loss and gradient-variance surfaces on a 2-D slice through parameter space.

Two random directions in the checkpoint's flat parameter layout span the
slice; each grid point evaluates the network at checkpoint + alpha*d1 + beta*d2.
The loss surface is the mean loss over the split, from forward passes that
record no tape; each pass evaluates up to ``ROWS // len(x)`` consecutive grid
points (at least one) as member rows, and every value is bit-identical to a
pass of that point alone.  The gradient-variance surface is the total
variance (covariance trace) of per-instance parameter gradients, from one
batched forward and backward pass per point: every parameter block feeds
exactly one ``dense`` or ``add_bias``, so instance i's gradient is the rank-1
block n*g_i (x) x_i (or n*g_i for a bias), with g_i the op's output-gradient
row and x_i its input row.  That single-use precondition is checked, and a
block that breaks it raises.  Non-finite values are kept as computed and
tagged by ``LandscapeGrid.overflow_mask``, not clipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import write_csv, write_json
from .errors import DimensionMismatch
from .network import CellNetwork
from .rng import stream

# Cap on the rows (grid points x split rows) that one grid pass holds.  At
# the default subset of 256, 512 puts 2 points in a pass; larger caps saved
# more time per grid but raised the landscape run's peak memory.
ROWS = 512


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
        ref = layout.block_norms(checkpoint)
        for d in (d1, d2):
            d *= np.repeat(np.where(ref == 0.0, 1.0, ref / layout.block_norms(d)), layout.sizes)
    return d1, d2


@dataclass
class LandscapeGrid:
    alphas: np.ndarray
    betas: np.ndarray
    values: np.ndarray  # shape (len(alphas), len(betas))
    kind: str  # "loss" | "gradvar" | "gradstd"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=np.float64)
        self.betas = np.asarray(self.betas, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if np.any(np.diff(self.alphas) <= 0) or np.any(np.diff(self.betas) <= 0):
            raise ValueError("grid coordinates must be strictly increasing")
        if self.values.shape != (len(self.alphas), len(self.betas)):
            raise ValueError("values shape does not match coordinates")

    @property
    def overflow_mask(self):
        return ~np.isfinite(self.values)


def grid_coordinates(points, extent):
    """Symmetric grid of ``points`` coordinates over [-extent, extent], 0 included."""
    if points < 1 or points % 2 == 0:
        raise ValueError("points must be odd so the grid is centered on 0")
    if points == 1:
        return np.array([0.0])
    return np.linspace(-extent, extent, points)


def _check_grid_inputs(network, checkpoint, pair, alphas, betas):
    need = (network.layout.size,)
    for what, v in (("checkpoint", checkpoint), *(("direction", d) for d in pair)):
        if np.shape(v) != need:
            raise DimensionMismatch(
                f"{what} has shape {np.shape(v)}, the network's parameters {need}"
            )
    for coords in (alphas, betas):
        if not np.any(np.asarray(coords) == 0.0):
            raise ValueError("grid coordinates must include 0")


def _grid(point, split_rows, checkpoint, pair, alphas, betas):
    """``point`` at every grid point.  The row-major points go in chunks of
    ``max(1, ROWS // split_rows)`` as one (K, P) stack of parameter vectors, and
    ``point`` returns their K values.  Non-finite values are results here,
    kept and tagged, so numpy's overflow warnings are off."""
    d1, d2 = pair
    grid_a, grid_b = (c.reshape(-1, 1) for c in np.meshgrid(alphas, betas, indexing="ij"))
    per_pass = max(1, ROWS // split_rows)
    values = np.empty(len(grid_a))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(values), per_pass):
            a, b = grid_a[start:start + per_pass], grid_b[start:start + per_pass]
            values[start:start + len(a)] = point(checkpoint + a * d1 + b * d2)
    return values.reshape(len(alphas), len(betas))


def loss_surface(network: CellNetwork, checkpoint, x, y, pair,
                 alphas, betas, metadata=None) -> LandscapeGrid:
    """Mean loss over the split at every grid point (evaluation only), on the
    slice that ``pair``, the directions ``(d1, d2)``, spans."""
    _check_grid_inputs(network, checkpoint, pair, alphas, betas)
    values = _grid(lambda stack: network.evaluate(x, y, stack)[0], len(x), checkpoint,
                   pair, alphas, betas)
    return LandscapeGrid(alphas, betas, values, "loss", metadata or {})


def gradient_variance_surface(network: CellNetwork, checkpoint, x, y,
                              pair, alphas, betas, mode="gradvar",
                              metadata=None) -> LandscapeGrid:
    """Total variance of per-instance gradients at every grid point; mode
    ``gradstd`` emits the elementwise square root."""
    if mode not in ("gradvar", "gradstd"):
        raise ValueError(f"mode must be gradvar|gradstd, got {mode!r}")
    _check_grid_inputs(network, checkpoint, pair, alphas, betas)
    values = _grid(lambda stack: [network.gradient_variance(x, y, p) for p in stack],
                   len(x), checkpoint, pair, alphas, betas)
    if mode == "gradstd":
        values = np.sqrt(values)
    return LandscapeGrid(alphas, betas, values, mode, metadata or {})


def export_grid(grid: LandscapeGrid, path):
    """Write the grid as JSON with metadata when ``path`` ends in ``.json``,
    else as CSV rows alpha,beta,value (row-major).  Overflow entries are the
    literals ``inf``/``nan`` in CSV and ``null`` in JSON."""
    if Path(path).suffix != ".json":
        write_csv(path, ["alpha", "beta", "value"],
                  ([alpha, beta, grid.values[a, b]] for a, alpha in enumerate(grid.alphas)
                   for b, beta in enumerate(grid.betas)))
    else:
        doc = {
            "kind": grid.kind,
            "alphas": [float(v) for v in grid.alphas],
            "betas": [float(v) for v in grid.betas],
            "values": grid.values.tolist(),
            "overflow": [[bool(v) for v in row] for row in grid.overflow_mask],
            "metadata": grid.metadata,
        }
        write_json(path, doc)
