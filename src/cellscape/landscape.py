"""Loss and gradient-variance surfaces on a 2-D slice through parameter space.

Two random directions with the checkpoint's block structure span the slice;
each grid point evaluates the network at checkpoint + alpha*d1 + beta*d2.
The loss surface is the mean loss over the split, from one forward pass per
point that records no tape.  The gradient-variance surface is the total
variance (covariance trace) of per-instance parameter gradients, from one
batched forward and backward pass per point: every parameter block feeds
exactly one ``dense`` or ``add_bias``, so instance i's gradient is the rank-1
block n*g_i (x) x_i (or n*g_i for a bias), with g_i the op's output-gradient
row and x_i its input row.  That single-use precondition is checked, and a
block that breaks it raises.  Non-finite values are kept as computed and
tagged by ``LandscapeGrid.overflow_mask``, not clipped.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, IoFailure
from .network import CellNetwork
from .rng import stream


@dataclass
class DirectionPair:
    """Two direction parameter-sets matching a checkpoint's block structure."""

    w1: dict
    w2: dict
    seed: int
    normalization: str
    zero_blocks: list = field(default_factory=list)


def sample_directions(checkpoint: dict, seed, normalization="blockwise") -> DirectionPair:
    """Draw both directions blockwise standard normal; with ``blockwise``
    normalization each block is rescaled to the checkpoint block's Frobenius
    norm.  All-zero checkpoint blocks skip rescaling and are recorded."""
    if normalization not in ("blockwise", "none"):
        raise ValueError(f"normalization must be blockwise|none, got {normalization!r}")
    rng = stream(seed, "directions")
    zero_blocks = []
    directions = []
    for _ in range(2):
        d = {}
        for name in sorted(checkpoint):
            ref = checkpoint[name]
            block = rng.standard_normal(ref.shape)
            if normalization == "blockwise":
                ref_norm = np.linalg.norm(ref)
                if ref_norm == 0.0:
                    if name not in zero_blocks:
                        zero_blocks.append(name)
                else:
                    block *= ref_norm / np.linalg.norm(block)
            d[name] = block
        directions.append(d)
    return DirectionPair(
        w1=directions[0],
        w2=directions[1],
        seed=seed,
        normalization=normalization,
        zero_blocks=zero_blocks,
    )


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
    shapes = network._param_shapes()
    if set(checkpoint) != set(shapes):
        odd = sorted(set(checkpoint) ^ set(shapes))
        raise DimensionMismatch(
            f"checkpoint blocks do not match the network's: {len(odd)} differ, "
            f"first {odd[0]!r}"
        )
    for name, shape in shapes.items():
        if checkpoint[name].shape != shape:
            raise DimensionMismatch(
                f"checkpoint block {name} has shape {checkpoint[name].shape}, "
                f"the network needs {shape}"
            )
    for d in (pair.w1, pair.w2):
        if set(d) != set(checkpoint):
            raise DimensionMismatch("direction blocks do not match checkpoint blocks")
        for name in checkpoint:
            if d[name].shape != checkpoint[name].shape:
                raise DimensionMismatch(f"direction block {name} shape mismatch")
    for coords in (alphas, betas):
        if not np.any(np.asarray(coords) == 0.0):
            raise ValueError("grid coordinates must include 0")


def _shifted(checkpoint, pair, alpha, beta):
    return {
        name: checkpoint[name] + alpha * pair.w1[name] + beta * pair.w2[name]
        for name in checkpoint
    }


def _grid(point, checkpoint, pair, alphas, betas):
    """``point(params)`` at every grid point, row by row.  Non-finite values
    are results here, kept and tagged, so numpy's overflow warnings are off."""
    values = np.empty((len(alphas), len(betas)))
    with np.errstate(over="ignore", invalid="ignore"):
        for a, alpha in enumerate(alphas):
            for b, beta in enumerate(betas):
                values[a, b] = point(_shifted(checkpoint, pair, alpha, beta))
    return values


def loss_surface(network: CellNetwork, checkpoint, x, y, pair: DirectionPair,
                 alphas, betas, metadata=None) -> LandscapeGrid:
    """Mean loss over the split at every grid point (evaluation only)."""
    _check_grid_inputs(network, checkpoint, pair, alphas, betas)
    values = _grid(lambda p: network.evaluate(x, y, p)[0], checkpoint, pair, alphas, betas)
    return LandscapeGrid(alphas, betas, values, "loss", metadata or {})


def gradient_variance_surface(network: CellNetwork, checkpoint, x, y,
                              pair: DirectionPair, alphas, betas, mode="gradvar",
                              metadata=None) -> LandscapeGrid:
    """Total variance of per-instance gradients at every grid point; mode
    ``gradstd`` emits the elementwise square root."""
    if mode not in ("gradvar", "gradstd"):
        raise ValueError(f"mode must be gradvar|gradstd, got {mode!r}")
    _check_grid_inputs(network, checkpoint, pair, alphas, betas)
    values = _grid(lambda p: network.gradient_variance(x, y, p), checkpoint, pair,
                   alphas, betas)
    if mode == "gradstd":
        values = np.sqrt(values)
    return LandscapeGrid(alphas, betas, values, mode, metadata or {})


def export_grid(grid: LandscapeGrid, path, fmt="csv"):
    """Write the grid as CSV rows alpha,beta,value (row-major) or as JSON with
    metadata.  Overflow entries serialize as the literal ``inf``."""
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["alpha", "beta", "value"])
                for a, alpha in enumerate(grid.alphas):
                    for b, beta in enumerate(grid.betas):
                        writer.writerow(
                            [repr(float(alpha)), repr(float(beta)),
                             repr(float(grid.values[a, b]))]
                        )
        elif fmt == "json":
            doc = {
                "kind": grid.kind,
                "alphas": [float(v) for v in grid.alphas],
                "betas": [float(v) for v in grid.betas],
                "values": [
                    [None if not math.isfinite(v) else v for v in row]
                    for row in grid.values.tolist()
                ],
                "overflow": [[bool(v) for v in row] for row in grid.overflow_mask],
                "metadata": grid.metadata,
            }
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc


def load_grid_csv(path, kind="loss") -> LandscapeGrid:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [(float(a), float(b), float(v)) for a, b, v in reader]
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
    if header != ["alpha", "beta", "value"]:
        raise IoFailure(f"{path}: unexpected header {header}")
    alphas = sorted({r[0] for r in rows})
    betas = sorted({r[1] for r in rows})
    values = np.full((len(alphas), len(betas)), np.nan)
    a_idx = {v: i for i, v in enumerate(alphas)}
    b_idx = {v: i for i, v in enumerate(betas)}
    for a, b, v in rows:
        values[a_idx[a], b_idx[b]] = v
    return LandscapeGrid(alphas, betas, values, kind)
