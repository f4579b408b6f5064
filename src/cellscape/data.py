"""Synthetic desk-scale datasets: gaussian mixtures.

The generator is deterministic in the spec seed; the test split is drawn
from the same stream after the train split, so the two are disjoint draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .artifacts import read_json
from .errors import InvalidSpec, ParseError, check_float64s
from .rng import stream


@dataclass(frozen=True)
class DatasetSpec:
    kind: str = "gaussian-mixture"
    dim: int = 16
    num_classes: int = 4
    train_size: int = 2000
    test_size: int = 500
    noise: float = 3.0
    radius: float = 24.0  # class-mean sphere radius; scale places the default
    # lr grid across the stable and unstable regimes for depth-6 networks
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            real = isinstance(value, (int, float)) and not isinstance(value, bool)
            if f.type == "int" and not (real and isinstance(value, int)):
                raise InvalidSpec(f"{f.name} must be an integer, not {value!r}")
            if f.type == "float" and not (real and math.isfinite(value)):
                raise InvalidSpec(f"{f.name} must be a finite number, not {value!r}")
        if self.kind != "gaussian-mixture":
            raise InvalidSpec(f"unknown dataset kind {self.kind!r}")
        if self.train_size < 1 or self.test_size < 1:
            raise InvalidSpec("train_size and test_size must be >= 1")
        if self.num_classes < 2 or self.dim < 2:
            raise InvalidSpec("need num_classes >= 2 and dim >= 2")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, not {self.seed}")
        check_float64s(self.num_classes * self.dim, "num_classes x dim")
        check_float64s(self.train_size * self.dim, "train_size x dim")
        check_float64s(self.test_size * self.dim, "test_size x dim")


@dataclass(frozen=True)
class Dataset:
    spec: DatasetSpec
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def _balanced_labels(size, classes):
    """Labels 0..classes-1 as evenly as possible, in fixed interleaved order."""
    return np.arange(size) % classes


def _gaussian_points(means, spec, rng, size):
    y = _balanced_labels(size, spec.num_classes)
    x = means[y] + spec.noise * rng.standard_normal((size, spec.dim))
    return x, y


def make_dataset(spec: DatasetSpec) -> Dataset:
    """The spec's train and test splits.  Raises InvalidSpec when its noise
    or radius is so large that a point overflows to a non-finite value."""
    rng = stream(spec.seed, "data")
    with np.errstate(over="ignore", invalid="ignore"):
        means = rng.standard_normal((spec.num_classes, spec.dim))
        means *= spec.radius / np.linalg.norm(means, axis=1, keepdims=True)
        train_x, train_y = _gaussian_points(means, spec, rng, spec.train_size)
        test_x, test_y = _gaussian_points(means, spec, rng, spec.test_size)
    if not (np.isfinite(train_x).all() and np.isfinite(test_x).all()):
        raise InvalidSpec(
            f"noise {spec.noise!r} and radius {spec.radius!r} overflow: the dataset "
            "has non-finite points"
        )
    return Dataset(spec, train_x, train_y, test_x, test_y)


def spec_from_json(path) -> DatasetSpec:
    doc = read_json(path)
    try:
        return DatasetSpec(**doc)
    except TypeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
