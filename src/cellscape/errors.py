"""Exception hierarchy shared by all cellscape modules, and one size check."""

import numpy as np


class CellscapeError(Exception):
    """Base class for all errors raised by this package."""


class GenotypeError(CellscapeError):
    """A genotype violates a structural invariant."""


class InvalidArity(GenotypeError):
    """An intermediate node does not have exactly M (op, source) pairs."""


class ForwardReference(GenotypeError):
    """A node sources a node that does not precede it."""


class EmptyConcat(GenotypeError):
    """The output node's ``concat`` is empty, out of range or repeats a node."""


class UnknownOperationKind(GenotypeError):
    """An operation kind is not one of ``genotype.OPERATION_KINDS``."""


class InvalidSearchSpace(CellscapeError):
    """(N, M) does not describe a valid cell search space."""


class DimensionMismatch(CellscapeError):
    """Vector/matrix dimensions are inconsistent."""


class ShapeMismatch(CellscapeError):
    """Arrays given to a network pass, a checkpoint or an SGD step disagree in shape."""


class InsufficientSamples(CellscapeError):
    """Too few Monte-Carlo samples for a variance estimate."""


class UnsupportedInputCount(CellscapeError):
    """Network building and cell rewiring only support cells with two input
    nodes."""


class InvalidSpec(CellscapeError):
    """A dataset or run specification is malformed."""


def check_float64s(count, what):
    """InvalidSpec unless one numpy array can index ``count`` float64 values."""
    if count > np.iinfo(np.intp).max // 8:
        raise InvalidSpec(f"{what} would be {count} float64 values, more than numpy can index")


class ParseError(CellscapeError):
    """An input file failed to parse."""


class MissingManifest(CellscapeError):
    """A run directory contains no manifest to report on."""
