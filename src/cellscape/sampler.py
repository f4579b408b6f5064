"""Random connection/operation variants of a genotype, and the size of the
connection space.

Connection variants keep every node's operations and resample each slot's
source uniformly among the slot's preceding nodes.  Operation variants keep
the edges and resample each kind uniformly from a candidate set.  The closed
form for the number of possible connections, (N-2)!/(M-1)!, is computed
exactly; the slot-assignment counts are kept alongside it since the two do
not coincide in general.  Those counts are products over nodes, taken
without enumerating the variants.
"""

from __future__ import annotations

import math
import sys
from collections import Counter

from .errors import InvalidSearchSpace, UnknownOperationKind
from .genotype import OPERATION_KINDS, CellGenotype, OpSpec, rewired
from .rng import stream


def _check_printable(log_count, what):
    """Raise InvalidSearchSpace when a count whose natural log is ``log_count``
    has more decimal digits than this Python converts to a string."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    digits = math.floor(log_count / math.log(10)) + 1
    if limit and digits > limit:
        raise InvalidSearchSpace(f"{what} has about {digits} digits, more than the "
                                 f"{limit} this Python prints")


def count_connection_variants(n_total, num_inputs):
    """Closed-form count (N-2)!/(M-1)! as an exact integer."""
    if num_inputs < 1 or n_total < num_inputs + 2:
        raise InvalidSearchSpace(f"need N >= M + 2, got N={n_total}, M={num_inputs}")
    _check_printable(math.lgamma(n_total - 1) - math.lgamma(num_inputs),
                     f"(N-2)!/(M-1)! for N={n_total}, M={num_inputs}")
    return math.perm(n_total - 2, n_total - num_inputs - 1)  # (N-2)...(M)


def connection_space_counts(g: CellGenotype):
    """(raw, deduplicated, formula) sizes of the connection space of ``g``.

    raw: number of slot assignments, product over nodes of (preceding)^M.
    deduplicated: raw after merging assignments that only permute a node's
    identical (kind, source) pairs, i.e. the number of distinct connection
    variants.  Node i has k = M + i
    preceding nodes; an op kind used c times in it picks a multiset of c
    sources, C(k + c - 1, c) ways, and the count is the product over kinds
    and nodes.
    formula: the closed-form count for the same (N, M).
    The deduplicated and formula counts are at most raw, so checking raw's
    digit count covers all three.
    """
    m = g.num_inputs
    _check_printable(m * (math.lgamma(m + len(g.nodes)) - math.lgamma(m)),
                     f"{g.name}'s raw slot-assignment count")
    raw = math.prod((m + i) ** m for i in range(len(g.nodes)))
    dedup = 1
    for i, node in enumerate(g.nodes):
        for c in Counter(op.kind for op in node.ops).values():
            dedup *= math.comb(m + i + c - 1, c)
    formula = count_connection_variants(g.total_nodes, m)
    return raw, dedup, formula


def sample_connection_variant(g: CellGenotype, rng, name=None) -> CellGenotype:
    """Resample every slot's source uniformly among its preceding nodes."""
    m = g.num_inputs
    return rewired(g, name or g.name,
                   lambda i, node: [OpSpec(op.kind, int(rng.integers(0, m + i)))
                                    for op in node.ops])


def sample_operation_variant(g: CellGenotype, operation_set, rng, name=None) -> CellGenotype:
    """Resample every operation kind uniformly from ``operation_set``."""
    ops_list = tuple(operation_set)
    if not ops_list:
        raise ValueError("operation_set must be non-empty")
    unknown = set(ops_list) - OPERATION_KINDS
    if unknown:
        raise UnknownOperationKind(f"unknown operation kinds: {sorted(unknown)}")
    return rewired(g, name or g.name,
                   lambda i, node: [OpSpec(ops_list[int(rng.integers(0, len(ops_list)))],
                                           op.source) for op in node.ops])


def sample_variants(g: CellGenotype, mode, count, seed, operation_set=()):
    """Deterministic sequence of ``count`` connection or operation variants
    from one seed; operation mode draws kinds from ``operation_set``."""
    if mode not in ("connection", "operation"):
        raise ValueError(f"mode must be connection|operation, got {mode!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = stream(seed, "sampling")
    variants = []
    for i in range(count):
        name = f"{g.name}_variant_{i:03d}"
        if mode == "connection":
            variants.append(sample_connection_variant(g, rng, name=name))
        else:
            variants.append(sample_operation_variant(g, operation_set, rng, name=name))
    return variants
