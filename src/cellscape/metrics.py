"""Width and depth metrics of a cell genotype.

Width is the sum over intermediate nodes of c times the fraction of the
node's incoming edges sourced at input nodes; depth is the edge count of the
longest input -> output path, counting the final aggregation edge.  Width is
kept in exact rational arithmetic so values like 3.5c never pick up float
error.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidSearchSpace
from .genotype import CellGenotype


def cell_width(g: CellGenotype) -> Fraction:
    """Total width in units of c."""
    return sum(per_node_widths(g).values(), Fraction(0))


def per_node_widths(g: CellGenotype) -> dict:
    """Width contribution of each intermediate node, keyed by global index."""
    m = g.num_inputs
    return {m + i: Fraction(sum(1 for op in node.ops if op.source < m), len(node.ops))
            for i, node in enumerate(g.nodes)}


def cell_depth(g: CellGenotype) -> int:
    """Edges on the longest input -> output path, including the edge from a
    concat node to the output node."""
    # longest path length (in edges) from any input node to each node
    dist = [0] * g.num_inputs
    for node in g.nodes:
        dist.append(1 + max(dist[op.source] for op in node.ops))
    return 1 + max(dist[c] for c in g.concat)


def extremal_width_depth(n_total: int, num_inputs: int):
    """Largest width and smallest depth attainable in an (N, M) search space.

    N counts all nodes (inputs + intermediates + output).  The maximum width
    is (N - M - 1) * c, reached when every intermediate node sources only
    input nodes, which simultaneously gives the minimum depth of 2.
    """
    if num_inputs < 1 or n_total < num_inputs + 2:
        raise InvalidSearchSpace(f"need N >= M + 2, got N={n_total}, M={num_inputs}")
    return Fraction(n_total - num_inputs - 1), 2
