"""Width and depth metrics of a cell DAG.

Width is the sum over intermediate nodes of c times the fraction of the
node's incoming edges sourced at input nodes; depth is the edge count of the
longest input -> output path, counting the final aggregation edge.  Width is
kept in exact rational arithmetic so values like 3.5c never pick up float
error.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EmptyConcat, InvalidSearchSpace
from .genotype import CellDag


def cell_width(dag: CellDag) -> Fraction:
    """Total width in units of c."""
    return sum(per_node_widths(dag).values(), Fraction(0))


def per_node_widths(dag: CellDag) -> dict:
    """Width contribution of each intermediate node, keyed by global index."""
    m = dag.num_inputs
    widths = {}
    for i in range(dag.num_intermediate):
        node = m + i
        sources = dag.sources_of(node)
        input_edges = sum(1 for s in sources if s < m)
        widths[node] = Fraction(input_edges, len(sources))
    return widths


def cell_depth(dag: CellDag) -> int:
    """Edges on the longest input -> output path, including the edge from a
    concat node to the output node."""
    if not dag.concat:
        raise EmptyConcat("depth undefined for a cell with empty concat")
    m = dag.num_inputs
    # longest path length (in edges) from any input node to each node
    dist = {j: 0 for j in range(m)}
    for i in range(dag.num_intermediate):
        node = m + i
        dist[node] = 1 + max(dist[s] for s in dag.sources_of(node))
    return 1 + max(dist[c] for c in dag.concat)


def extremal_width_depth(n_total: int, num_inputs: int):
    """Largest width and smallest depth attainable in an (N, M) search space.

    N counts all nodes (inputs + intermediates + output).  The maximum width
    is (N - M - 1) * c, reached when every intermediate node sources only
    input nodes, which simultaneously gives the minimum depth of 2.
    """
    if num_inputs < 1 or n_total < num_inputs + 2:
        raise InvalidSearchSpace(f"need N >= M + 2, got N={n_total}, M={num_inputs}")
    return Fraction(n_total - num_inputs - 1), 2
