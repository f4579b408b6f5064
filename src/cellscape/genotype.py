"""Cell genotypes and their validation.

A genotype describes one cell: an ordered list of intermediate nodes, each
wired to exactly M preceding nodes through an operation.  Node indices share a
single space: 0..M-1 are the cell's input nodes, M+i is intermediate node i,
and the output node is implicit (it aggregates the ``concat`` nodes).  A
``CellGenotype`` is validated when it is built, so every one in the program
is valid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .artifacts import read_json, typed, write_json
from .errors import (
    EmptyConcat,
    ForwardReference,
    InvalidArity,
    ParseError,
    UnknownOperationKind,
    UnsupportedInputCount,
)

FIXTURE_NAMES = (
    "nasnet",
    "amoebanet",
    "enas",
    "darts",
    "snas",
    "darts_conn1",
    "darts_conn2",
    "darts_conn3",
    "darts_conn4",
)

# the candidate operations; ``autodiff.node`` says what each computes
OPERATION_KINDS = frozenset({"linear", "identity", "zero"})


@dataclass(frozen=True)
class OpSpec:
    """One (operation kind, source node) pair of an intermediate node."""

    kind: str
    source: int


@dataclass(frozen=True)
class NodeSpec:
    """An intermediate node: its M incoming (op, source) pairs, in slot order."""

    ops: tuple[OpSpec, ...]


@dataclass(frozen=True)
class CellGenotype:
    """A cell; building one raises a ``GenotypeError`` subclass unless it is
    valid (see ``validate_genotype``)."""

    name: str
    num_inputs: int
    nodes: tuple[NodeSpec, ...]
    concat: tuple[int, ...] = ()  # global node indices; empty means "all"

    def __post_init__(self):
        if not self.concat:
            all_interm = tuple(range(self.num_inputs, self.num_inputs + len(self.nodes)))
            object.__setattr__(self, "concat", all_interm)
        validate_genotype(self)

    @property
    def total_nodes(self):
        """N = input nodes + intermediate nodes + the single output node."""
        return self.num_inputs + len(self.nodes) + 1


def validate_genotype(g: CellGenotype):
    """Check all genotype invariants; ``CellGenotype`` calls it when it is built.

    Raises InvalidArity, ForwardReference, UnknownOperationKind or EmptyConcat
    (``concat`` empty, out of range or repeating a node) on the first violation.
    """
    m = g.num_inputs
    if m < 1:
        raise InvalidArity(f"{g.name}: num_inputs must be >= 1, got {m}")
    for i, node in enumerate(g.nodes):
        node_idx = m + i
        if len(node.ops) != m:
            raise InvalidArity(
                f"{g.name}: node {node_idx} has {len(node.ops)} (op, source) pairs, expected {m}"
            )
        for op in node.ops:
            if op.kind not in OPERATION_KINDS:
                raise UnknownOperationKind(f"{g.name}: unknown operation kind {op.kind!r}")
            if not 0 <= op.source < node_idx:
                raise ForwardReference(
                    f"{g.name}: node {node_idx} sources node {op.source}, "
                    f"which does not precede it"
                )
    if not g.concat:
        raise EmptyConcat(f"{g.name}: concat is empty")
    for j, c in enumerate(g.concat):
        if not m <= c < m + len(g.nodes) or c in g.concat[:j]:
            raise EmptyConcat(f"{g.name}: concat entry {c} is out of range or repeated")


def genotype_to_dict(g: CellGenotype) -> dict:
    return {
        "name": g.name,
        "num_inputs": g.num_inputs,
        "nodes": [
            {"ops": [{"kind": op.kind, "source": op.source} for op in node.ops]}
            for node in g.nodes
        ],
        "concat": list(g.concat),
    }


def genotype_from_dict(d: dict) -> CellGenotype:
    try:
        nodes = tuple(
            NodeSpec(tuple(OpSpec(typed(op["kind"], (str,), "kind"),
                                  typed(op["source"], (int,), "source")) for op in node["ops"]))
            for node in d["nodes"]
        )
        return CellGenotype(
            name=typed(d["name"], (str,), "name"),
            num_inputs=typed(d["num_inputs"], (int,), "num_inputs"),
            nodes=nodes,
            concat=tuple(typed(c, (int,), "concat") for c in d.get("concat", [])),
        )
    except (KeyError, TypeError, ParseError) as exc:
        raise ParseError(f"malformed genotype document: {exc}") from exc


def load_genotype(path) -> CellGenotype:
    """Load a genotype JSON file; raises ParseError on bad JSON or schema."""
    return genotype_from_dict(read_json(path))


def save_genotype(g: CellGenotype, path):
    write_json(path, genotype_to_dict(g))


def load_fixture(name: str) -> CellGenotype:
    """Load one of the bundled cell fixtures by short name (e.g. ``darts``)."""
    if name not in FIXTURE_NAMES:
        raise ParseError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    text = resources.files("cellscape.fixtures").joinpath(f"{name}.json").read_text()
    return genotype_from_dict(json.loads(text))


def rewired(g: CellGenotype, name, ops) -> CellGenotype:
    """Copy of g, named ``name``, whose node i has the ``OpSpec``s
    ``ops(i, node)`` in slot order; node order and concat are kept."""
    nodes = tuple(NodeSpec(tuple(ops(i, node))) for i, node in enumerate(g.nodes))
    return CellGenotype(name=name, num_inputs=g.num_inputs, nodes=nodes, concat=g.concat)


def adapt_to_widest_shallowest(g: CellGenotype) -> CellGenotype:
    """Rewire every intermediate node to the two input nodes (slot order 0, 1),
    preserving node order and operation kinds."""
    if g.num_inputs != 2:
        raise UnsupportedInputCount(
            f"adaptation supports exactly 2 input nodes, got {g.num_inputs}"
        )
    return rewired(g, f"{g.name}_adapted",
                   lambda i, node: (OpSpec(op.kind, slot) for slot, op in enumerate(node.ops)))

