from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellscape import (
    CellGenotype,
    NodeSpec,
    OpSpec,
    cell_depth,
    cell_width,
    extremal_width_depth,
    load_fixture,
)
from cellscape.errors import InvalidSearchSpace
from cellscape.metrics import per_node_widths
from conftest import all_input_cell, chain_cell

# (fixture, width in units of c, depth)
FIXTURE_VALUES = [
    ("nasnet", Fraction(5), 2),
    ("amoebanet", Fraction(4), 4),
    ("enas", Fraction(5), 2),
    ("darts", Fraction(7, 2), 3),
    ("snas", Fraction(4), 2),
    ("darts_conn1", Fraction(5, 2), 3),
    ("darts_conn2", Fraction(5, 2), 3),
    ("darts_conn3", Fraction(2), 4),
    ("darts_conn4", Fraction(2), 4),
]


@pytest.mark.parametrize("name,width,depth", FIXTURE_VALUES)
def test_fixture_metrics(name, width, depth):
    g = load_fixture(name)
    assert cell_width(g) == width
    assert cell_depth(g) == depth


def test_toy_cell_width(toy_cell):
    # node1 fully input-sourced (1c), node2 half input-sourced (0.5c)
    assert cell_width(toy_cell) == Fraction(3, 2)
    assert per_node_widths(toy_cell) == {2: Fraction(1), 3: Fraction(1, 2)}


def test_toy_cell_depth(toy_cell):
    assert cell_depth(toy_cell) == 3


def test_chain_cell_depth():
    assert cell_depth(chain_cell(5)) == 6


def test_all_input_cell_extremes():
    g = all_input_cell(5)
    assert cell_width(g) == Fraction(5)
    assert cell_depth(g) == 2


def test_duplicate_input_sources_count_full():
    # both slots source input 0: still a full c contribution
    g = CellGenotype(
        name="dup", num_inputs=2, nodes=(NodeSpec((OpSpec("linear", 0), OpSpec("linear", 0))),)
    )
    assert cell_width(g) == Fraction(1)


def test_width_is_exact_rational(darts):
    w = cell_width(darts)
    assert isinstance(w, Fraction)
    assert w == Fraction(7, 2)


def test_report_fields(darts):
    # the width, depth and per-node widths that analyze reports
    assert cell_width(darts) == Fraction(7, 2)
    assert cell_depth(darts) == 3
    assert sum(per_node_widths(darts).values()) == cell_width(darts)


def test_extremal_values():
    assert extremal_width_depth(7, 2) == (Fraction(4), 2)
    assert extremal_width_depth(8, 2) == (Fraction(5), 2)
    assert extremal_width_depth(4, 2) == (Fraction(1), 2)


def test_extremal_invalid_space():
    with pytest.raises(InvalidSearchSpace):
        extremal_width_depth(3, 2)
    with pytest.raises(InvalidSearchSpace):
        extremal_width_depth(5, 0)


def brute_force_depth(g):
    """Longest input->output path by enumerating all paths."""
    m = g.num_inputs
    preds = {m + i: [op.source for op in node.ops] for i, node in enumerate(g.nodes)}

    def longest_to(node):
        if node < m:
            return 0
        return 1 + max(longest_to(s) for s in preds[node])

    return 1 + max(longest_to(c) for c in g.concat)


@st.composite
def genotypes(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    nodes = []
    for i in range(n):
        ops = tuple(
            OpSpec(draw(st.sampled_from(["linear", "identity", "zero"])),
                   draw(st.integers(0, m + i - 1)))
            for _ in range(m)
        )
        nodes.append(NodeSpec(ops))
    concat_pool = list(range(m, m + n))
    concat = tuple(sorted(draw(
        st.sets(st.sampled_from(concat_pool), min_size=1, max_size=n))))
    return CellGenotype(name="random", num_inputs=m, nodes=tuple(nodes), concat=concat)


@settings(max_examples=200, deadline=None)
@given(genotypes())
def test_depth_matches_brute_force(g):
    assert cell_depth(g) == brute_force_depth(g)


@settings(max_examples=200, deadline=None)
@given(genotypes())
def test_width_depth_bounds(g):
    n = len(g.nodes)
    assert Fraction(0) <= cell_width(g) <= Fraction(n)
    assert 2 <= cell_depth(g) <= n + 1


@settings(max_examples=100, deadline=None)
@given(genotypes(), st.sampled_from(["linear", "identity", "zero"]))
def test_metrics_ignore_operation_kinds(g, kind):
    relabeled = CellGenotype(
        name=g.name,
        num_inputs=g.num_inputs,
        nodes=tuple(
            NodeSpec(tuple(OpSpec(kind, op.source) for op in node.ops))
            for node in g.nodes
        ),
        concat=g.concat,
    )
    assert cell_width(relabeled) == cell_width(g)
    assert cell_depth(relabeled) == cell_depth(g)
