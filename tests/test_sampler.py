import numpy as np
import pytest
from scipy import stats

from cellscape import (
    CellGenotype,
    NodeSpec,
    OpSpec,
    cell_depth,
    cell_width,
    count_connection_variants,
    load_fixture,
    sample_connection_variant,
    sample_operation_variant,
    sample_variants,
)
from cellscape.errors import EmptyConcat, InvalidSearchSpace, UnknownOperationKind
from cellscape.genotype import genotype_to_dict
from cellscape.rng import stream
from cellscape.sampler import connection_space_counts
from conftest import TooLarge, chain_cell, enumerate_connection_variants, rank_variants


def test_formula_values():
    assert count_connection_variants(7, 2) == 120
    assert count_connection_variants(4, 2) == 2
    assert count_connection_variants(3, 1) == 1


def test_formula_invalid():
    with pytest.raises(InvalidSearchSpace):
        count_connection_variants(3, 2)


def test_enumeration_single_node(toy_cell):
    one = chain_cell(1)
    variants = list(enumerate_connection_variants(one))
    # one node, two slots, both ranging over the two input nodes; unordered
    # slot multisets: {0,0}, {0,1}, {1,1}
    assert len(variants) == 3


def test_enumeration_n0():
    # a cell with no nodes has no variants: it cannot be built at all
    with pytest.raises(EmptyConcat):
        CellGenotype(name="none", num_inputs=2, nodes=())


def test_enumeration_counts_toy(toy_cell):
    raw, dedup, formula = connection_space_counts(toy_cell)
    assert raw == 4 * 9  # 2^2 slot choices for node 1, 3^2 for node 2
    assert dedup == 3 * 6  # unordered pairs with repetition per node
    assert formula == 6  # (5-2)!/(2-1)! for the toy cell's N=5, M=2
    # raw, dedup and the closed form disagree; that gap is reported, not hidden


def test_dedup_count_closed_form_matches_enumeration(toy_cell, darts):
    # three inputs, and a node that repeats a kind among three slots
    three = CellGenotype(
        name="three",
        num_inputs=3,
        nodes=(
            NodeSpec((OpSpec("linear", 0), OpSpec("linear", 1), OpSpec("identity", 2))),
            NodeSpec((OpSpec("zero", 3), OpSpec("zero", 0), OpSpec("zero", 1))),
        ),
    )
    for g in (toy_cell, darts, three):
        _, dedup, _ = connection_space_counts(g)
        assert dedup == sum(1 for _ in enumerate_connection_variants(g)), g.name


def test_enumeration_guard_on_node_count():
    big = chain_cell(6)
    with pytest.raises(TooLarge):
        list(enumerate_connection_variants(big))


def test_enumeration_guard_on_cap(darts):
    with pytest.raises(TooLarge):
        list(enumerate_connection_variants(darts, cap=10))


def test_enumeration_is_deterministic(toy_cell):
    a = [genotype_to_dict(v) for v in enumerate_connection_variants(toy_cell)]
    b = [genotype_to_dict(v) for v in enumerate_connection_variants(toy_cell)]
    assert a == b


def test_connection_variant_preserves_ops(darts, rng):
    v = sample_connection_variant(darts, rng)
    for node, vnode in zip(darts.nodes, v.nodes):
        assert [op.kind for op in node.ops] == [op.kind for op in vnode.ops]


def test_operation_variant_preserves_edges(darts, rng):
    v = sample_operation_variant(darts, ("linear", "identity", "zero"), rng)
    for node, vnode in zip(darts.nodes, v.nodes):
        assert [op.source for op in node.ops] == [op.source for op in vnode.ops]
    assert cell_width(v) == cell_width(darts)
    assert cell_depth(v) == cell_depth(darts)


def test_operation_variant_unknown_kind(darts, rng):
    with pytest.raises(UnknownOperationKind):
        sample_operation_variant(darts, ("conv",), rng)


def test_operation_variant_singleton_set(darts, rng):
    v = sample_operation_variant(darts, ("zero",), rng)
    assert all(op.kind == "zero" for node in v.nodes for op in node.ops)


def test_sample_variants_deterministic(darts):
    a = sample_variants(darts, "connection", 20, 7)
    b = sample_variants(darts, "connection", 20, 7)
    assert [genotype_to_dict(v) for v in a] == [genotype_to_dict(v) for v in b]


def test_sample_variants_seed_sensitivity(darts):
    a = sample_variants(darts, "connection", 20, 1)
    b = sample_variants(darts, "connection", 20, 2)
    assert [genotype_to_dict(v) for v in a] != [genotype_to_dict(v) for v in b]


def test_samples_contained_in_enumeration(toy_cell):
    def key(g):
        return tuple(
            tuple(sorted((op.kind, op.source) for op in node.ops)) for node in g.nodes
        )

    universe = {key(v) for v in enumerate_connection_variants(toy_cell)}
    rng = stream(3, "sampling")
    for _ in range(200):
        assert key(sample_connection_variant(toy_cell, rng)) in universe


def test_connection_slot_uniformity_chi_square(toy_cell):
    # first slot of node 2 ranges over 3 predecessors (inputs 0, 1, node 1)
    rng = stream(11, "sampling")
    counts = np.zeros(3)
    draws = 10_000
    for _ in range(draws):
        v = sample_connection_variant(toy_cell, rng)
        counts[v.nodes[1].ops[0].source] += 1
    assert counts.sum() == draws
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_operation_kind_uniformity_chi_square(darts):
    rng = stream(13, "sampling")
    kinds = ("linear", "identity", "zero")
    counts = dict.fromkeys(kinds, 0)
    draws = 10_000
    for _ in range(draws):
        v = sample_operation_variant(darts, kinds, rng)
        counts[v.nodes[0].ops[0].kind] += 1
    _, p = stats.chisquare([counts[k] for k in kinds])
    assert p > 0.01


def test_rank_variants_fig2_ordering():
    names = ["darts_conn3", "darts_conn4", "darts_conn1", "darts_conn2", "darts"]
    ranked = rank_variants([load_fixture(n) for n in names])
    assert [g.name for g in ranked] == [
        "darts_conn3", "darts_conn4", "darts_conn1", "darts_conn2", "darts",
    ]


def test_rank_single(darts):
    assert rank_variants([darts]) == [darts]


def test_spec_validation(darts):
    with pytest.raises(ValueError):
        sample_variants(darts, "mutation", 1, 0)
    with pytest.raises(ValueError):
        sample_variants(darts, "connection", 0, 0)
    with pytest.raises(ValueError):
        sample_variants(darts, "operation", 1, 0)
