import json
from pathlib import Path

import pytest

from cellscape import (
    CellGenotype,
    NodeSpec,
    OpSpec,
    adapt_to_widest_shallowest,
    load_fixture,
    load_genotype,
    save_genotype,
)
from cellscape.errors import (
    EmptyConcat,
    ForwardReference,
    InvalidArity,
    ParseError,
    UnknownOperationKind,
    UnsupportedInputCount,
)
from cellscape.genotype import FIXTURE_NAMES, genotype_from_dict, genotype_to_dict
from conftest import all_input_cell, chain_cell, edges, rewire_to_chain


def test_darts_fixture_is_valid(darts):
    assert darts.num_inputs == 2
    assert len(darts.nodes) == 4
    # every intermediate node has in-degree M
    for i in range(len(darts.nodes)):
        assert [dst for _, dst in edges(darts)].count(2 + i) == 2


def test_all_fixtures_load_and_validate():
    # loading builds each CellGenotype, which validates it
    for name in FIXTURE_NAMES:
        g = load_fixture(name)
        assert g.name == name


FIXTURES = Path(__file__).resolve().parents[1] / "src" / "cellscape" / "fixtures"


def test_unknown_fixture():
    with pytest.raises(ParseError) as info:
        load_fixture("nope")
    assert str(info.value) == f"unknown fixture 'nope'; available: {', '.join(FIXTURE_NAMES)}"


def test_fixture_names_are_the_bundled_files():
    assert len(FIXTURE_NAMES) == len(set(FIXTURE_NAMES))
    assert set(FIXTURE_NAMES) == {p.stem for p in FIXTURES.glob("*.json")}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_is_read_like_any_genotype_file(name):
    assert load_fixture(name) == load_genotype(FIXTURES / f"{name}.json")


def test_forward_reference_rejected():
    with pytest.raises(ForwardReference):
        CellGenotype(
            name="bad",
            num_inputs=2,
            nodes=(NodeSpec((OpSpec("linear", 0), OpSpec("linear", 3))),),
        )


def test_self_reference_rejected():
    with pytest.raises(ForwardReference):
        CellGenotype(
            name="bad",
            num_inputs=2,
            nodes=(NodeSpec((OpSpec("linear", 0), OpSpec("linear", 2))),),
        )


def test_wrong_arity_rejected():
    with pytest.raises(InvalidArity):
        CellGenotype(name="bad", num_inputs=2, nodes=(NodeSpec((OpSpec("linear", 0),)),))


def test_unknown_operation_rejected():
    with pytest.raises(UnknownOperationKind):
        CellGenotype(
            name="bad",
            num_inputs=2,
            nodes=(NodeSpec((OpSpec("conv3x3", 0), OpSpec("linear", 1))),),
        )


def test_empty_nodes_means_empty_concat():
    with pytest.raises(EmptyConcat):
        CellGenotype(name="empty", num_inputs=2, nodes=())


def test_concat_out_of_range():
    with pytest.raises(EmptyConcat):
        CellGenotype(
            name="bad",
            num_inputs=2,
            nodes=(NodeSpec((OpSpec("linear", 0), OpSpec("linear", 1))),),
            concat=(5,),
        )


def test_concat_defaults_to_all_intermediates(darts):
    assert darts.concat == (2, 3, 4, 5)


def test_total_nodes(darts):
    # N = M + n + 1
    assert darts.total_nodes == 7


def test_roundtrip_dict(darts):
    assert genotype_from_dict(genotype_to_dict(darts)) == darts


def test_roundtrip_file(tmp_path, darts):
    path = tmp_path / "darts.json"
    save_genotype(darts, path)
    assert load_genotype(path) == darts


def test_load_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_genotype(path)


def test_load_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x"}))
    with pytest.raises(ParseError):
        load_genotype(path)


def test_chain_cell_structure():
    assert edges(chain_cell(3)) == [(0, 2), (1, 2), (2, 3), (0, 3), (3, 4), (0, 4)]


def test_all_input_cell_structure():
    assert edges(all_input_cell(3)) == [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)]


@pytest.mark.parametrize("n", [1, 2, 4])
def test_rewirings_map_extreme_cells_onto_each_other(n):
    assert rewire_to_chain(all_input_cell(n)).nodes == chain_cell(n).nodes
    assert adapt_to_widest_shallowest(chain_cell(n)).nodes == all_input_cell(n).nodes


@pytest.mark.parametrize("num_inputs", [1, 3])
def test_chain_cell_needs_two_inputs(num_inputs):
    # both are rewirings of a cell with two input nodes
    with pytest.raises(UnsupportedInputCount):
        chain_cell(3, num_inputs=num_inputs)
    with pytest.raises(UnsupportedInputCount):
        all_input_cell(3, num_inputs=num_inputs)


@pytest.mark.parametrize("rewiring", [rewire_to_chain, adapt_to_widest_shallowest])
def test_rewiring_rejects_a_node_with_extra_ops(rewiring, darts):
    # a third op has no source in a two-input rewiring; it must not be dropped.
    # Such a cell cannot be built, so no rewiring sees one, and a rewiring of
    # a valid cell keeps every op
    with pytest.raises(InvalidArity):
        rewiring(CellGenotype("odd", 2, (
            NodeSpec((OpSpec("linear", 0), OpSpec("linear", 1), OpSpec("identity", 0))),
            NodeSpec((OpSpec("linear", 0), OpSpec("linear", 2))),
        )))
    assert [[op.kind for op in node.ops] for node in rewiring(darts).nodes] == \
        [[op.kind for op in node.ops] for node in darts.nodes]
