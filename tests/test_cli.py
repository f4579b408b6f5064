import json
import math
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cellscape import (
    CellGenotype,
    CellNetwork,
    NetworkConfig,
    NodeSpec,
    OpSpec,
    load_fixture,
    save_genotype,
)
from cellscape.artifacts import typed, write_bytes, write_csv, write_json
from cellscape.cli import main
from cellscape.errors import ParseError
from cellscape.genotype import genotype_to_dict
from cellscape.linear_theory import random_model, verify_block_smoothness, verify_gradient_variance
from cellscape.rng import stream
from conftest import rewire_to_chain


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cellscape.cli", *map(str, args)],
        capture_output=True, text=True,
    )


@pytest.fixture
def darts_file(tmp_path):
    path = tmp_path / "darts.json"
    save_genotype(load_fixture("darts"), path)
    return path


@pytest.fixture
def tiny_spec(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({
        "kind": "gaussian-mixture", "dim": 5, "num_classes": 3,
        "train_size": 60, "test_size": 24, "noise": 1.0, "radius": 8.0,
        "seed": 0,
    }))
    return path


# --- analyze --------------------------------------------------------------


def test_analyze_darts(darts_file):
    res = run_cli("analyze", "--genotype", darts_file)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["width_in_c"] == "7/2"
    assert doc["width_in_c_float"] == 3.5
    assert doc["depth"] == 3
    assert doc["N"] == 7 and doc["M"] == 2 and doc["n"] == 4
    assert doc["is_extremal"] is False


def test_analyze_snas_extremal(tmp_path):
    path = tmp_path / "snas.json"
    save_genotype(load_fixture("snas"), path)
    res = run_cli("analyze", "--genotype", path)
    doc = json.loads(res.stdout)
    assert doc["is_extremal"] is True


def test_analyze_malformed_json_exit_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    res = run_cli("analyze", "--genotype", path)
    assert res.returncode == 1


# each command that reads a genotype file, given the file, the dataset spec
# and a path it must not create
GENOTYPE_COMMANDS = {
    "analyze": lambda g, spec, out: ["analyze", "--genotype", g, "--out", out],
    "variants": lambda g, spec, out: ["variants", "--genotype", g, "--mode", "connection",
                                      "--out", out],
    "count-enumerate": lambda g, spec, out: ["count", "--nodes", 7, "--enumerate",
                                             "--genotype", g],
    "adapt": lambda g, spec, out: ["adapt", "--genotype", g, "--out", out],
    "train": lambda g, spec, out: ["train", "--genotype", g, "--dataset-spec", spec,
                                   "--layers", 1, "--dim", 5, "--epochs", 1, "--out-dir", out],
    "compare": lambda g, spec, out: ["compare", "--genotypes", g.parent, "--dataset-spec", spec,
                                     "--layers", 1, "--dim", 5, "--seeds", 1, "--epochs", 1,
                                     "--out", out / "report.json"],
    "landscape": lambda g, spec, out: ["landscape", "--checkpoint", g.parent / "none.ckpt",
                                       "--genotype", g, "--dataset-spec", spec,
                                       "--out", out / "grid.json"],
}


@pytest.mark.parametrize("command", GENOTYPE_COMMANDS)
def test_invalid_genotype_exit_2(command, tiny_spec, tmp_path):
    # node 2 sources node 9, or the output averages node 3 twice; compare's
    # directory also holds a valid darts
    gdir = tmp_path / "gens"
    gdir.mkdir()
    save_genotype(load_fixture("darts"), gdir / "darts.json")
    path = gdir / "bad.json"
    node = {"ops": [{"kind": "linear", "source": 0}, {"kind": "linear", "source": 1}]}
    forward = {"ops": [{"kind": "linear", "source": 0}, {"kind": "linear", "source": 9}]}
    for nodes, concat in (([forward], [2]), ([node, node], [3, 3, 2])):
        path.write_text(json.dumps({"name": "bad", "num_inputs": 2, "nodes": nodes,
                                    "concat": concat}))
        out = tmp_path / "out"
        res = run_cli(*GENOTYPE_COMMANDS[command](path, tiny_spec, out))
        assert res.returncode == 2, concat
        assert one_line(res.stderr) and res.stderr.startswith("validation error:"), res.stderr
        assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("source", 1.9), ("source", True), ("concat", 3.7), ("name", 7), ("kind", 1),
    ("num_inputs", True), ("num_inputs", 2.0),
])
def test_analyze_mistyped_genotype_field_exit_1(tmp_path, field, value):
    # integer fields take JSON integers only (true is not one), name and kind strings
    doc = genotype_to_dict(load_fixture("darts"))
    if field in ("source", "kind"):
        doc["nodes"][0]["ops"][0][field] = value
    elif field == "concat":
        doc["concat"][0] = value
    else:
        doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    res = run_cli("analyze", "--genotype", path)
    assert res.returncode == 1
    assert one_line(res.stderr) and res.stderr.startswith("parse error:"), res.stderr
    assert field in res.stderr


def test_missing_required_flag_exit_1():
    res = run_cli("analyze")
    assert res.returncode == 1


# --- variants and count ---------------------------------------------------


def test_variants_writes_files_and_manifest(darts_file, tmp_path):
    out = tmp_path / "vars"
    res = run_cli("variants", "--genotype", darts_file, "--mode", "connection",
                  "--count", 4, "--seed", 3, "--out", out)
    assert res.returncode == 0
    files = sorted(p.name for p in out.glob("variant_*.json"))
    assert files == [f"variant_{i:03d}.json" for i in range(4)]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rng_algorithm"] == "pcg64"
    assert manifest["seeds"] == [3]
    assert sorted(manifest["artifacts"]) == files
    assert len(manifest["variants"]) == 4
    for entry in manifest["variants"]:
        assert "width_in_c" in entry and "depth" in entry


def test_variants_reproducible(darts_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        res = run_cli("variants", "--genotype", darts_file, "--mode", "connection",
                      "--count", 5, "--seed", 11, "--out", out)
        assert res.returncode == 0
    for i in range(5):
        name = f"variant_{i:03d}.json"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_variants_unknown_op_creates_no_out_dir(darts_file, tmp_path):
    res = run_cli("variants", "--genotype", darts_file, "--mode", "operation",
                  "--ops", "linear,bogus", "--out", tmp_path / "new" / "dir")
    assert res.returncode == 2
    assert one_line(res.stderr), res.stderr
    assert list(tmp_path.iterdir()) == [darts_file]


def test_count_formula():
    res = run_cli("count", "--nodes", 7, "--inputs", 2)
    assert res.returncode == 0
    assert "120" in res.stdout


def test_count_with_enumeration(darts_file):
    res = run_cli("count", "--nodes", 7, "--inputs", 2, "--enumerate",
                  "--genotype", darts_file)
    assert res.returncode == 0
    assert "raw" in res.stdout and "deduplicated" in res.stdout
    assert "120" in res.stdout


@pytest.mark.parametrize(
    "num_inputs, nodes, raw, dedup, formula",
    [(2, 6, 25_401_600, 1_587_600, 5_040), (3, 5, 16_003_008_000, 32_928_000, 2_520)],
    ids=["6 nodes", "5 nodes of 3 inputs"])
def test_count_enumerate_large_cell(tmp_path, num_inputs, nodes, raw, dedup, formula):
    # every node takes one linear op from each input node
    ops = tuple(OpSpec("linear", j) for j in range(num_inputs))
    path = tmp_path / "wide.json"
    save_genotype(CellGenotype("wide", num_inputs, (NodeSpec(ops),) * nodes), path)
    res = run_cli("count", "--nodes", 9, "--inputs", num_inputs, "--enumerate",
                  "--genotype", path)
    assert res.returncode == 0, res.stderr
    assert res.stdout == (
        f"formula (N-2)!/(M-1)! for N=9, M={num_inputs}: {formula}\n"
        f"slot assignments (raw): {raw}\n"
        f"slot assignments (deduplicated): {dedup}\n"
        f"formula for this genotype's (N=9, M={num_inputs}): {formula}\n"
    )


def test_count_enumerate_without_genotype_exit_1():
    res = run_cli("count", "--nodes", 7, "--enumerate")
    assert res.returncode == 1


def test_count_invalid_space_exit_2():
    res = run_cli("count", "--nodes", 3, "--inputs", 2)
    assert res.returncode == 2


@pytest.mark.parametrize("nodes", [2000, 3_000_000])
def test_count_too_long_to_print_exit_2(nodes):
    # (N-2)! has more digits than Python converts to a string; the count is
    # refused before it is computed, so a huge N returns at once
    res = run_cli("count", "--nodes", nodes)
    assert res.returncode == 2
    assert res.stdout == ""
    assert one_line(res.stderr) and res.stderr.startswith("validation error:"), res.stderr
    assert "digits" in res.stderr


def test_count_formula_of_many_inputs_is_quick():
    # (N-2)!/(M-1)! is the product (N-2)...(M): one factor here, no factorials
    res = subprocess.run([sys.executable, "-m", "cellscape.cli", "count",
                          "--nodes", "3000000", "--inputs", "2999998"],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0
    assert res.stdout == "formula (N-2)!/(M-1)! for N=3000000, M=2999998: 2999998\n"


def test_count_enumerate_too_long_to_print_exit_2(tmp_path):
    # 50 inputs and 50 nodes: raw = prod (50 + i)^50 has about 4600 digits
    ops = tuple(OpSpec("linear", j) for j in range(50))
    path = tmp_path / "huge.json"
    save_genotype(CellGenotype("huge", 50, (NodeSpec(ops),) * 50), path)
    res = run_cli("count", "--nodes", 7, "--enumerate", "--genotype", path)
    assert res.returncode == 2
    assert res.stdout == "formula (N-2)!/(M-1)! for N=7, M=2: 120\n"
    assert one_line(res.stderr) and res.stderr.startswith("validation error:"), res.stderr
    assert "huge's raw slot-assignment count" in res.stderr


# --- theory ---------------------------------------------------------------


def test_theory_report_and_exit_code(tmp_path):
    out = tmp_path / "theory" / "report.json"
    res = run_cli("theory", "--n", 3, "--dim", 4, "--trials", 30,
                  "--samples", 300, "--instances", 2, "--seed", 0, "--out", out)
    doc = json.loads(out.read_text())
    assert doc["instances"] == 2
    assert len(doc["results"]) == 2
    if doc["violation_count"]:
        assert res.returncode == 4
        inst = doc["violations"][0]
        # violating instance is serialized completely
        assert len(inst["weights"]) == 3
        assert len(inst["input"]) == 4
    else:
        assert res.returncode == 0
    manifest = json.loads((out.parent / "manifest.json").read_text())
    assert manifest["violation_count"] == doc["violation_count"]


def test_theory_report_follows_one_stream(tmp_path):
    # the report rebuilt from one stream(seed, "theory"): per instance the
    # model, then its input, then per block the variance check's input rows;
    # the smoothness check draws nothing, and --trials changes nothing
    n, dim, trials, samples, instances, seed, scale = 3, 4, 20, 50, 2, 7, 1.5
    out = tmp_path / "theory" / "report.json"
    res = run_cli("theory", "--n", n, "--dim", dim, "--trials", trials, "--samples", samples,
                  "--instances", instances, "--seed", seed, "--scale", scale, "--out", out)
    rng = stream(seed, "theory")
    results, violations = [], []
    for inst in range(instances):
        model = random_model(n, dim, rng, scale=scale)
        x = rng.standard_normal(dim)
        blocks = []
        for i in range(1, n + 1):
            smooth = verify_block_smoothness(model, x, i)
            var = verify_gradient_variance(model, i, rng.standard_normal((samples, dim)))
            blocks.append({"block": i, "lambda": smooth["lambdas"][i - 1],
                           "smoothness": smooth, "variance": var})
            if smooth["violated"] or var["violated"]:
                violations.append({"instance": inst, "block": i,
                                   "weights": [w.tolist() for w in model.weights],
                                   "targets": [t.tolist() for t in model.targets],
                                   "input": x.tolist()})
        results.append({"instance": inst, "blocks": blocks})
    expected = tmp_path / "expected.json"
    write_json(expected, {
        "n": n, "dim": dim, "samples": samples, "instances": instances,
        "seed": seed, "scale": scale, "results": results,
        "violation_count": len(violations), "violations": violations,
    })
    assert violations and res.returncode == 4
    assert out.read_bytes() == expected.read_bytes()
    other = tmp_path / "other" / "report.json"
    run_cli("theory", "--n", n, "--dim", dim, "--trials", 1, "--samples", samples,
            "--instances", instances, "--seed", seed, "--scale", scale, "--out", other)
    assert other.read_bytes() == expected.read_bytes()


# --- train / compare ------------------------------------------------------


def test_train_artifacts(darts_file, tiny_spec, tmp_path):
    out = tmp_path / "run"
    res = run_cli("train", "--genotype", darts_file, "--layers", 1, "--dim", 5,
                  "--lr", 0.025, "--epochs", 2, "--seed", 0,
                  "--dataset-spec", tiny_spec, "--out-dir", out)
    assert res.returncode == 0, res.stderr
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,train_loss,test_loss,test_acc"
    assert len(lines) == 1 + 3  # initial row + 2 epochs
    net = CellNetwork(load_fixture("darts"),
                      NetworkConfig(layers=1, dim=5, num_classes=3, input_dim=5))
    params = net.layout.load(out / "final.ckpt")
    assert "stem.w" in net.layout.blocks and params.shape == (net.layout.size,)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diverged"] is False
    assert manifest["command"] == "train"


def test_train_reproducible_artifacts(darts_file, tiny_spec, tmp_path):
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        res = run_cli("train", "--genotype", darts_file, "--layers", 1,
                      "--dim", 5, "--epochs", 2, "--seed", 5,
                      "--dataset-spec", tiny_spec, "--out-dir", out)
        assert res.returncode == 0
    assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()
    assert (outs[0] / "final.ckpt").read_bytes() == (outs[1] / "final.ckpt").read_bytes()


def test_train_divergence_exit_3(tmp_path):
    # deep chain at lr 0.25 on the default-scale dataset diverges
    chain_file = tmp_path / "chain.json"
    save_genotype(rewire_to_chain(load_fixture("darts")), chain_file)
    out = tmp_path / "div"
    res = run_cli("train", "--genotype", chain_file, "--lr", 0.25,
                  "--epochs", 3, "--seed", 0, "--out-dir", out)
    assert res.returncode == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diverged"] is True
    assert manifest["divergence_epoch"] is not None


def test_train_non_finite_evaluation_is_divergence_exit_3(darts_file, tiny_spec, tmp_path):
    # one batch per epoch: the only step overflows the parameters, and the
    # epoch's test loss, not a batch loss, is the first non-finite value
    out = tmp_path / "run"
    res = run_cli("train", "--genotype", darts_file, "--dataset-spec", tiny_spec,
                  "--lr", "1e300", "--epochs", 1, "--out-dir", out)
    assert res.returncode == 3, res.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diverged"] is True and manifest["divergence_epoch"] == 1
    assert manifest["final"] == {"epoch": 1, "lr": 1e300, "train_loss": None,
                                 "test_loss": None, "test_acc": 0.0}


def test_compare_small(darts_file, tiny_spec, tmp_path):
    gdir = tmp_path / "gens"
    gdir.mkdir()
    save_genotype(load_fixture("darts"), gdir / "darts.json")
    save_genotype(load_fixture("snas"), gdir / "snas.json")
    out = tmp_path / "cmp" / "report.json"
    res = run_cli("compare", "--genotypes", gdir, "--lrs", "0.025",
                  "--seeds", 1, "--epochs", 2, "--layers", 1, "--dim", 5,
                  "--dataset-spec", tiny_spec, "--out", out)
    assert res.returncode in (0, 3)
    doc = json.loads(out.read_text())
    assert set(doc["rankings"]["0.025"]) == {"darts", "snas"}
    assert "medians" in doc


def test_compare_medians_and_rankings_match_entries(tiny_spec, tmp_path):
    # "a_twin" trains exactly as darts does, so their medians tie and the
    # name breaks the tie; a cell of zero ops never reaches the threshold
    darts = load_fixture("darts")
    dead = CellGenotype(name="dead", num_inputs=2, concat=darts.concat, nodes=[
        NodeSpec([OpSpec("zero", op.source) for op in node.ops]) for node in darts.nodes])
    twin = CellGenotype(name="a_twin", num_inputs=2, nodes=darts.nodes, concat=darts.concat)
    gdir = tmp_path / "gens"
    gdir.mkdir()
    for g in (darts, dead, twin):
        save_genotype(g, gdir / f"{g.name}.json")
    out = tmp_path / "cmp" / "report.json"
    res = run_cli("compare", "--genotypes", gdir, "--lrs", "0.1,0.3", "--seeds", 2,
                  "--epochs", 4, "--layers", 1, "--dim", 5, "--dataset-spec", tiny_spec,
                  "--out", out)
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    names = ["a_twin", "darts", "dead"]
    assert sorted(doc["rankings"]) == sorted(doc["medians"]) == ["0.1", "0.3"]
    for key in doc["rankings"]:
        medians = {}
        for name in names:
            epochs = sorted(math.inf if e["epochs_to_threshold"] is None
                            else e["epochs_to_threshold"] for e in doc["entries"]
                            if e["genotype"] == name and repr(e["lr"]) == key)
            assert len(epochs) == 2
            medians[name] = (epochs[0] + epochs[1]) / 2
        assert doc["medians"][key] == {
            name: None if m == math.inf else m for name, m in medians.items()}
        assert doc["rankings"][key] == sorted(names, key=lambda n: (medians[n], n))
        assert medians["a_twin"] == medians["darts"] < math.inf == medians["dead"]


def test_compare_divergence_prints_no_warnings(tmp_path):
    # the chain variant diverges at lr 0.25; non-finite losses are results
    # there, so numpy must not warn about them
    gdir = tmp_path / "gens"
    gdir.mkdir()
    for g in (load_fixture("darts"), rewire_to_chain(load_fixture("darts"))):
        save_genotype(g, gdir / f"{g.name}.json")
    out = tmp_path / "cmp" / "report.json"
    res = run_cli("compare", "--genotypes", gdir, "--lrs", "0.025,0.25",
                  "--seeds", 1, "--epochs", 1, "--out", out)
    assert res.returncode == 3
    assert "RuntimeWarning" not in res.stderr and res.stderr == "", res.stderr
    doc = json.loads(out.read_text())
    diverged = {(e["genotype"], e["lr"]) for e in doc["entries"] if e["diverged"]}
    assert ("darts_chain", 0.25) in diverged and all(lr == 0.25 for _, lr in diverged)


def test_compare_needs_two_genotypes(darts_file, tiny_spec, tmp_path):
    gdir = tmp_path / "one"
    gdir.mkdir()
    save_genotype(load_fixture("darts"), gdir / "darts.json")
    res = run_cli("compare", "--genotypes", gdir, "--out", tmp_path / "r.json",
                  "--dataset-spec", tiny_spec)
    assert res.returncode == 2


def test_compare_repeated_genotype_name_exit_2(tiny_spec, tmp_path):
    # two copies of darts would share one ranking and one median name
    gdir = tmp_path / "gens"
    gdir.mkdir()
    for copy in ("a", "b"):
        save_genotype(load_fixture("darts"), gdir / f"{copy}.json")
    save_genotype(load_fixture("snas"), gdir / "snas.json")
    out = tmp_path / "cmp"
    res = run_cli("compare", "--genotypes", gdir, "--dataset-spec", tiny_spec,
                  "--layers", 1, "--dim", 5, "--seeds", 1, "--epochs", 1,
                  "--out", out / "report.json")
    assert res.returncode == 2
    assert one_line(res.stderr) and res.stderr.startswith("validation error:"), res.stderr
    assert "['darts']" in res.stderr
    assert not out.exists()


# --- landscape ------------------------------------------------------------


def test_landscape_csv(darts_file, tiny_spec, tmp_path):
    out = tmp_path / "run"
    run_cli("train", "--genotype", darts_file, "--layers", 1, "--dim", 5,
            "--epochs", 1, "--dataset-spec", tiny_spec, "--out-dir", out)
    grid_file = tmp_path / "land" / "grid.csv"
    res = run_cli("landscape", "--checkpoint", out / "final.ckpt",
                  "--genotype", darts_file, "--dataset-spec", tiny_spec,
                  "--mode", "loss", "--grid", 3, "--range", 0.5,
                  "--layers", 1, "--dim", 5, "--subset", 8, "--out", grid_file)
    assert res.returncode == 0, res.stderr
    lines = grid_file.read_text().strip().splitlines()
    assert len(lines) == 1 + 9


def test_landscape_json_gradvar(darts_file, tiny_spec, tmp_path):
    out = tmp_path / "run"
    run_cli("train", "--genotype", darts_file, "--layers", 1, "--dim", 5,
            "--epochs", 1, "--dataset-spec", tiny_spec, "--out-dir", out)
    grid_file = tmp_path / "land" / "grid.json"
    res = run_cli("landscape", "--checkpoint", out / "final.ckpt",
                  "--genotype", darts_file, "--dataset-spec", tiny_spec,
                  "--mode", "gradvar", "--grid", 3, "--range", 0.25,
                  "--layers", 1, "--dim", 5, "--subset", 5, "--out", grid_file)
    assert res.returncode == 0, res.stderr
    doc = json.loads(grid_file.read_text())
    assert doc["kind"] == "gradvar"
    assert np.all(np.array(doc["values"], dtype=float) >= 0.0)


def test_landscape_reproducible(darts_file, tiny_spec, tmp_path):
    out = tmp_path / "run"
    run_cli("train", "--genotype", darts_file, "--layers", 1, "--dim", 5,
            "--epochs", 1, "--dataset-spec", tiny_spec, "--out-dir", out)
    grids = [tmp_path / "l1" / "g.csv", tmp_path / "l2" / "g.csv"]
    for grid_file in grids:
        res = run_cli("landscape", "--checkpoint", out / "final.ckpt",
                      "--genotype", darts_file, "--dataset-spec", tiny_spec,
                      "--grid", 3, "--range", 0.5, "--layers", 1, "--dim", 5,
                      "--subset", 8, "--seed", 2, "--out", grid_file)
        assert res.returncode == 0
    assert grids[0].read_bytes() == grids[1].read_bytes()


@pytest.fixture
def darts_ckpt(tmp_path):
    """Initial darts parameters at the tiny spec's sizes, layers 1, dim 5."""
    cfg = NetworkConfig(layers=1, dim=5, num_classes=3, input_dim=5)
    net = CellNetwork(load_fixture("darts"), cfg)
    path = tmp_path / "init.ckpt"
    net.layout.save(net.init_params(stream(0, "init")), path)
    return path


def tiny_landscape(ckpt, genotype, spec, out, *extra):
    return run_cli("landscape", "--checkpoint", ckpt, "--genotype", genotype,
                   "--dataset-spec", spec, "--grid", 3, "--layers", 1, "--dim", 5,
                   "--subset", 8, "--out", out, *extra)


def one_line(stderr):
    return len(stderr.strip().splitlines()) == 1 and "Traceback" not in stderr


def with_first_block(raw, key, value):
    """Checkpoint bytes raw with its first header block's key set to value."""
    (header_len,) = struct.unpack_from("<I", raw)
    header = json.loads(raw[4:4 + header_len])
    header[0][key] = value
    head = json.dumps(header).encode()
    return struct.pack("<I", len(head)) + head + raw[4 + header_len:]


@pytest.mark.parametrize("damage", ["short header", "bad json", "short payload",
                                    "trailing values", "false offset", "true in shape"])
def test_landscape_malformed_checkpoint_exit_1(darts_file, tiny_spec, darts_ckpt,
                                               tmp_path, damage):
    # the first block's offset is 0, so a JSON false there equals it in Python
    raw = darts_ckpt.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes({
        "short header": raw[:3],
        "bad json": raw[:4] + b"[{oops" + raw[10:],
        "short payload": raw[:-16],
        "trailing values": raw + np.ones(5, dtype="<f8").tobytes(),
        "false offset": with_first_block(raw, "offset", False),
        "true in shape": with_first_block(raw, "shape", [True, 5]),
    }[damage])
    res = tiny_landscape(bad, darts_file, tiny_spec, tmp_path / "g.csv")
    assert res.returncode == 1
    assert one_line(res.stderr) and res.stderr.startswith("parse error:"), res.stderr
    assert not (tmp_path / "g.csv").exists()


def test_landscape_checkpoint_of_other_genotype_exit_2(darts_ckpt, tiny_spec, tmp_path):
    nasnet = tmp_path / "nasnet.json"
    save_genotype(load_fixture("nasnet"), nasnet)
    res = tiny_landscape(darts_ckpt, nasnet, tiny_spec, tmp_path / "g.csv")
    assert res.returncode == 2
    assert one_line(res.stderr) and "checkpoint blocks" in res.stderr, res.stderr
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("written_for, cut, code", [
    ("nasnet", 16, 1),  # truncated and another network's: the parse error comes first
    ("nasnet", 0, 2),
    ("darts", 16, 1),
], ids=["truncated other network", "intact other network", "truncated own network"])
def test_landscape_checkpoint_checks_in_order(darts_file, tiny_spec, tmp_path,
                                               written_for, cut, code):
    cfg = NetworkConfig(layers=1, dim=5, num_classes=3, input_dim=5)
    net = CellNetwork(load_fixture(written_for), cfg)
    path = tmp_path / "model.ckpt"
    net.layout.save(net.init_params(stream(0, "init")), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - cut])
    res = tiny_landscape(path, darts_file, tiny_spec, tmp_path / "g.csv")
    assert res.returncode == code
    assert one_line(res.stderr), res.stderr
    assert res.stderr.startswith("parse error:") == (code == 1), res.stderr
    assert ("checkpoint blocks" in res.stderr) == (code == 2), res.stderr


def test_landscape_overflow_points_tagged(darts_file, tiny_spec, darts_ckpt, tmp_path):
    # unnormalised directions scaled by 1e200 overflow every point but the
    # centre, which is the checkpoint itself
    values = {}
    for fmt in ("csv", "json"):
        out = tmp_path / fmt / f"grid.{fmt}"
        res = tiny_landscape(darts_ckpt, darts_file, tiny_spec, out,
                             "--norm", "none", "--range", "1e200")
        assert res.returncode == 0, res.stderr
        values[fmt] = out
    rows = [line.split(",") for line in values["csv"].read_text().splitlines()[1:]]
    doc = strict_json(values["json"])
    for i, (alpha, beta, value) in enumerate(rows):
        a, b = divmod(i, 3)
        if alpha == beta == "0.0":
            assert np.isfinite(float(value)) and doc["overflow"][a][b] is False
            assert doc["values"][a][b] == float(value)
        else:
            assert value in ("inf", "-inf", "nan")
            assert doc["overflow"][a][b] is True and doc["values"][a][b] is None


def test_landscape_overflow_prints_no_warnings(darts_file, tiny_spec, darts_ckpt, tmp_path):
    res = tiny_landscape(darts_ckpt, darts_file, tiny_spec, tmp_path / "g.csv",
                         "--norm", "none", "--range", "1e200")
    assert res.returncode == 0
    assert "RuntimeWarning" not in res.stderr and res.stderr == "", res.stderr


def test_landscape_out_below_a_file_exit_2(darts_file, tiny_spec, darts_ckpt, tmp_path):
    (tmp_path / "file").write_text("")
    res = tiny_landscape(darts_ckpt, darts_file, tiny_spec, tmp_path / "file" / "g.csv")
    assert res.returncode == 2
    assert one_line(res.stderr), res.stderr


def landscape_main(capsys, tmp_path, genotype, spec, *extra):
    """``landscape`` through ``cli.main`` at layers 1, dim 2 and subset 1, with
    numpy's warnings made errors: its exit code, stderr and grid file."""
    cfg = NetworkConfig(layers=1, dim=2, num_classes=3, input_dim=5)
    net = CellNetwork(load_fixture("darts"), cfg)
    ckpt = tmp_path / "dim2.ckpt"
    net.layout.save(net.init_params(stream(0, "init")), ckpt)
    out = tmp_path / "land" / "grid.csv"
    argv = ["landscape", "--checkpoint", ckpt, "--genotype", genotype, "--dataset-spec", spec,
            "--layers", 1, "--dim", 2, "--subset", 1, "--out", out, *extra]
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exit_:
        warnings.simplefilter("error")
        main([str(a) for a in argv])
    return exit_.value.code, capsys.readouterr().err, out


@pytest.mark.parametrize("extra, points", [(["--grid", 99], 99), (["--range", 0.9], 41)],
                         ids=["grid 99", "range 0.9"])
def test_landscape_centre_is_exactly_zero(darts_file, tiny_spec, tmp_path, capsys,
                                          extra, points):
    # linspace misses 0 by an ulp at both; the centre is set to 0
    code, err, out = landscape_main(capsys, tmp_path, darts_file, tiny_spec, *extra)
    assert code == 0 and err == "", err
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == points * points
    centre = points // 2
    assert rows[centre * points + centre][:2] == ["0.0", "0.0"]
    assert all(rows[centre * points + b][0] == "0.0" for b in range(points))


@pytest.mark.parametrize("extra", [["--range", "5e-324"], ["--grid", 5, "--range", "1e308"]],
                         ids=["coordinates collapse", "coordinates overflow"])
def test_landscape_range_without_a_grid_exit_2(darts_file, tiny_spec, tmp_path, capsys,
                                               extra):
    code, err, out = landscape_main(capsys, tmp_path, darts_file, tiny_spec, *extra)
    assert code == 2
    assert one_line(err) and err.startswith("validation error:"), err
    assert not out.parent.exists()


# --- numeric flags out of range -------------------------------------------


@pytest.mark.parametrize("command, flag, value", [
    ("theory", "--n", 0), ("theory", "--dim", 0), ("theory", "--trials", 0),
    ("train", "--layers", 0), ("train", "--dim", 1),
    ("compare", "--layers", 0), ("compare", "--dim", 1),
    ("landscape", "--layers", 0), ("landscape", "--dim", 1),
    ("train", "--batch-size", 0), ("train", "--epochs", -1), ("train", "--lr", -1),
    ("compare", "--seeds", 0), ("compare", "--epochs", -1),
    ("landscape", "--range", 0), ("landscape", "--subset", 0), ("landscape", "--grid", 2),
    ("variants", "--count", -1),
    ("train", "--lr", "nan"), ("train", "--lr", "inf"),
    ("compare", "--lrs", "x"), ("compare", "--lrs", "-0.1"), ("compare", "--lrs", "0.025,nan"),
    ("landscape", "--range", "inf"),
    ("theory", "--instances", 0), ("theory", "--instances", -1),
    ("compare", "--threshold", "nan"), ("compare", "--threshold", "inf"),
    ("compare", "--lrs", "0.025,0.025"),
    ("theory", "--samples", 1), ("theory", "--scale", "nan"), ("theory", "--scale", "inf"),
    ("theory", "--seed", -1), ("train", "--seed", -1), ("variants", "--seed", -1),
    ("landscape", "--seed", -1),
])
def test_numeric_flag_out_of_range_exit_1(darts_file, tiny_spec, darts_ckpt, tmp_path,
                                          command, flag, value):
    gdir = tmp_path / "gens"
    gdir.mkdir()
    for name in ("darts", "snas"):
        save_genotype(load_fixture(name), gdir / f"{name}.json")
    out = tmp_path / "out"
    net = ["--dataset-spec", tiny_spec, "--layers", 1, "--dim", 5]
    valid = {
        "theory": ["--instances", 1, "--trials", 2, "--samples", 10, "--out", out / "r.json"],
        "train": ["--genotype", darts_file, *net, "--epochs", 1, "--out-dir", out],
        "compare": ["--genotypes", gdir, *net, "--seeds", 1, "--epochs", 1,
                    "--out", out / "r.json"],
        "landscape": ["--checkpoint", darts_ckpt, "--genotype", darts_file, *net,
                      "--grid", 3, "--subset", 8, "--out", out / "g.csv"],
        "variants": ["--genotype", darts_file, "--mode", "connection", "--out", out],
    }[command]
    # the flag comes last, so it overrides the valid value given before it
    res = run_cli(command, *valid, flag, value)
    assert res.returncode == 1
    assert one_line(res.stderr) and res.stderr.startswith("error:"), res.stderr
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("dim", "2.5"), ("train_size", "true"), ("num_classes", "4.0"), ("seed", '"0"'),
    ("noise", "NaN"), ("radius", "Infinity"), ("noise", "false"), ("radius", '"8"'),
    ("seed", "-1"),
], ids=["fractional dim", "boolean train_size", "float num_classes", "text seed",
        "nan noise", "infinite radius", "boolean noise", "text radius", "negative seed"])
def test_bad_dataset_spec_field_exit_2(darts_file, tmp_path, field, value):
    # json.load reads NaN and Infinity, so only the spec's own check stops them
    spec = tmp_path / "data.json"
    spec.write_text(f'{{"{field}": {value}}}')
    res = run_cli("train", "--genotype", darts_file, "--dataset-spec", spec, "--epochs", 1,
                  "--layers", 1, "--dim", 4, "--out-dir", tmp_path / "out")
    assert res.returncode == 2
    assert one_line(res.stderr) and res.stderr.startswith("validation error:"), res.stderr
    assert field in res.stderr and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "compare", "landscape"])
def test_overflowing_dataset_spec_exit_2(darts_file, darts_ckpt, tmp_path, command):
    # noise 1e308 overflows the points to inf; 1e200 keeps them finite, and
    # training on them is a legitimate diverging run
    gdir = tmp_path / "gens"
    gdir.mkdir()
    for name in ("darts", "snas"):
        save_genotype(load_fixture(name), gdir / f"{name}.json")
    out = tmp_path / "out"

    def run(noise):
        spec = tmp_path / "data.json"
        spec.write_text(json.dumps({"dim": 5, "num_classes": 3, "train_size": 60,
                                    "test_size": 24, "noise": noise, "radius": 8.0}))
        net = ["--dataset-spec", spec, "--layers", 1, "--dim", 5]
        return run_cli(command, *{
            "train": ["--genotype", darts_file, *net, "--epochs", 1, "--out-dir", out],
            "compare": ["--genotypes", gdir, *net, "--seeds", 1, "--epochs", 1,
                        "--out", out / "r.json"],
            "landscape": ["--checkpoint", darts_ckpt, "--genotype", darts_file, *net,
                          "--grid", 3, "--subset", 8, "--out", out / "g.csv"],
        }[command])

    res = run(1e308)
    assert res.returncode == 2
    assert one_line(res.stderr) and res.stderr.startswith("validation error:"), res.stderr
    assert "RuntimeWarning" not in res.stderr and not out.exists()
    if command == "train":
        assert run(1e200).returncode == 3


# --- JSON artifacts and manifests -----------------------------------------


def strict_json(path):
    """path's JSON, refusing the non-standard constants Infinity and NaN."""
    def reject(constant):
        raise ValueError(f"{path} holds {constant}")
    return json.loads(path.read_text(), parse_constant=reject)


def rows_failing_at(n):
    for i in range(n):
        yield [float(i)]
    raise ZeroDivisionError("row source failed")


@pytest.mark.parametrize("write", [
    lambda path: write_json(path, {"a": 1.0, "b": object()}),
    lambda path: write_csv(path, ["a"], rows_failing_at(2)),
    lambda path: write_bytes(path, "text, not bytes"),
], ids=["json", "csv", "bytes"])
def test_failed_write_leaves_no_partial_or_temporary_file(tmp_path, write):
    # each writer fails after its file is open, the first two after writing
    # part of it; neither the target nor a temporary file may be left behind
    path = tmp_path / "artifact"
    with pytest.raises((TypeError, ZeroDivisionError)):
        write(path)
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"earlier run")
    with pytest.raises((TypeError, ZeroDivisionError)):
        write(path)
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"earlier run"
    write_json(path, {"a": 1.0})
    assert list(tmp_path.iterdir()) == [path] and strict_json(path) == {"a": 1.0}


@pytest.mark.parametrize("value, kinds", [
    (1, (int,)), (True, (bool,)), (1, (int, float)), (0.5, (int, float)), ({}, (dict,)),
    ("", (str,)),
])
def test_typed_returns_a_value_of_its_kind(value, kinds):
    assert typed(value, kinds, "x") is value


@pytest.mark.parametrize("value, kinds", [
    (True, (int,)), (1.0, (int,)), (0, (bool,)), (True, (int, float)), (None, (int, float)),
    ([], (dict,)), (1, (str,)),
])
def test_typed_rejects_every_other_json_type(value, kinds):
    # the type must be exact: a JSON boolean is not an integer, nor is 1.0
    with pytest.raises(ParseError) as info:
        typed(value, kinds, "x")
    message = str(info.value)
    assert message.startswith("x must be a") and message.endswith(f", not {json.dumps(value)}")


@pytest.mark.parametrize("value, spelling", [(True, "true"), (None, "null"), ("1", '"1"')])
def test_typed_spells_values_as_json(value, spelling):
    # the message shows the value as the file holds it, not as Python prints it
    with pytest.raises(ParseError, match=f"^x must be an integer, not {spelling}$"):
        typed(value, (int,), "x")


def test_write_into_missing_directory_names_the_target(tmp_path):
    path = tmp_path / "missing" / "report.json"
    with pytest.raises(FileNotFoundError) as info:
        write_json(path, {})
    assert info.value.filename == str(path)


def test_diverging_runs_write_strict_json(darts_file, tiny_spec, tmp_path):
    gdir = tmp_path / "gens"
    gdir.mkdir()
    for name in ("darts", "snas"):
        save_genotype(load_fixture(name), gdir / f"{name}.json")
    net = ["--dataset-spec", tiny_spec, "--layers", 1, "--dim", 5, "--epochs", 1]
    runs = [
        (3, run_cli("compare", "--genotypes", gdir, *net, "--lrs", "1e300", "--seeds", 1,
                    "--out", tmp_path / "compare" / "report.json")),
        (3, run_cli("train", "--genotype", darts_file, *net, "--lr", "1e300",
                    "--out-dir", tmp_path / "train")),
    ]
    # at 1e154 and beyond ||W(i)|| overflows, so the perturbation pairs do too;
    # at 1e308 the weight draws themselves overflow, so each lambda is inf
    scales = {"theory": "1e120", "theory154": "1e154", "theory-200": "-1e200",
              "theory308": "1e308", "theory-308": "-1e308"}
    runs += [(4, run_cli("theory", "--scale", scale, "--instances", 1, "--trials", 5,
                         "--samples", 10, "--out", tmp_path / name / "report.json"))
             for name, scale in scales.items()]
    for code, res in runs:
        assert (res.returncode, res.stderr) == (code, ""), res.stderr
    docs = {str(p.relative_to(tmp_path)): strict_json(p) for p in tmp_path.rglob("*.json")}
    assert {"compare/report.json", "compare/manifest.json", "train/manifest.json",
            "theory/report.json", "theory/manifest.json"} <= set(docs)
    entries = docs["compare/report.json"]["entries"]
    assert all(e["diverged"] and e["area"] is None for e in entries)
    assert docs["train/manifest.json"]["final"]["test_loss"] is None
    # every block's overflowing check is a violation, not a pass
    for name in scales:
        theory = docs[f"{name}/report.json"]
        assert theory["violation_count"] == 3 == docs[f"{name}/manifest.json"]["violation_count"]
        for block in theory["results"][0]["blocks"]:
            assert block["variance"]["empirical"] is None and block["variance"]["violated"]
            assert block["smoothness"]["empirical"] is None and block["smoothness"]["violated"]


def test_manifest_flags_are_the_command_line(darts_file, tmp_path):
    out = tmp_path / "run"
    res = run_cli("train", "--genotype", darts_file, "--layers", 1, "--dim", 2,
                  "--epochs", 0, "--seed", 3, "--out-dir", out)
    assert res.returncode == 0, res.stderr
    manifest = strict_json(out / "manifest.json")
    assert manifest["command"] == "train" and manifest["seeds"] == [3]
    assert manifest["flags"] == {
        "genotype": str(darts_file), "layers": 1, "dim": 2, "dataset-spec": None,
        "lr": 0.025, "epochs": 0, "batch-size": 80, "seed": 3, "out-dir": str(out),
    }


# --- unwritable outputs ---------------------------------------------------


def test_analyze_out_in_missing_dir_exit_2(darts_file, tmp_path):
    res = run_cli("analyze", "--genotype", darts_file, "--out", tmp_path / "no" / "a.json")
    assert res.returncode == 2
    assert one_line(res.stderr), res.stderr
    assert res.stdout == ""


def test_adapt_out_in_missing_dir_exit_2(darts_file, tmp_path):
    res = run_cli("adapt", "--genotype", darts_file, "--out", tmp_path / "no" / "a.json")
    assert res.returncode == 2
    assert one_line(res.stderr), res.stderr


def test_theory_out_below_a_file_exit_2(tmp_path):
    (tmp_path / "file").write_text("")
    res = run_cli("theory", "--instances", 1, "--trials", 2, "--samples", 2,
                  "--out", tmp_path / "file" / "report.json")
    assert res.returncode == 2
    assert one_line(res.stderr), res.stderr


# --- inputs too large to allocate -----------------------------------------


def out_of_memory(message):
    """A stand-in for an allocation that numpy (or Python) cannot make."""
    def allocate(*args, **kwargs):
        raise MemoryError(message)
    return allocate


@pytest.mark.parametrize("message", [
    "Unable to allocate 447. GiB for an array with shape (60000000000,) and data type float64",
    "",
], ids=["numpy", "bare"])
def test_train_out_of_memory_exit_2(darts_file, tmp_path, monkeypatch, capsys, message):
    # train --dim 100000 --layers 1 would ask init_params for 447 GiB
    monkeypatch.setattr("cellscape.network.CellNetwork.init_params", out_of_memory(message))
    with pytest.raises(SystemExit) as exit_:
        main(["train", "--genotype", str(darts_file), "--epochs", "1",
              "--out-dir", str(tmp_path / "run")])
    assert exit_.value.code == 2
    assert capsys.readouterr().err == f"error: {message or 'out of memory'}\n"
    assert not (tmp_path / "run").exists()


def test_theory_out_of_memory_exit_2(tmp_path, monkeypatch, capsys):
    # theory --dim 100000 would ask random_model for 74.5 GiB
    message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"
    monkeypatch.setattr("cellscape.linear_theory.random_model", out_of_memory(message))
    with pytest.raises(SystemExit) as exit_:
        main(["theory", "--out", str(tmp_path / "theory" / "report.json")])
    assert exit_.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "theory").exists()


# every size here is past what numpy can index, so none is ever allocated
@pytest.mark.parametrize("args, count", [
    (["--dim", "10000000000"], 10**20),
    (["--samples", str(10**20)], 8 * 10**20),
], ids=["dim", "samples"])
def test_theory_size_past_index_limit_exit_2(tmp_path, capsys, args, count):
    with pytest.raises(SystemExit) as exit_:
        main(["theory", "--n", "1", "--instances", "1", *args,
              "--out", str(tmp_path / "theory" / "report.json")])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert f" {count} float64 values, more than numpy can index" in err
    assert not (tmp_path / "theory").exists()


@pytest.mark.parametrize("command", ["train", "compare"])
def test_network_size_past_index_limit_exit_2(tmp_path, capsys, command):
    # 10^10 x 10^10 cell weights, 6 * 10^20 parameters in all
    genotypes = tmp_path / "genotypes"
    genotypes.mkdir()
    for name in ("darts", "snas"):
        save_genotype(load_fixture(name), genotypes / f"{name}.json")
    inputs = (["--genotype", str(genotypes / "darts.json"), "--out-dir", str(tmp_path / "run")]
              if command == "train" else
              ["--genotypes", str(genotypes), "--seeds", "1",
               "--out", str(tmp_path / "run" / "report.json")])
    with pytest.raises(SystemExit) as exit_:
        main([command, *inputs, "--dim", "10000000000", "--layers", "1", "--epochs", "1"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: the parameters would be ")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


# --- adapt / report -------------------------------------------------------


def test_adapt_darts(darts_file, tmp_path):
    out = tmp_path / "adapted.json"
    res = run_cli("adapt", "--genotype", darts_file, "--out", out)
    assert res.returncode == 0
    check = run_cli("analyze", "--genotype", out)
    doc = json.loads(check.stdout)
    assert doc["width_in_c"] == "4"
    assert doc["depth"] == 2
    assert doc["is_extremal"] is True


def test_adapt_invalid_genotype_exit_2(tmp_path):
    # node 2 sources node 3 and node 3 sources node 9: rewiring would hide both
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad", "num_inputs": 2,
        "nodes": [{"ops": [{"kind": "linear", "source": 3}, {"kind": "linear", "source": 0}]},
                  {"ops": [{"kind": "linear", "source": 9}, {"kind": "linear", "source": 1}]}],
        "concat": [2, 3],
    }))
    out = tmp_path / "adapted.json"
    res = run_cli("adapt", "--genotype", path, "--out", out)
    assert res.returncode == 2
    assert one_line(res.stderr) and res.stderr.startswith("validation error:"), res.stderr
    assert not out.exists()


def test_report_aggregates(darts_file, tiny_spec, tmp_path):
    out = tmp_path / "run"
    run_cli("train", "--genotype", darts_file, "--layers", 1, "--dim", 5,
            "--epochs", 1, "--dataset-spec", tiny_spec, "--out-dir", out)
    res = run_cli("report", "--run-dir", tmp_path, "--out", tmp_path / "sum.json")
    assert res.returncode == 0
    doc = json.loads((tmp_path / "sum.json").read_text())
    assert doc["theorem_violations"] == 0
    assert len(doc["manifests"]) == 1
    assert "final test_acc" in res.stdout or "manifests" in res.stdout


def test_report_empty_dir_exit_2(tmp_path):
    res = run_cli("report", "--run-dir", tmp_path / "nothing")
    assert res.returncode == 2


@pytest.mark.parametrize(
    "manifest", ["{oops", "[1, 2]", '{"violation_count": "x"}', '{"diverged_runs": 1.5}',
                 '{"final": {"x": 1}}', '{"final": "abc"}', '{"diverged": "false"}',
                 '{"final": {"test_acc": true}}'],
    ids=["not json", "json list", "text count", "fractional count", "final without test_acc",
         "text final", "text diverged", "boolean test_acc"])
def test_report_bad_manifest_exit_1(tmp_path, manifest):
    (tmp_path / "manifest.json").write_text(manifest)
    res = run_cli("report", "--run-dir", tmp_path)
    assert res.returncode == 1
    assert one_line(res.stderr) and res.stderr.startswith("parse error:"), res.stderr


@pytest.mark.parametrize("key", ["violation_count", "diverged_runs"])
def test_report_rejects_a_negative_count(tmp_path, key):
    # a manifest's -3 may not cancel another's 3
    for name, count in (("a", 3), ("b", -3)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "manifest.json").write_text(json.dumps({key: count}))
    res = run_cli("report", "--run-dir", tmp_path)
    assert res.returncode == 1
    assert one_line(res.stderr), res.stderr
    assert res.stderr == f"parse error: {tmp_path / 'b' / 'manifest.json'}: {key} must be " \
                         "at least 0, not -3\n"


@pytest.mark.parametrize("final, message", [
    ('{"x": 1}', "final.test_acc is missing"),
    ('{"test_acc": null}', "final.test_acc must be a number, not null"),
], ids=["missing", "null"])
def test_report_names_a_missing_test_acc(tmp_path, final, message):
    (tmp_path / "manifest.json").write_text(f'{{"final": {final}}}')
    res = run_cli("report", "--run-dir", tmp_path)
    assert res.returncode == 1
    assert res.stderr == f"parse error: {tmp_path / 'manifest.json'}: {message}\n"


@pytest.mark.parametrize("case", ["genotype", "dataset spec", "manifest", "manifest directory"])
def test_unreadable_input_file_exit_1(darts_file, tmp_path, case):
    # a file that is not UTF-8, or a directory where a manifest file should be
    bad = tmp_path / "run" / ("manifest.json" if case.startswith("manifest") else "bad.json")
    bad.parent.mkdir()
    if case == "manifest directory":
        bad.mkdir()
    else:
        bad.write_bytes(b'{"name": "\xff"}')
    args = {
        "genotype": ("analyze", "--genotype", bad),
        "dataset spec": ("train", "--genotype", darts_file, "--dataset-spec", bad,
                         "--out-dir", tmp_path / "out"),
    }.get(case, ("report", "--run-dir", bad.parent))
    res = run_cli(*args)
    assert res.returncode == 1
    assert one_line(res.stderr) and res.stderr.startswith("parse error:"), res.stderr
