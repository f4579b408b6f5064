import json
import math
import subprocess
import sys

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
from cellscape.autodiff import load_checkpoint, save_checkpoint
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


def test_analyze_invalid_genotype_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad", "num_inputs": 2,
        "nodes": [{"ops": [{"kind": "linear", "source": 0},
                           {"kind": "linear", "source": 9}]}],
        "concat": [2],
    }))
    res = run_cli("analyze", "--genotype", path)
    assert res.returncode == 2


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


def test_count_enumerate_invalid_genotype_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad", "num_inputs": 2,
        "nodes": [{"ops": [{"kind": "linear", "source": 0},
                           {"kind": "linear", "source": 9}]}],
        "concat": [2],
    }))
    res = run_cli("count", "--nodes", 7, "--enumerate", "--genotype", path)
    assert res.returncode == 2
    assert one_line(res.stderr) and res.stderr.startswith("validation error:"), res.stderr


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
    params = load_checkpoint(out / "final.ckpt", net.layout)
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
    save_checkpoint(net.init_params(stream(0, "init")), path, net.layout)
    return path


def tiny_landscape(ckpt, genotype, spec, out, *extra):
    return run_cli("landscape", "--checkpoint", ckpt, "--genotype", genotype,
                   "--dataset-spec", spec, "--grid", 3, "--layers", 1, "--dim", 5,
                   "--subset", 8, "--out", out, *extra)


def one_line(stderr):
    return len(stderr.strip().splitlines()) == 1 and "Traceback" not in stderr


@pytest.mark.parametrize("damage", ["short header", "bad json", "short payload",
                                    "trailing values"])
def test_landscape_malformed_checkpoint_exit_1(darts_file, tiny_spec, darts_ckpt,
                                               tmp_path, damage):
    raw = darts_ckpt.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes({
        "short header": raw[:3],
        "bad json": raw[:4] + b"[{oops" + raw[10:],
        "short payload": raw[:-16],
        "trailing values": raw + np.ones(5, dtype="<f8").tobytes(),
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


# --- JSON artifacts and manifests -----------------------------------------


def strict_json(path):
    """path's JSON, refusing the non-standard constants Infinity and NaN."""
    def reject(constant):
        raise ValueError(f"{path} holds {constant}")
    return json.loads(path.read_text(), parse_constant=reject)


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
    # at 1e154 and beyond ||W(i)|| overflows, so the perturbation pairs do too
    scales = {"theory": "1e120", "theory154": "1e154", "theory-200": "-1e200"}
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
                 '{"final": {"x": 1}}', '{"final": "abc"}', '{"diverged": "false"}'],
    ids=["not json", "json list", "text count", "fractional count", "final without test_acc",
         "text final", "text diverged"])
def test_report_bad_manifest_exit_1(tmp_path, manifest):
    (tmp_path / "manifest.json").write_text(manifest)
    res = run_cli("report", "--run-dir", tmp_path)
    assert res.returncode == 1
    assert one_line(res.stderr) and res.stderr.startswith("parse error:"), res.stderr


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
