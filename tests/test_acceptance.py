"""Acceptance suite: one test per criterion, each emitting a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` to see one line per criterion.
Criteria 4 and 5 verify the bound-checking harness including its honest
violation reporting: the block-smoothness bound is provably exceeded for
early blocks under the quadratic objective, and the contract is that every
such violation is flagged, serialized, and surfaced with exit code 4.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from cellscape import (
    CellNetwork,
    DatasetSpec,
    NetworkConfig,
    adapt_to_widest_shallowest,
    cell_depth,
    cell_width,
    extremal_width_depth,
    gradient_variance_surface,
    grid_coordinates,
    load_fixture,
    loss_surface,
    make_dataset,
    sample_directions,
    sample_variants,
    save_genotype,
    train,
)
from cellscape.autodiff import backward, cosine_lr
from cellscape.genotype import FIXTURE_NAMES, OPERATION_KINDS, genotype_to_dict
from cellscape.linear_theory import (
    random_model,
    verify_block_smoothness,
    verify_gradient_variance,
)
from cellscape.rng import stream
from conftest import (
    LossTape,
    central_difference,
    chain_population,
    chain_sources,
    edges,
    loss as theory_loss,
    one_row,
    per_trial_smoothness,
    rewire_to_chain,
    widest_sources,
    with_block,
    within,
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cellscape.cli", *map(str, args)],
        capture_output=True, text=True,
    )


def emit(line):
    # one pass/fail line per criterion, visible with -s / on failure
    print(line)


# -- 1 ---------------------------------------------------------------------

FIG_CAPTIONS = {
    "nasnet": ("5", 2),
    "amoebanet": ("4", 4),
    "enas": ("5", 2),
    "darts": ("7/2", 3),
    "snas": ("4", 2),
    "darts_conn1": ("5/2", 3),
    "darts_conn2": ("5/2", 3),
    "darts_conn3": ("2", 4),
    "darts_conn4": ("2", 4),
}


def test_criterion_01_metric_fixtures(tmp_path):
    for name, (width, depth) in FIG_CAPTIONS.items():
        path = tmp_path / f"{name}.json"
        save_genotype(load_fixture(name), path)
        res = run_cli("analyze", "--genotype", path)
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["width_in_c"] == width, name
        assert doc["depth"] == depth, name
    emit("criterion 1 PASS: all nine fixture analyses exact")


# -- 2 ---------------------------------------------------------------------


def test_criterion_02_extremal_values():
    assert extremal_width_depth(7, 2) == (Fraction(4), 2)
    assert extremal_width_depth(8, 2) == (Fraction(5), 2)
    emit("criterion 2 PASS: extremal width/depth exact")


# -- 3 ---------------------------------------------------------------------


def _fd_block(m, x, i, sources, eps=1e-5):
    def f(wv):
        return theory_loss(x, with_block(m, i, wv), sources)

    return central_difference(f, m.weights[i - 1], eps)


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)


def _tape_narrowest(m, x):
    t = LossTape()
    leaves = [t.leaf(w) for w in m.weights]
    y = t.leaf(x.reshape(1, -1))
    total = None
    for leaf, target in zip(leaves, m.targets):
        y = t.dense(y, leaf)
        term = t.half_sum_sq(t.sub(y, t.leaf(target.reshape(1, -1))))
        total = term if total is None else t.add(total, term)
    backward(t, total)
    return [leaf.grad for leaf in leaves]


def test_criterion_03_gradient_formulas():
    rng = stream(42, "theory")
    worst_fd, worst_ad = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(2, 9))
        x = rng.standard_normal(d)
        widest = random_model(n, d, rng)
        for i, g in enumerate(one_row(widest, x, widest_sources(n)), start=1):
            worst_fd = max(worst_fd, _rel(g, _fd_block(widest, x, i, widest_sources(n))))
        narrowest = random_model(n, d, rng)
        closed = one_row(narrowest, x, chain_sources(n))
        taped = _tape_narrowest(narrowest, x)
        for i in range(1, n + 1):
            worst_fd = max(worst_fd, _rel(closed[i - 1],
                                          _fd_block(narrowest, x, i, chain_sources(n))))
            worst_ad = max(worst_ad, float(np.max(np.abs(closed[i - 1] - taped[i - 1]))))
    assert worst_fd <= 1e-6
    assert worst_ad <= 1e-10
    emit(f"criterion 3 PASS: 100 instances, max FD rel err {worst_fd:.2e}, "
         f"max autodiff gap {worst_ad:.2e}")


# -- 4 ---------------------------------------------------------------------


def test_criterion_04_theorem2_reporting(tmp_path):
    # each block's exact constant against the stated bound; a Monte-Carlo
    # estimate of 200 perturbation pairs, from its own generator, never
    # exceeds it, so gating on the exact constant hides no violation
    mc_rng = np.random.default_rng(np.random.PCG64(0))
    total = violated = 0
    for m, x in chain_population(0):
        for i in range(1, m.n + 1):
            r = verify_block_smoothness(m, x, i)
            total += 1
            violated += r["violated"]
            # the harness may never misreport in either direction
            assert r["violated"] == (r["empirical"] > r["bound"] + 1e-9)
            assert within(per_trial_smoothness(m, x, i, mc_rng, 200)["empirical"],
                          r["empirical"])
    if violated:
        # every violation must surface as exit code 4 with the instance
        # serialized; exercised end to end through the CLI
        out = tmp_path / "theory" / "report.json"
        res = run_cli("theory", "--n", 3, "--dim", 6, "--trials", 50,
                      "--samples", 200, "--instances", 3, "--seed", 0,
                      "--out", out)
        doc = json.loads(out.read_text())
        assert doc["violation_count"] >= 1
        assert res.returncode == 4
        inst = doc["violations"][0]
        assert len(inst["weights"]) == 3 and len(inst["input"]) == 6
    emit(f"criterion 4 PASS: {violated}/{total} exact block constants exceed the "
         "stated bound (early-block cross-terms); every one flagged, "
         "serialized, exit code 4; no Monte-Carlo estimate exceeds its constant")


# -- 5 ---------------------------------------------------------------------


def test_criterion_05_theorem3():
    rng = stream(1, "theory")
    total = violated = 0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(2, 9))
        m = random_model(n, d, rng)
        for i in range(1, n + 1):
            r = verify_gradient_variance(m, i, rng.standard_normal((2000, d)))
            total += 1
            violated += r["violated"]
            assert r["violated"] == (r["empirical"] > r["bound"] + r["slack"])
    assert violated == 0
    emit(f"criterion 5 PASS: 0/{total} variance estimates exceed bound + 3 SE")


# -- 6 ---------------------------------------------------------------------


def cell_op(t, kind, x, w):
    """An operation as the network applies it: one part of a node record,
    beside a zero part that adds nothing."""
    return t.node([(kind, x, w if kind == "linear" else None), ("zero", x, None)])


def test_criterion_06_autodiff_soundness():
    rng = np.random.default_rng(6)
    for _ in range(20):
        batch = int(rng.integers(2, 17))
        d = int(rng.integers(2, 17))
        x = rng.standard_normal((batch, d))
        x[np.abs(x) < 1e-3] += 0.01  # keep clear of the rectifier kink
        w = rng.standard_normal((d, d))
        for kind in sorted(OPERATION_KINDS):

            def f(wv):
                t = LossTape()
                out = cell_op(t, kind, t.leaf(x), t.leaf(wv))
                return float(t.half_sum_sq(out).data)

            t = LossTape()
            x_leaf, w_leaf = t.leaf(x), t.leaf(w)
            out = cell_op(t, kind, x_leaf, w_leaf)
            backward(t, t.half_sum_sq(out))
            if kind == "linear":
                fd = central_difference(f, w, 1e-4)
                assert _rel(w_leaf.grad, fd) <= 1e-5
            grad_x = x_leaf.grad if x_leaf.grad is not None else np.zeros_like(x)

            def fx(xv):
                t2 = LossTape()
                out2 = cell_op(t2, kind, t2.leaf(xv), t2.leaf(w))
                return float(t2.half_sum_sq(out2).data)

            fd_x = central_difference(fx, x, 1e-4)
            assert _rel(grad_x, fd_x) <= 1e-5
    assert cosine_lr(0, 30, 0.025) == 0.025
    assert cosine_lr(30, 30, 0.025) == 0.0
    emit("criterion 6 PASS: cell operations match finite differences; "
         "cosine endpoints exact")


# -- 7 ---------------------------------------------------------------------


def test_criterion_07_convergence_ordering(tmp_path):
    darts = load_fixture("darts")
    chain = rewire_to_chain(darts)
    mid = load_fixture("darts_conn1")
    adapted = adapt_to_widest_shallowest(darts)
    depths = {}
    gdir = tmp_path / "gens"
    gdir.mkdir()
    for g in (chain, mid, adapted):
        save_genotype(g, gdir / f"{g.name}.json")
        depths[g.name] = cell_depth(g)
    out = tmp_path / "cmp" / "report.json"
    res = run_cli("compare", "--genotypes", gdir, "--lrs", "0.0025,0.025,0.25",
                  "--seeds", 5, "--epochs", 30, "--layers", 6, "--dim", 16,
                  "--out", out)
    assert res.returncode in (0, 3), res.stderr
    doc = json.loads(out.read_text())

    def median(name, lr_key):
        v = doc["medians"][lr_key][name]
        return math.inf if v is None else v

    ranking = [chain.name, mid.name, adapted.name]
    meds = [median(name, "0.025") for name in ranking]
    assert meds[0] >= meds[1] >= meds[2], meds

    # at lr 0.25, variants that diverge must be at least as deep as every
    # variant with a run that converges without diverging
    entries = [e for e in doc["entries"] if e["lr"] == 0.25]
    diverging = {e["genotype"] for e in entries if e["diverged"]}
    converging = {
        e["genotype"] for e in entries
        if not e["diverged"] and e["epochs_to_threshold"] is not None
    }
    for d_name in diverging:
        for c_name in converging:
            assert depths[d_name] >= depths[c_name], (d_name, c_name)

    manifest = json.loads((out.parent / "manifest.json").read_text())
    assert manifest["seeds"] == [0, 1, 2, 3, 4]
    assert manifest["rng_algorithm"] == "pcg64"
    emit(f"criterion 7 PASS: medians at lr=0.025 {meds} non-increasing; "
         f"lr=0.25 divergers {sorted(diverging)} vs convergers "
         f"{sorted(converging)} satisfy the depth condition")


# -- 8 ---------------------------------------------------------------------


def test_criterion_08_landscape(tmp_path):
    cfg = NetworkConfig(layers=2, dim=8, num_classes=3, input_dim=6)
    data = DatasetSpec(dim=6, num_classes=3, train_size=120, test_size=40,
                       noise=1.0, radius=8.0, seed=0)
    ds = make_dataset(data)
    net = CellNetwork(load_fixture("darts"), cfg)
    [trace] = train(net, ds, [(0.025, 0)], 3, 80)
    ckpt_path = tmp_path / "final.ckpt"
    net.layout.save(trace.final_params, ckpt_path)
    ckpt = net.layout.load(ckpt_path)

    pair = sample_directions(ckpt, net.layout, seed=0)
    coords = grid_coordinates(5, 0.5)
    x, y = ds.test_x, ds.test_y

    grid = loss_surface(net, ckpt, x, y, pair, coords)
    direct, _ = net.evaluate(x, y, ckpt)
    assert grid.values[2, 2] == direct  # bit-exact

    x5, y5 = ds.test_x[:5], ds.test_y[:5]
    gv = gradient_variance_surface(net, ckpt, x5, y5, pair, [0.0])
    grads = []
    for i in range(5):
        _, g = net.loss_and_grads(x5[i : i + 1], y5[i : i + 1], ckpt)
        grads.append(g)  # flat, blocks in sorted-name order
    stacked = np.stack(grads)
    oracle = float(np.mean(np.sum((stacked - stacked.mean(axis=0)) ** 2, axis=1)))
    assert abs(gv.values[0, 0] - oracle) <= 1e-10

    flipped = (-pair[0], -pair[1])
    mirrored = loss_surface(net, ckpt, x, y, flipped, coords)
    assert np.array_equal(grid.values, mirrored.values[::-1, ::-1])
    emit("criterion 8 PASS: s(0,0) bit-exact, gradvar oracle within 1e-10, "
         "point reflection on 5x5 grid")


# -- 9 ---------------------------------------------------------------------


def test_criterion_09_sampler(tmp_path):
    from scipy import stats

    darts = load_fixture("darts")
    a = [genotype_to_dict(v) for v in sample_variants(darts, "connection", 50, 9)]
    b = [genotype_to_dict(v) for v in sample_variants(darts, "connection", 50, 9)]
    assert a == b

    # chi-square uniformity of a single slot over its 4 predecessors
    rng = stream(17, "sampling")
    counts = np.zeros(4)
    draws = 20_000
    from cellscape import sample_connection_variant

    for _ in range(draws):
        v = sample_connection_variant(darts, rng)
        counts[v.nodes[2].ops[0].source] += 1
    _, p = stats.chisquare(counts)
    assert p > 0.01

    path = tmp_path / "darts.json"
    save_genotype(darts, path)
    res = run_cli("count", "--nodes", 7, "--inputs", 2, "--enumerate",
                  "--genotype", path)
    assert res.returncode == 0
    assert "120" in res.stdout
    assert "raw" in res.stdout and "deduplicated" in res.stdout
    emit(f"criterion 9 PASS: deterministic sampling, chi-square p={p:.3f}, "
         "formula and enumeration counts both emitted")


# -- 10 --------------------------------------------------------------------


def test_criterion_10_adaptation():
    for name in FIXTURE_NAMES:
        g = load_fixture(name)
        a = adapt_to_widest_shallowest(g)
        assert cell_width(a) == Fraction(len(g.nodes))
        assert cell_depth(a) == 2
    snas = load_fixture("snas")
    assert sorted(edges(adapt_to_widest_shallowest(snas))) == sorted(edges(snas))
    darts_adapted = adapt_to_widest_shallowest(load_fixture("darts"))
    assert cell_width(darts_adapted) == Fraction(4)
    assert cell_depth(darts_adapted) == 2
    emit("criterion 10 PASS: adaptation extremal on all fixtures; "
         "SNAS edges unchanged; DARTS (4c, 2)")


# -- 11 --------------------------------------------------------------------


def test_criterion_11_reproducibility(tmp_path):
    darts_file = tmp_path / "darts.json"
    save_genotype(load_fixture("darts"), darts_file)
    spec_file = tmp_path / "data.json"
    spec_file.write_text(json.dumps({
        "kind": "gaussian-mixture", "dim": 5, "num_classes": 3,
        "train_size": 60, "test_size": 24, "noise": 1.0, "radius": 8.0,
        "seed": 0,
    }))

    def artifacts(out):
        return {
            p.name: p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.json"
        }

    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        res = run_cli("variants", "--genotype", darts_file, "--mode",
                      "connection", "--count", 5, "--seed", 2, "--out",
                      out / "vars")
        assert res.returncode == 0
        res = run_cli("train", "--genotype", darts_file, "--layers", 1,
                      "--dim", 5, "--epochs", 2, "--seed", 2,
                      "--dataset-spec", spec_file, "--out-dir", out / "run")
        assert res.returncode == 0
        res = run_cli("landscape", "--checkpoint", out / "run" / "final.ckpt",
                      "--genotype", darts_file, "--dataset-spec", spec_file,
                      "--grid", 3, "--range", 0.5, "--layers", 1, "--dim", 5,
                      "--subset", 8, "--seed", 2, "--out", out / "land" / "g.csv")
        assert res.returncode == 0
        runs.append(artifacts(out))
    assert runs[0].keys() == runs[1].keys()
    for name in runs[0]:
        assert runs[0][name] == runs[1][name], name
    emit(f"criterion 11 PASS: {len(runs[0])} data artifacts byte-identical "
         "across re-runs")
