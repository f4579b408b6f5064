"""The three benchmark workloads: their inputs, one round of CLI commands,
and the checks on every command's output.

Each workload drives the real command line in-process through
``cellscape.cli.main``.  A round is a fixed list of commands, so every round
attempts the same operations.  The checks compare outputs with
``reference`` (plain numpy, no program code) or with properties the method
must have; a failed check marks the operations it covers as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cellscape.cli

import reference as ref
import speed

FIXTURES = Path(cellscape.cli.__file__).parent / "fixtures"
LRS = "0.0025,0.025,0.25"
THEORY_BLOCKS = 3  # theory --n, the default
CHANCE_MARGIN_ACC = 0.9  # "well above chance" for 4 balanced classes (0.25)
REL_TOL = 1e-9  # program against reference: same float64 maths, other order
LAMBDA_REL_TOL = 1e-7  # power iteration stops at a 1e-10 relative step


@dataclass(frozen=True)
class Sizes:
    compare_seeds: int = 1
    epochs: int = 30
    loss_grid: int = 41
    gradvar_grid: int = 3
    subset: int = 256
    theory_instances: int = 10
    theory_trials: int = 200
    theory_samples: int = 2000
    fixtures: tuple = ("nasnet", "amoebanet")
    sampled_points: int = 8


FULL = Sizes()


def _close(a, b, rtol):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def fixture(name):
    return json.loads((FIXTURES / f"{name}.json").read_text())


def rewired(doc, suffix, sources):
    """Copy of a two-input genotype with node i's slots wired to
    ``sources(i)``, keeping every operation kind."""
    return {**doc, "name": f"{doc['name']}_{suffix}", "nodes": [
        {"ops": [{"kind": op["kind"], "source": src}
                 for op, src in zip(node["ops"], sources(i))]}
        for i, node in enumerate(doc["nodes"])]}


def write_genotype(doc, path):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


class Checks:
    """Named checks of one round; a failure marks operations as failed."""

    def __init__(self):
        self.ran = set()
        self.failures = []

    def __call__(self, name, ok, detail=""):
        self.ran.add(name)
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return bool(ok)


@dataclass
class Command:
    label: str
    code: int
    out: str
    seconds: float
    artifact_bytes: int


class Workload:
    name = ""

    def __init__(self, workdir: Path, seed: int, sizes: Sizes = FULL):
        self.workdir = Path(workdir)
        self.seed = seed
        self.sizes = sizes
        self.tracer = None  # set while a traced round runs
        self.calibrate = False  # sample the machine's speed during commands
        self.kernel_samples = []  # of the current round

    def setup(self):
        """Write the input files; the program is already imported."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.inputs = self.workdir / "inputs"
        self.inputs.mkdir(exist_ok=True)
        self.make_inputs()

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def cli(self, label, out_dir, *args):
        """Run one command in-process; its exit code, output and wall time
        (less the time spent sampling the machine's speed)."""
        argv = [str(a) for a in args]
        out, err = io.StringIO(), io.StringIO()
        span = (self.tracer.span(f"cli.{label}") if self.tracer is not None
                else contextlib.nullcontext())
        sampler = speed.Sampler() if self.calibrate else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            with sampler:
                start = time.perf_counter()
                try:
                    cellscape.cli.main(argv)
                    code = 0
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # uncaught, it ends the real command with exit 1
                    err.write(traceback.format_exc())
                    code = 1
                seconds = time.perf_counter() - start
        if self.calibrate:
            seconds -= sampler.spent
            self.kernel_samples += sampler.samples or [speed.kernel_seconds()]
        size = (sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())
                if out_dir is not None and Path(out_dir).exists() else 0)
        return Command(label, code, out.getvalue() + err.getvalue(), seconds, size)

    def round(self, index):
        """Run one round in a fresh output directory.

        Returns (commands, attempted, failed, checks)."""
        out = self.workdir / f"round{index}"
        out.mkdir()
        checks = Checks()
        try:
            return self.run_round(out, checks)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            checks(f"{self.name}.output_readable", False, repr(exc))
            return [], self.attempted(), self.attempted(), checks
        finally:
            shutil.rmtree(out, ignore_errors=True)


# --- convergence ---------------------------------------------------------------


class Convergence(Workload):
    """criterion 7's compare grid: three depths of darts, three lrs, 30 epochs.

    ``compare`` has no seed flag (its runs use seeds 0..k-1), so the inputs
    are the same for every benchmark seed."""

    name = "convergence"

    def make_inputs(self):
        darts = fixture("darts")
        self.gdir = self.inputs / "genotypes"
        self.gdir.mkdir(exist_ok=True)
        # deepest: node i sources node i-1 and input 0; widest: inputs only
        chain = rewired(darts, "chain", lambda i: (0, 1) if i == 0 else (i + 1, 0))
        adapted = rewired(darts, "adapted", lambda i: (0, 1))
        self.docs = {doc["name"]: doc for doc in (chain, fixture("darts_conn1"), adapted)}
        for name, doc in self.docs.items():
            write_genotype(doc, self.gdir / f"{name}.json")

    def attempted(self):
        return len(self.docs) * len(LRS.split(",")) * self.sizes.compare_seeds

    def run_round(self, out, checks):
        k = self.sizes.compare_seeds
        lrs = [float(v) for v in LRS.split(",")]
        report_path = out / "cmp" / "report.json"
        cmd = self.cli("compare", out / "cmp", "compare", "--genotypes", self.gdir,
                       "--lrs", LRS, "--seeds", k, "--epochs", self.sizes.epochs,
                       "--out", report_path)
        attempted = self.attempted()
        ok = checks("compare.exit", cmd.code in (0, 3), f"exit {cmd.code}: {cmd.out[-300:]}")
        if not ok:
            return [cmd], attempted, attempted, checks
        doc = json.loads(report_path.read_text())
        entries = doc["entries"]
        whole = checks("compare.entry_count", len(entries) == attempted,
                       f"{len(entries)} entries, expected {attempted}")
        keys = {(e["genotype"], e["lr"], e["seed"]) for e in entries}
        whole &= checks("compare.entry_grid",
                        keys == {(g, lr, s) for g in self.docs for lr in lrs
                                 for s in range(k)}, f"{sorted(keys)}")
        diverged = [e for e in entries if e["diverged"]]
        whole &= checks("compare.exit_matches_divergence",
                        (cmd.code == 3) == bool(diverged), f"exit {cmd.code}")
        depth = {name: ref.cell_depth(d) for name, d in self.docs.items()}
        at_high = [e for e in entries if e["lr"] == max(lrs)]
        divergers = {e["genotype"] for e in at_high if e["diverged"]}
        convergers = {e["genotype"] for e in at_high
                      if not e["diverged"] and e["epochs_to_threshold"] is not None}
        whole &= checks("compare.divergers_deeper",
                        all(depth[d] >= depth[c] for d in divergers for c in convergers),
                        f"divergers {divergers} convergers {convergers} depths {depth}")
        medians = doc["medians"][repr(0.025)]
        by_depth = sorted(self.docs, key=lambda name: -depth[name])
        meds = [math.inf if medians[n] is None else medians[n] for n in by_depth]
        whole &= checks("compare.ordering_at_0.025",
                        all(a >= b for a, b in zip(meds, meds[1:])), f"{meds}")
        if not whole:
            return [cmd], attempted, attempted, checks
        failed = 0
        for e in entries:
            if not e["diverged"]:
                failed += not checks(
                    "compare.accuracy_above_chance",
                    e["final_acc"] >= CHANCE_MARGIN_ACC, f"{e}")
        return [cmd], attempted, failed, checks


# --- landscape -----------------------------------------------------------------


class Landscape(Workload):
    """train darts, then its loss grid and a small gradient-variance grid."""

    name = "landscape"

    def make_inputs(self):
        self.doc = fixture("darts")
        self.genotype = write_genotype(self.doc, self.inputs / "darts.json")
        self.data = None

    def _grid(self, path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["alpha", "beta", "value"]:
            raise ValueError(f"header {rows[0]}")
        return [(float(a), float(b), float(v)) for a, b, v in rows[1:]]

    def _points_to_check(self, g):
        corners = [(0, 0), (0, g - 1), (g - 1, 0), (g - 1, g - 1)]
        picks = [(g // 2, g // 2), *corners]
        rng = np.random.default_rng([self.seed, g])
        for _ in range(self.sizes.sampled_points if g > 3 else 0):
            picks.append(tuple(int(v) for v in rng.integers(0, g, size=2)))
        return picks

    def _check_grid(self, checks, kind, path, g, value_at):
        """Checks the coordinates and the listed points of a g x g grid;
        returns the number of points that failed."""
        rows = self._grid(path)
        coords = np.linspace(-1.0, 1.0, g) if g > 1 else np.array([0.0])
        if not checks(f"{kind}.grid_shape", len(rows) == g * g and all(
                r[0] == coords[i // g] and r[1] == coords[i % g]
                for i, r in enumerate(rows)), f"{len(rows)} rows"):
            return g * g
        failed = 0
        for a, b in sorted(set(self._points_to_check(g))):
            name = f"{kind}.centre" if (a, b) == (g // 2, g // 2) else f"{kind}.point"
            got = rows[a * g + b][2]
            want = value_at(coords[a], coords[b])
            failed += not checks(name, _close(got, want, REL_TOL),
                                 f"({a},{b}): program {got!r}, reference {want!r}")
        return failed

    def attempted(self):
        return 1 + self.sizes.loss_grid ** 2 + self.sizes.gradvar_grid ** 2

    def run_round(self, out, checks):
        s = self.sizes
        if self.data is None:
            self.data = ref.gaussian_mixture()
        train_x, train_y, test_x, test_y = self.data
        run = out / "run"
        train = self.cli("train", run, "train", "--genotype", self.genotype,
                         "--epochs", s.epochs, "--seed", self.seed, "--out-dir", run)
        attempted = self.attempted()
        if not checks("train.exit", train.code == 0, f"exit {train.code}: {train.out[-300:]}"):
            return [train], attempted, attempted, checks
        ckpt = ref.read_checkpoint(run / "final.ckpt")
        with open(run / "trace.csv", newline="") as fh:
            final = list(csv.DictReader(fh))[-1]
        loss, acc = ref.loss_and_accuracy(self.doc, ckpt, test_x, test_y)
        failed = 0
        failed += not (
            checks("train.final_test_loss", _close(float(final["test_loss"]), loss, REL_TOL),
                   f"trace {final['test_loss']}, reference {loss!r}")
            & checks("train.final_test_acc", float(final["test_acc"]) == acc,
                     f"trace {final['test_acc']}, reference {acc!r}"))

        pick = ref.held_out_subset(self.seed, len(test_y), s.subset)
        x, y = test_x[pick], test_y[pick]
        d1, d2 = ref.directions(ckpt, self.seed)

        def at(alpha, beta):
            return {k: ckpt[k] + alpha * d1[k] + beta * d2[k] for k in ckpt}

        commands = [train]
        for label, mode, g, value_at in (
            ("loss_grid", "loss", s.loss_grid,
             lambda a, b: ref.loss_and_accuracy(self.doc, at(a, b), x, y)[0]),
            ("gradvar_grid", "gradvar", s.gradvar_grid,
             lambda a, b: ref.per_example_gradient_variance(self.doc, at(a, b), x, y)),
        ):
            path = out / label / "grid.csv"
            cmd = self.cli(label, out / label, "landscape", "--checkpoint",
                           run / "final.ckpt", "--genotype", self.genotype,
                           "--mode", mode, "--grid", g, "--subset", s.subset,
                           "--seed", self.seed, "--out", path)
            commands.append(cmd)
            if checks(f"{mode}.exit", cmd.code == 0, f"exit {cmd.code}: {cmd.out[-300:]}"):
                failed += self._check_grid(checks, mode, path, g, value_at)
            else:
                failed += g * g
        return commands, attempted, failed, checks


# --- analysis ------------------------------------------------------------------


class Analysis(Workload):
    """theory on random chained linear cells, then connection-space
    enumeration of the 5-node fixtures nasnet and amoebanet.  enas is left
    out: its nodes pair op kinds exactly as nasnet's do, so its enumeration
    repeats nasnet's work and count (207 360) and only lengthens the run."""

    name = "analysis"

    def make_inputs(self):
        self.fixture_files = {}
        for name in self.sizes.fixtures:
            doc = fixture(name)
            self.fixture_files[name] = (write_genotype(doc, self.inputs / f"{name}.json"), doc)

    def _check_theory(self, checks, doc, cmd):
        """Returns the (instance, block) operations that failed a check, and
        whether the checks on the whole report passed."""
        failed = set()
        serialized = {(v["instance"], v["block"]): v for v in doc["violations"]}
        flagged = set()
        by_instance = {}
        for v in doc["violations"]:
            by_instance.setdefault(v["instance"], v)
        for inst in doc["results"]:
            i_no = inst["instance"]
            instance = by_instance.get(i_no)
            if instance is not None:
                weights = [np.array(w) for w in instance["weights"]]
                x = np.array(instance["input"])
                lambdas = [ref.spectral_norm(w) for w in weights]
            for block in inst["blocks"]:
                key = (i_no, block["block"])
                i = block["block"]
                sm, var = block["smoothness"], block["variance"]
                ok = True
                for rep in (sm, var):
                    ok &= checks("theory.flag_matches_slack",
                                 rep["violated"] == (rep["empirical"] > rep["bound"] + rep["slack"]),
                                 f"{key} {rep['theorem']}")
                if sm["violated"] or var["violated"]:
                    flagged.add(key)
                    ok &= checks("theory.violation_serialized", key in serialized, f"{key}")
                if instance is not None:
                    ok &= checks("theory.lambda_is_svd_norm", all(
                        _close(a, b, LAMBDA_REL_TOL) for a, b in zip(sm["lambdas"], lambdas))
                        and _close(block["lambda"], lambdas[i - 1], LAMBDA_REL_TOL),
                        f"{key}: {sm['lambdas']} vs {lambdas}")
                    exact = ref.exact_block_smoothness(weights, x, i)
                    ok &= checks("theory.estimate_within_exact_L",
                                 sm["empirical"] <= exact * (1 + REL_TOL),
                                 f"{key}: estimate {sm['empirical']!r} > L_i {exact!r}")
                    s_bound = ref.smoothness_bound(lambdas, x, i)
                    v_bound = ref.variance_bound(lambdas, var["sigmas_sq"], i)
                    ok &= checks("theory.bounds_recomputed",
                                 _close(sm["bound"], s_bound, LAMBDA_REL_TOL * i)
                                 and _close(var["bound"], v_bound, 2 * LAMBDA_REL_TOL * len(lambdas)),
                                 f"{key}: {sm['bound']!r}/{s_bound!r}, {var['bound']!r}/{v_bound!r}")
                    if sm["violated"]:
                        ok &= checks("theory.violation_exceeds_bound",
                                     sm["empirical"] > s_bound, f"{key} smoothness")
                    if var["violated"]:
                        ok &= checks("theory.violation_exceeds_bound",
                                     var["empirical"] > v_bound, f"{key} variance")
                if not ok:
                    failed.add(key)
        whole = checks("theory.violation_list", flagged == set(serialized)
                       and doc["violation_count"] == len(doc["violations"]),
                       f"flagged {sorted(flagged)} serialized {sorted(serialized)}")
        whole &= checks("theory.exit", cmd.code == (4 if flagged else 0), f"exit {cmd.code}")
        return failed, whole

    def attempted(self):
        return self.sizes.theory_instances * THEORY_BLOCKS + sum(
            ref.connection_counts(doc)[1] for _, doc in self.fixture_files.values())

    def run_round(self, out, checks):
        s = self.sizes
        report = out / "theory" / "report.json"
        theory = self.cli("theory", out / "theory", "theory", "--n", THEORY_BLOCKS,
                          "--instances", s.theory_instances, "--trials", s.theory_trials,
                          "--samples", s.theory_samples, "--seed", self.seed,
                          "--out", report)
        blocks = s.theory_instances * THEORY_BLOCKS
        counts = {name: ref.connection_counts(doc)
                  for name, (_, doc) in self.fixture_files.items()}
        attempted = self.attempted()
        failed = 0
        if theory.code in (0, 4) and report.exists():
            doc = json.loads(report.read_text())
            bad, whole = self._check_theory(checks, doc, theory)
            failed += blocks if not whole else len(bad)
        else:
            checks("theory.exit", False, f"exit {theory.code}: {theory.out[-300:]}")
            failed += blocks

        enum_seconds = 0.0
        for name, (path, doc) in self.fixture_files.items():
            n_total = doc["num_inputs"] + len(doc["nodes"]) + 1
            cmd = self.cli("enumerate", None, "count", "--nodes", n_total,
                           "--enumerate", "--genotype", path)
            enum_seconds += cmd.seconds
            raw, dedup, closed = counts[name]
            got = {}
            for line in cmd.out.splitlines():
                for key, prefix in (("raw", "slot assignments (raw):"),
                                    ("dedup", "slot assignments (deduplicated):"),
                                    ("closed", "formula for this genotype's")):
                    if line.startswith(prefix):
                        got[key] = int(line.rsplit(":", 1)[1])
            ok = checks("enumerate.exit", cmd.code == 0, f"{name}: exit {cmd.code}")
            ok &= checks("enumerate.counts",
                         got == {"raw": raw, "dedup": dedup, "closed": closed},
                         f"{name}: program {got}, reference raw={raw} dedup={dedup} "
                         f"closed={closed}")
            failed += 0 if ok else dedup
        enumerate_cmd = Command("enumerate", 0, "", enum_seconds, 0)
        return [theory, enumerate_cmd], attempted, failed, checks


WORKLOADS = {w.name: w for w in (Convergence, Landscape, Analysis)}
