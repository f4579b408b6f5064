"""Self-check of the benchmark harness at tiny sizes (about half a minute).

    python3 perfbench/selfcheck.py

For each workload it confirms that
- a run prints the output schema, with every metric BENCHMARK.json names,
  in both the untraced and the traced mode, and the result is correct;
- every correctness check of the workload runs;
- perturbing one reference value makes the matching check fail.
Exits 0 when all of that holds and 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run.import_program()
import layers  # noqa: E402
import reference  # noqa: E402

TINY = workloads.Sizes(compare_seeds=1, epochs=2, loss_grid=5, gradvar_grid=3,
                       subset=16, theory_instances=2, theory_trials=20,
                       theory_samples=100, fixtures=("darts",), sampled_points=2)

EXPECTED_CHECKS = {
    "convergence": {
        "compare.exit", "compare.entry_count", "compare.entry_grid",
        "compare.exit_matches_divergence", "compare.divergers_deeper",
        "compare.ordering_at_0.025", "compare.accuracy_above_chance",
    },
    "landscape": {
        "train.exit", "train.final_test_loss", "train.final_test_acc",
        "loss.exit", "loss.grid_shape", "loss.centre", "loss.point",
        "gradvar.exit", "gradvar.grid_shape", "gradvar.centre", "gradvar.point",
    },
    "analysis": {
        "theory.flag_matches_slack", "theory.violation_serialized",
        "theory.lambda_is_svd_norm", "theory.estimate_within_exact_L",
        "theory.bounds_recomputed", "theory.violation_exceeds_bound",
        "theory.violation_list", "theory.exit", "enumerate.exit", "enumerate.counts",
    },
}


def _scaled(fn, factor, index=None):
    def wrapped(*args, **kwargs):
        value = fn(*args, **kwargs)
        if index is None:
            return value * factor
        value = list(value)
        value[index] = value[index] * factor
        return tuple(value)
    return wrapped


# (workload, reference function, perturbed version, check that must fail)
PERTURBATIONS = [
    ("convergence", "cell_depth", lambda fn: (lambda doc: -fn(doc)),
     "compare.divergers_deeper"),
    ("landscape", "loss_and_accuracy", lambda fn: _scaled(fn, 1 + 1e-6, 0),
     "loss.centre"),
    ("landscape", "per_example_gradient_variance", lambda fn: _scaled(fn, 1 + 1e-6),
     "gradvar.centre"),
    ("analysis", "spectral_norm", lambda fn: _scaled(fn, 1 + 1e-5),
     "theory.lambda_is_svd_norm"),
    ("analysis", "exact_block_smoothness", lambda fn: _scaled(fn, 0.5),
     "theory.estimate_within_exact_L"),
    ("analysis", "connection_counts", lambda fn: _scaled(fn, 2, 1),
     "enumerate.counts"),
]


def one_round(name, seed=0):
    wl = workloads.WORKLOADS[name](run.OUT / "selfcheck" / name, seed, TINY)
    wl.setup()
    try:
        return wl.round(0)
    finally:
        wl.cleanup()


def schema_problems(result, units):
    """What is wrong with one printed result, given the metric units it must
    hold."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct {result.get('correct')}, failed {result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        problems.append(f"metrics differ: {sorted(set(metrics) ^ set(units))}")
    for key, metric in metrics.items():
        if (set(metric) != {"value", "unit"} or not isinstance(metric["value"], float)
                or metric["unit"] != units.get(key)):
            problems.append(f"metric {key}: {metric}")
    return problems


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    declared = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    defined = {(k, *v[:2]) for k, v in layers.METRICS.items()}
    if declared != defined:
        problems.append(f"BENCHMARK.json per_layer differs from layers.py: "
                        f"{sorted(declared ^ defined)}")
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    for name in workloads.WORKLOADS:
        for trace, units in ((0, e2e), (1, per_layer)):
            result, _ = run.run(name, 0, 0, trace, TINY)
            problems += [f"{name} trace={trace}: {p}" for p in schema_problems(result, units)]
        _, attempted, failed, checks = one_round(name)
        missing = EXPECTED_CHECKS[name] - checks.ran
        if missing or failed or checks.failures:
            problems.append(f"{name}: checks not run {sorted(missing)}, "
                            f"failed {failed}, {checks.failures[:3]}")
        print(f"{name}: schema checked, {len(checks.ran)} checks ran, "
              f"{attempted} operations")

    for name, fn_name, perturb, must_fail in PERTURBATIONS:
        original = getattr(reference, fn_name)
        setattr(reference, fn_name, perturb(original))
        try:
            _, attempted, failed, checks = one_round(name)
        finally:
            setattr(reference, fn_name, original)
        fired = any(f.startswith(must_fail + ":") for f in checks.failures)
        if not fired or failed == 0:
            problems.append(f"perturbed {fn_name}: {must_fail} did not fail "
                            f"(failed {failed}/{attempted})")
        print(f"perturbed {fn_name}: {must_fail} "
              f"{'failed as it must' if fired else 'DID NOT FAIL'}, "
              f"{failed}/{attempted} operations failed")

    for line in problems:
        print(f"PROBLEM {line}")
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
