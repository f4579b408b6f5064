"""Per-layer metrics of a traced run.

Counts (``calls``, ``flops``, ``rows``, ``bytes``, ``points`` and the ratios)
come from one traced round and repeat exactly from run to run, except
``cli.artifact.bytes``: manifests record their command's duration.
``self_s`` is a span's time minus the time its child spans cover, as the
median over the traced rounds.  ``cli.<command>_s`` are the untraced command
times, and ``trace.overhead_s`` is the median traced round minus the median
untraced round.  A layer a workload does not use reads 0.
"""

from __future__ import annotations

import statistics

PRIMITIVES = ("autodiff.dense", "autodiff.relu", "autodiff.elementwise", "autodiff.xent")
COMMANDS = ("compare", "train", "loss_grid", "gradvar_grid", "theory", "enumerate")

# name -> (unit, better, function of one round's SpanSummary, or None when
# the value is not taken from spans)
METRICS = {}


def _metric(name, unit, better, fn=None):
    METRICS[name] = (unit, better, fn)


def _ratio(num, den):
    return num / den if den else 0.0


for span in (
    "autodiff.dense", "autodiff.relu", "autodiff.elementwise", "autodiff.xent",
    "autodiff.backward", "autodiff.sgd_step", "network.forward",
    "network.loss_and_grads", "network.evaluate", "training.train",
    "data.make_dataset", "linear_theory.spectral_norm",
    "linear_theory.grad_narrowest", "genotype.validate",
):
    _metric(f"{span}.calls", "count", "lower", lambda s, n=span: s.get("calls", n))
    _metric(f"{span}.self_s", "s", "lower", lambda s, n=span: s.get("self_s", n))
    if span == "autodiff.dense":
        _metric("autodiff.dense.flops", "flop", "lower",
                lambda s: s.get("work", "autodiff.dense"))
    if span == "network.forward":
        _metric("network.forward.rows", "count", "lower",
                lambda s: s.get("work", "network.forward"))

_metric("autodiff.records_per_forward", "count", "lower",
        lambda s: _ratio(s.count_under(PRIMITIVES, "network.forward", direct=True),
                         s.get("calls", "network.forward")))
_metric("autodiff.checkpoint.self_s", "s", "lower",
        lambda s: s.get("self_s", "autodiff.checkpoint"))
_metric("autodiff.checkpoint.bytes", "B", "lower",
        lambda s: s.get("work", "autodiff.checkpoint"))
_metric("training.steps", "count", "lower",
        lambda s: s.count_under(["network.loss_and_grads"], "training.train", direct=True))
_metric("training.compare.self_s", "s", "lower",
        lambda s: s.get("self_s", "training.compare"))
_metric("landscape.points", "count", "higher",
        lambda s: s.get("work", "landscape.loss_surface", "landscape.gradvar_surface"))
_metric("landscape.forward_per_point", "count", "lower",
        lambda s: _ratio(s.count_under(["network.forward"], "landscape.loss_surface"),
                         s.get("work", "landscape.loss_surface")))
_metric("landscape.backward_per_point", "count", "lower",
        lambda s: _ratio(s.count_under(["autodiff.backward"], "landscape.gradvar_surface"),
                         s.get("work", "landscape.gradvar_surface")))
for span in ("loss_surface", "gradvar_surface", "directions", "export"):
    _metric(f"landscape.{span}.self_s", "s", "lower",
            lambda s, n=f"landscape.{span}": s.get("self_s", n))
_metric("linear_theory.blocks", "count", "higher",
        lambda s: s.get("calls", "linear_theory.smoothness"))
for span in ("grad_batch", "smoothness", "variance"):
    _metric(f"linear_theory.{span}.self_s", "s", "lower",
            lambda s, n=f"linear_theory.{span}": s.get("self_s", n))
_metric("sampler.enumerate.assignments", "count", "lower",
        lambda s: s.get("work", "sampler.enumerate"))
_metric("sampler.enumerate.variants", "count", "higher",
        lambda s: s.get("items", "sampler.enumerate"))
_metric("sampler.enumerate.yield_ratio", "ratio", "higher",
        lambda s: _ratio(s.get("items", "sampler.enumerate"),
                         s.get("work", "sampler.enumerate")))
_metric("sampler.enumerate.self_s", "s", "lower",
        lambda s: s.get("self_s", "sampler.enumerate"))
_metric("cli.self_s", "s", "lower",
        lambda s: s.get("self_s", *(f"cli.{c}" for c in COMMANDS)))
_metric("cli.artifact.bytes", "B", "lower")
_metric("trace.overhead_s", "s", "lower")
for command in COMMANDS:
    _metric(f"cli.{command}_s", "s", "lower")


def per_layer_metrics(summaries, untraced, traced):
    """The per-layer metrics of a traced run.

    ``summaries`` holds one SpanSummary per traced round; ``untraced`` and
    ``traced`` hold each round's list of Command results."""
    values = {}
    for name, (unit, _, fn) in METRICS.items():
        if fn is None:
            continue
        if name.endswith("self_s"):
            values[name] = statistics.median(fn(s) for s in summaries)
        else:
            values[name] = fn(summaries[0])
    values["cli.artifact.bytes"] = sum(c.artifact_bytes for c in traced[0])
    round_s = [sum(c.seconds for c in cmds) for cmds in untraced]
    traced_s = [sum(c.seconds for c in cmds) for cmds in traced]
    values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(round_s)
    for command in COMMANDS:
        times = [sum(c.seconds for c in cmds if c.label == command) for cmds in untraced]
        values[f"cli.{command}_s"] = statistics.median(times)
    return {name: {"value": float(values[name]), "unit": METRICS[name][0]}
            for name in METRICS}
