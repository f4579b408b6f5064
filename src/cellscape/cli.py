"""Command-line front end.

Every command flows all randomness from one ``--seed`` (split into named
streams), writes its data artifacts first and a ``manifest.json`` last, and
exits with: 0 success, 1 usage/parse error, 2 validation error, 3 numerical
divergence reported, 4 theorem-bound violation reported.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import click

from . import __version__
from .artifacts import dump, read_json, typed, write_csv, write_json
from .data import DatasetSpec, make_dataset, spec_from_json
from .errors import (
    CellscapeError,
    GenotypeError,
    InvalidSearchSpace,
    InvalidSpec,
    MissingManifest,
    ParseError,
    check_float64s,
)
from .genotype import adapt_to_widest_shallowest, load_genotype, save_genotype
from .landscape import (
    evaluation_subset,
    export_grid,
    gradient_variance_surface,
    grid_coordinates,
    loss_surface,
    sample_directions,
)
from .linear_theory import theory_report
from .metrics import cell_depth, cell_width, extremal_width_depth, per_node_widths
from .network import CellNetwork, NetworkConfig
from .rng import RNG_ALGORITHM
from .sampler import connection_space_counts, count_connection_variants, sample_variants
from .training import BATCH_SIZE, check_learning_rates, compare_convergence, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_VIOLATION = 4


def _write_manifest(out_dir, seeds, artifacts, **extra):
    """manifest.json of the running command, its name and flags read from click."""
    ctx = click.get_current_context()
    doc = {
        "command": ctx.info_name,
        "flags": {p.opts[0].lstrip("-"): ctx.params[p.name] for p in ctx.command.params},
        "seeds": seeds,
        "rng_algorithm": RNG_ALGORITHM,
        "artifacts": sorted(str(a) for a in artifacts),
        "version": __version__,
        "duration_seconds": round(time.monotonic() - ctx.meta["started"], 3),
        **extra,
    }
    write_json(Path(out_dir) / "manifest.json", doc)


@click.group()
@click.pass_context
def cli(ctx):
    """Cell-topology metrics, variant sampling, desk-scale experiments."""
    ctx.meta["started"] = time.monotonic()


def _finite(ctx, param, value):
    if value is not None and not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


@cli.command()
@click.option("--genotype", "genotype_file", required=True, type=click.Path())
@click.option("--out", type=click.Path(), default=None, help="Optional report file.")
def analyze(genotype_file, out):
    """Width/depth report for one genotype file."""
    g = load_genotype(genotype_file)
    width, depth = cell_width(g), cell_depth(g)
    doc = {
        "name": g.name,
        "N": g.total_nodes,
        "M": g.num_inputs,
        "n": len(g.nodes),
        "width_in_c": str(width),
        "width_in_c_float": float(width),
        "depth": depth,
        "per_node_width": {str(k): str(v) for k, v in per_node_widths(g).items()},
        "is_extremal": (width, depth) == extremal_width_depth(g.total_nodes, g.num_inputs),
    }
    if out:
        write_json(out, doc)
    dump(doc, sys.stdout)


@cli.command()
@click.option("--genotype", "genotype_file", required=True, type=click.Path())
@click.option("--mode", type=click.Choice(["connection", "operation"]), required=True)
@click.option("--count", "count_", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--ops", default="linear,identity,zero", show_default=True,
              help="Candidate operation kinds for operation mode.")
@click.option("--out", "out_dir", required=True, type=click.Path())
def variants(genotype_file, mode, count_, seed, ops, out_dir):
    """Sample random connection or operation variants of a genotype."""
    g = load_genotype(genotype_file)
    sampled = sample_variants(g, mode, count_, seed, operation_set=tuple(ops.split(",")))
    out = Path(out_dir)
    artifacts = []
    entries = []
    for i, v in enumerate(sampled):
        path = out / f"variant_{i:03d}.json"
        save_genotype(v, path)
        artifacts.append(path.name)
        entries.append(
            {
                "file": path.name,
                "name": v.name,
                "width_in_c": str(cell_width(v)),
                "depth": cell_depth(v),
            }
        )
    _write_manifest(out, [seed], artifacts, variants=entries)
    click.echo(f"wrote {len(sampled)} variants to {out}")


@cli.command()
@click.option("--nodes", "n_total", type=int, required=True, help="Total node count N.")
@click.option("--inputs", "num_inputs", type=int, default=2, show_default=True)
@click.option("--enumerate", "do_enumerate", is_flag=True,
              help="Also print the genotype's slot-assignment counts, in closed form, "
                   "not by enumeration.")
@click.option("--genotype", "genotype_file", type=click.Path(), default=None,
              help="Genotype to count (with --enumerate, and only with it).")
def count(n_total, num_inputs, do_enumerate, genotype_file):
    """Closed-form connection-space size, optionally with a genotype's counts."""
    if do_enumerate != bool(genotype_file):
        raise click.UsageError("--enumerate and --genotype go together")
    formula = count_connection_variants(n_total, num_inputs)
    click.echo(f"formula (N-2)!/(M-1)! for N={n_total}, M={num_inputs}: {formula}")
    if do_enumerate:
        g = load_genotype(genotype_file)
        raw, dedup, g_formula = connection_space_counts(g)
        click.echo(f"slot assignments (raw): {raw}")
        click.echo(f"slot assignments (deduplicated): {dedup}")
        click.echo(f"formula for this genotype's (N={g.total_nodes}, M={g.num_inputs}): {g_formula}")


@cli.command()
@click.option("--n", "n_nodes", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--dim", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=200, show_default=True,
              help="Accepted and unused: the smoothness check is exact. Kept until the "
                   "benchmark stops passing it.")
@click.option("--samples", type=click.IntRange(min=2), default=2000, show_default=True)
@click.option("--instances", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--scale", type=float, default=1.0, show_default=True, callback=_finite,
              help="Weight scale of the random instances.")
@click.option("--out", "out_file", required=True, type=click.Path())
def theory(n_nodes, dim, trials, samples, instances, seed, scale, out_file):
    """Bound checks on random chained linear cells: exact smoothness, sampled variance."""
    doc = theory_report(n_nodes, dim, samples, instances, seed, scale)
    violations = doc["violation_count"]
    out_path = Path(out_file)
    write_json(out_path, doc)
    _write_manifest(out_path.parent, [seed], [out_path.name], violation_count=violations)
    if violations:
        click.echo(f"{violations} bound violations reported in {out_path}")
        sys.exit(EXIT_VIOLATION)
    click.echo(f"no bound violations across {instances} instances; report in {out_path}")


def _network_options(command):
    """--layers, --dim and --dataset-spec, shared by the commands that build a
    network."""
    command = click.option("--dataset-spec", "dataset_spec_file", type=click.Path(),
                           default=None)(command)
    command = click.option("--dim", type=click.IntRange(min=2), default=16,
                           show_default=True)(command)
    return click.option("--layers", type=click.IntRange(min=1), default=6,
                        show_default=True)(command)


def _learning_rates(ctx, param, value):
    """--lrs as a list of distinct values, each a finite number >= 0."""
    lrs = [_finite(ctx, param, click.FloatRange(min=0).convert(v, param, ctx))
           for v in value.split(",")]
    try:
        check_learning_rates(lrs)
    except InvalidSpec as exc:  # a usage error here, as every bad flag value is
        raise click.BadParameter(str(exc)) from None
    return lrs


def _dataset_and_network(dataset_spec_file, layers, dim):
    """The synthetic dataset (default spec unless a file is given) and the
    config of a network sized for it."""
    spec = spec_from_json(dataset_spec_file) if dataset_spec_file else DatasetSpec()
    dataset = make_dataset(spec)
    return dataset, NetworkConfig(
        layers=layers, dim=dim, num_classes=spec.num_classes, input_dim=spec.dim
    )


@cli.command(name="train")
@click.option("--genotype", "genotype_file", required=True, type=click.Path())
@_network_options
@click.option("--lr", type=click.FloatRange(min=0), default=0.025, show_default=True,
              callback=_finite)
@click.option("--epochs", type=click.IntRange(min=0), default=30, show_default=True)
@click.option("--batch-size", type=click.IntRange(min=1), default=BATCH_SIZE, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out-dir", required=True, type=click.Path())
def train_cmd(genotype_file, layers, dim, lr, epochs, batch_size, seed,
              dataset_spec_file, out_dir):
    """Train one genotype on the synthetic dataset; writes trace.csv + final.ckpt."""
    g = load_genotype(genotype_file)
    dataset, net_cfg = _dataset_and_network(dataset_spec_file, layers, dim)
    net = CellNetwork(g, net_cfg)
    [trace] = train(net, dataset, [(lr, seed)], epochs, batch_size)

    out = Path(out_dir)
    trace_path = out / "trace.csv"
    write_csv(trace_path, list(trace.rows[0]), [row.values() for row in trace.rows])
    ckpt_path = out / "final.ckpt"
    net.layout.save(trace.final_params, ckpt_path)
    final = trace.rows[-1]
    _write_manifest(out, [seed], ["trace.csv", "final.ckpt"], diverged=trace.diverged,
                    divergence_epoch=trace.divergence_epoch, final=final)
    if trace.diverged:
        click.echo(f"diverged at epoch {trace.divergence_epoch}; trace in {trace_path}")
        sys.exit(EXIT_DIVERGENCE)
    click.echo(f"final test loss {final['test_loss']:.4f}, acc {final['test_acc']:.3f}; "
               f"artifacts in {out}")


@cli.command()
@click.option("--genotypes", "genotype_dir", required=True, type=click.Path(),
              help="Directory of genotype JSON files.")
@click.option("--lrs", "lr_set", default="0.0025,0.025,0.25", show_default=True,
              callback=_learning_rates)
@click.option("--seeds", "num_seeds", type=click.IntRange(min=1), default=5,
              show_default=True)
@click.option("--epochs", type=click.IntRange(min=0), default=30, show_default=True)
@_network_options
@click.option("--threshold", type=float, default=None, callback=_finite,
              help="Test-loss threshold; default 0.5*ln(classes).")
@click.option("--out", "out_file", required=True, type=click.Path())
def compare(genotype_dir, lr_set, num_seeds, epochs, layers, dim, threshold,
            dataset_spec_file, out_file):
    """Convergence comparison across genotypes and learning rates."""
    # each member holds a parameter row of one (K, P) array: reject a K past
    # numpy's index limit before any list of seeds is built
    check_float64s(len(lr_set) * num_seeds, "one parameter per (lr, seed) member")
    files = sorted(Path(genotype_dir).glob("*.json"))
    files = [f for f in files if f.name != "manifest.json"]
    genotypes = [load_genotype(f) for f in files]
    dataset, net_cfg = _dataset_and_network(dataset_spec_file, layers, dim)
    seeds = list(range(num_seeds))
    doc = compare_convergence(
        genotypes, dataset, epochs, lr_set, seeds, net_cfg, threshold=threshold
    )
    out_path = Path(out_file)
    write_json(out_path, doc)
    diverged = sum(e["diverged"] for e in doc["entries"])
    _write_manifest(out_path.parent, seeds, [out_path.name], diverged_runs=diverged)
    if diverged:
        click.echo(f"{diverged} runs diverged; report in {out_path}")
        sys.exit(EXIT_DIVERGENCE)
    click.echo(f"report in {out_path}")


def _odd(ctx, param, value):
    if value % 2 == 0:
        raise click.BadParameter(f"{value} is even; the grid must be centred on 0")
    return value


@cli.command()
@click.option("--checkpoint", "checkpoint_file", required=True, type=click.Path())
@click.option("--genotype", "genotype_file", required=True, type=click.Path())
@_network_options
@click.option("--mode", type=click.Choice(["loss", "gradvar", "gradstd"]),
              default="loss", show_default=True)
@click.option("--grid", "grid_points", type=click.IntRange(min=1), default=41,
              show_default=True, callback=_odd)
@click.option("--range", "extent", type=click.FloatRange(min=0, min_open=True), default=1.0,
              show_default=True, callback=_finite)
@click.option("--norm", type=click.Choice(["blockwise", "none"]),
              default="blockwise", show_default=True)
@click.option("--subset", type=click.IntRange(min=1), default=256, show_default=True,
              help="Held-out instances used for evaluation.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_file", required=True, type=click.Path())
def landscape(checkpoint_file, genotype_file, dataset_spec_file, mode, grid_points,
              extent, norm, layers, dim, subset, seed, out_file):
    """Loss or gradient-variance surface around a trained checkpoint."""
    g = load_genotype(genotype_file)
    dataset, net_cfg = _dataset_and_network(dataset_spec_file, layers, dim)
    net = CellNetwork(g, net_cfg)
    checkpoint = net.layout.load(checkpoint_file)
    pair = sample_directions(checkpoint, net.layout, seed, normalization=norm)
    coords = grid_coordinates(grid_points, extent)
    x, y = evaluation_subset(dataset, subset, seed)
    metadata = {
        "seed": seed, "checkpoint": str(checkpoint_file),
        "dataset_seed": dataset.spec.seed, "normalization": norm, "mode": mode,
    }
    if mode == "loss":
        surface = loss_surface(net, checkpoint, x, y, pair, coords)
    else:
        surface = gradient_variance_surface(net, checkpoint, x, y, pair, coords, mode=mode)
    out_path = Path(out_file)
    export_grid(out_path, coords, surface, metadata)
    _write_manifest(out_path.parent, [seed], [out_path.name])
    click.echo(f"{mode} grid ({grid_points}x{grid_points}) in {out_path}")


@cli.command()
@click.option("--genotype", "genotype_file", required=True, type=click.Path())
@click.option("--out", "out_file", required=True, type=click.Path())
def adapt(genotype_file, out_file):
    """Rewire a genotype to its widest, shallowest form."""
    g = load_genotype(genotype_file)
    adapted = adapt_to_widest_shallowest(g)
    save_genotype(adapted, out_file)
    click.echo(
        f"adapted {g.name}: width {cell_width(adapted)}c, depth {cell_depth(adapted)} "
        f"-> {out_file}"
    )


def _count(doc, key, path):
    """A manifest's count under key, 0 when absent: a JSON integer, at least 0."""
    value = typed(doc.get(key, 0), (int,), f"{path}: {key}")
    if value < 0:
        raise ParseError(f"{path}: {key} must be at least 0, not {value}")
    return value


@cli.command()
@click.option("--run-dir", "run_dir", required=True, type=click.Path())
@click.option("--out", "out_file", type=click.Path(), default=None)
def report(run_dir, out_file):
    """Consolidate manifests under a run directory into one summary."""
    manifests = sorted(Path(run_dir).rglob("manifest.json"))
    if not manifests:
        raise MissingManifest(f"no manifest.json found under {run_dir}")
    merged = []
    finals = []
    violations = 0
    diverged = 0
    for path in manifests:
        doc = typed(read_json(path), (dict,), f"{path}: the manifest")
        doc["_path"] = str(path)
        merged.append(doc)
        violations += _count(doc, "violation_count", path)
        diverged += (_count(doc, "diverged_runs", path)
                     + typed(doc.get("diverged", False), (bool,), f"{path}: diverged"))
        if "final" in doc:
            final = typed(doc["final"], (dict,), f"{path}: final")
            if "test_acc" not in final:
                raise ParseError(f"{path}: final.test_acc is missing")
            finals.append((path, typed(final["test_acc"], (int, float),
                                       f"{path}: final.test_acc")))
    summary = {
        "run_dir": str(run_dir),
        "manifests": merged,
        "theorem_violations": violations,
        "diverged_runs": diverged,
    }
    if out_file:
        write_json(out_file, summary)
    click.echo(f"{len(merged)} manifests; {violations} theorem violations; "
               f"{diverged} diverged runs")
    for path, acc in finals:
        click.echo(f"  {path}: final test_acc {acc:.3f}")
    if violations:
        sys.exit(EXIT_VIOLATION)
    if diverged:
        sys.exit(EXIT_DIVERGENCE)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(EXIT_USAGE)
    except click.Abort:
        sys.exit(EXIT_USAGE)
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    except (GenotypeError, InvalidSpec, InvalidSearchSpace) as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    except (CellscapeError, OSError, MemoryError) as exc:
        click.echo(f"error: {str(exc) or 'out of memory'}", err=True)
        sys.exit(EXIT_VALIDATION)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
