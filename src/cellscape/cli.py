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
import numpy as np

from . import __version__
from .artifacts import dump, read_json, write_csv, write_json
from .autodiff import load_checkpoint, save_checkpoint
from .data import DatasetSpec, make_dataset, spec_from_json
from .errors import (
    CellscapeError,
    GenotypeError,
    InvalidSearchSpace,
    InvalidSpec,
    MissingManifest,
    ParseError,
)
from .genotype import (
    adapt_to_widest_shallowest,
    load_genotype,
    save_genotype,
    validate_genotype,
)
from .landscape import (
    export_grid,
    gradient_variance_surface,
    grid_coordinates,
    loss_surface,
    sample_directions,
)
from .linear_theory import (
    random_model,
    verify_block_smoothness,
    verify_gradient_variance,
)
from .metrics import cell_depth, cell_width, extremal_width_depth, per_node_widths
from .network import CellNetwork, NetworkConfig
from .rng import RNG_ALGORITHM, stream
from .sampler import connection_space_counts, count_connection_variants, sample_variants
from .training import TrainConfig, compare_convergence, train

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
    dag = validate_genotype(g)
    width, depth = cell_width(dag), cell_depth(dag)
    doc = {
        "name": g.name,
        "N": g.total_nodes,
        "M": g.num_inputs,
        "n": dag.num_intermediate,
        "width_in_c": str(width),
        "width_in_c_float": float(width),
        "depth": depth,
        "per_node_width": {str(k): str(v) for k, v in per_node_widths(dag).items()},
        "is_extremal": (width, depth) == extremal_width_depth(g.total_nodes, g.num_inputs),
    }
    dump(doc, sys.stdout)
    if out:
        write_json(out, doc)


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
    validate_genotype(g)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sampled = sample_variants(g, mode, count_, seed, operation_set=tuple(ops.split(",")))
    artifacts = []
    entries = []
    for i, v in enumerate(sampled):
        path = out / f"variant_{i:03d}.json"
        save_genotype(v, path)
        artifacts.append(path.name)
        dag = validate_genotype(v)
        entries.append(
            {
                "file": path.name,
                "name": v.name,
                "width_in_c": str(cell_width(dag)),
                "depth": cell_depth(dag),
            }
        )
    _write_manifest(out, [seed], artifacts, variants=entries)
    click.echo(f"wrote {len(sampled)} variants to {out}")


@cli.command()
@click.option("--nodes", "n_total", type=int, required=True, help="Total node count N.")
@click.option("--inputs", "num_inputs", type=int, default=2, show_default=True)
@click.option("--enumerate", "do_enumerate", is_flag=True)
@click.option("--genotype", "genotype_file", type=click.Path(), default=None,
              help="Genotype to enumerate (required with --enumerate).")
def count(n_total, num_inputs, do_enumerate, genotype_file):
    """Closed-form connection-space size, optionally with enumeration counts."""
    formula = count_connection_variants(n_total, num_inputs)
    click.echo(f"formula (N-2)!/(M-1)! for N={n_total}, M={num_inputs}: {formula}")
    if do_enumerate:
        if not genotype_file:
            raise click.UsageError("--enumerate requires --genotype")
        g = load_genotype(genotype_file)
        validate_genotype(g)
        raw, dedup, g_formula = connection_space_counts(g)
        click.echo(f"slot assignments (raw): {raw}")
        click.echo(f"slot assignments (deduplicated): {dedup}")
        click.echo(f"formula for this genotype's (N={g.total_nodes}, M={g.num_inputs}): {g_formula}")


@cli.command()
@click.option("--n", "n_nodes", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--dim", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--samples", type=click.IntRange(min=2), default=2000, show_default=True)
@click.option("--instances", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--scale", type=float, default=1.0, show_default=True, callback=_finite,
              help="Weight scale of the random instances.")
@click.option("--out", "out_file", required=True, type=click.Path())
def theory(n_nodes, dim, trials, samples, instances, seed, scale, out_file):
    """Randomized smoothness/variance bound checks on chained linear cells."""
    rng = stream(seed, "theory")
    results = []
    violations = []
    # an overflowing instance is a result, a non-finite check a violation
    with np.errstate(over="ignore", invalid="ignore"):
        for inst in range(instances):
            model = random_model(n_nodes, dim, rng, scale=scale)
            x = rng.standard_normal(dim)
            blocks = []
            for i in range(1, n_nodes + 1):
                smooth = verify_block_smoothness(model, x, i, rng, trials=trials)
                var = verify_gradient_variance(model, i, rng.standard_normal((samples, dim)))
                blocks.append(
                    {
                        "block": i,
                        "lambda": smooth.lambdas[i - 1],
                        "smoothness": smooth.to_dict(),
                        "variance": var.to_dict(),
                    }
                )
                if smooth.violated or var.violated:
                    violations.append(
                        {
                            "instance": inst,
                            "block": i,
                            "weights": [w.tolist() for w in model.weights],
                            "targets": [t.tolist() for t in model.targets],
                            "input": x.tolist(),
                        }
                    )
            results.append({"instance": inst, "blocks": blocks})
    doc = {
        "n": n_nodes,
        "dim": dim,
        "trials": trials,
        "samples": samples,
        "instances": instances,
        "seed": seed,
        "scale": scale,
        "results": results,
        "violation_count": len(violations),
        "violations": violations,
    }
    out_path = Path(out_file)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_json(out_path, doc)
    _write_manifest(out_path.parent, [seed], [out_path.name],
                    violation_count=len(violations))
    if violations:
        click.echo(f"{len(violations)} bound violations reported in {out_path}")
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
    if len(set(lrs)) < len(lrs):
        raise click.BadParameter(f"{value} repeats a learning rate")
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
@click.option("--batch-size", type=click.IntRange(min=1), default=80, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out-dir", required=True, type=click.Path())
def train_cmd(genotype_file, layers, dim, lr, epochs, batch_size, seed,
              dataset_spec_file, out_dir):
    """Train one genotype on the synthetic dataset; writes trace.csv + final.ckpt."""
    g = load_genotype(genotype_file)
    dataset, net_cfg = _dataset_and_network(dataset_spec_file, layers, dim)
    cfg = TrainConfig(lr=lr, epochs=epochs, batch_size=batch_size, seed=seed)
    net = CellNetwork(g, net_cfg)
    [trace] = train(net, dataset, [cfg])

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.csv"
    columns = ["epoch", "lr", "train_loss", "test_loss", "test_acc"]
    write_csv(trace_path, columns, [[row[c] for c in columns] for row in trace.rows])
    ckpt_path = out / "final.ckpt"
    save_checkpoint(trace.final_params, ckpt_path, net.layout)
    _write_manifest(out, [seed], ["trace.csv", "final.ckpt"], diverged=trace.diverged,
                    divergence_epoch=trace.divergence_epoch, final=trace.final_row)
    if trace.diverged:
        click.echo(f"diverged at epoch {trace.divergence_epoch}; trace in {trace_path}")
        sys.exit(EXIT_DIVERGENCE)
    click.echo(
        f"final test loss {trace.final_row['test_loss']:.4f}, "
        f"acc {trace.final_row['test_acc']:.3f}; artifacts in {out}"
    )


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
    files = sorted(Path(genotype_dir).glob("*.json"))
    files = [f for f in files if f.name != "manifest.json"]
    genotypes = [load_genotype(f) for f in files]
    if len(genotypes) < 2:
        raise InvalidSpec(f"need >= 2 genotype files in {genotype_dir}")
    names = [g.name for g in genotypes]
    if len(set(names)) < len(names):
        repeated = sorted({n for n in names if names.count(n) > 1})
        raise InvalidSpec(f"genotype names repeat in {genotype_dir}: {repeated}")
    dataset, net_cfg = _dataset_and_network(dataset_spec_file, layers, dim)
    seeds = list(range(num_seeds))
    cfg = TrainConfig(epochs=epochs)
    doc = compare_convergence(
        genotypes, dataset, cfg, lr_set, seeds, net_cfg, threshold=threshold
    )
    out_path = Path(out_file)
    out_path.parent.mkdir(parents=True, exist_ok=True)
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
    checkpoint = load_checkpoint(checkpoint_file, net.layout)
    pair = sample_directions(checkpoint, net.layout, seed, normalization=norm)
    coords = grid_coordinates(grid_points, extent)
    pick = stream(seed, "data").choice(
        len(dataset.test_y), size=min(subset, len(dataset.test_y)), replace=False
    )
    pick.sort()
    x, y = dataset.test_x[pick], dataset.test_y[pick]
    metadata = {
        "seed": seed, "checkpoint": str(checkpoint_file),
        "dataset_seed": dataset.spec.seed, "normalization": norm, "mode": mode,
    }
    if mode == "loss":
        grid = loss_surface(net, checkpoint, x, y, pair, coords, coords, metadata)
    else:
        grid = gradient_variance_surface(
            net, checkpoint, x, y, pair, coords, coords, mode=mode, metadata=metadata
        )
    out_path = Path(out_file)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    export_grid(grid, out_path)
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
    dag = validate_genotype(adapted)
    click.echo(
        f"adapted {g.name}: width {cell_width(dag)}c, depth {cell_depth(dag)} "
        f"-> {out_file}"
    )


def _count(doc, key, path):
    """A manifest's integer count ``key``, 0 when absent."""
    value = doc.get(key, 0)
    if type(value) is not int:
        raise ParseError(f"{path}: {key} is not an integer: {value!r}")
    return value


def _flag(doc, key, path):
    """A manifest's boolean flag ``key`` as 0 or 1, 0 when absent."""
    value = doc.get(key, False)
    if type(value) is not bool:
        raise ParseError(f"{path}: {key} is not a boolean: {value!r}")
    return int(value)


def _final_acc(doc, path):
    """A manifest's final test accuracy, None when it has no ``final``."""
    if "final" not in doc:
        return None
    final = doc["final"]
    acc = final.get("test_acc") if isinstance(final, dict) else None
    if type(acc) not in (int, float):
        raise ParseError(f"{path}: final is not an object with a numeric test_acc: {final!r}")
    return acc


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
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise ParseError(f"{path}: manifest is not a JSON object")
        doc["_path"] = str(path)
        merged.append(doc)
        violations += _count(doc, "violation_count", path)
        diverged += _count(doc, "diverged_runs", path) + _flag(doc, "diverged", path)
        acc = _final_acc(doc, path)
        if acc is not None:
            finals.append((path, acc))
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
    except (CellscapeError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
