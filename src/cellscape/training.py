"""Training protocol and convergence comparison across genotypes.

SGD with momentum 0.9, weight decay 3e-4 and a cosine learning-rate schedule
annealing to zero, evaluated on the held-out split once per epoch.  The first
non-finite batch loss or epoch test loss stops the run and marks it diverged;
divergence is a legitimate experimental outcome, not an error.

``train`` takes a list of configs.  Their members train in lockstep as the
rows of one (K, P) parameter array, so one batched step serves all of them,
each with its own init and shuffle streams and learning rate.  A member that
diverges is dropped with its row and the rest go on.  ``compare_convergence``
trains all (lr, seed) members of a genotype at once.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import cosine_lr, sgd_step
from .data import Dataset
from .network import CellNetwork, NetworkConfig
from .rng import stream


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.025
    batch_size: int = 80
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("need lr >= 0, batch_size >= 1, epochs >= 0")


@dataclass
class TrainTrace:
    """Per-epoch metrics; row 0 is the evaluation before any update."""

    rows: list = field(default_factory=list)  # dicts epoch/lr/train_loss/test_loss/test_acc
    diverged: bool = False
    divergence_epoch: int | None = None
    final_params: np.ndarray | None = None  # flat, in the network's layout

    @property
    def final_row(self):
        return self.rows[-1]

    def epochs_to_threshold(self, threshold):
        """First epoch whose test loss falls below the threshold; None if never."""
        for row in self.rows:
            if math.isfinite(row["test_loss"]) and row["test_loss"] < threshold:
                return row["epoch"]
        return None

    def loss_curve_area(self):
        """Sum of per-epoch test losses (rectangle rule); inf for diverged runs."""
        if self.diverged:
            return math.inf
        return float(sum(row["test_loss"] for row in self.rows))


def train(network: CellNetwork, dataset: Dataset, cfgs):
    """Run the full protocol on a list of configs, differing only in ``lr``
    and ``seed``, and return one trace per config with its final parameters.

    The members train in lockstep.  Each starts from ``stream(seed, "init")``
    and shuffles with ``stream(seed, "shuffle")``, as if run alone.
    """
    if not cfgs:
        return []
    cfg = cfgs[0]
    if any(replace(c, lr=cfg.lr, seed=cfg.seed) != cfg for c in cfgs):
        raise ValueError("lockstep members may differ only in lr and seed")
    params = np.stack([network.init_params(stream(c.seed, "init")) for c in cfgs])
    velocity = np.zeros_like(params)
    shuffles = [stream(c.seed, "shuffle") for c in cfgs]
    traces = [TrainTrace() for _ in cfgs]
    live = list(range(len(cfgs)))  # member index -> config index

    def row(k, epoch, lr, train_loss, test_loss, test_acc):
        traces[k].rows.append({"epoch": epoch, "lr": lr, "train_loss": train_loss,
                               "test_loss": test_loss, "test_acc": test_acc})

    def diverge(finite, epoch, lrs):
        """Mark the members where ``finite`` is False diverged at ``epoch``,
        keeping their parameters; the indices of the members that go on."""
        for j in np.flatnonzero(~finite):
            k = live[j]
            traces[k].diverged = True
            traces[k].divergence_epoch = epoch
            row(k, epoch, lrs[j], math.inf, math.inf, 0.0)
            traces[k].final_params = params[j]
        return np.flatnonzero(finite)

    def record(epoch, lrs, train_losses):
        """Evaluate on the test split: a row per member, and ``diverge`` for
        those whose test loss is not finite."""
        test_loss, test_acc = network.evaluate(dataset.test_x, dataset.test_y, params)
        finite = np.isfinite(test_loss)
        for j in np.flatnonzero(finite):
            row(live[j], epoch, lrs[j], train_losses[j], float(test_loss[j]),
                float(test_acc[j]))
        return diverge(finite, epoch, lrs)

    n = len(dataset.train_y)
    with np.errstate(over="ignore", invalid="ignore"):
        # one member at a time, so the 2000-row split sets no memory peak
        keep = record(0, [cosine_lr(0, max(cfg.epochs, 1), c.lr) for c in cfgs],
                      [float(network.evaluate(dataset.train_x, dataset.train_y, p)[0])
                       for p in params])
        for epoch in range(cfg.epochs):
            live = [live[j] for j in keep]
            params, velocity = params[keep], velocity[keep]
            if not live:
                return traces
            lrs = [cosine_lr(epoch, cfg.epochs, cfgs[k].lr) for k in live]
            orders = np.stack([shuffles[k].permutation(n) for k in live])
            epoch_losses = [[] for _ in live]
            for start in range(0, n, cfg.batch_size):
                idx = orders[:, start : start + cfg.batch_size]
                loss, grads = network.loss_and_grads(
                    dataset.train_x[idx], dataset.train_y[idx], params
                )
                finite = np.isfinite(loss)
                if not finite.all():
                    keep = diverge(finite, epoch + 1, lrs)
                    if not len(keep):
                        return traces
                    live, lrs = [live[j] for j in keep], [lrs[j] for j in keep]
                    epoch_losses = [epoch_losses[j] for j in keep]
                    orders, loss, grads = orders[keep], loss[keep], grads[keep]
                    params, velocity = params[keep], velocity[keep]
                for losses, value in zip(epoch_losses, loss):
                    losses.append(value)
                params, velocity = sgd_step(params, grads, velocity, lrs)
            keep = record(epoch + 1, lrs, [float(np.mean(losses)) for losses in epoch_losses])

    for j in keep:
        traces[live[j]].final_params = params[j]
    return traces


@dataclass
class ConvergenceReport:
    threshold: float
    entries: list = field(default_factory=list)
    # entries: dicts with genotype/lr/seed/epochs_to_threshold/area/diverged/final_acc

    def median_epochs(self, genotype_name, lr):
        vals = [
            (math.inf if e["epochs_to_threshold"] is None else e["epochs_to_threshold"])
            for e in self.entries
            if e["genotype"] == genotype_name and e["lr"] == lr
        ]
        return statistics.median(vals) if vals else math.inf

    def diverged_runs(self):
        return [e for e in self.entries if e["diverged"]]

    def ranking(self, lr):
        names = sorted({e["genotype"] for e in self.entries})
        return sorted(names, key=lambda name: self.median_epochs(name, lr))

    def to_dict(self):
        return {"threshold": self.threshold, "entries": self.entries}


def compare_convergence(genotypes, dataset, cfg: TrainConfig, lr_set, seeds,
                        net_cfg: NetworkConfig, threshold=None) -> ConvergenceReport:
    """Train every (genotype, lr, seed) combination and scalarize convergence.

    Convergence speed is measured as epochs-to-threshold on the test loss
    (None when never reached) plus the area under the test-loss curve.
    """
    if len(genotypes) < 2:
        raise ValueError("need at least two genotypes to compare")
    if not seeds:
        raise ValueError("need at least one seed")
    if threshold is None:
        threshold = 0.5 * math.log(dataset.spec.num_classes)
    report = ConvergenceReport(threshold=threshold)
    members = [(lr, seed) for lr in lr_set for seed in seeds]
    for g in genotypes:
        traces = train(CellNetwork(g, net_cfg), dataset,
                       [replace(cfg, lr=lr, seed=seed) for lr, seed in members])
        for (lr, seed), trace in zip(members, traces):
            report.entries.append({
                "genotype": g.name, "lr": lr, "seed": seed,
                "epochs_to_threshold": trace.epochs_to_threshold(threshold),
                "area": trace.loss_curve_area(), "diverged": trace.diverged,
                "divergence_epoch": trace.divergence_epoch,
                "final_acc": trace.final_row["test_acc"],
            })
    return report
