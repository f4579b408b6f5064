"""Training protocol and convergence comparison across genotypes.

SGD with momentum 0.9, weight decay 3e-4 and a cosine learning-rate schedule
annealing to zero, evaluated on the held-out split once per epoch.  The first
non-finite batch loss or epoch test loss stops the run and marks it diverged;
divergence is a legitimate experimental outcome, not an error.

``train`` takes a list of (lr, seed) members.  They train in lockstep as the
rows of one (K, P) parameter array, so one batched step serves all of them,
each with its own init and shuffle streams and learning rate.  A member that
diverges is dropped with its row and the rest go on.  ``compare_convergence``
trains all (lr, seed) members of a genotype at once.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .autodiff import cosine_lr, sgd_step
from .data import Dataset
from .errors import InvalidSpec
from .network import CellNetwork, NetworkConfig
from .rng import stream

# compare's batch size, and train's default one
BATCH_SIZE = 80


@dataclass
class TrainTrace:
    """Per-epoch metrics; row 0 is the evaluation before any update."""

    rows: list = field(default_factory=list)  # dicts epoch/lr/train_loss/test_loss/test_acc
    divergence_epoch: int | None = None
    final_params: np.ndarray | None = None  # flat, in the network's layout

    @property
    def diverged(self):
        return self.divergence_epoch is not None

    def epochs_to_threshold(self, threshold):
        """First epoch whose test loss falls below the threshold; None if never."""
        for row in self.rows:
            if row["test_loss"] < threshold:
                return row["epoch"]
        return None

    def loss_curve_area(self):
        """Sum of per-epoch test losses (rectangle rule); inf for a diverged
        run, whose last row's test loss is inf."""
        area = 0.0  # added left to right: sum() compensates float sums from Python 3.12
        for row in self.rows:
            area += row["test_loss"]
        return area


def train(network: CellNetwork, dataset: Dataset, members, epochs, batch_size):
    """Run the full protocol on each ``(lr, seed)`` of ``members`` and return
    one trace per member with its final parameters.

    The members train in lockstep.  Each starts from ``stream(seed, "init")``
    and shuffles with ``stream(seed, "shuffle")``, as if run alone.
    """
    if any(lr < 0 for lr, _ in members) or batch_size < 1 or epochs < 0:
        raise ValueError("need lr >= 0, batch_size >= 1, epochs >= 0")
    if not members:
        return []
    base_lr = np.array([lr for lr, _ in members])
    params = np.stack([network.init_params(stream(seed, "init")) for _, seed in members])
    shuffles = [stream(seed, "shuffle") for _, seed in members]
    traces = [TrainTrace() for _ in members]
    n = len(dataset.train_y)
    starts = range(0, n, batch_size)
    # every field holds one row per live member: its member index, params and
    # velocity, and the epoch's lr, shuffle order, batch losses and gradients
    live = SimpleNamespace(k=np.arange(len(members)), params=params,
                           velocity=np.zeros_like(params),
                           lr=cosine_lr(0, max(epochs, 1), base_lr))

    def row(k, epoch, lr, train_loss, test_loss, test_acc):
        # Python floats, since a numpy scalar's repr would change trace.csv
        traces[k].rows.append({"epoch": epoch, "lr": float(lr), "train_loss": float(train_loss),
                               "test_loss": float(test_loss), "test_acc": float(test_acc)})

    def drop(finite, epoch):
        """Mark the members where ``finite`` is False diverged at ``epoch``,
        keeping their parameters, and drop their rows; the count that go on."""
        for j in np.flatnonzero(~finite):
            k = live.k[j]
            traces[k].divergence_epoch = epoch
            row(k, epoch, live.lr[j], math.inf, math.inf, 0.0)
            traces[k].final_params = live.params[j]
        vars(live).update({name: rows[finite] for name, rows in vars(live).items()})
        return len(live.k)

    def evaluate(epoch, train_losses):
        """Evaluate on the test split: a row per member, and ``drop`` for
        those whose test loss is not finite."""
        test_loss, test_acc = network.evaluate(dataset.test_x, dataset.test_y, live.params)
        finite = np.isfinite(test_loss)
        for j in np.flatnonzero(finite):
            row(live.k[j], epoch, live.lr[j], train_losses[j], test_loss[j], test_acc[j])
        return drop(finite, epoch)

    with np.errstate(over="ignore", invalid="ignore"):
        # one member at a time, so the 2000-row split sets no memory peak
        if not evaluate(0, [network.evaluate(dataset.train_x, dataset.train_y, p)[0]
                            for p in params]):
            return traces
        for epoch in range(epochs):
            live.lr = cosine_lr(epoch, epochs, base_lr[live.k])
            live.order = np.stack([shuffles[k].permutation(n) for k in live.k])
            live.losses = np.empty((len(live.k), len(starts)))
            for b, start in enumerate(starts):
                idx = live.order[:, start : start + batch_size]
                live.losses[:, b], live.grads = network.loss_and_grads(
                    dataset.train_x[idx], dataset.train_y[idx], live.params
                )
                finite = np.isfinite(live.losses[:, b])
                if not finite.all() and not drop(finite, epoch + 1):
                    return traces
                live.params, live.velocity = sgd_step(live.params, live.grads,
                                                      live.velocity, live.lr)
            if not evaluate(epoch + 1, live.losses.mean(axis=1)):
                return traces

    for k, p in zip(live.k, live.params):
        traces[k].final_params = p
    return traces


def _repeats(values):
    """The values that occur more than once, sorted."""
    values = sorted(values)
    return sorted({a for a, b in zip(values, values[1:]) if a == b})


def check_learning_rates(lr_set):
    """Raise InvalidSpec when ``lr_set`` repeats a rate: a report keyed by
    ``repr(lr)`` would merge the runs of the two."""
    repeated = _repeats(lr_set)
    if repeated:
        raise InvalidSpec(f"learning rates repeat: {repeated}")


def compare_convergence(genotypes, dataset, epochs, lr_set, seeds,
                        net_cfg: NetworkConfig, threshold=None):
    """Train every (genotype, lr, seed) combination and scalarize convergence.

    Convergence speed is measured as epochs-to-threshold on the test loss
    (None when never reached) plus the area under the test-loss curve.
    Returns the report document: the threshold, one entry per run, and for
    each lr (keyed by its repr) every genotype's median epochs-to-threshold,
    inf when most runs never reach it, and the genotypes ranked by that
    median, ties broken by name.  Raises InvalidSpec unless there are two or
    more genotypes, with distinct names, and the learning rates are distinct.
    """
    names = sorted(g.name for g in genotypes)
    if len(names) < 2:
        raise InvalidSpec(f"need at least two genotypes to compare, got {len(names)}")
    repeated = _repeats(names)
    if repeated:
        raise InvalidSpec(f"genotype names repeat: {repeated}")
    check_learning_rates(lr_set)
    if not seeds:
        raise ValueError("need at least one seed")
    if threshold is None:
        threshold = 0.5 * math.log(dataset.spec.num_classes)
    entries = []
    members = [(lr, seed) for lr in lr_set for seed in seeds]
    # build every network first, so a cell no network takes fails before any run
    networks = [CellNetwork(g, net_cfg) for g in genotypes]
    for g, network in zip(genotypes, networks):
        traces = train(network, dataset, members, epochs, BATCH_SIZE)
        for (lr, seed), trace in zip(members, traces):
            entries.append({
                "genotype": g.name, "lr": lr, "seed": seed,
                "epochs_to_threshold": trace.epochs_to_threshold(threshold),
                "area": trace.loss_curve_area(), "diverged": trace.diverged,
                "divergence_epoch": trace.divergence_epoch,
                "final_acc": trace.rows[-1]["test_acc"],
            })
    report = {"threshold": threshold, "entries": entries, "rankings": {}, "medians": {}}
    for lr in lr_set:
        medians = {name: statistics.median(
            math.inf if e["epochs_to_threshold"] is None else e["epochs_to_threshold"]
            for e in entries if e["genotype"] == name and e["lr"] == lr)
            for name in names}
        report["rankings"][repr(lr)] = sorted(medians, key=medians.get)
        report["medians"][repr(lr)] = medians
    return report
