"""Spans around the program's public callables, recorded from outside it.

``Tracer.install`` replaces each callable listed in ``LAYERS`` with a wrapper
that records one span per call: name, start, end and parent span.  A plain
function is replaced at its defining module and in every ``cellscape`` module
that imported it by name; a method is replaced on its class.  ``uninstall``
puts the originals back.  Spans are kept in flat in-memory arrays and written
out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import os
import sys
import time
from array import array

import numpy as np

TAPE_ELEMENTWISE = ("add", "add_bias", "mean_of", "zeros_like", "concat")


def _dense_flops(args, kwargs, result):
    x, w = args[1], args[2]
    return 2 * x.data.shape[0] * w.data.shape[0] * w.data.shape[1]


def _rows(args, kwargs, result):
    return len(args[1])


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def _loaded_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _grid_points(args, kwargs, result):
    return result.values.size


def _assignments(args, kwargs, result):
    g = args[0]
    total = 1
    for i, node in enumerate(g.nodes):
        total *= (g.num_inputs + i) ** len(node.ops)
    return total


# (span name, module, attribute or "Class.method", work counter) per layer.
# The work counter adds a number per call: flops, rows, bytes or points.
LAYERS = [
    *(("autodiff.elementwise", "cellscape.autodiff", f"Tape.{m}", None)
      for m in TAPE_ELEMENTWISE),
    ("autodiff.dense", "cellscape.autodiff", "Tape.dense", _dense_flops),
    ("autodiff.relu", "cellscape.autodiff", "Tape.relu", None),
    ("autodiff.xent", "cellscape.autodiff", "Tape.softmax_cross_entropy", None),
    ("autodiff.backward", "cellscape.autodiff", "backward", None),
    ("autodiff.sgd_step", "cellscape.autodiff", "sgd_step", None),
    ("autodiff.checkpoint", "cellscape.autodiff", "save_checkpoint", _saved_bytes),
    ("autodiff.checkpoint", "cellscape.autodiff", "load_checkpoint", _loaded_bytes),
    ("network.forward", "cellscape.network", "CellNetwork.forward", _rows),
    ("network.loss_and_grads", "cellscape.network", "CellNetwork.loss_and_grads", None),
    ("network.evaluate", "cellscape.network", "CellNetwork.evaluate", None),
    ("training.train", "cellscape.training", "train", None),
    ("training.compare", "cellscape.training", "compare_convergence", None),
    ("data.make_dataset", "cellscape.data", "make_dataset", None),
    ("landscape.loss_surface", "cellscape.landscape", "loss_surface", _grid_points),
    ("landscape.gradvar_surface", "cellscape.landscape",
     "gradient_variance_surface", _grid_points),
    ("landscape.directions", "cellscape.landscape", "sample_directions", None),
    ("landscape.export", "cellscape.landscape", "export_grid", None),
    ("linear_theory.spectral_norm", "cellscape.linear_theory", "spectral_norm", None),
    ("linear_theory.grad_narrowest", "cellscape.linear_theory", "grad_narrowest", None),
    ("linear_theory.grad_batch", "cellscape.linear_theory", "grad_narrowest_batch", None),
    ("linear_theory.grad_batch", "cellscape.linear_theory", "grad_widest_batch", None),
    ("linear_theory.smoothness", "cellscape.linear_theory",
     "verify_block_smoothness", None),
    ("linear_theory.variance", "cellscape.linear_theory",
     "verify_gradient_variance", None),
    ("sampler.enumerate", "cellscape.sampler", "enumerate_connection_variants",
     _assignments),
    ("genotype.validate", "cellscape.genotype", "validate_genotype", None),
]

GENERATORS = {"sampler.enumerate"}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.items = array("d")  # items a generator span yielded
        self._stack = []
        self._patches = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id):
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.work.append(0.0)
        self.items.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        sid = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(sid)

    # --- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, work):
        nid = self.name_id(name)
        tracer = self
        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                sid = tracer.open(nid)
                try:
                    if work is not None:
                        tracer.work[sid] = work(args, kwargs, None)
                    count = 0
                    for item in fn(*args, **kwargs):
                        count += 1
                        yield item
                    tracer.items[sid] = count
                finally:
                    tracer.close(sid)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if work is not None:
                tracer.work[sid] = work(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        """Wraps every callable in LAYERS.  One the program no longer has is
        reported on stderr and left out, so its metrics read 0."""
        for name, module_name, attr, work in LAYERS:
            owner = sys.modules.get(module_name)
            key = attr
            if "." in attr:
                cls_name, key = attr.split(".")
                owner = getattr(owner, cls_name, None)
            orig = vars(owner).get(key) if owner is not None else None
            if orig is None:
                print(f"perfbench: {module_name}.{attr} not found, not traced",
                      file=sys.stderr)
                continue
            if "." in attr:
                self._patches.append((owner, key, orig))
                setattr(owner, key, self._wrap(name, orig, work))
                continue
            wrapper = self._wrap(name, orig, work)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("cellscape") or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # --- analysis ---------------------------------------------------------

    def arrays(self, first=0):
        """Spans from index ``first`` on, as numpy arrays."""
        def tail(buf, dtype=np.float64):
            # a copy, so that the array can still grow afterwards
            return np.frombuffer(buf, dtype=dtype)[first:].copy()

        parent = tail(self.parent, np.int64) - first
        parent[parent < 0] = -1
        return {
            "parent": parent,
            "name": tail(self.name, np.int32),
            "start": tail(self.start),
            "end": tail(self.end),
            "work": tail(self.work),
            "items": tail(self.items),
        }

    def write(self, path):
        """Write every span as gzip'd CSV: id, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start", "end"])
            for sid in range(len(self.start)):
                out.writerow([sid, self.parent[sid], self.names[self.name[sid]],
                              repr(self.start[sid]), repr(self.end[sid])])


class SpanSummary:
    """Per-name totals over one slice of spans."""

    def __init__(self, tracer, first=0):
        a = tracer.arrays(first)
        self.names = tracer.names
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.parent, self.name = a["parent"], a["name"]
        dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        n = len(self.names)
        self.self_s = np.bincount(self.name, weights=dur - child, minlength=n)
        self.calls = np.bincount(self.name, minlength=n)
        self.work = np.bincount(self.name, weights=a["work"], minlength=n)
        self.items = np.bincount(self.name, weights=a["items"], minlength=n)

    def _id(self, name):
        return self._ids.get(name, -1)

    def get(self, field, *names):
        arr = getattr(self, field)
        return sum(float(arr[i]) for i in map(self._id, names) if i >= 0)

    def count_under(self, names, ancestor, direct=False):
        """Spans named in ``names`` with ``ancestor`` as parent (``direct``)
        or anywhere above them."""
        anc_id = self._id(ancestor)
        ids = [i for i in map(self._id, names) if i >= 0]
        if anc_id < 0 or not ids:
            return 0
        idx = np.nonzero(np.isin(self.name, ids))[0]
        up = self.parent[idx]
        found = np.zeros(len(idx), dtype=bool)
        while True:
            live = up >= 0
            if not live.any():
                break
            found[live] |= self.name[up[live]] == anc_id
            if direct:
                break
            up = np.where(live, self.parent[np.maximum(up, 0)], -1)
        return int(found.sum())
