"""Desk-scale networks built from a genotype: stem, L stacked cells, head.

Cell k receives the outputs of cells k-1 and k-2 (the stem output standing in
for missing predecessors) as its two input nodes.  Each intermediate node
sums its two transformed inputs, one ``autodiff.node``; the cell output
averages the concat nodes, which keeps the feature dimension constant across
cells and leaves identity cells parameter-free.  ``CellNetwork`` reads the
wiring once into a plan, and its forward and reverse passes walk that plan
over ``autodiff``'s array functions with no tape, freeing each layer's array
after its last reader.  A forward pass first copies the transposes of the
weights that linear node parts read, C-contiguous, one copy per run of
same-shape blocks, since BLAS multiplies by a contiguous matrix about twice
as fast as by a strided transposed view; the stem, the head and the reverse
pass read the weights' own views, which every pass makes.  ``ParamLayout``
places the parameter blocks in one flat vector and owns the checkpoint
format that stores one.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import autodiff as ad
from .artifacts import read_bytes, typed, write_bytes
from .errors import (DimensionMismatch, ParseError, ShapeMismatch, UnsupportedInputCount,
                     check_float64s)
from .genotype import CellGenotype


@dataclass(frozen=True)
class NetworkConfig:
    layers: int = 6
    dim: int = 16
    num_classes: int = 4
    input_dim: int = 16

    def __post_init__(self):
        if self.layers < 1 or self.dim < 2:
            raise ValueError("need layers >= 1 and dim >= 2")


class ParamLayout:
    """Where each parameter block lives in a flat float64 vector: ``blocks``
    maps name -> (slice, shape), in sorted-name order.  A vector of length
    ``size`` holds one member's parameters, a (K, size) array K members'."""

    def __init__(self, shapes):
        self.blocks = {}
        offset = 0
        for name in sorted(shapes):
            shape = tuple(shapes[name])
            size = math.prod(shape)
            self.blocks[name] = (slice(offset, offset + size), shape)
            offset += size
        check_float64s(offset, "the parameters")
        self.size = offset
        # (name, shape, offset) per block: what a checkpoint header lists
        self._header = [(name, shape, s.start) for name, (s, shape) in self.blocks.items()]
        # runs of consecutive blocks of one shape: [start, stop, names, shape]
        self._runs = []
        for name, (s, shape) in self.blocks.items():
            if not self._runs or self._runs[-1][3] != shape:
                self._runs.append([s.start, None, [], shape])
            self._runs[-1][1] = s.stop
            self._runs[-1][2].append(name)

    def views(self, flat, transposed=None):
        """name -> view of that block in ``flat``, keeping its leading axes:
        a block alone in its run is one slice, and a run of several
        same-shape blocks is sliced and reshaped once, then read block by
        block, the views being those of slicing each block.  Given a set of
        names ``transposed``, only the runs holding one are read, each from
        one copy of its blocks with their last two axes swapped, C-contiguous."""
        k = flat.ndim - 1  # the run's axis, moved to the front to read its blocks
        views = {}
        for start, stop, names, shape in self._runs:
            if transposed is not None and transposed.isdisjoint(names):
                continue
            if len(names) == 1:
                run = flat[..., start:stop].reshape(flat.shape[:-1] + shape)
            else:
                run = flat[..., start:stop].reshape(flat.shape[:-1] + (len(names),) + shape)
                run = run.transpose(k, *range(k), *range(k + 1, run.ndim))
            if transposed is not None:
                run = np.ascontiguousarray(run.swapaxes(-1, -2))
            if len(names) == 1:
                views[names[0]] = run
            else:
                views.update(zip(names, run))
        return views

    def save(self, params, path):
        """Write one member's flat params as a checkpoint: a 4-byte
        little-endian header length, a JSON header listing {name, shape,
        offset} per block, then the values as little-endian float64."""
        if np.shape(params) != (self.size,):
            raise ShapeMismatch(f"checkpoint of {np.shape(params)} params, layout of {self.size}")
        header = [{"name": name, "shape": list(shape), "offset": offset}
                  for name, shape, offset in self._header]
        header_bytes = json.dumps(header, sort_keys=True).encode()
        write_bytes(path, struct.pack("<I", len(header_bytes)) + header_bytes
                    + np.ascontiguousarray(params, dtype="<f8").tobytes())

    def load(self, path):
        """The flat vector of a checkpoint written by ``save``.

        Raises ParseError when the file cannot be read, is shorter than its
        header, has a header that is not a JSON list of blocks (a string name,
        integer shape entries and offset, none below 0), or has a payload
        that is not whole float64 values or is shorter than its blocks; then
        DimensionMismatch when its blocks are not this layout's; then
        ParseError when the payload holds values past them.
        """
        raw = read_bytes(path)
        if len(raw) < 4:
            raise ParseError(f"{path}: checkpoint of {len(raw)} bytes has no header length")
        (header_len,) = struct.unpack_from("<I", raw)
        start = 4 + header_len
        if len(raw) < start or (len(raw) - start) % 8:
            raise ParseError(f"{path}: checkpoint is truncated or has a partial value")
        try:
            header = json.loads(raw[4:start])
            blocks = [(typed(b["name"], (str,), "a block's name"),
                       tuple(typed(d, (int,), "a shape entry") for d in b["shape"]),
                       typed(b["offset"], (int,), "a block's offset")) for b in header]
        except (ValueError, TypeError, KeyError, ParseError) as exc:
            raise ParseError(f"{path}: bad checkpoint header: {exc}") from exc
        payload = np.frombuffer(raw, dtype="<f8", offset=start)
        for name, shape, offset in blocks:
            if offset < 0 or min(shape, default=0) < 0:
                raise ParseError(f"{path}: bad checkpoint block {name!r}")
            size = math.prod(shape)
            if offset + size > payload.size:
                raise ParseError(
                    f"{path}: block {name!r} ends at value {offset + size}, "
                    f"past the payload's {payload.size}"
                )
        theirs = sorted(blocks)
        if theirs != self._header:
            t, m = next(p for p in zip_longest(theirs, self._header) if p[0] != p[1])
            raise DimensionMismatch(
                f"checkpoint blocks do not match the network's: (name, shape, offset) "
                f"{t} in the checkpoint, {m} in the network"
            )
        if payload.size != self.size:
            raise ParseError(
                f"{path}: checkpoint holds {payload.size} values, its blocks {self.size}"
            )
        return np.array(payload, dtype=np.float64)


def _reverse_order(parts):
    """A step's parts in the order a reverse pass adds up their sources'
    gradients: a cell output's concat nodes in order, a node's identity
    parts in slot order and then its other parts in reverse slot order."""
    return tuple(p for p in parts if p[0] in ("mean", "identity")) + \
        tuple(p for p in reversed(parts) if p[0] not in ("mean", "identity"))


def glorot_init(shape, rng):
    """Uniform in +/- sqrt(6 / (fan_in + fan_out)) for a (fan_out, fan_in) weight."""
    fan_out, fan_in = shape
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class CellNetwork:
    """Parameter layout plus the wiring plan defined by a genotype.  The
    network holds no parameters: every pass takes them as one flat vector in
    ``layout`` order, or a (K, P) array of K members."""

    def __init__(self, genotype: CellGenotype, cfg: NetworkConfig):
        if genotype.num_inputs != 2:
            raise UnsupportedInputCount(
                f"network building supports exactly 2 input nodes, got {genotype.num_inputs}"
            )
        self.genotype = genotype
        self.cfg = cfg
        # the wiring, read once, as one step per layer over numbered slots:
        # slot 0 holds the stem's output, and step i writes slot i + 1, a node
        # or a cell output, so the last slot feeds the head.  Cell L's inputs
        # are the outputs of cells L-2 and L-1, the stem's standing in.  A
        # node's parts are (kind, source slot, weight name or None), a cell
        # output's ("mean", slot, None) per concat node.  The plan keeps only
        # the steps that the head's input reaches back to: a node that no
        # cell output reads is never computed, and its weights' gradient is
        # zero.  Each kept step also lists its parts in the order a
        # reverse pass adds up their gradients, the slots whose rectifier no
        # later linear part reads, whose masks the reverse pass makes there,
        # and the slots that no later step reads.  A slot that a linear part
        # reads is rectified right after it is made.
        steps, outs = [], [0, 0]
        for layer in range(cfg.layers):
            slots = outs[-2:]
            for i, node in enumerate(genotype.nodes):
                steps.append(tuple((op.kind, slots[op.source], f"cell{layer}.node{i}.op{slot}.w"
                                    if op.kind == "linear" else None)
                                   for slot, op in enumerate(node.ops)))
                slots.append(len(steps))
            steps.append(tuple(("mean", slots[c], None) for c in genotype.concat))
            outs.append(len(steps))
        reached = {len(steps)}
        for out in range(len(steps), 0, -1):
            if out in reached:
                reached.update(s for _, s, _ in steps[out - 1])
        kept = [(out, steps[out - 1]) for out in sorted(reached - {0})]
        rectified, read = {}, {}
        for out, parts in kept:
            rectified.update((s, out) for _, s, w in parts if w)
            read.update((s, out) for _, s, _ in parts)
        self._plan = [(out, parts, _reverse_order(parts),
                       [s for s, j in rectified.items() if j == out],
                       [s for s, j in read.items() if j == out]) for out, parts in kept]
        self._slots = len(steps) + 1
        self._rectified = frozenset(rectified)
        self._linear = frozenset(w for parts in steps for _, _, w in parts if w)
        self.layout = ParamLayout(self._param_shapes())

    def _param_shapes(self):
        d = self.cfg.dim
        shapes = {"stem.w": (d, self.cfg.input_dim), "stem.b": (d,),
                  "head.w": (self.cfg.num_classes, d), "head.b": (self.cfg.num_classes,)}
        shapes.update((w, (d, d)) for w in self._linear)
        return shapes

    def init_params(self, rng):
        """A new flat vector of seeded symmetric-uniform weights and zero
        biases, drawn block by block in layout order."""
        params = np.zeros(self.layout.size)
        for view in self.layout.views(params).values():
            if view.ndim == 2:
                view[...] = glorot_init(view.shape, rng)
        return params

    def forward(self, x, params, record=True, y=None):
        """Forward pass over the plan; returns (logits, pass), the pass being
        what ``_reverse`` reads.  Every pass keeps one shape contract, which
        ``autodiff``'s layers trust, else ShapeMismatch: (P,) params or (K, P)
        for K members; (B, input_dim) rows, or (K, B, input_dim) beside
        (K, P) params; and a loss method's labels ``y``, (B,) or shaped like
        the rows' leading axes, each in range(num_classes).  A slot that
        linear parts read is rectified right after it is made and each slot
        is freed after its last reader, so the pass ends holding the head's
        input rows, every block's view and every rectifier; with
        ``record=False`` no reverse pass follows, and each rectifier is freed
        after its last linear reader.  Linear parts read the weights'
        transposes from one contiguous copy of each run, freed on return."""
        x, y = np.asarray(x, dtype=np.float64), y if y is None else np.asarray(y)
        lead = params.shape[:-1]
        if (params.shape[-1:] != (self.layout.size,) or len(lead) > 1 or x.ndim < 2
                or x.shape[:-2] not in ((), lead) or x.shape[-1] != self.cfg.input_dim
                or y is not None and y.shape not in (x.shape[-2:-1], x.shape[:-1])):
            raise ShapeMismatch(f"{params.shape} params, {x.shape} rows, labels "
                                f"{y if y is None else y.shape}: P is {self.layout.size}, "
                                f"a row {self.cfg.input_dim}")
        if y is not None and y.size and (y.min() < 0 or y.max() >= self.cfg.num_classes):
            raise ShapeMismatch(f"label {y.min() if y.min() < 0 else y.max()} outside range("
                                f"num_classes={self.cfg.num_classes})")
        views = self.layout.views(params)
        wts = self.layout.views(params, self._linear)
        vals, rects = [None] * self._slots, [None] * self._slots
        vals[0] = ad.dense(x, views["stem.w"], views["stem.b"])
        if 0 in self._rectified:
            rects[0] = ad.rectify(vals[0])
        for out, parts, _, dead_rects, dead in self._plan:
            if parts[0][0] == "mean":
                vals[out] = ad.mean_of([vals[s] for _, s, _ in parts])
            else:
                vals[out] = ad.node([(kind, rects[s], wts[w]) if w else (kind, vals[s], None)
                                     for kind, s, w in parts])
            if out in self._rectified:
                rects[out] = ad.rectify(vals[out])
            if not record:
                for s in dead_rects:
                    rects[s] = None
            for s in dead:
                vals[s] = None
        return ad.dense(vals[-1], views["head.w"], views["head.b"]), (x, views, vals[-1], rects)

    def _reverse(self, acts, g):
        """The reverse pass of ``forward``'s recorded pass ``acts`` from the
        logits' gradient ``g``: yields (block name, output gradient, rows)
        for each parameter block the loss reaches, the rows being what a
        weight multiplies and None for a bias, as ``ad.param_grad`` reads
        them.  The steps run in reverse, and a slot that several parts read
        adds up their gradients in the order of a reverse pass over one
        record per layer, so every bit is that of such a tape.  Each slot's
        mask is made at its last linear reader, the first the walk reaches;
        its rectifier and mask are freed once every reader has run, and no
        gradient is computed for ``x``."""
        x, views, rows, rects = acts
        yield "head.w", g, rows
        yield "head.b", g, None
        grads, masks, owned = [None] * len(rects), [None] * len(rects), [False] * len(rects)
        grads[-1] = ad.dense_grad(g, views["head.w"])
        for out, parts, back, dead_rects, _ in reversed(self._plan):
            g, grads[out] = grads[out], None
            rects[out] = masks[out] = None
            for s in dead_rects:
                masks[s] = ad.relu_mask(rects[s])
            if parts[0][0] == "mean":
                share = ad.mean_of_grad(g, len(parts))
            for kind, s, w in back:
                if w:
                    yield w, g, rects[s]
                gx = share if kind == "mean" else ad.node_grad(kind, g, views.get(w), masks[s])
                # g and a mean's share reach several slots: only a sum made
                # here, or a fresh product or zeros, is added to in place
                if grads[s] is None:
                    grads[s], owned[s] = gx, kind in ("linear", "zero")
                elif owned[s]:
                    grads[s] += gx
                else:
                    grads[s], owned[s] = grads[s] + gx, True
        yield "stem.w", grads[0], x
        yield "stem.b", grads[0], None

    def loss_and_grads(self, x, y, params):
        """(mean loss, flat gradient shaped like the params); with a member
        axis the loss is one float per member and each member's gradient is
        its own.  Each block's gradient is written into its view of one
        array, and blocks the loss does not reach get zero gradient."""
        logits, acts = self.forward(x, params, y=y)
        loss, logp = ad.softmax_cross_entropy(logits, y)
        grads = np.zeros(params.shape)
        views = self.layout.views(grads)
        for name, g, rows in self._reverse(acts, ad.softmax_cross_entropy_grad(logp, y)):
            views[name][...] = ad.param_grad(g, rows)
        return loss, grads

    def evaluate(self, x, y, params):
        """(mean loss, accuracy) on a split, in a single forward pass that
        records nothing; one of each per member with a member axis."""
        logits = self.forward(x, params, record=False, y=y)[0]  # the pass's last slot goes now
        loss, _ = ad.softmax_cross_entropy(logits, y)
        return loss, (logits.argmax(axis=-1) == np.asarray(y)).mean(axis=-1)

    def gradient_variance(self, x, y, params):
        """Total variance (covariance trace) of the per-example parameter
        gradients on a split, from one batched forward and backward pass.
        Every parameter is the weight or bias of one ``dense`` or the weight
        of one linear node part, so ``autodiff.block_variance`` reduces each
        block from its rows' rank-1 factors; the total is the sum of the
        variances of the blocks the loss reaches, in layout order.  A float
        for (P,) params; one total per member for (K, P), each bit for bit
        that member's own call where finite."""
        logits, acts = self.forward(x, params, y=y)
        _, logp = ad.softmax_cross_entropy(logits, y)
        blocks = {name: ad.block_variance(g, rows) for name, g, rows
                  in self._reverse(acts, ad.softmax_cross_entropy_grad(logp, y))}
        total = 0.0
        for name in self.layout.blocks:
            if name in blocks:
                total += blocks[name]  # a running sum; sum() compensates from 3.12
        return total
