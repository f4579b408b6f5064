"""Desk-scale networks built from a genotype: stem, L stacked cells, head.

Cell k receives the outputs of cells k-1 and k-2 (the stem output standing in
for missing predecessors) as its two input nodes.  Each intermediate node
sums its two transformed inputs, one ``Tape.node`` record; the cell output
averages the concat nodes, which keeps the feature dimension constant across
cells and leaves identity cells parameter-free.  ``ParamLayout`` places the
parameter blocks in one flat vector and owns the checkpoint format that
stores one.
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
from .autodiff import Tape, Value
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

    def views(self, flat):
        """name -> view of that block in ``flat``, keeping its leading axes."""
        lead = flat.shape[:-1]
        return {name: flat[..., s].reshape(lead + shape)
                for name, (s, shape) in self.blocks.items()}

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


def glorot_init(shape, rng):
    """Uniform in +/- sqrt(6 / (fan_in + fan_out)) for a (fan_out, fan_in) weight."""
    fan_out, fan_in = shape
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class CellNetwork:
    """Parameter layout plus the forward wiring defined by a genotype.  The
    network holds no parameters: every pass takes them as one flat vector in
    ``layout`` order, or a (K, P) array of K members."""

    def __init__(self, genotype: CellGenotype, cfg: NetworkConfig):
        if genotype.num_inputs != 2:
            raise UnsupportedInputCount(
                f"network building supports exactly 2 input nodes, got {genotype.num_inputs}"
            )
        self.genotype = genotype
        self.cfg = cfg
        # the wiring, read once: per cell and node, its parts as (kind, source
        # index, weight name) and the sources whose rectifier no later linear
        # part reads.  A Value is keyed by what makes it: node j of cell L as
        # (L, j), the output of cell L as L and the stem's as -1, so cell L's
        # inputs are L-2 and L-1.
        self._plan, last = [], {}
        for layer in range(cfg.layers):
            keys = [max(layer - 2, -1), max(layer - 1, -1)]
            keys += [(layer, j) for j in range(2, 2 + len(genotype.nodes))]
            self._plan.append([])
            for i, node in enumerate(genotype.nodes):
                parts = [(op.kind, op.source, f"cell{layer}.node{i}.op{slot}.w"
                          if op.kind == "linear" else None) for slot, op in enumerate(node.ops)]
                last.update((keys[s], (layer, i, s)) for _, s, w in parts if w)
                self._plan[-1].append((parts, []))
        for layer, i, source in last.values():
            self._plan[layer][i][1].append(source)
        self.layout = ParamLayout(self._param_shapes())

    def _param_shapes(self):
        d = self.cfg.dim
        shapes = {
            "stem.w": (d, self.cfg.input_dim),
            "stem.b": (d,),
            "head.w": (self.cfg.num_classes, d),
            "head.b": (self.cfg.num_classes,),
        }
        shapes.update((w, (d, d)) for cell in self._plan for parts, _ in cell
                      for _, _, w in parts if w)
        return shapes

    def init_params(self, rng):
        """A new flat vector of seeded symmetric-uniform weights and zero
        biases, drawn block by block in layout order."""
        params = np.zeros(self.layout.size)
        for view in self.layout.views(params).values():
            if view.ndim == 2:
                view[...] = glorot_init(view.shape, rng)
        return params

    def forward(self, x, params, record=True):
        """Forward pass; returns (logits Value, tape, name -> leaf Value map).
        Params are a flat vector or a (K, P) array of K members, and ``x`` may
        carry the member axis too; an unstacked ``x`` feeds every member.  The
        leaves are views of the params' blocks.  The pass walks the wiring
        plan made once in ``__init__``.  With ``record=False`` the tape keeps
        nothing for a reverse pass, and each Value's rectifier is freed once
        the last linear part that reads it has run, in whichever cell that
        is, so every Value is rectified at most once, as in a recording pass."""
        tape = Tape(record=record)
        leaves = {name: Value(view) for name, view in self.layout.views(params).items()}
        prev2 = prev1 = tape.dense(Value(x), leaves["stem.w"], leaves["stem.b"])
        for cell in self._plan:
            vals = [prev2, prev1]
            for parts, dead in cell:
                vals.append(tape.node([(kind, vals[s], leaves.get(w)) for kind, s, w in parts]))
                if not record:
                    for s in dead:
                        del vals[s].rectified
            prev2, prev1 = prev1, tape.mean_of([vals[c] for c in self.genotype.concat])
        logits = tape.dense(prev1, leaves["head.w"], leaves["head.b"])
        return logits, tape, leaves

    def loss_and_grads(self, x, y, params):
        """(mean loss, flat gradient shaped like the params); with a member
        axis the loss is one float per member and each member's gradient is
        its own.  Blocks the loss does not reach get zero gradient."""
        logits, tape, leaves = self.forward(x, params)
        loss = tape.softmax_cross_entropy(logits, y)
        ad.backward(tape, loss)
        lead = params.shape[:-1]
        grads = np.concatenate([
            (np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad).reshape(lead + (-1,))
            for leaf in leaves.values()
        ], axis=-1)
        return loss.data[()], grads

    def evaluate(self, x, y, params):
        """(mean loss, accuracy) on a split, in a single forward pass that
        records nothing; one of each per member with a member axis."""
        logits, tape, _ = self.forward(x, params, record=False)
        loss = tape.softmax_cross_entropy(logits, y)
        acc = np.mean(np.argmax(logits.data, axis=-1) == np.asarray(y), axis=-1)
        return loss.data[()], acc[()]

    def gradient_variance(self, x, y, params):
        """Total variance (covariance trace) of the per-example parameter
        gradients on a split, from one batched forward and backward pass.
        Every parameter is the weight or bias of one ``dense`` record or the
        weight of one ``node`` part, which ``autodiff.per_example_variance``
        checks; the total is the sum of its blocks' variances in layout order."""
        logits, tape, leaves = self.forward(x, params)
        loss = tape.softmax_cross_entropy(logits, y)
        ad.backward(tape, loss, keep_outputs=True)
        total = 0.0
        for variance in ad.per_example_variance(tape, leaves).values():
            total += variance  # a running sum in leaf order; sum() compensates from 3.12
        return total

