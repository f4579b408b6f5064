"""Desk-scale networks built from a genotype: stem, L stacked cells, head.

Cell k receives the outputs of cells k-1 and k-2 (the stem output standing in
for missing predecessors) as its two input nodes.  Each intermediate node
sums its two transformed inputs, one ``Tape.node`` record; the cell output
averages the concat nodes, which keeps the feature dimension constant across
cells and leaves identity cells parameter-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, glorot_init
from .errors import DimensionMismatch, UnsupportedInputCount
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
        self.size = offset
        self.sizes = [s.stop - s.start for s, _ in self.blocks.values()]

    def views(self, flat):
        """name -> view of that block in ``flat``, keeping its leading axes."""
        lead = flat.shape[:-1]
        return {name: flat[..., s].reshape(lead + shape)
                for name, (s, shape) in self.blocks.items()}

    def block_norms(self, flat):
        """Frobenius norm of each block of a flat vector, in layout order."""
        return np.array([np.linalg.norm(flat[s]) for s, _ in self.blocks.values()])

    def check(self, blocks):
        """Raise DimensionMismatch unless ``blocks``, (name, shape, offset)
        triples read from a checkpoint header, are exactly this layout's."""
        mine = [(name, shape, s.start) for name, (s, shape) in self.blocks.items()]
        theirs = sorted(blocks)
        if theirs != mine:
            t, m = next(p for p in zip_longest(theirs, mine) if p[0] != p[1])
            raise DimensionMismatch(
                f"checkpoint blocks do not match the network's: (name, shape, offset) "
                f"{t} in the checkpoint, {m} in the network"
            )


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
        self.layout = ParamLayout(self._param_shapes())

    def _param_shapes(self):
        d = self.cfg.dim
        shapes = {
            "stem.w": (d, self.cfg.input_dim),
            "stem.b": (d,),
            "head.w": (self.cfg.num_classes, d),
            "head.b": (self.cfg.num_classes,),
        }
        for layer in range(self.cfg.layers):
            for i, node in enumerate(self.genotype.nodes):
                for slot, op in enumerate(node.ops):
                    if op.kind == "linear":
                        shapes[f"cell{layer}.node{i}.op{slot}.w"] = (d, d)
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
        leaves are views of the params' blocks.  With ``record=False`` the
        tape keeps nothing for a reverse pass."""
        tape = Tape(record=record)
        leaves = {name: tape.leaf(view) for name, view in self.layout.views(params).items()}
        x_leaf = tape.leaf(np.asarray(x, dtype=np.float64))
        prev2 = prev1 = tape.add_bias(tape.dense(x_leaf, leaves["stem.w"]), leaves["stem.b"])
        for layer in range(self.cfg.layers):
            vals = [prev2, prev1]
            for i, node in enumerate(self.genotype.nodes):
                vals.append(tape.node([
                    (op.kind, vals[op.source], leaves.get(f"cell{layer}.node{i}.op{slot}.w"))
                    for slot, op in enumerate(node.ops)
                ]))
            prev2, prev1 = prev1, tape.mean_of([vals[c] for c in self.genotype.concat])
        logits = tape.add_bias(tape.dense(prev1, leaves["head.w"]), leaves["head.b"])
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
        Every parameter feeds one ``dense``, ``node`` or ``add_bias`` record,
        which ``autodiff.per_example_variance`` checks."""
        logits, tape, leaves = self.forward(x, params)
        loss = tape.softmax_cross_entropy(logits, y)
        ad.backward(tape, loss, keep_outputs=True)
        return ad.per_example_variance(tape, leaves)

