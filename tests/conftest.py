import numpy as np
import pytest

from cellscape import CellGenotype, NodeSpec, OpSpec, load_fixture
from cellscape.autodiff import Tape, Value
from cellscape.errors import ShapeMismatch


class LossTape(Tape):
    """Tape plus the ops that only test objectives use."""

    def sub(self, a: Value, b: Value) -> Value:
        if a.data.shape != b.data.shape:
            raise ShapeMismatch(f"sub: {a.data.shape} vs {b.data.shape}")
        return self._push("sub", Value(a.data - b.data), [a, b], lambda g: [g, -g])

    def scale(self, x: Value, s: float) -> Value:
        return self._push("scale", Value(x.data * s), [x], lambda g: [g * s])

    def half_sum_sq(self, x: Value) -> Value:
        out = Value(0.5 * np.sum(x.data * x.data))
        return self._push("half_sum_sq", out, [x], lambda g: [g * x.data])


def one_row(grad_batch, m, x):
    """Block gradients of a linear cell model at one input, through the batch
    gradient function: one (d, d) array per block."""
    return [g[0] for g in grad_batch(m, np.asarray(x)[None])]


@pytest.fixture
def darts():
    return load_fixture("darts")


@pytest.fixture
def snas():
    return load_fixture("snas")


@pytest.fixture
def toy_cell():
    # node1 <- (in0, in1), node2 <- (in0, node1): width 1.5c, depth 3
    return CellGenotype(
        name="toy",
        num_inputs=2,
        nodes=(
            NodeSpec((OpSpec("linear", 0), OpSpec("linear", 1))),
            NodeSpec((OpSpec("linear", 0), OpSpec("linear", 2))),
        ),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.PCG64(1234))


def central_difference(f, w, eps):
    """Central finite-difference gradient of scalar f at array w."""
    w = np.asarray(w, dtype=np.float64)
    g = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        wp = w.copy()
        wm = w.copy()
        wp[idx] += eps
        wm[idx] -= eps
        g[idx] = (f(wp) - f(wm)) / (2.0 * eps)
    return g
