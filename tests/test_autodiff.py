import itertools
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellscape.autodiff import (cosine_lr, sgd_step, softmax_cross_entropy,
                                softmax_cross_entropy_grad)
from cellscape.errors import DimensionMismatch, ParseError, ShapeMismatch
from cellscape.genotype import OPERATION_KINDS, load_fixture
from cellscape.network import CellNetwork, NetworkConfig, ParamLayout, glorot_init
from conftest import (
    LossTape,
    NoTape,
    SharedParameter,
    Tape,
    Value,
    backward,
    central_difference,
    per_example_sum_of_squares,
    per_example_variance,
)

dims = st.integers(2, 16)
seeds = st.integers(0, 2**31)


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
    return np.max(np.abs(a - b)) / denom


# --- cell operations, finite-difference property tests --------------------


@settings(max_examples=30, deadline=None)
@given(dims, dims, seeds)
def test_linear_op_matches_finite_differences(batch, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, d))
    # keep points away from the rectifier kink, where FD is one-sided
    x[np.abs(x) < 1e-3] += 0.01
    w = rng.standard_normal((d, d))

    def loss_of_w(wv):
        t = LossTape()
        out = t.op("linear", Value(x), Value(wv))
        return float(t.half_sum_sq(out).data)

    t = LossTape()
    w_leaf = Value(w)
    loss = t.half_sum_sq(t.op("linear", Value(x), w_leaf))
    backward(t, loss)
    fd = central_difference(loss_of_w, w, 1e-4)
    assert rel_err(w_leaf.grad, fd) <= 1e-5


@settings(max_examples=30, deadline=None)
@given(dims, dims, seeds)
def test_linear_op_input_gradient(batch, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, d))
    x[np.abs(x) < 1e-3] += 0.01
    w = rng.standard_normal((d, d))

    def loss_of_x(xv):
        t = LossTape()
        out = t.op("linear", Value(xv), Value(w))
        return float(t.half_sum_sq(out).data)

    t = LossTape()
    x_leaf = Value(x)
    loss = t.half_sum_sq(t.op("linear", x_leaf, Value(w)))
    backward(t, loss)
    fd = central_difference(loss_of_x, x, 1e-4)
    assert rel_err(x_leaf.grad, fd) <= 1e-5


def test_identity_op_passthrough():
    t = LossTape()
    x = Value(np.arange(6.0).reshape(2, 3))
    out = t.op("identity", x, None)
    assert out is x


def test_zero_op_output_and_gradient():
    t = LossTape()
    x = Value(np.ones((3, 4)))
    out = t.op("zero", x, None)
    loss = t.half_sum_sq(out)
    backward(t, loss)
    assert np.all(out.data == 0.0)
    assert np.all(x.grad == 0.0)


# --- the cell node record -------------------------------------------------


def bits(a):
    """The array's float64 bit patterns, so that equality also tells -0.0
    from +0.0 and compares NaNs."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


KIND_PAIRS = list(itertools.product(sorted(OPERATION_KINDS), repeat=2))


@pytest.mark.parametrize("record", [True, False], ids=["record", "forward only"])
@pytest.mark.parametrize("members", ["unstacked", "stacked", "broadcast"])
@pytest.mark.parametrize("same_source", [True, False], ids=["same source", "two sources"])
@pytest.mark.parametrize("kinds", KIND_PAIRS, ids="+".join)
def test_node_matches_unfused_ops_bit_for_bit(kinds, same_source, members, record):
    # the fused record against its parts as separate relu, dense, zeros_like
    # and add records; "broadcast" feeds unstacked sources to stacked weights.
    # The loss also reads source 0 directly, so that the node's gradient
    # lands on one that already holds another's.
    rng = np.random.default_rng(12)
    k, batch, d = 3, 5, 4
    lead = () if members == "unstacked" else (k,)
    xs = rng.standard_normal((2, k, batch, d) if members == "stacked" else (2, batch, d))
    xs[:, ..., 0] = 0.0
    xs[:, ..., 1] = -0.0
    ws = [rng.standard_normal(lead + (d, d)) for _ in kinds]

    def run(t, fused):
        sources = [Value(xs[0])] if same_source else [Value(x) for x in xs]
        weights = [Value(w) if kind == "linear" else None for kind, w in zip(kinds, ws)]
        inputs = [v for v in sources + weights if v is not None]
        before = [bits(v.data).copy() for v in inputs]
        picked = [sources[0], sources[-1]]
        parts = list(zip(kinds, picked, weights))
        node = t.node(parts) if fused else t.unfused_node(parts)
        eye = Value(np.tile(np.eye(d), lead + (1, 1)))
        out = t.mean_of([node, t.dense(sources[0], eye, Value(np.zeros(lead + (d,))))])
        loss = t.softmax_cross_entropy(out, np.arange(batch) % d)
        if t.record:
            backward(t, loss)
        for v, was in zip(inputs, before):  # the in-place sum and mask write none of them
            assert np.array_equal(bits(v.data), was)
        return node.data, loss.data, [v.grad for v in inputs]

    try:
        want = run(LossTape(record=record), fused=False)
    except ShapeMismatch:
        # a broadcast source beside a stacked part: add refuses the shapes
        assert members == "broadcast" and kinds != ("linear", "linear")
        with pytest.raises(ShapeMismatch):
            run(Tape(record=record), fused=True)
        return
    got = run(Tape(record=record), fused=True)
    assert np.array_equal(bits(got[0]), bits(want[0]))
    assert np.array_equal(bits(got[1]), bits(want[1]))
    for g, w in zip(got[2], want[2]):
        assert (g is None) == (w is None) == (not record)
        if record:
            assert np.array_equal(bits(g), bits(w))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_mean_of_matches_builtin_sum_bit_for_bit(n):
    # the in-place running sum against sum(parts) / n, whose start 0 turns an
    # all -0.0 position into +0.0; the parts themselves are left as they were
    rng = np.random.default_rng(n)
    arrays = [rng.standard_normal((2, 3, 4)) * 10.0 ** rng.integers(-3, 4) for _ in range(n)]
    for i, a in enumerate(arrays):
        a[0, 0] = -0.0
        a[0, 1] = -0.0 if i % 2 else 0.0
        a[1, 2, :2] = -0.0 if i else 0.0
    arrays[-1][1, 1, 1] = np.inf
    parts = [Value(a) for a in arrays]
    before = [bits(a).copy() for a in arrays]
    out = Tape().mean_of(parts)
    want = sum(p.data for p in parts) / n
    assert np.array_equal(bits(out.data), bits(want))
    assert np.all(bits(out.data[0, 0]) == bits(0.0))
    for p, was in zip(parts, before):
        assert np.array_equal(bits(p.data), was)


@pytest.mark.parametrize("kinds", KIND_PAIRS, ids="+".join)
def test_node_gradients_match_central_differences(kinds):
    rng = np.random.default_rng(13)
    batch, d = 3, 4
    xs = rng.standard_normal((2, batch, d))
    xs[np.abs(xs) < 1e-3] += 0.01  # keep clear of the rectifier kink
    ws = rng.standard_normal((2, d, d))

    def loss_of(xv, wv):
        t = LossTape()
        x_leaves, w_leaves = [Value(x) for x in xv], [Value(w) for w in wv]
        node = t.node([(kind, x_leaves[i], w_leaves[i] if kind == "linear" else None)
                       for i, kind in enumerate(kinds)])
        loss = t.half_sum_sq(node)
        backward(t, loss)
        return float(loss.data), x_leaves + w_leaves

    _, leaves = loss_of(xs, ws)
    for i in range(2):
        fd_x = central_difference(lambda v: loss_of([v, xs[1]] if i == 0 else [xs[0], v], ws)[0],
                                  xs[i], 1e-5)
        fd_w = central_difference(lambda v: loss_of(xs, [v, ws[1]] if i == 0 else [ws[0], v])[0],
                                  ws[i], 1e-5)
        assert rel_err(leaves[i].grad, fd_x) <= 1e-6
        if kinds[i] == "linear":
            assert rel_err(leaves[2 + i].grad, fd_w) <= 1e-6
        else:
            assert leaves[2 + i].grad is None and np.all(fd_w == 0.0)


@settings(max_examples=30, deadline=None)
@given(dims, dims, seeds)
def test_softmax_cross_entropy_finite_differences(batch, classes, seed):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((batch, classes))
    labels = rng.integers(0, classes, size=batch)

    def loss_of(lv):
        t = Tape()
        return float(t.softmax_cross_entropy(Value(lv), labels).data)

    t = Tape()
    leaf = Value(logits)
    loss = t.softmax_cross_entropy(leaf, labels)
    backward(t, loss)
    fd = central_difference(loss_of, logits, 1e-5)
    assert rel_err(leaf.grad, fd) <= 1e-6


def test_softmax_uniform_logits_identity():
    # equal logits: gradient = (1/C - one_hot) / batch
    batch, classes = 4, 5
    t = Tape()
    leaf = Value(np.zeros((batch, classes)))
    labels = np.array([0, 1, 2, 3])
    loss = t.softmax_cross_entropy(leaf, labels)
    backward(t, loss)
    expected = np.full((batch, classes), 1.0 / classes)
    expected[np.arange(batch), labels] -= 1.0
    expected /= batch
    assert np.allclose(leaf.grad, expected, atol=1e-15)
    assert math.isclose(float(loss.data), math.log(classes))


def tape_head(logits, labels):
    """The tape's loss head on ``logits``: (loss, log-probabilities, logits
    gradient), the loss and gradient from its record and ``backward``, the
    log-probabilities from the record's formula."""
    t = Tape()
    leaf = Value(logits)
    loss = t.softmax_cross_entropy(leaf, labels)
    backward(t, loss)
    z = logits - logits.max(axis=-1, keepdims=True)
    return loss.data, z - np.log(np.exp(z).sum(axis=-1, keepdims=True)), leaf.grad


HEAD_VALUES = [-0.0, 0.0, -800.0, 800.0, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("classes", [2, 4, 9])
def test_loss_head_matches_tape_bit_for_bit(classes):
    # the column-wise max, the one gather of the labelled log-probabilities
    # and the in-place gradient against the tape's reductions: every row of
    # the special values at 2 and 4 classes, each with every label, and a
    # random batch at 9, whose exponentials numpy sums pairwise; with no
    # member axis, one and two members, and shared and stacked labels
    rng = np.random.default_rng(classes)
    if classes < 9:
        grid = np.array(list(itertools.product(HEAD_VALUES, repeat=classes)))
        rows = np.repeat(grid, classes, axis=0)
        labels = np.tile(np.arange(classes), len(grid))
    else:
        rows = rng.standard_normal((300, classes)) * 10.0 ** rng.integers(-2, 3, size=(300, 1))
        rows[::17, 3] = np.inf
        rows[5::23, 1] = np.nan
        labels = rng.integers(0, classes, size=300)
    order = rng.permutation(len(rows))
    cases = [(rows, labels), (rows[None], labels), (rows[None], labels[None]),
             (np.stack([rows, rows[order]]), labels),
             (np.stack([rows, rows[order]]), np.stack([labels, labels[order]]))]
    with np.errstate(all="ignore"):
        for logits, y in cases:
            loss, logp = softmax_cross_entropy(logits, y)
            grad = softmax_cross_entropy_grad(logp, y)
            want = tape_head(logits, y)
            assert loss.shape == logits.shape[:-2] and grad.shape == logits.shape
            for got, expected in zip((loss, logp, grad), want):
                assert np.array_equal(bits(got), bits(expected))


def test_gradient_accumulates_on_reuse():
    # y = x + x has dy/dx = 2
    t = LossTape()
    x = Value(np.ones((2, 2)))
    loss = t.half_sum_sq(t.add(x, x))
    backward(t, loss)
    assert np.allclose(x.grad, 4.0 * np.ones((2, 2)))


def test_gradient_linearity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 4))
    b = rng.standard_normal(4)

    def grad_of(scale_a, scale_b):
        t = LossTape()
        w_leaf = Value(w)
        xa = Value(x)
        la = t.scale(t.half_sum_sq(t.dense(xa, w_leaf, Value(b))), scale_a)
        lb = t.scale(t.half_sum_sq(t.relu(t.dense(xa, w_leaf, Value(b)))), scale_b)
        backward(t, t.add(la, lb))
        return w_leaf.grad.copy()

    ga = grad_of(1.0, 0.0)
    gb = grad_of(0.0, 1.0)
    gab = grad_of(1.0, 1.0)
    assert np.allclose(ga + gb, gab, atol=1e-12)


def test_unreached_leaf_has_no_gradient():
    t = LossTape()
    used = Value(np.ones((2, 2)))
    unused = Value(np.ones((2, 2)))
    loss = t.half_sum_sq(used)
    backward(t, loss)
    assert unused.grad is None


def test_backward_foreign_value_rejected():
    t = Tape()
    other = LossTape()
    loss = other.half_sum_sq(Value(np.ones(3).reshape(1, 3)))
    with pytest.raises(NoTape):
        backward(t, loss)


def test_non_recording_tape_same_values_no_records():
    rng = np.random.default_rng(4)
    x, w, b = rng.standard_normal((5, 3)), rng.standard_normal((4, 3)), rng.standard_normal(4)
    v = rng.standard_normal((4, 4))
    labels = np.array([0, 3, 1, 1, 2])
    losses = []
    quiet = Tape(record=False)
    for t in (Tape(), quiet):
        h = t.dense(Value(x), Value(w), Value(b))
        h = t.mean_of([h, t.node([("linear", h, Value(v)), ("zero", h, None)])])
        losses.append(t.softmax_cross_entropy(h, labels))
    assert losses[0].data == losses[1].data
    assert quiet._records == []
    with pytest.raises(NoTape):
        backward(quiet, losses[1])


def test_per_example_variance_rejects_shared_parameter():
    x = np.arange(6.0).reshape(3, 2)
    labels = [0, 1, 0]
    t = Tape()
    w, b = Value(np.eye(2)), Value(np.zeros(2))
    backward(t, t.softmax_cross_entropy(t.dense(t.dense(Value(x), w, b), w, Value(b.data)),
                                        labels))
    with pytest.raises(SharedParameter):
        per_example_variance(t, {"w": w})
    # a bias fed to two dense records
    t = Tape()
    backward(t, t.softmax_cross_entropy(t.dense(t.dense(Value(x), Value(w.data), b), w, b),
                                        labels))
    with pytest.raises(SharedParameter):
        per_example_variance(t, {"b": b})
    # one node, but its two linear parts share the weight
    t = Tape()
    src = Value(x)
    backward(t, t.softmax_cross_entropy(t.node([("linear", src, w), ("linear", src, w)]), labels))
    with pytest.raises(SharedParameter):
        per_example_variance(t, {"w": w})
    # one use, but not as the weight or bias of a dense or the weight of a node part
    t = LossTape()
    b = Value(np.ones((3, 2)))
    backward(t, t.softmax_cross_entropy(t.add(Value(x), b), labels))
    with pytest.raises(SharedParameter):
        per_example_variance(t, {"b": b})


SMALL = NetworkConfig(layers=2, dim=6, num_classes=3, input_dim=5)


def test_dense_shape_mismatch(darts):
    # the stem's dense meets x first: rows of the wrong width, or no rows
    # axis at all, end every pass there
    net = CellNetwork(darts, SMALL)
    params = net.init_params(np.random.default_rng(0))
    for x in (np.ones((2, 4)), np.ones((2, 6)), np.ones(5)):
        with pytest.raises(ShapeMismatch):
            net.forward(x, params)
        with pytest.raises(ShapeMismatch):
            net.loss_and_grads(x, np.zeros(2, dtype=int), params)
        with pytest.raises(ShapeMismatch):
            net.evaluate(x, np.zeros(2, dtype=int), params)
        with pytest.raises(ShapeMismatch):
            net.gradient_variance(x, np.zeros(2, dtype=int), params)


def test_relu_matches_where_bit_for_bit():
    special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf,
                        5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.5, -1.5])
    got = Value(special).rectified
    want = np.where(special > 0.0, special, 0.0)
    assert np.array_equal(bits(got), bits(want))


def test_backward_drops_intermediate_gradients():
    rng = np.random.default_rng(6)
    t = LossTape()
    x, w = Value(rng.standard_normal((3, 4))), Value(rng.standard_normal((2, 4)))
    h = t.relu(x)
    logits = t.dense(h, w, Value(np.zeros(2)))
    loss = t.softmax_cross_entropy(logits, [0, 1, 1])
    backward(t, loss)
    assert x.grad is not None and w.grad is not None
    assert h.grad is None and logits.grad is None
    # per-example gradients need the dense output gradient kept
    with pytest.raises(NoTape):
        per_example_variance(t, {"w": w})
    backward(t, loss, keep_outputs=True)
    assert logits.grad is not None and h.grad is None
    assert per_example_variance(t, {"w": w})["w"] >= 0.0


def weight_variance(g, x):
    """``per_example_variance`` of the weight of one ``dense`` record of input
    rows ``x`` whose output gradient, as a batched ``backward(...,
    keep_outputs=True)`` leaves it, is ``g``."""
    t = Tape()
    w = Value(np.zeros((g.shape[1], x.shape[1])))
    out = t.dense(Value(x), w, Value(np.zeros(g.shape[1])))
    out.grad, w.grad = g, g.T @ x
    return per_example_variance(t, {"w": w})["w"]


@pytest.mark.parametrize("n", [2, 5, 256, 2000])
@pytest.mark.parametrize("offset", [0.0, 3.0])
def test_weight_block_matches_einsum_oracle(n, offset):
    # an offset makes the mean term dominate, so the two sums nearly cancel
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, 6)) + offset
    x = rng.standard_normal((n, 5)) + offset
    got = weight_variance(g, x)
    want = per_example_sum_of_squares(g * n, x) / n
    assert want > 0.0
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("n", [2, 256, 2000])
@pytest.mark.parametrize("scale", [1e-150, 1e-50, 1.0, 1e50, 1e100])
def test_equal_rows_give_exactly_zero(n, scale):
    # the two sums leave a rounding residue that grows with n: over these 40
    # draws it is at most 2.1 eps * S at n = 2 and 63-99 eps * S at n = 2000,
    # so a fixed floor of 64 eps * S would not do; the floor, 6290 eps * S at
    # n = 2000, grows with n too and reports it as 0
    rng = np.random.default_rng(17)
    for _ in range(40):
        g = np.tile(rng.standard_normal(16) * scale, (n, 1))
        x = np.tile(rng.random(16) * scale, (n, 1))
        assert weight_variance(g, x) == 0.0


def test_factors_of_far_apart_magnitudes_stay_finite():
    # the terms g[i] (x) x[i] are near 1, but ||g[i]||^2 underflows and
    # ||x[i]||^2 overflows unless each factor is scaled first
    rng = np.random.default_rng(4)
    g, x = rng.standard_normal((50, 4)), rng.standard_normal((50, 3))
    got = weight_variance(g * 1e-200, x * 1e200)
    want = per_example_sum_of_squares(g * 50, x) / 50
    assert abs(got - want) <= 1e-12 * want


def test_non_finite_factors_give_nan():
    g, x = np.ones((3, 2)), np.arange(6.0).reshape(3, 2)
    for bad in (np.inf, -np.inf, np.nan):
        g[1, 0] = bad
        with np.errstate(invalid="ignore"):
            assert math.isnan(weight_variance(g, x))


def test_variance_is_one_entry_per_reached_leaf():
    # w2 feeds a record the loss does not reach, and w3 no record at all
    rng = np.random.default_rng(2)
    t = Tape()
    x = Value(rng.standard_normal((5, 3)))
    w1, b1, w2, w3 = (Value(rng.standard_normal(shape))
                      for shape in [(4, 3), (4,), (4, 3), (4, 3)])
    t.dense(x, w2, Value(np.zeros(4)))
    loss = t.softmax_cross_entropy(t.dense(x, w1, b1), [0, 1, 2, 3, 0])
    backward(t, loss, keep_outputs=True)
    blocks = per_example_variance(t, {"w1": w1, "b1": b1, "w2": w2, "w3": w3})
    assert list(blocks) == ["w1", "b1"]
    assert all(v > 0.0 for v in blocks.values())


@pytest.mark.parametrize("n", [2, 7, 64])
def test_bias_variance_matches_centred_oracle(n):
    # each example's own gradient from a batch-1 tape, centred and squared:
    # what a bias block's variance is, with no per-example rows read off g
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 5))
    labels = rng.integers(0, 3, size=n)
    arrays = {"w1": rng.standard_normal((4, 5)), "b1": rng.standard_normal(4),
              "v": rng.standard_normal((4, 4)),
              "w2": rng.standard_normal((3, 4)), "b2": rng.standard_normal(3)}

    def run(rows, y):
        t = Tape()
        p = {name: Value(a) for name, a in arrays.items()}
        h = t.dense(Value(rows), p["w1"], p["b1"])
        h = t.node([("linear", h, p["v"]), ("identity", h, None)])
        loss = t.softmax_cross_entropy(t.dense(h, p["w2"], p["b2"]), y)
        backward(t, loss, keep_outputs=True)
        return t, p

    t, p = run(x, labels)
    got = per_example_variance(t, p)
    for name in ("b1", "b2"):
        own = np.stack([run(x[i : i + 1], labels[i : i + 1])[1][name].grad for i in range(n)])
        centred = own - own.mean(axis=0)
        want = float(np.sum(centred * centred)) / n
        assert want > 0.0
        assert abs(got[name] - want) <= 1e-12 * want


# --- member axis ----------------------------------------------------------


def close(a, b):
    return np.allclose(a, b, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("shared_input", [False, True])
def test_stacked_primitives_match_per_slice(shared_input):
    # K members stacked on a leading axis against K separate 2-D calls; a
    # shared (unstacked) input and labels feed every member
    rng = np.random.default_rng(7)
    k, batch, d_in, d_out = 3, 5, 4, 3
    xs = rng.standard_normal((k, batch, d_in))
    ws = rng.standard_normal((k, d_out, d_in))
    bs = rng.standard_normal((k, d_out))
    labels = rng.integers(0, d_out, size=(k, batch))

    def run(x, w, b, y):
        t = Tape()
        leaves = [Value(a) for a in (x, w, b)]
        h = t.dense(*leaves)
        loss = t.softmax_cross_entropy(h, y)
        backward(t, loss)
        return h.data, loss.data, [leaf.grad for leaf in leaves]

    def member(a, i):
        return a[0] if shared_input else a[i]

    x, y = (xs[0], labels[0]) if shared_input else (xs, labels)
    h, loss, grads = run(x, ws, bs, y)
    assert loss.shape == (k,)
    slices = [run(member(xs, i), ws[i], bs[i], member(labels, i)) for i in range(k)]
    for i, (h_i, loss_i, grads_i) in enumerate(slices):
        assert loss_i.shape == ()
        assert close(h[i], h_i) and close(loss[i], loss_i)
        assert close(grads[1][i], grads_i[1]) and close(grads[2][i], grads_i[2])
    x_grads = [grads_i[0] for _, _, grads_i in slices]
    # a shared input's gradient sums over the members it fed
    assert grads[0].shape == x.shape
    assert close(grads[0], sum(x_grads) if shared_input else np.stack(x_grads))


def test_member_axis_mismatch_raises_shape_mismatch(darts):
    net = CellNetwork(darts, SMALL)
    init = net.init_params(np.random.default_rng(0))
    params = np.stack([init] * 3)
    x2, x3 = np.ones((2, 5, 5)), np.ones((3, 5, 5))
    y = np.zeros(5, dtype=int)
    passes = (net.loss_and_grads, net.evaluate, net.gradient_variance)
    # x stacked for 2 members, params for 3
    for check in passes:
        with pytest.raises(ShapeMismatch):
            check(x2, y, params)
    # labels stacked for 2 members, or of the wrong length
    for labels in (np.zeros((2, 5), dtype=int), np.zeros(4, dtype=int)):
        for check in passes:
            with pytest.raises(ShapeMismatch):
                check(x3, labels, params)
    # params 3 values longer or shorter than the layout, rows with two
    # member axes, and flat params beside stacked rows
    for rows, p in ((x3, np.append(params, np.ones((3, 3)), axis=1)), (x3, params[:, :-3]),
                    (np.ones((2, 3, 5, 5)), params), (x3, init)):
        for check in passes:
            with pytest.raises(ShapeMismatch):
                check(rows, y, p)
        with pytest.raises(ShapeMismatch):
            net.forward(rows, p)
    for p in (np.append(init, np.ones(3)), init[:-3]):
        with pytest.raises(ShapeMismatch):
            net.gradient_variance(x3[0], y, p)
    with pytest.raises(ShapeMismatch):
        sgd_step(np.ones((3, 2)), np.ones((3, 2)), 0.0, lr=[0.1, 0.2])


def test_forward_determinism():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 6))
    w = rng.standard_normal((6, 6))

    def run():
        t = Tape()
        src = Value(x)
        return t.node([("linear", src, Value(w)), ("identity", src, None)]).data

    assert np.array_equal(run(), run())


# --- optimizer ------------------------------------------------------------


def test_sgd_plain_step():
    # v1 = 1 + 3e-4 * 1 = 1.0003, w1 = 1 - 0.1 * 1.0003 = 0.89997
    params = np.array([1.0])
    grads = np.array([1.0])
    params, velocity = sgd_step(params, grads, 0.0, lr=0.1)
    assert np.allclose(params, 0.89997)


def test_sgd_momentum_two_steps():
    # v1 = 1, w1 = -0.1; v2 = 0.9 * 1 + (1 + 3e-4 * -0.1) = 1.89997,
    # w2 = -0.1 - 0.189997 = -0.289997
    params = np.array([0.0])
    grads = np.array([1.0])
    params, velocity = sgd_step(params, grads, 0.0, lr=0.1)
    params, velocity = sgd_step(params, grads, velocity, lr=0.1)
    assert np.allclose(params, -0.289997)


def test_sgd_zero_gradient_only_decays():
    # v = 3e-4 * w = (6e-4, -9e-4), w - 0.5 * v = (1.9997, -2.99955)
    params = np.array([2.0, -3.0])
    grads = np.zeros(2)
    params, _ = sgd_step(params, grads, 0.0, lr=0.5)
    assert np.array_equal(params, np.array([1.9997, -2.99955]))


def test_sgd_weight_decay_pulls_to_zero():
    # v = 3e-4 * 1, w = 1 - 1.0 * 3e-4 = 0.9997
    params = np.array([1.0])
    grads = np.zeros(1)
    params, _ = sgd_step(params, grads, 0.0, lr=1.0)
    assert np.allclose(params, 0.9997)


def test_sgd_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        sgd_step(np.ones(3), np.ones(4), 0.0, lr=0.1)


def test_sgd_one_lr_per_member_matches_scalar_steps():
    rng = np.random.default_rng(8)
    w, g = rng.standard_normal((3, 8)), rng.standard_normal((3, 8))
    lrs = [0.1, 0.025, 0.0]
    stacked, velocity = w, 0.0
    for _ in range(2):
        stacked, velocity = pure_sgd_step(stacked, g, velocity, lrs)
    for i, lr in enumerate(lrs):
        single, velocity_i = w[i], 0.0
        for _ in range(2):
            single, velocity_i = pure_sgd_step(single, g[i], velocity_i, lr)
        assert np.array_equal(stacked[i], single)


def pure_sgd_step(params, grads, velocity, lr):
    """``sgd_step``, asserting that the params, grads and velocity (a scalar
    0.0 or an array) that it is given keep their bits."""
    inputs = (params, grads, velocity)
    before = [np.array(a).view(np.int64).copy() for a in inputs]
    out = sgd_step(params, grads, velocity, lr=lr)
    for a, was in zip(inputs, before):
        assert np.array_equal(np.array(a).view(np.int64), was)
    return out


def blockwise_sgd_step(params, grads, buffers, lr, momentum=0.9, weight_decay=3e-4):
    """The per-block step on name -> array dicts that the flat step replaced."""
    lr = np.asarray(lr, dtype=np.float64)
    for name, w in params.items():
        v = buffers.get(name)
        if v is None:
            v = np.zeros_like(w)
        v = momentum * v + (grads[name] + weight_decay * w)
        buffers[name] = v
        params[name] = w - lr.reshape(lr.shape + (1,) * (w.ndim - lr.ndim)) * v
    return params


def test_flat_sgd_matches_per_block_loop(darts):
    # three members of darts, one lr each, several steps: the flat step is
    # the per-block step's arithmetic in the same order, so bit for bit
    layout = CellNetwork(darts, NetworkConfig(layers=2, dim=6, num_classes=3,
                                              input_dim=5)).layout
    rng = np.random.default_rng(11)
    flat = rng.standard_normal((3, layout.size))
    lrs = [0.25, 0.025, 0.0025]
    blocks = {k: v.copy() for k, v in layout.views(flat).items()}
    buffers, velocity = {}, 0.0
    for _ in range(4):
        g = rng.standard_normal(flat.shape)
        g[:, :5] = -0.0  # signed zeros take the same path through both
        flat, velocity = pure_sgd_step(flat, g, velocity, lrs)
        blocks = blockwise_sgd_step(blocks, layout.views(g), buffers, lrs)
    for name, view in layout.views(flat).items():
        assert np.array_equal(view, blocks[name]), name
        assert np.array_equal(layout.views(velocity)[name], buffers[name]), name


def test_cosine_schedule_endpoints():
    assert cosine_lr(0, 30, 0.025) == 0.025
    assert cosine_lr(30, 30, 0.025) == 0.0
    assert cosine_lr(15, 30, 0.025) == pytest.approx(0.0125)


def test_cosine_schedule_domain():
    with pytest.raises(ValueError):
        cosine_lr(-1, 10, 0.1)
    with pytest.raises(ValueError):
        cosine_lr(11, 10, 0.1)
    with pytest.raises(ValueError):
        cosine_lr(0, 0, 0.1)


def test_glorot_bound():
    rng = np.random.default_rng(0)
    w = glorot_init((50, 30), rng)
    bound = math.sqrt(6.0 / 80.0)
    assert np.max(np.abs(w)) <= bound
    assert np.max(np.abs(w)) > 0.5 * bound  # actually fills the range


# --- checkpoint container -------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    layout = ParamLayout({"stem.w": (8, 4), "stem.b": (8,), "head.w": (3, 8)})
    params = rng.standard_normal(layout.size)
    path = tmp_path / "model.ckpt"
    layout.save(params, path)
    loaded = layout.load(path)
    assert np.array_equal(loaded, params)
    assert loaded.dtype == np.float64


def test_checkpoint_header_layout(tmp_path):
    layout = ParamLayout({"a": (2, 2), "b": (3,)})
    params = np.concatenate([np.zeros(4), np.ones(3)])
    path = tmp_path / "model.ckpt"
    layout.save(params, path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<I", blob[:4])
    header = json.loads(blob[4 : 4 + header_len])
    assert [b["name"] for b in header] == ["a", "b"]
    assert header[0] == {"name": "a", "shape": [2, 2], "offset": 0}
    assert header[1]["offset"] == 4
    payload = np.frombuffer(blob[4 + header_len :], dtype="<f8")
    assert payload.size == 7


def test_checkpoint_write_is_deterministic(tmp_path):
    layout = ParamLayout({"w": (2, 3)})
    params = np.arange(6.0)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    layout.save(params, p1)
    layout.save(params, p2)
    assert p1.read_bytes() == p2.read_bytes()


def per_name_checkpoint(params, path):
    """The writer on name -> array dicts that the flat writer replaced."""
    names = sorted(params)
    header = []
    offset = 0
    for name in names:
        arr = np.ascontiguousarray(params[name], dtype="<f8")
        header.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size
    header_bytes = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for name in names:
            fh.write(np.ascontiguousarray(params[name], dtype="<f8").tobytes())


@pytest.mark.parametrize("genotype", ["darts", "nasnet"])
def test_checkpoint_bytes_match_per_name_writer(tmp_path, genotype):
    net = CellNetwork(load_fixture(genotype), NetworkConfig(layers=2, dim=6))
    params = net.init_params(np.random.default_rng(4))
    members = np.stack([params, -params])
    net.layout.save(members[1], tmp_path / "flat.ckpt")
    per_name_checkpoint(net.layout.views(members[1]), tmp_path / "names.ckpt")
    assert (tmp_path / "flat.ckpt").read_bytes() == (tmp_path / "names.ckpt").read_bytes()
    assert np.array_equal(net.layout.load(tmp_path / "flat.ckpt"), members[1])


@pytest.mark.parametrize("other", [
    {"a": (2, 2), "c": (3,)},  # a name differs
    {"a": (2, 2), "b": (4,)},  # a shape differs
    {"b": (3,), "a": (2, 2), "0": (0,)},  # an extra, empty block moves no offset
], ids=["name", "shape", "extra block"])
def test_checkpoint_of_other_layout_raises_dimension_mismatch(tmp_path, other):
    layout = ParamLayout({"a": (2, 2), "b": (3,)})
    path = tmp_path / "model.ckpt"
    layout.save(np.arange(7.0), path)
    with pytest.raises(DimensionMismatch):
        ParamLayout(other).load(path)


def test_checkpoint_header_with_moved_or_repeated_block_raises(tmp_path):
    layout = ParamLayout({"a": (2, 2), "b": (3,)})
    for header in (
        [{"name": "a", "shape": [2, 2], "offset": 3}, {"name": "b", "shape": [3], "offset": 0}],
        [{"name": "a", "shape": [2, 2], "offset": 0}, {"name": "b", "shape": [3], "offset": 4},
         {"name": "b", "shape": [3], "offset": 4}],
    ):
        raw = json.dumps(header).encode()
        path = tmp_path / "model.ckpt"
        path.write_bytes(struct.pack("<I", len(raw)) + raw + np.arange(7.0).tobytes())
        with pytest.raises(DimensionMismatch):
            layout.load(path)


@pytest.mark.parametrize("block", [
    {"name": "a", "shape": [1, 4], "offset": False},
    {"name": "a", "shape": [True, 4], "offset": 0},
    {"name": "a", "shape": [1.0, 4], "offset": 0},
    {"name": "a", "shape": [1, 4], "offset": 0.0},
    {"name": 1, "shape": [1, 4], "offset": 0},
], ids=["false offset", "true in shape", "float in shape", "float offset", "numeric name"])
def test_checkpoint_header_of_wrong_json_type_raises_parse_error(tmp_path, block):
    # the first four equal the layout's block in Python, so only the JSON type
    # of a value can tell them from it
    layout = ParamLayout({"a": (1, 4), "b": (3,)})
    header = [block, {"name": "b", "shape": [3], "offset": 4}]
    raw = json.dumps(header).encode()
    path = tmp_path / "model.ckpt"
    path.write_bytes(struct.pack("<I", len(raw)) + raw + np.arange(7.0).tobytes())
    with pytest.raises(ParseError, match="bad checkpoint header"):
        layout.load(path)


@pytest.mark.parametrize("written_for, damage, error", [
    ("other", "truncated", ParseError),  # a short payload is found before the blocks
    ("other", "intact", DimensionMismatch),
    ("other", "trailing", DimensionMismatch),  # the blocks are checked before the length
    ("own", "truncated", ParseError),
    ("own", "trailing", ParseError),
])
def test_checkpoint_load_checks_in_order(tmp_path, written_for, damage, error):
    layout = ParamLayout({"a": (2, 2), "b": (3,)})
    writer = layout if written_for == "own" else ParamLayout({"a": (2, 2), "c": (3,)})
    path = tmp_path / "model.ckpt"
    writer.save(np.arange(7.0), path)
    raw = path.read_bytes()
    path.write_bytes({"truncated": raw[:-8], "intact": raw,
                      "trailing": raw + np.ones(2, dtype="<f8").tobytes()}[damage])
    with pytest.raises(error):
        layout.load(path)
