import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cellscape import (
    CellGenotype,
    CellNetwork,
    DatasetSpec,
    NetworkConfig,
    NodeSpec,
    OpSpec,
    adapt_to_widest_shallowest,
    cell_depth,
    cell_width,
    compare_convergence,
    load_fixture,
    make_dataset,
    train,
)
from cellscape import training
from cellscape import autodiff
from cellscape.data import spec_from_json
from cellscape.errors import InvalidSpec, ShapeMismatch, UnsupportedInputCount
from cellscape.genotype import FIXTURE_NAMES
from cellscape.network import ParamLayout
from cellscape.rng import stream
from conftest import (
    all_input_cell,
    cell_parameter_count,
    central_difference,
    chain_cell,
    edges,
    rewire_to_chain,
    spec_to_json,
    tape_evaluate,
    tape_gradient_variance,
    tape_loss_and_grads,
)

SMALL = NetworkConfig(layers=2, dim=6, num_classes=3, input_dim=5)


# --- parameter bookkeeping ------------------------------------------------


def test_all_identity_cell_has_no_cell_parameters():
    g = CellGenotype(
        name="id",
        num_inputs=2,
        nodes=(
            NodeSpec((OpSpec("identity", 0), OpSpec("identity", 1))),
            NodeSpec((OpSpec("identity", 0), OpSpec("identity", 2))),
        ),
    )
    net = CellNetwork(g, SMALL)
    assert cell_parameter_count(net) == 0
    # stem (6x5 + 6) + head (3x6 + 3)
    assert net.layout.size == 36 + 21


def test_all_linear_cell_parameter_count():
    g = all_input_cell(2)
    net = CellNetwork(g, SMALL)
    # 2 layers x 2 nodes x 2 linear ops x 6x6
    assert cell_parameter_count(net) == 2 * 2 * 2 * 36


def small_count(g):
    return CellNetwork(g, SMALL).layout.size


def test_connection_variants_have_equal_counts(darts):
    assert small_count(darts) == small_count(rewire_to_chain(darts))


def test_mixed_ops_count_difference():
    full = all_input_cell(2)
    half = CellGenotype(
        name="half",
        num_inputs=2,
        nodes=(
            NodeSpec((OpSpec("linear", 0), OpSpec("identity", 1))),
            NodeSpec((OpSpec("linear", 0), OpSpec("identity", 1))),
        ),
    )
    diff = small_count(full) - small_count(half)
    assert diff == 2 * 2 * 36  # two dropped linear blocks per layer


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_layout_views_are_each_blocks_own_slice(lead):
    # a run of same-shape blocks is reshaped once and read block by block:
    # the views are those of slicing each block, and writes reach the vector
    layout = ParamLayout({"b": (3,), "a": (2, 2), "e": (0,), "c": (3,), "w": (2, 2), "v": (2, 2)})
    flat = np.arange(math.prod(lead) * layout.size, dtype=float).reshape(lead + (layout.size,))
    views = layout.views(flat)
    assert list(views) == list(layout.blocks)
    for name, (s, shape) in layout.blocks.items():
        want = flat[..., s].reshape(lead + shape)
        assert views[name].shape == want.shape and np.array_equal(views[name], want)
        if want.size:  # an empty block's strides are arbitrary
            assert views[name].strides == want.strides and np.shares_memory(views[name], flat)
    # only the runs holding a name asked for, each block's transpose copied
    # C-contiguous, one copy per run
    transposed = layout.views(flat, {"w"})
    assert list(transposed) == ["v", "w"] and transposed["v"].base is transposed["w"].base
    for name, wt in transposed.items():
        assert np.array_equal(wt, np.swapaxes(views[name], -1, -2)) and wt.flags.c_contiguous
        assert not np.shares_memory(wt, flat)
    views["c"][...] = -1.0
    assert np.all(flat[..., 7:10] == -1.0) and np.all(flat[..., 10:] >= 0.0)


def test_m_not_2_rejected():
    g = CellGenotype(name="m3", num_inputs=3,
                     nodes=(NodeSpec(tuple(OpSpec("linear", s) for s in range(3))),))
    with pytest.raises(UnsupportedInputCount):
        CellNetwork(g, SMALL)


# --- forward / gradients --------------------------------------------------


def test_forward_shapes(darts):
    net = CellNetwork(darts, SMALL)
    x = np.ones((7, 5))
    logits, _ = net.forward(x, net.init_params(stream(0, "init")))
    assert logits.shape == (7, 3)


def test_loss_and_grads_cover_all_parameters(darts):
    net = CellNetwork(darts, SMALL)
    params = net.init_params(stream(0, "init"))
    x = np.random.default_rng(0).standard_normal((4, 5))
    y = np.array([0, 1, 2, 0])
    loss, grads = net.loss_and_grads(x, y, params)
    assert math.isfinite(loss)
    assert grads.shape == params.shape == (net.layout.size,)
    for name, g in net.layout.views(grads).items():
        assert g.shape == net.layout.views(params)[name].shape


def test_network_gradients_match_finite_differences(toy_cell):
    cfg = NetworkConfig(layers=1, dim=4, num_classes=3, input_dim=4)
    net = CellNetwork(toy_cell, cfg)
    init = net.init_params(stream(1, "init"))
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 4))
    y = rng.integers(0, 3, size=5)
    _, grads = net.loss_and_grads(x, y, init)
    grads = net.layout.views(grads)
    for name, (block, _) in net.layout.blocks.items():
        def f(wv, block=block):
            params = init.copy()
            params[block] = wv.ravel()
            loss, _ = net.evaluate(x, y, params)
            return loss

        fd = central_difference(f, net.layout.views(init)[name], 1e-4)
        scale = max(np.max(np.abs(fd)), 1.0)
        assert np.max(np.abs(grads[name] - fd)) / scale <= 1e-5, name


@pytest.mark.parametrize("name", ["darts", "snas", "nasnet", "amoebanet", "darts_conn1"])
def test_evaluate_matches_recording_forward_bit_for_bit(name):
    # a pass that records nothing frees rectifiers and slots as it goes; the
    # values are the same, with and without a member axis, and it ends
    # holding the head's input rows and no rectifier
    net = CellNetwork(load_fixture(name), SMALL)
    init = net.init_params(stream(3, "init"))
    rng = np.random.default_rng(8)
    x = rng.standard_normal((16, 5))
    y = rng.integers(0, 3, size=16)
    for lead in [(), (2,)]:
        params = init + rng.standard_normal(lead + init.shape)
        logits, (_, _, recorded_rows, _) = net.forward(x, params)
        recorded, _ = autodiff.softmax_cross_entropy(logits, y)
        loss, acc = net.evaluate(x, y, params)
        assert np.array_equal(loss, recorded)
        assert np.array_equal(acc, np.mean(np.argmax(logits, axis=-1) == y, axis=-1))
        quiet_logits, (_, views, rows, rects) = net.forward(x, params, record=False)
        assert np.array_equal(quiet_logits, logits)
        assert np.array_equal(rows, recorded_rows)
        assert np.array_equal(autodiff.dense(rows, views["head.w"], views["head.b"]), logits)
        assert all(r is None for r in rects)


def bits(a):
    """The float64 bit patterns of ``a``, so that equality tells -0.0 from
    +0.0 and compares NaNs."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


# what no fixture has: a zero part, an identity+identity node, and a node
# outside the concat that no node reads, whose weights the loss never reaches
ODD_CELLS = [
    CellGenotype(name="zero-part", num_inputs=2, nodes=(
        NodeSpec((OpSpec("linear", 0), OpSpec("zero", 1))),
        NodeSpec((OpSpec("zero", 2), OpSpec("linear", 2))),
    )),
    CellGenotype(name="identity-pair", num_inputs=2, nodes=(
        NodeSpec((OpSpec("identity", 0), OpSpec("identity", 1))),
        NodeSpec((OpSpec("linear", 2), OpSpec("identity", 2))),
        NodeSpec((OpSpec("identity", 3), OpSpec("linear", 0))),
    )),
    CellGenotype(name="dead-end", num_inputs=2, nodes=(
        NodeSpec((OpSpec("linear", 0), OpSpec("linear", 1))),
        NodeSpec((OpSpec("linear", 2), OpSpec("linear", 0))),
    ), concat=(2,)),
]
ORACLE_CFG = NetworkConfig(layers=3, dim=6, num_classes=3, input_dim=5)


@pytest.mark.parametrize("x_stacked", [False, True], ids=["x unstacked", "x stacked"])
@pytest.mark.parametrize("members", ["none", "K1", "K3", "K3 non-finite"])
@pytest.mark.parametrize("genotype", [*FIXTURE_NAMES, *ODD_CELLS],
                         ids=lambda g: getattr(g, "name", g))
def test_pass_matches_tape_oracle_bit_for_bit(genotype, members, x_stacked):
    # loss, flat gradient, evaluation and gradient variance against the tape
    # that the pass replaced, bit for bit, for every member; rows stack only
    # beside params that stack, so params with no member axis and stacked
    # rows raise
    g = load_fixture(genotype) if isinstance(genotype, str) else genotype
    net = CellNetwork(g, ORACLE_CFG)
    rng = np.random.default_rng(21)
    k = {"none": 3, "K1": 1}.get(members, 3)
    init = net.init_params(stream(2, "init"))
    params = init if members == "none" else init + rng.standard_normal((k, init.size)) * 0.3
    if members == "K3 non-finite":
        params[1, ::7], params[1, 3::11] = np.inf, np.nan
    x = rng.standard_normal((k, 7, 5) if x_stacked else (7, 5))
    x[..., 0, :2] = -0.0
    y = rng.integers(0, 3, size=7)
    if members == "none" and x_stacked:
        for check in (net.loss_and_grads, net.evaluate, net.gradient_variance):
            with pytest.raises(ShapeMismatch):
                check(x, y, params)
        return
    with np.errstate(all="ignore"):
        loss, grads = net.loss_and_grads(x, y, params)
        want_loss, want_grads = tape_loss_and_grads(net, x, y, params)
        assert grads.shape == params.shape
        assert np.array_equal(bits(loss), bits(want_loss))
        assert np.array_equal(bits(grads), bits(want_grads))
        for got, want in zip(net.evaluate(x, y, params), tape_evaluate(net, x, y, params)):
            assert np.array_equal(bits(got), bits(want))
        # each member's total against the tape on that member's params and
        # rows: finite values bit for bit, NaN as NaN, since a stacked pass
        # may set a NaN's sign bit where a one-member pass does not
        variance = net.gradient_variance(x, y, params)
        if members == "none":
            assert isinstance(variance, float)
            assert bits(variance) == bits(tape_gradient_variance(net, x, y, params))
        else:
            assert variance.shape == (k,)
            for i, got in enumerate(variance):
                want = tape_gradient_variance(net, x[i] if x_stacked else x, y, params[i])
                assert bits(got) == bits(want) or np.isnan(got) and np.isnan(want)
    if g.name == "dead-end":
        dead = [v for name, v in net.layout.views(grads).items() if ".node1." in name]
        assert len(dead) == 2 * ORACLE_CFG.layers and all(
            np.all(bits(v) == 0) for v in dead)


def members_near(darts, cfg, k=3):
    """A darts network at ``cfg`` and (k, P) params around one init, the
    last member holding an inf and a NaN in every 13th value."""
    net = CellNetwork(darts, cfg)
    init = net.init_params(stream(1, "init"))
    params = init + np.random.default_rng(4).standard_normal((k, init.size)) * 0.3
    params[-1, ::13], params[-1, 6::13] = np.inf, np.nan
    return net, params


def test_default_size_pass_matches_tape_oracle_bit_for_bit(darts):
    # a linear node part multiplies by a contiguous copy of its weight's
    # transpose, where the tape multiplies by a transposed view of the
    # weight: at the default width of 16, with 2 rows or more, both products
    # keep every bit, as do the training batch and the loss grid's shared rows
    net, params = members_near(darts, NetworkConfig())
    ds = make_dataset(DatasetSpec())
    x = np.stack([ds.train_x[i * 80:(i + 1) * 80] for i in range(3)])
    y = np.stack([ds.train_y[i * 80:(i + 1) * 80] for i in range(3)])
    with np.errstate(all="ignore"):
        loss, grads = net.loss_and_grads(x, y, params)
        want_loss, want_grads = tape_loss_and_grads(net, x, y, params)
        assert np.array_equal(bits(loss), bits(want_loss))
        assert np.array_equal(bits(grads), bits(want_grads))
        x, y = ds.test_x[:256], ds.test_y[:256]
        for got, want in zip(net.evaluate(x, y, params[1:]), tape_evaluate(net, x, y, params[1:])):
            assert np.array_equal(bits(got), bits(want))
        variance = net.gradient_variance(x, y, params[:2])
        assert list(bits(variance)) == [bits(tape_gradient_variance(net, x, y, p)) for p in params[:2]]


@pytest.mark.parametrize("cfg, rows", [(NetworkConfig(dim=20), 80), (NetworkConfig(), 1)],
                         ids=["dim 20", "one row"])
def test_pass_near_tape_oracle_where_products_round_differently(darts, cfg, rows):
    # the contiguous and the strided product round differently at some
    # widths (17-20, 25-28 and 32-40, the widest tried, with numpy 2.4's
    # OpenBLAS 0.3.31 on x86-64) and on one row at any width, a
    # matrix-vector product.  Against the tape, these cases differed by at
    # most 4.5e-16 relative in a loss and 4.4e-16 in a member's gradient,
    # relative to its largest entry; over the six fixtures, at 1 or 80 rows
    # and widths 17 and 20, by at most 8.8e-16 and 4.3e-14
    net, params = members_near(darts, cfg)
    params = params[:2]  # finite: the tolerance is for finite values
    ds = make_dataset(DatasetSpec())
    x, y = ds.train_x[:rows], ds.train_y[:rows]
    for p in (params[0], params):
        loss, grads = net.loss_and_grads(x, y, p)
        want_loss, want_grads = tape_loss_and_grads(net, x, y, p)
        np.testing.assert_allclose(loss, want_loss, rtol=1e-14)
        for got, want in zip(np.atleast_2d(grads), np.atleast_2d(want_grads)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        for got, want in zip(net.evaluate(x, y, p), tape_evaluate(net, x, y, p)):
            np.testing.assert_allclose(got, want, rtol=1e-14)


def traced_peak(f):
    """The tracemalloc peak, in bytes, of a call of ``f`` made after one
    untraced warm-up call."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_only_pass_frees_dead_rectifiers(darts):
    # 2000 rows of width 16 are 0.25 MB an array; keeping every rectifier
    # until its cell ends peaked at 2.70 MB, freeing each after its last
    # linear reader, in its own cell or the next, at about 1.96 MB, and
    # with the pass's 74 KB copy of the linear weights' transposes beside
    # it at about 2.04 MB
    net = CellNetwork(darts, NetworkConfig())
    ds = make_dataset(DatasetSpec())
    params = net.init_params(stream(0, "init"))
    peak = traced_peak(lambda: net.evaluate(ds.train_x[:2000], ds.train_y[:2000], params))
    assert peak < 2.3 * 2**20


def test_gradient_variance_builds_no_per_example_tensor(darts):
    # 256 rows: the (n, out, in) per-example gradients of the widest block
    # are 0.5 MB, and building them peaked at 3.61 MB.  Reduced from the
    # factors, with each slot freed after its last reader, the call peaks at
    # about 0.81 MB, and a (3, P) batch-80 loss_and_grads at about 0.90 MB
    # (1.60 and 1.66 MB when a recorded pass kept every slot; the forward
    # pass's copy of the weights' transposes is freed before the peak), so
    # the bound leaves no room for such an array
    net = CellNetwork(darts, NetworkConfig())
    ds = make_dataset(DatasetSpec())
    params = net.init_params(stream(0, "init"))
    members = np.stack([net.init_params(stream(seed, "init")) for seed in range(3)])
    for call in (lambda: net.gradient_variance(ds.test_x[:256], ds.test_y[:256], params),
                 lambda: net.loss_and_grads(ds.train_x[:80], ds.train_y[:80], members)):
        assert traced_peak(call) < 1.2 * 2**20


def test_darts_pass_keeps_one_array_per_layer(darts):
    # the stem's output, 4 nodes and the concat mean in each of 6 cells: one
    # array per layer before the head, each of them made by one step and
    # freed after its last reader, so a recorded pass ends holding the
    # head's rows and the 12 rectifiers that its reverse walk reads
    net = CellNetwork(darts, NetworkConfig())
    kinds = [parts[0][0] for _, parts, *_ in net._plan]
    assert len(kinds) == 30 and kinds.count("mean") == 6
    x = np.random.default_rng(5).standard_normal((2, 16))
    logits, (_, views, rows, rects) = net.forward(x, net.init_params(stream(3, "init")))
    assert rows.shape == (2, 16)
    assert np.array_equal(autodiff.dense(rows, views["head.w"], views["head.b"]), logits)
    linear_read = {s for _, parts, *_ in net._plan for _, s, w in parts if w}
    assert len(rects) == 31 and len(linear_read) == 12
    assert {s for s, r in enumerate(rects) if r is not None} == linear_read


@pytest.mark.parametrize("name, expected", [
    ("darts", 12), ("nasnet", 6), ("amoebanet", 18), ("enas", 6), ("snas", 6),
])
def test_forward_rectifies_each_value_once(name, expected, monkeypatch):
    # a cell's input node 0 is the output of the cell two back, node 1 that
    # of the cell before, and the stem output stands in for both before cell
    # 0; every linear part reading one of those slots shares its rectifier,
    # and a pass that records nothing frees it only after its last reader
    g = load_fixture(name)
    layers = 6
    read = set()
    for layer in range(layers):
        for node in g.nodes:
            for op in node.ops:
                if op.kind == "linear":
                    src = op.source
                    read.add(("cell", max(layer - 2 + src, -1)) if src < 2 else (layer, src))
    assert len(read) == expected
    computed = []
    rectify = autodiff.rectify

    def counted(x):
        computed.append(x)  # kept, so that no freed array's id is reused
        return rectify(x)

    monkeypatch.setattr(autodiff, "rectify", counted)
    net = CellNetwork(g, NetworkConfig(layers=layers))
    params = net.init_params(stream(3, "init"))
    for record in (True, False):
        computed.clear()
        net.forward(np.ones((2, 16)), params, record)
        assert len(computed) == len({id(x) for x in computed}) == expected, record
    logits, acts = net.forward(np.ones((2, 16)), params)
    assert sum(r is not None for r in acts[3]) == expected
    # the reverse walk masks each of those rectifiers once, at its last reader
    masked = []
    relu_mask = autodiff.relu_mask
    monkeypatch.setattr(autodiff, "relu_mask", lambda r: masked.append(r) or relu_mask(r))
    for _ in net._reverse(acts, np.ones_like(logits)):
        pass
    assert len(masked) == len({id(r) for r in masked}) == expected


def test_plan_skips_the_steps_that_the_loss_does_not_reach(monkeypatch):
    # the dead-end cell's node 1 feeds no cell output: a pass neither
    # computes it nor rectifies or masks the node 0 that only it reads
    # linearly, so each of 2 cells makes 1 node, 1 rectifier and 1 mask
    calls = {name: [] for name in ("node", "rectify", "relu_mask")}
    for name, found in calls.items():
        layer = getattr(autodiff, name)
        monkeypatch.setattr(autodiff, name, lambda *a, layer=layer, found=found:
                            found.append(a) or layer(*a))
    dead_end = next(g for g in ODD_CELLS if g.name == "dead-end")
    net = CellNetwork(dead_end, SMALL)
    params = net.init_params(stream(3, "init"))
    _, grads = net.loss_and_grads(np.ones((4, 5)), np.zeros(4, dtype=int), params)
    assert {name: len(found) for name, found in calls.items()} == {
        "node": 2, "rectify": 2, "relu_mask": 2}
    dead = [v for name, v in net.layout.views(grads).items() if ".node1." in name]
    assert len(dead) == 2 * 2 and all(np.all(bits(v) == 0) for v in dead)


def test_forward_only_pass_views_the_stem_and_head_alone(darts):
    # only the reverse walk reads the linear weights' own views: a pass that
    # records nothing slices the stem's and the head's four blocks, and a
    # recorded pass all 40 of darts', with or without a member axis
    net = CellNetwork(darts, NetworkConfig())
    params = net.init_params(stream(3, "init"))
    assert len(net.layout.blocks) == 40
    x = np.random.default_rng(6).standard_normal((3, 16))
    for p in (params, np.stack([params, -params])):
        views = net.forward(x, p, record=False)[1][1]
        assert sorted(views) == ["head.b", "head.w", "stem.b", "stem.w"]
        recorded = net.forward(x, p)[1][1]
        assert list(recorded) == list(net.layout.blocks)
        for name, view in views.items():
            assert np.array_equal(bits(view), bits(recorded[name]))


# --- signed zeros ---------------------------------------------------------


def zeros_negative(a):
    """``a`` with the sign bit of each zero set."""
    return np.where(a == 0.0, -0.0, a)


def count_negative_zeros(a):
    """How many entries of ``a`` are -0.0."""
    return int(np.count_nonzero((a == 0.0) & np.signbit(a)))


@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
@pytest.mark.parametrize("rows, dim", [(1, 1), (2, 1), (1, 3), (2, 2), (5, 1), (2, 3), (7, 1),
                                       (2, 4), (3, 3), (1, 17), (3, 11)],
                         ids=str)
def test_rectifier_zero_signs_reach_no_layer_output(rows, dim, strided):
    # rectify is fmax alone, and numpy's scalar fmax path (fewer than 8
    # elements, an odd tail, a strided view) keeps a -0.0 input's sign.  A
    # rectifier and its copy with every zero's sign set give the same bits
    # through every layer that reads one: a node part's product and a
    # weight's param_grad are matrix products, relu_mask tests r > 0, and
    # block_variance squares its rows; with and without a member axis
    rng = np.random.default_rng(10 * rows + dim)
    x = rng.standard_normal((2 * rows, 2 * dim) if strided else (rows, dim))
    x.flat[::2] = -0.0
    x = x[::2, ::2] if strided else x
    r = autodiff.rectify(x)
    plain = np.where(x > 0.0, x, 0.0)
    assert np.array_equal(bits(np.abs(r)), bits(plain))  # bit for bit up to zero signs
    wt = rng.standard_normal((2, dim, dim))
    g = rng.standard_normal((2, rows, dim))

    def outputs(a):
        stacked = np.stack([a, a[::-1]])
        return [autodiff.node([("linear", a, wt[0]), ("zero", a, None)]),
                autodiff.node([("linear", a, wt[0]), ("linear", a, wt[1])]),
                autodiff.node([("identity", plain, None), ("linear", a, wt)]),
                autodiff.param_grad(g[0], a), autodiff.param_grad(g, stacked),
                autodiff.relu_mask(a), autodiff.relu_mask(stacked),
                autodiff.block_variance(g[0], a), autodiff.block_variance(g, a),
                autodiff.block_variance(g, stacked)]

    want = outputs(plain)
    for got in (outputs(r), outputs(zeros_negative(plain))):
        for a, b in zip(got, want):
            assert np.array_equal(bits(a), bits(b))


# a cell whose mean underflows to -0.0: node 3 is s0 + 0.0 and node 4 a
# product of node 2, s0 + s0, so in a column that no weight reads or writes
# the output is (s0 + 0.0 + 0.0) / 2: a stem bias of the smallest negative
# float makes it -0.0 there in every row of cells 0 and 1, and in cells 2
# and 3 node 2 is -0.0 + -0.0 there, which its rectifier reads
UNDERFLOW_CELL = CellGenotype(name="underflow", num_inputs=2, nodes=(
    NodeSpec((OpSpec("identity", 0), OpSpec("identity", 0))),
    NodeSpec((OpSpec("identity", 0), OpSpec("zero", 1))),
    NodeSpec((OpSpec("zero", 1), OpSpec("linear", 2))),
), concat=(3, 4))


@pytest.mark.parametrize("flip", [None, "rectify", "mean_of"],
                         ids=["as made", "rectifier zeros -0.0", "mean zeros -0.0"])
@pytest.mark.parametrize("cfg, batch", [
    (NetworkConfig(layers=4, dim=5, num_classes=3, input_dim=5), 9), (NetworkConfig(), 256),
], ids=["batch 9 width 5", "default size"])
@pytest.mark.parametrize("genotype", ["darts", UNDERFLOW_CELL], ids=["darts", "underflow"])
def test_signed_zeros_reach_no_output(genotype, cfg, batch, flip, monkeypatch):
    # rectify and mean_of leave a zero's sign as it falls, where the tape
    # oracle's rectifier and mean clear it: with -0.0 planted in the rows,
    # a mean that underflows to -0.0, and, in turn, every zero that one of
    # the two layers makes turned to -0.0, the loss, gradient, evaluation
    # and gradient variance keep every bit of the oracle's
    g = load_fixture(genotype) if isinstance(genotype, str) else genotype
    net = CellNetwork(g, cfg)
    params = net.init_params(stream(5, "init"))
    if g is UNDERFLOW_CELL:
        views = net.layout.views(params)
        views["stem.w"][0] = 0.0
        views["stem.b"][0] = -5e-324
        for name in net.layout.blocks:
            if name.startswith("cell"):
                views[name][0] = views[name][:, 0] = 0.0
    rng = np.random.default_rng(9)
    x = rng.standard_normal((batch, cfg.input_dim))
    x[::2, ::3] = -0.0
    y = rng.integers(0, cfg.num_classes, size=batch)
    made = []
    mean_of = autodiff.mean_of

    def counted_mean(parts):
        out = mean_of(parts)
        made.append(count_negative_zeros(out))
        return out

    monkeypatch.setattr(autodiff, "mean_of", counted_mean)
    if flip:
        layer = getattr(autodiff, flip)
        monkeypatch.setattr(autodiff, flip, lambda a: zeros_negative(layer(a)))
    loss, grads = net.loss_and_grads(x, y, params)
    if g is UNDERFLOW_CELL and flip != "mean_of":
        assert made[:2] == [batch, batch]  # one column's means underflow
    want_loss, want_grads = tape_loss_and_grads(net, x, y, params)
    assert bits(loss) == bits(want_loss)
    assert np.array_equal(bits(grads), bits(want_grads))
    for got, want in zip(net.evaluate(x, y, params), tape_evaluate(net, x, y, params)):
        assert bits(got) == bits(want)
    assert bits(net.gradient_variance(x, y, params)) == bits(
        tape_gradient_variance(net, x, y, params))


def test_forward_deterministic(darts):
    net = CellNetwork(darts, SMALL)
    params = net.init_params(stream(3, "init"))
    x = np.random.default_rng(1).standard_normal((4, 5))
    a, _ = net.forward(x, params)
    b, _ = net.forward(x, params)
    assert np.array_equal(a, b)


def test_identity_cells_ignore_slot_order():
    # node aggregation is a sum, so swapping a node's slots changes nothing
    wide = CellGenotype(
        name="idw", num_inputs=2,
        nodes=(NodeSpec((OpSpec("identity", 0), OpSpec("identity", 1))),
               NodeSpec((OpSpec("identity", 0), OpSpec("identity", 1)))),
    )
    swapped = CellGenotype(
        name="ids", num_inputs=2,
        nodes=(NodeSpec((OpSpec("identity", 1), OpSpec("identity", 0))),
               NodeSpec((OpSpec("identity", 1), OpSpec("identity", 0)))),
    )
    rng_params = CellNetwork(wide, SMALL).init_params(stream(4, "init"))
    x = np.random.default_rng(5).standard_normal((6, 5))
    la, _ = CellNetwork(wide, SMALL).forward(x, rng_params)
    lb, _ = CellNetwork(swapped, SMALL).forward(x, rng_params)
    assert np.allclose(la, lb, atol=1e-12)


# --- datasets -------------------------------------------------------------


def test_dataset_determinism():
    spec = DatasetSpec(seed=42)
    a, b = make_dataset(spec), make_dataset(spec)
    assert np.array_equal(a.train_x, b.train_x)
    assert np.array_equal(a.test_y, b.test_y)


def test_dataset_split_sizes_and_labels():
    spec = DatasetSpec(train_size=101, test_size=31)
    ds = make_dataset(spec)
    assert ds.train_x.shape == (101, 16)
    assert ds.test_x.shape == (31, 16)
    assert set(np.unique(ds.train_y)) <= set(range(4))


def test_dataset_class_balance():
    ds = make_dataset(DatasetSpec(train_size=2000, num_classes=4))
    counts = np.bincount(ds.train_y, minlength=4)
    assert counts.max() - counts.min() <= 1


def test_dataset_splits_differ():
    ds = make_dataset(DatasetSpec())
    assert ds.train_x.shape[0] != ds.test_x.shape[0] or not np.array_equal(
        ds.train_x[: len(ds.test_x)], ds.test_x
    )


def test_noiseless_mixture_linearly_separable():
    spec = DatasetSpec(noise=0.0, num_classes=2, dim=4, train_size=200, test_size=50)
    ds = make_dataset(spec)
    # least-squares linear classifier on one-hot targets
    X = np.hstack([ds.train_x, np.ones((len(ds.train_y), 1))])
    T = np.eye(2)[ds.train_y]
    W, *_ = np.linalg.lstsq(X, T, rcond=None)
    Xt = np.hstack([ds.test_x, np.ones((len(ds.test_y), 1))])
    pred = np.argmax(Xt @ W, axis=1)
    assert np.mean(pred == ds.test_y) == 1.0


def test_dataset_spec_validation():
    for kind in ("imagenet", "spirals"):
        with pytest.raises(InvalidSpec):
            DatasetSpec(kind=kind)
    with pytest.raises(InvalidSpec):
        DatasetSpec(train_size=0)
    with pytest.raises(InvalidSpec):
        DatasetSpec(num_classes=1)
    # sizes numpy cannot index are rejected before any array is asked for
    for field in ("dim", "train_size", "test_size"):
        with pytest.raises(InvalidSpec, match=f"{field} .*more than numpy can index"):
            DatasetSpec(**{field: 2**60 + 1})


@pytest.mark.parametrize("spec", [
    DatasetSpec(noise=1e308),
    # means of norm above 1e308 overflow too, and inf - inf is NaN
    DatasetSpec(noise=1e308, radius=1e308, dim=2, num_classes=8, seed=1),
], ids=["noise", "noise and radius"])
def test_overflowing_dataset_is_invalid_without_warnings(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpec, match="non-finite points"):
            make_dataset(spec)


def test_dataset_spec_roundtrip(tmp_path):
    spec = DatasetSpec(noise=0.25, seed=9)
    path = tmp_path / "spec.json"
    spec_to_json(spec, path)
    assert spec_from_json(path) == spec


# --- training -------------------------------------------------------------

TINY_DATA = DatasetSpec(dim=5, num_classes=3, train_size=120, test_size=40,
                        noise=1.0, radius=8.0, seed=0)


def test_zero_epochs_trace(darts):
    ds = make_dataset(TINY_DATA)
    net = CellNetwork(darts, SMALL)
    [trace] = train(net, ds, [(0.025, 0)], 0, 80)
    assert len(trace.rows) == 1
    assert trace.rows[0]["epoch"] == 0
    assert not trace.diverged


def test_zero_lr_keeps_parameters(darts):
    ds = make_dataset(TINY_DATA)
    net = CellNetwork(darts, SMALL)
    before = net.init_params(stream(0, "init"))
    [trace] = train(net, ds, [(0.0, 0)], 2, 80)
    assert np.array_equal(trace.final_params, before)
    losses = [r["test_loss"] for r in trace.rows]
    assert losses.count(losses[0]) == len(losses)


def test_training_improves_loss(darts):
    ds = make_dataset(TINY_DATA)
    finals, initials = [], []
    for seed in range(5):
        net = CellNetwork(darts, SMALL)
        [trace] = train(net, ds, [(0.025, seed)], 30, 80)
        initials.append(trace.rows[0]["train_loss"])
        finals.append(trace.rows[-1]["train_loss"])
    assert np.median(finals) < np.median(initials)


def test_training_reproducible(darts):
    ds = make_dataset(TINY_DATA)

    def run():
        net = CellNetwork(darts, SMALL)
        [trace] = train(net, ds, [(0.025, 7)], 3, 80)
        return trace

    a, b = run(), run()
    assert a.rows == b.rows
    assert np.array_equal(a.final_params, b.final_params)


def test_epochs_to_threshold_antitone(darts):
    ds = make_dataset(TINY_DATA)
    net = CellNetwork(darts, SMALL)
    [trace] = train(net, ds, [(0.025, 0)], 15, 80)
    thresholds = [1.2, 0.8, 0.4, 0.2]
    epochs = [trace.epochs_to_threshold(t) for t in thresholds]
    reached = [e for e in epochs if e is not None]
    assert reached == sorted(reached)
    for lo, hi in zip(epochs[1:], epochs[:-1]):
        if hi is None:
            assert lo is None


def test_divergence_recorded(darts):
    # large data scale plus lr 0.25 reliably blows up the deep chain variant
    ds = make_dataset(DatasetSpec(seed=0))
    chain = rewire_to_chain(darts)
    net = CellNetwork(chain, NetworkConfig())
    with np.errstate(all="ignore"):
        [trace] = train(net, ds, [(0.25, 0)], 10, 80)
    assert trace.diverged
    assert trace.divergence_epoch is not None
    assert trace.rows[-1]["test_loss"] == math.inf
    assert trace.epochs_to_threshold(0.5) is None
    assert trace.loss_curve_area() == math.inf


def test_divergence_at_the_first_evaluation(darts):
    # points about 1e308 from the origin overflow the very first evaluation,
    # so every member diverges at epoch 0 with its init draw and no update
    ds = make_dataset(DatasetSpec(radius=1.5e308, train_size=40, test_size=20))
    net = CellNetwork(darts, NetworkConfig())
    members = [(0.025, 0), (0.25, 1)]
    traces = train(net, ds, members, 3, 80)
    for (lr, seed), trace in zip(members, traces):
        assert trace.rows == [{"epoch": 0, "lr": lr, "train_loss": math.inf,
                               "test_loss": math.inf, "test_acc": 0.0}]
        assert trace.divergence_epoch == 0
        assert np.array_equal(trace.final_params, net.init_params(stream(seed, "init")))


# --- lockstep members -----------------------------------------------------


def assert_same_run(lockstep, single):
    """Rows and final params of a lockstep member against its one-member run,
    to 1e-12 relative: the same float64 maths, possibly another BLAS order."""
    assert (lockstep.diverged, lockstep.divergence_epoch) == (
        single.diverged, single.divergence_epoch)
    assert len(lockstep.rows) == len(single.rows)
    for a, b in zip(lockstep.rows, single.rows):
        assert a.keys() == b.keys()
        for key in a:
            assert a[key] == b[key] or math.isclose(a[key], b[key], rel_tol=1e-12), key
    assert lockstep.final_params.shape == single.final_params.shape
    np.testing.assert_allclose(lockstep.final_params, single.final_params, rtol=1e-12, atol=0)


def single_runs(genotype, ds, members, epochs):
    return [train(CellNetwork(genotype, NetworkConfig()), ds, [m], epochs, 80)[0]
            for m in members]


def test_lockstep_members_match_single_runs(darts):
    # lr 0.25 diverges on the deep chain in the first epoch; the other
    # members go on without it
    ds = make_dataset(DatasetSpec(seed=0))
    chain = rewire_to_chain(darts)
    members = [(lr, seed) for lr in (0.0025, 0.025, 0.25) for seed in (0, 1)]
    lockstep = train(CellNetwork(chain, NetworkConfig()), ds, members, 3, 80)
    singles = single_runs(chain, ds, members, 3)
    assert [t.diverged for t in lockstep] == [False] * 4 + [True] * 2
    for a, b in zip(lockstep, singles):
        assert_same_run(a, b)


def test_lockstep_group_where_every_member_diverges(darts):
    # at lr 0.25 darts diverges in epoch 2 at seed 0 and in epoch 1 at seed 1
    ds = make_dataset(DatasetSpec(seed=0))
    members = [(0.25, seed) for seed in (0, 1)]
    lockstep = train(CellNetwork(darts, NetworkConfig()), ds, members, 3, 80)
    singles = single_runs(darts, ds, members, 3)
    assert all(t.diverged for t in lockstep)
    assert lockstep[0].divergence_epoch != lockstep[1].divergence_epoch
    for a, b in zip(lockstep, singles):
        assert_same_run(a, b)


class Watched(CellNetwork):
    """A network that notes where a one-member run first meets a non-finite
    loss: a training batch's or the epoch's test loss."""

    site = None

    def loss_and_grads(self, x, y, params):
        loss, grads = super().loss_and_grads(x, y, params)
        if self.site is None and not np.all(np.isfinite(loss)):
            self.site = "batch"
        return loss, grads

    def evaluate(self, x, y, params):
        loss, acc = super().evaluate(x, y, params)
        if self.site is None and not np.all(np.isfinite(loss)):
            self.site = "test"
        return loss, acc


def test_lockstep_drops_members_at_either_divergence_site(darts):
    # two batches per epoch: lr 1e10 first overflows a batch loss in epoch 2,
    # lr 30 an epoch-3 test loss, and lr 1 never diverges
    ds = make_dataset(TINY_DATA)
    members = [(1e10, 0), (30.0, 1), (1.0, 0)]
    with np.errstate(all="ignore"):
        lockstep = train(CellNetwork(darts, SMALL), ds, members, 4, 60)
        singles, sites = [], []
        for member in members:
            net = Watched(darts, SMALL)
            singles += train(net, ds, [member], 4, 60)
            sites.append(net.site)
    assert sites == ["batch", "test", None]
    assert [t.divergence_epoch for t in singles] == [2, 3, None]
    for a, b in zip(lockstep, singles):
        assert_same_run(a, b)


def test_lockstep_members_differ_only_in_lr_and_seed(darts):
    # members are (lr, seed) pairs that share epochs and batch size, so none
    # can differ in anything else; no members train to no traces
    ds = make_dataset(TINY_DATA)
    assert train(CellNetwork(darts, SMALL), ds, [], 2, 80) == []


@pytest.mark.parametrize("members, epochs, batch_size", [
    ([(0.025, 0), (-0.1, 1)], 2, 80), ([(0.025, 0)], -1, 80), ([(0.025, 0)], 2, 0),
])
def test_train_rejects_out_of_range_settings(darts, members, epochs, batch_size):
    with pytest.raises(ValueError):
        train(CellNetwork(darts, SMALL), make_dataset(TINY_DATA), members, epochs, batch_size)


# --- adaptation and comparison --------------------------------------------


def test_adapt_reaches_extremal_metrics():
    for name in ("darts", "amoebanet", "nasnet"):
        g = load_fixture(name)
        a = adapt_to_widest_shallowest(g)
        assert cell_width(a) == len(g.nodes)
        assert cell_depth(a) == 2


def test_adapt_darts_matches_caption(darts):
    adapted = adapt_to_widest_shallowest(darts)
    assert float(cell_width(adapted)) == 4.0
    assert cell_depth(adapted) == 2


def test_adapt_preserves_snas_edges(snas):
    assert sorted(edges(adapt_to_widest_shallowest(snas))) == sorted(edges(snas))


def test_adapt_preserves_ops(darts):
    adapted = adapt_to_widest_shallowest(darts)
    for node, anode in zip(darts.nodes, adapted.nodes):
        assert sorted(op.kind for op in node.ops) == sorted(op.kind for op in anode.ops)


def test_chain_rewire_max_depth(darts):
    chain = rewire_to_chain(darts)
    assert cell_depth(chain) == len(darts.nodes) + 1


def test_compare_convergence_determinism(darts):
    ds = make_dataset(TINY_DATA)
    renamed = CellGenotype(name="darts_copy", num_inputs=2, nodes=darts.nodes,
                           concat=darts.concat)
    report = compare_convergence(
        [darts, renamed], ds, 3, lr_set=[0.025], seeds=[0],
        net_cfg=SMALL,
    )
    by_name = {e["genotype"]: e for e in report["entries"]}
    a, b = by_name["darts"], by_name["darts_copy"]
    assert a["epochs_to_threshold"] == b["epochs_to_threshold"]
    assert a["area"] == b["area"]


def test_compare_convergence_builds_every_network_before_training(darts, snas, monkeypatch):
    # a cell the network cannot build fails the comparison before any run
    three = CellGenotype(name="m3", num_inputs=3,
                         nodes=(NodeSpec(tuple(OpSpec("linear", s) for s in range(3))),))

    def no_training(*args, **kwargs):
        raise AssertionError("train was called")

    monkeypatch.setattr(training, "train", no_training)
    with pytest.raises(UnsupportedInputCount):
        compare_convergence([darts, snas, three], make_dataset(TINY_DATA), 30,
                            [0.025], [0], SMALL)


def test_compare_convergence_validation(darts, snas):
    ds = make_dataset(TINY_DATA)
    with pytest.raises(InvalidSpec):
        compare_convergence([darts], ds, 30, [0.025], [0], SMALL)
    with pytest.raises(ValueError):
        compare_convergence([darts, snas], ds, 30, [0.025], [], SMALL)


def test_compare_convergence_rejects_repeated_names(darts, snas):
    # the report is keyed by name, so two genotypes named alike would merge
    # into one median and one ranking entry
    twin = CellGenotype(name="darts", num_inputs=2, nodes=snas.nodes, concat=snas.concat)
    with pytest.raises(InvalidSpec, match=r"\['darts'\]"):
        compare_convergence([darts, twin], make_dataset(TINY_DATA), 1, [0.025], [0], SMALL)


def test_compare_convergence_rejects_repeated_learning_rates(darts, snas):
    # the report is keyed by repr(lr) as well, so a repeated rate would merge
    # two runs' entries into one median
    with pytest.raises(InvalidSpec, match=r"\[0\.025\]"):
        compare_convergence([darts, snas], make_dataset(TINY_DATA), 1, [0.025, 0.1, 0.025],
                            [0], SMALL)
