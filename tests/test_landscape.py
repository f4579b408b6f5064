import numpy as np
import pytest

from cellscape import (
    CellGenotype,
    CellNetwork,
    DatasetSpec,
    NetworkConfig,
    NodeSpec,
    OpSpec,
    export_grid,
    gradient_variance_surface,
    grid_coordinates,
    loss_surface,
    make_dataset,
    sample_directions,
)
from cellscape.errors import DimensionMismatch
from cellscape.landscape import ROWS, LandscapeGrid
from cellscape.network import ParamLayout
from cellscape.rng import stream
from conftest import load_grid_csv


CFG = NetworkConfig(layers=2, dim=6, num_classes=3, input_dim=5)
DATA = DatasetSpec(dim=5, num_classes=3, train_size=60, test_size=24,
                   noise=1.0, radius=8.0, seed=0)


@pytest.fixture
def setup(darts):
    net = CellNetwork(darts, CFG)
    ds = make_dataset(DATA)
    checkpoint = net.init_params(stream(0, "init"))
    return net, ds, checkpoint


def blocks(net, flat):
    return net.layout.views(flat)


def blockwise_directions(checkpoint, seed, normalization):
    """The draws on name -> block dicts that the flat draws replaced: block by
    block in sorted-name order, first direction then second."""
    rng = stream(seed, "directions")
    zero_blocks, directions = [], []
    for _ in range(2):
        d = {}
        for name in sorted(checkpoint):
            ref = checkpoint[name]
            block = rng.standard_normal(ref.shape)
            if normalization == "blockwise":
                ref_norm = np.linalg.norm(ref)
                if ref_norm == 0.0:
                    if name not in zero_blocks:
                        zero_blocks.append(name)
                else:
                    block *= ref_norm / np.linalg.norm(block)
            d[name] = block
        directions.append(d)
    return directions, zero_blocks


def blockwise_shifted(layout, checkpoint, pair, alpha, beta):
    """checkpoint + alpha*d1 + beta*d2 block by block, as the per-name grid
    point did, packed back into one flat vector."""
    c, d1, d2 = (layout.views(v) for v in (checkpoint, *pair))
    return np.concatenate([(c[k] + alpha * d1[k] + beta * d2[k]).ravel() for k in c])


# --- directions -----------------------------------------------------------


def test_directions_match_block_norms(setup):
    net, _, ckpt = setup
    pair = sample_directions(ckpt, net.layout, seed=1)
    for d in pair:
        assert d.shape == ckpt.shape
        for name, block in blocks(net, ckpt).items():
            ref = np.linalg.norm(block)
            if ref > 0:
                assert np.linalg.norm(blocks(net, d)[name]) == pytest.approx(ref, abs=1e-12)


def test_directions_deterministic(setup):
    net, _, ckpt = setup
    a = sample_directions(ckpt, net.layout, seed=3)
    b = sample_directions(ckpt, net.layout, seed=3)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_directions_zero_block_not_rescaled(setup):
    net, _, ckpt = setup
    blocks(net, ckpt)["stem.b"][:] = 0.0
    pair = sample_directions(ckpt, net.layout, seed=0)
    raw = sample_directions(ckpt, net.layout, seed=0, normalization="none")
    for d, r in zip(pair, raw):
        assert np.array_equal(blocks(net, d)["stem.b"], blocks(net, r)["stem.b"])


@pytest.mark.parametrize("normalization", ["blockwise", "none"])
def test_flat_directions_match_blockwise_draws(setup, normalization):
    net, _, ckpt = setup
    blocks(net, ckpt)["stem.b"][:] = 0.0
    blocks(net, ckpt)["head.b"][:] = 0.0
    pair = sample_directions(ckpt, net.layout, seed=5, normalization=normalization)
    directions, zero_blocks = blockwise_directions(blocks(net, ckpt), 5, normalization)
    for flat, by_name in zip(pair, directions):
        for name, block in blocks(net, flat).items():
            assert np.array_equal(block, by_name[name]), name
    assert zero_blocks == ([] if normalization == "none" else ["head.b", "stem.b"])


def test_directions_near_orthogonal():
    # high-dimensional draws from different seeds are nearly orthogonal
    layout = ParamLayout({"w": (120, 120)})
    big = np.random.default_rng(0).standard_normal(layout.size)
    a = sample_directions(big, layout, seed=1)
    b = sample_directions(big, layout, seed=2)
    va, vb = a[0], b[0]
    cos = float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))
    assert abs(cos) < 0.1


def test_directions_norm_none(setup):
    net, _, ckpt = setup
    pair = sample_directions(ckpt, net.layout, seed=1, normalization="none")
    rng = stream(1, "directions")
    for d in pair:
        assert np.array_equal(d, rng.standard_normal(net.layout.size))
    # unscaled standard-normal block will not match the checkpoint norm
    name = "stem.w"
    assert np.linalg.norm(blocks(net, pair[0])[name]) != pytest.approx(
        np.linalg.norm(blocks(net, ckpt)[name]), abs=1e-6)


# --- grids ----------------------------------------------------------------


def test_grid_coordinates_centered():
    coords = grid_coordinates(5, 1.0)
    assert list(coords) == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert list(grid_coordinates(1, 2.0)) == [0.0]
    with pytest.raises(ValueError):
        grid_coordinates(4, 1.0)


def test_loss_surface_center_is_evaluation_loss(setup):
    net, ds, ckpt = setup
    pair = sample_directions(ckpt, net.layout, seed=2)
    coords = grid_coordinates(3, 0.5)
    grid = loss_surface(net, ckpt, ds.test_x, ds.test_y, pair, coords, coords)
    direct, _ = net.evaluate(ds.test_x, ds.test_y, ckpt)
    assert grid.values[1, 1] == direct  # bit-exact, same evaluation path


def test_loss_surface_single_instance_oracle(setup):
    net, ds, ckpt = setup
    pair = sample_directions(ckpt, net.layout, seed=2)
    coords = grid_coordinates(3, 0.25)
    x, y = ds.test_x[:1], ds.test_y[:1]
    grid = loss_surface(net, ckpt, x, y, pair, coords, coords)
    for a, alpha in enumerate(coords):
        for b, beta in enumerate(coords):
            shifted = blockwise_shifted(net.layout, ckpt, pair, alpha, beta)
            loss, _ = net.evaluate(x, y, shifted)
            assert grid.values[a, b] == loss


def test_loss_surface_degenerate_direction_constant_rows(setup):
    net, ds, ckpt = setup
    pair = sample_directions(ckpt, net.layout, seed=2)
    dead = (pair[0], np.zeros_like(pair[1]))
    coords = grid_coordinates(3, 0.5)
    grid = loss_surface(net, ckpt, ds.test_x, ds.test_y, dead, coords, coords)
    for row in grid.values:
        assert np.all(row == row[0])


def test_loss_surface_matches_per_point_evaluate(setup):
    net, ds, ckpt = setup
    pair = sample_directions(ckpt, net.layout, seed=4)
    coords = grid_coordinates(5, 0.5)
    grid = loss_surface(net, ckpt, ds.test_x, ds.test_y, pair, coords, coords)
    for a, alpha in enumerate(coords):
        for b, beta in enumerate(coords):
            shifted = blockwise_shifted(net.layout, ckpt, pair, alpha, beta)
            assert np.array_equal(shifted, ckpt + alpha * pair[0] + beta * pair[1])
            assert grid.values[a, b] == net.evaluate(ds.test_x, ds.test_y, shifted)[0]


def per_point_grid(point, ckpt, pair, alphas, betas):
    """``point`` at each grid point on its own, one call per point."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array([[point(ckpt + alpha * pair[0] + beta * pair[1]) for beta in betas]
                         for alpha in alphas])


def counting_evaluate(net, monkeypatch):
    """Record the number of member rows in every ``net.evaluate`` call."""
    members, evaluate = [], net.evaluate

    def wrapper(x, y, params):
        members.append(len(params))
        return evaluate(x, y, params)

    monkeypatch.setattr(net, "evaluate", wrapper)
    return members


def test_loss_surface_chunks_match_per_point_evaluate(setup, monkeypatch):
    # 24 rows put ROWS // 24 points in a pass; 49 points leave a partial last pass
    net, ds, ckpt = setup
    x, y = ds.test_x, ds.test_y
    per_pass = ROWS // len(x)
    coords = grid_coordinates(7, 0.5)
    assert 1 < per_pass < len(coords) ** 2 and len(coords) ** 2 % per_pass
    pair = sample_directions(ckpt, net.layout, seed=4)
    members = counting_evaluate(net, monkeypatch)
    grid = loss_surface(net, ckpt, x, y, pair, coords, coords)
    full, last = divmod(len(coords) ** 2, per_pass)
    assert members == [per_pass] * full + [last]
    oracle = per_point_grid(lambda p: net.evaluate(x, y, p)[0], ckpt, pair, coords, coords)
    assert np.array_equal(grid.values, oracle)


def test_loss_surface_non_finite_points_share_a_pass(setup):
    # the outer ring overflows; its points share passes with finite inner ones
    net, ds, ckpt = setup
    x, y = ds.test_x, ds.test_y
    coords = np.array([-1e200, -0.5, 0.0, 0.5, 1e200])
    assert ROWS // len(x) >= 2 * len(coords)
    pair = sample_directions(ckpt, net.layout, seed=4)
    grid = loss_surface(net, ckpt, x, y, pair, coords, coords)
    oracle = per_point_grid(lambda p: net.evaluate(x, y, p)[0], ckpt, pair, coords, coords)
    assert np.all(np.isfinite(oracle[1:4, 1:4]))
    assert np.all(grid.overflow_mask[[0, 4]]) and np.all(grid.overflow_mask[:, [0, 4]])
    assert np.array_equal(grid.values, oracle, equal_nan=True)


def test_grid_requires_zero_coordinate(setup):
    net, ds, ckpt = setup
    pair = sample_directions(ckpt, net.layout, seed=2)
    with pytest.raises(ValueError):
        loss_surface(net, ckpt, ds.test_x, ds.test_y, pair,
                     [0.1, 0.2], [0.0, 0.1])


def test_grid_rejects_mismatched_directions(setup):
    net, ds, ckpt = setup
    pair = sample_directions(ckpt, net.layout, seed=2)
    broken = (np.ones(3), pair[1])
    with pytest.raises(DimensionMismatch):
        loss_surface(net, ckpt, ds.test_x, ds.test_y, broken, [0.0], [0.0])


def test_grid_rejects_checkpoint_of_other_shape(setup):
    net, ds, ckpt = setup
    ckpt = np.append(ckpt, 0.0)  # one value more than the network's blocks
    pair = sample_directions(ckpt, net.layout, seed=2)
    with pytest.raises(DimensionMismatch):
        gradient_variance_surface(net, ckpt, ds.test_x, ds.test_y, pair, [0.0], [0.0])


# --- gradient variance ----------------------------------------------------


def brute_force_gradvar(net, params, x, y):
    """Independent two-pass covariance-trace computation."""
    grads = []
    for i in range(len(y)):
        _, g = net.loss_and_grads(x[i : i + 1], y[i : i + 1], params)
        grads.append(net.layout.views(g))
    names = sorted(grads[0])
    means = {k: np.mean([g[k] for g in grads], axis=0) for k in names}
    total = 0.0
    for g in grads:
        for k in names:
            total += float(np.sum((g[k] - means[k]) ** 2))
    return total / len(grads)


def test_gradvar_center_matches_oracle(setup):
    net, ds, ckpt = setup
    pair = sample_directions(ckpt, net.layout, seed=5)
    x, y = ds.test_x[:5], ds.test_y[:5]
    grid = gradient_variance_surface(net, ckpt, x, y, pair, [0.0], [0.0])
    oracle = brute_force_gradvar(net, ckpt, x, y)
    assert abs(grid.values[0, 0] - oracle) <= 1e-10


def test_gradvar_single_instance_zero(setup):
    net, ds, ckpt = setup
    pair = sample_directions(ckpt, net.layout, seed=5)
    coords = grid_coordinates(3, 0.25)
    grid = gradient_variance_surface(
        net, ckpt, ds.test_x[:1], ds.test_y[:1], pair, coords, coords)
    assert np.all(grid.values == 0.0)


def test_gradvar_duplicated_instance_zero(setup):
    net, ds, ckpt = setup
    pair = sample_directions(ckpt, net.layout, seed=5)
    x = np.repeat(ds.test_x[:1], 2, axis=0)
    y = np.repeat(ds.test_y[:1], 2)
    grid = gradient_variance_surface(net, ckpt, x, y, pair, [0.0], [0.0])
    assert np.allclose(grid.values, 0.0, atol=1e-18)


# identity ops pass gradients through and zero ops cut them; neither has a
# parameter block
MIXED = CellGenotype(
    name="mixed",
    num_inputs=2,
    nodes=(
        NodeSpec((OpSpec("linear", 0), OpSpec("identity", 1))),
        NodeSpec((OpSpec("zero", 2), OpSpec("linear", 2))),
        NodeSpec((OpSpec("identity", 0), OpSpec("linear", 3))),
    ),
)


@pytest.mark.parametrize("genotype", ["darts", "mixed"])
@pytest.mark.parametrize("batch", ["one", "duplicated", "five"])
def test_gradvar_matches_per_example_oracle_off_centre(darts, genotype, batch):
    net = CellNetwork(darts if genotype == "darts" else MIXED, CFG)
    ds = make_dataset(DATA)
    ckpt = net.init_params(stream(0, "init"))
    pair = sample_directions(ckpt, net.layout, seed=7)
    x, y = {
        "one": (ds.test_x[:1], ds.test_y[:1]),
        "duplicated": (np.repeat(ds.test_x[:1], 2, axis=0), np.repeat(ds.test_y[:1], 2)),
        "five": (ds.test_x[:5], ds.test_y[:5]),
    }[batch]
    coords = grid_coordinates(3, 0.5)
    grid = gradient_variance_surface(net, ckpt, x, y, pair, coords, coords)
    for a, alpha in enumerate(coords):
        for b, beta in enumerate(coords):
            shifted = blockwise_shifted(net.layout, ckpt, pair, alpha, beta)
            oracle = brute_force_gradvar(net, shifted, x, y)
            if batch == "five":
                assert oracle > 0.0
                assert abs(grid.values[a, b] - oracle) <= 1e-12 * oracle
            else:
                assert grid.values[a, b] == 0.0


@pytest.mark.parametrize("mode", ["gradvar", "gradstd"])
def test_gradvar_surface_matches_per_point_gradient_variance(setup, mode):
    net, ds, ckpt = setup
    x, y = ds.test_x[:5], ds.test_y[:5]
    pair = sample_directions(ckpt, net.layout, seed=5)
    coords = grid_coordinates(5, 0.5)
    assert ROWS // len(x) > 1
    grid = gradient_variance_surface(net, ckpt, x, y, pair, coords, coords, mode=mode)
    oracle = per_point_grid(lambda p: net.gradient_variance(x, y, p), ckpt, pair,
                            coords, coords)
    assert np.array_equal(grid.values, oracle if mode == "gradvar" else np.sqrt(oracle))


def test_gradstd_is_sqrt_of_gradvar(setup):
    net, ds, ckpt = setup
    pair = sample_directions(ckpt, net.layout, seed=5)
    coords = grid_coordinates(3, 0.25)
    x, y = ds.test_x[:4], ds.test_y[:4]
    var = gradient_variance_surface(net, ckpt, x, y, pair, coords, coords)
    std = gradient_variance_surface(net, ckpt, x, y, pair, coords, coords,
                                    mode="gradstd")
    assert np.allclose(std.values, np.sqrt(var.values), atol=1e-15)
    assert np.all(var.values >= 0.0)


def test_point_reflection_invariance(setup):
    net, ds, ckpt = setup
    pair = sample_directions(ckpt, net.layout, seed=6)
    flipped = (-pair[0], -pair[1])
    coords = grid_coordinates(5, 0.5)
    x, y = ds.test_x[:8], ds.test_y[:8]
    grid = loss_surface(net, ckpt, x, y, pair, coords, coords)
    mirrored = loss_surface(net, ckpt, x, y, flipped, coords, coords)
    # value(a, b) with (w1, w2) equals value(-a, -b) with (-w1, -w2)
    assert np.array_equal(grid.values, mirrored.values[::-1, ::-1])


# --- export ---------------------------------------------------------------


def make_grid():
    values = np.arange(6, dtype=float).reshape(2, 3)
    return LandscapeGrid([-1.0, 1.0], [-1.0, 0.0, 1.0], values, "loss")


def test_export_csv_counts(tmp_path):
    grid = make_grid()
    path = tmp_path / "grid.csv"
    export_grid(grid, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "alpha,beta,value"
    assert len(lines) == 1 + 6


def test_export_csv_roundtrip(tmp_path):
    grid = make_grid()
    path = tmp_path / "grid.csv"
    export_grid(grid, path)
    loaded = load_grid_csv(path)
    assert np.array_equal(loaded.values, grid.values)
    assert np.array_equal(loaded.alphas, grid.alphas)


def test_export_1x1(tmp_path):
    grid = LandscapeGrid([0.0], [0.0], np.array([[2.5]]), "loss")
    path = tmp_path / "one.csv"
    export_grid(grid, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2


def test_export_json_overflow_tagging(tmp_path):
    import json

    values = np.array([[1.0, np.inf], [np.nan, 4.0]])
    grid = LandscapeGrid([-1.0, 1.0], [-1.0, 1.0], values, "loss")
    path = tmp_path / "grid.json"
    export_grid(grid, path)
    doc = json.loads(path.read_text())
    assert doc["values"][0][1] is None
    assert doc["overflow"] == [[False, True], [True, False]]


def test_export_csv_serializes_inf(tmp_path):
    values = np.array([[np.inf]])
    grid = LandscapeGrid([0.0], [0.0], values, "loss")
    path = tmp_path / "inf.csv"
    export_grid(grid, path)
    assert "inf" in path.read_text()
    loaded = load_grid_csv(path)
    assert np.isinf(loaded.values[0, 0])


def test_grid_invariants():
    with pytest.raises(ValueError):
        LandscapeGrid([1.0, 0.0], [0.0], np.zeros((2, 1)), "loss")
    with pytest.raises(ValueError):
        LandscapeGrid([0.0], [0.0], np.zeros((2, 2)), "loss")
