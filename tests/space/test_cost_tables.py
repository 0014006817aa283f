"""The memoized cost tables against costs derived from first principles.

Every reference below is recomputed here from ``channels_kept`` and
``OperatorSpec.primitives``/``params`` directly, and compared with
``==`` — the tables must be exact, not merely close.
"""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.nn.layers.mask import channels_kept
from repro.space import (
    LAYOUT_NAMES,
    Architecture,
    Primitive,
    SearchSpace,
    SpaceConfig,
    StageSpec,
    build_layer_geometry,
    get_operator,
    space_for_layout,
)
from repro.space.cost_tables import cost_tables
from repro.space.operators import NUM_OPERATORS

NUM_ARCHS = 500


def reference_channels(space, arch):
    out = []
    cin = space.config.stem_channels
    geometry = build_layer_geometry(space.config)
    for geom, op, factor in zip(geometry, arch.ops, arch.factors):
        cout = channels_kept(geom.max_out_channels, factor)
        if get_operator(op).is_skip and geom.stride == 1:
            cout = min(cin, cout)
        out.append((cin, cout))
        cin = cout
    return out


def reference_primitives(space, arch):
    geometry = build_layer_geometry(space.config)
    channels = reference_channels(space, arch)
    return [
        get_operator(op).primitives(cin, cout, geom.in_size, geom.stride)
        for geom, op, (cin, cout) in zip(geometry, arch.ops, channels)
    ]


def reference_stem_head(space, last_c):
    """(MACs, weights) of the stem conv and the head, by formula."""
    cfg = space.config
    s_stem = cfg.input_size // 2
    s_out = build_layer_geometry(space.config)[-1].out_size
    flops = (
        s_stem * s_stem * cfg.input_channels * cfg.stem_channels * 9
        + s_out * s_out * last_c * cfg.head_channels
        + cfg.head_channels * cfg.num_classes
    )
    params = (
        cfg.input_channels * cfg.stem_channels * 9
        + last_c * cfg.head_channels
        + cfg.head_channels * cfg.num_classes + cfg.num_classes
    )
    return flops, params


def reference_flops(space, arch):
    last_c = reference_channels(space, arch)[-1][1]
    total = sum(p.flops for layer in reference_primitives(space, arch) for p in layer)
    return total + reference_stem_head(space, last_c)[0]


def reference_params(space, arch):
    geometry = build_layer_geometry(space.config)
    channels = reference_channels(space, arch)
    total = sum(
        get_operator(op).params(cin, cout, geom.stride)
        for geom, op, (cin, cout) in zip(geometry, arch.ops, channels)
    )
    return total + reference_stem_head(space, channels[-1][1])[1]


def shrunk(space, seed):
    """A subspace with random layers pinned to one operator and a few
    layers restricted to a single channel factor."""
    rng = np.random.default_rng(seed)
    ops = [list(c) for c in space.candidate_ops]
    factors = [list(c) for c in space.candidate_factors]
    for layer in rng.permutation(space.num_layers)[: space.num_layers // 2]:
        ops[layer] = [int(rng.integers(5))]
    for layer in rng.permutation(space.num_layers)[:2]:
        factors[layer] = [space.config.channel_factors[0]]
    return SearchSpace(space.config, ops, factors)


@pytest.mark.parametrize("shrink", [False, True], ids=["full", "shrunk"])
@pytest.mark.parametrize("layout", LAYOUT_NAMES)
def test_tables_match_reference(layout, shrink):
    space = space_for_layout(layout)
    if shrink:
        space = shrunk(space, seed=len(layout))
    rng = np.random.default_rng(7)
    for _ in range(NUM_ARCHS):
        arch = space.sample(rng)
        channels = reference_channels(space, arch)
        assert space.active_channels(arch) == channels
        assert space.arch_primitives(arch) == reference_primitives(space, arch)
        assert space.arch_flops(arch) == reference_flops(space, arch)
        assert space.arch_params(arch) == reference_params(space, arch)
        stem_head = space.stem_head_primitives(arch)
        flops, _ = reference_stem_head(space, channels[-1][1])
        assert sum(p.flops for p in stem_head) == flops


@pytest.mark.parametrize("layout", LAYOUT_NAMES)
def test_stem_head_primitives_match_reference(layout):
    space = space_for_layout(layout)
    cfg = space.config
    s_in, s_stem = cfg.input_size, cfg.input_size // 2
    last = build_layer_geometry(cfg)[-1]
    s_out = last.out_size
    head, classes = cfg.head_channels, cfg.num_classes
    for factor in cfg.channel_factors:
        last_c = channels_kept(last.max_out_channels, factor)
        expected = [
            Primitive(
                "stem-conv3x3", "conv",
                float(s_stem * s_stem * cfg.input_channels * cfg.stem_channels * 9),
                float((s_in * s_in * cfg.input_channels
                       + cfg.input_channels * cfg.stem_channels * 9) * 4),
                float(s_stem * s_stem * cfg.stem_channels * 4),
            ),
            Primitive(
                "head-conv1x1", "conv",
                float(s_out * s_out * last_c * head),
                float((s_out * s_out * last_c + last_c * head) * 4),
                float(s_out * s_out * head * 4),
            ),
            Primitive(
                "head-gap", "memory", 0.0,
                float(s_out * s_out * head * 4), float(head * 4),
            ),
            Primitive(
                "head-fc", "conv",
                float(head * classes),
                float((head + head * classes) * 4),
                float(classes * 4),
            ),
        ]
        assert space.stem_primitives() + space.head_primitives(last_c) == expected


def test_lut_cell_primitives_match_operator_spec():
    space = space_for_layout("mini")
    for layer, geom in enumerate(build_layer_geometry(space.config)):
        for cin in (1, 3, geom.max_in_channels):
            for op in range(5):
                for factor in space.config.channel_factors:
                    cout = channels_kept(geom.max_out_channels, factor)
                    expected = get_operator(op).primitives(
                        cin, cout, geom.in_size, geom.stride
                    )
                    got = space.operator_primitives(layer, op, factor, cin)
                    assert list(got) == expected


def test_factor_outside_config_takes_fallback_path():
    space = space_for_layout("proxy")
    tables = cost_tables(space.config)
    odd = 0.55  # not one of the config's factors
    assert odd not in space.config.channel_factors
    layer = 3
    max_out = build_layer_geometry(space.config)[layer].max_out_channels
    expected = channels_kept(max_out, odd)
    assert space.out_channels(layer, odd) == expected
    # The fallback is not memoized: the factor map stays bounded by the
    # config's factors.
    assert odd not in tables._out_channels[layer]
    arch = space.max_architecture().with_factor(layer, odd)
    assert space.active_channels(arch) == reference_channels(space, arch)
    assert space.arch_flops(arch) == reference_flops(space, arch)


@pytest.mark.parametrize("factor", [0.0, -0.5, 1.5])
def test_out_of_range_factor_raises(factor):
    space = space_for_layout("proxy")
    with pytest.raises(ValueError, match="scaling factor"):
        space.out_channels(0, factor)


def test_tables_shared_per_geometry_not_per_candidate_set():
    space = space_for_layout("a")
    sub = space.fix_operator(0, 2).fix_operator(5, 4)
    assert cost_tables(space.config) is cost_tables(sub.config)
    assert sub.geometry is space.geometry
    # A config that differs only in name shares the tables too.
    renamed = replace(space.config, name="renamed")
    assert cost_tables(renamed) is cost_tables(space.config)
    other = replace(space.config, num_classes=10)
    assert cost_tables(other) is not cost_tables(space.config)


def test_tables_fill_lazily():
    config = SpaceConfig(
        name="lazy", input_size=16, num_classes=3, stem_channels=4,
        stages=(StageSpec(2, 8), StageSpec(1, 12)), head_channels=8,
    )
    space = SearchSpace(config)
    tables = cost_tables(config)
    assert not tables._cells and not tables._heads
    assert not any(tables._out_channels)
    space.arch_flops(space.max_architecture())
    assert len(tables._cells) == space.num_layers


def test_concurrent_fills_agree():
    """Threads racing to fill the same cells all see reference values,
    and the memo ends with exactly one (correct) entry per cell."""
    config = SpaceConfig(
        name="threads", input_size=32, num_classes=5, stem_channels=6,
        stages=(StageSpec(3, 10), StageSpec(3, 20)), head_channels=16,
    )
    space = SearchSpace(config)
    archs = [space.sample(np.random.default_rng(s)) for s in range(200)]
    expected = [reference_flops(space, a) for a in archs]
    results = [None] * 8

    def work(slot):
        results[slot] = [space.arch_flops(a) for a in archs]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == expected for r in results)
    tables = cost_tables(config)
    for (layer, op, cin, cout), cell in tables._cells.items():
        geom = build_layer_geometry(space.config)[layer]
        prims = get_operator(op).primitives(cin, cout, geom.in_size, geom.stride)
        assert list(cell.primitives) == prims
        assert cell.flops == sum(p.flops for p in prims)
        # Racing fills still leave one object per operator shape.
        assert cell is tables._shapes[op, cin, cout, geom.in_size, geom.stride]


def test_layers_of_equal_geometry_share_cells():
    space = space_for_layout("a")
    tables = cost_tables(space.config)
    by_shape = {}
    for layer, geom in enumerate(tables.geometry):
        by_shape.setdefault((geom.in_size, geom.stride), []).append(layer)
    first, second = next(ls for ls in by_shape.values() if len(ls) > 1)[:2]
    other = by_shape[tables.geometry[-1].in_size, 1][0]
    assert tables.geometry[other].in_size != tables.geometry[first].in_size
    cin = cout = tables.geometry[second].max_in_channels
    for op in range(NUM_OPERATORS):
        cell = tables.cell(first, op, cin, cout)
        assert tables.cell(second, op, cin, cout) is cell
        assert tables.cell(other, op, cin, cout) is not cell


@pytest.mark.parametrize(
    "layout, cells, shapes", [("a", 9550, 3550), ("proxy", 3550, 1550)]
)
def test_lut_cells_share_one_object_per_shape(layout, cells, shapes):
    from repro.hardware.lut import LatencyLUT

    enumerated = LatencyLUT.cells(space_for_layout(layout))
    operator_cells = enumerated.costs[enumerated.operators]
    assert len(operator_cells) == cells
    assert len({id(cell) for cell in operator_cells}) == shapes


def skip_chains(space, seed, count=200):
    """Architectures dense in skips, so stride-1 skips follow each other
    and their ``min(cin, cout)`` narrowing carries down the chain."""
    rng = np.random.default_rng(seed)
    factors = np.asarray(space.config.channel_factors)
    archs = [Architecture.uniform(space.num_layers, 4, f) for f in (0.1, 1.0)]
    for _ in range(count):
        skip = rng.random(space.num_layers) < 0.7
        ops = np.where(skip, 4, rng.integers(0, 4, space.num_layers))
        archs.append(
            Architecture(
                tuple(ops.tolist()),
                tuple(rng.choice(factors, size=space.num_layers).tolist()),
            )
        )
    return [a for a in archs if all(f in factors for f in a.factors)]


@pytest.mark.parametrize("shrink", [False, True], ids=["full", "shrunk"])
@pytest.mark.parametrize("layout", LAYOUT_NAMES)
def test_batched_tables_match_reference(layout, shrink):
    space = space_for_layout(layout)
    if shrink:
        space = shrunk(space, seed=len(layout))
    archs = space.sample_many(np.random.default_rng(8), NUM_ARCHS)
    archs += skip_chains(space, seed=len(layout))
    ops, factors = space.gene_arrays(archs)
    assert ops.shape == factors.shape == (len(archs), space.num_layers)
    cins, couts = space.active_channels_many(ops, factors)
    channels = [reference_channels(space, a) for a in archs]
    assert cins.tolist() == [[c for c, _ in row] for row in channels]
    assert couts.tolist() == [[c for _, c in row] for row in channels]
    expected = [reference_flops(space, a) for a in archs]
    assert space.arch_flops_many(ops, factors).tolist() == expected
    assert [space.arch_flops(a) for a in archs] == expected


def test_batched_flops_off_grid_rows_take_scalar_path():
    space = space_for_layout("proxy")
    rng = np.random.default_rng(4)
    on_grid = space.sample_many(rng, 50)
    off_grid = [
        Architecture(
            tuple(rng.integers(0, 5, space.num_layers).tolist()),
            tuple(rng.uniform(1e-3, 1.0, space.num_layers).tolist()),
        )
        for _ in range(50)
    ]
    off_grid.append(space.max_architecture().with_factor(3, 0.1 + 0.2))
    archs = [a for pair in zip(on_grid, off_grid) for a in pair] + off_grid[50:]
    ops, factors = space.gene_arrays(archs)
    got = space.arch_flops_many(ops, factors).tolist()
    assert got == [reference_flops(space, a) for a in archs]
    cins, couts = space.active_channels_many(ops, factors)
    assert [list(zip(r, c)) for r, c in zip(cins.tolist(), couts.tolist())] == [
        reference_channels(space, a) for a in archs
    ]


def test_batched_empty_and_wrong_length():
    space = space_for_layout("mini")
    ops, factors = space.gene_arrays([])
    assert ops.shape == factors.shape == (0, space.num_layers)
    assert space.arch_flops_many(ops, factors).shape == (0,)
    short = Architecture.uniform(space.num_layers - 1)
    with pytest.raises(ValueError) as scalar:
        space.arch_flops(short)
    with pytest.raises(ValueError) as batched:
        space.gene_arrays([space.max_architecture(), short])
    assert str(batched.value) == str(scalar.value)


def test_dense_flops_memo_fills_lazily():
    config = SpaceConfig(
        name="dense-lazy", input_size=16, num_classes=3, stem_channels=5,
        stages=(StageSpec(2, 8), StageSpec(1, 12)), head_channels=8,
    )
    space = SearchSpace(config)
    tables = cost_tables(config)
    space.arch_flops(space.max_architecture())
    assert "_layer_flops" not in vars(tables)
    memo = tables._layer_flops
    assert np.isnan(memo).all()
    assert memo.shape == (3, 5, 9, len(config.channel_factors))
    space.arch_flops_many(*space.gene_arrays([space.max_architecture()]))
    assert np.count_nonzero(~np.isnan(memo)) == space.num_layers


def test_concurrent_dense_fills_agree():
    """Threads scoring one batch on a cold dense memo all return the
    reference MACs."""
    config = SpaceConfig(
        name="dense-threads", input_size=32, num_classes=5, stem_channels=7,
        stages=(StageSpec(3, 10), StageSpec(3, 20)), head_channels=16,
    )
    space = SearchSpace(config)
    archs = space.sample_many(np.random.default_rng(5), 300)
    expected = [reference_flops(space, a) for a in archs]
    genes = space.gene_arrays(archs)
    assert "_layer_flops" not in vars(cost_tables(config))
    results = [None] * 4

    def work(slot):
        results[slot] = space.arch_flops_many(*genes).tolist()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == expected for r in results)
