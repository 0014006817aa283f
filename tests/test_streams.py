"""``repro.streams`` reproduces numpy's streams exactly, and so do its
consumers.

Every comparison is against numpy itself: the values, the generator
state left behind (``has_uint32`` and ``uinteger`` included, because
checkpoints save it), and the next draw after it.
"""

import logging
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro.streams as streams
from repro.accuracy import AccuracySurrogate
from repro.core.nsga2 import Nsga2Config, Nsga2Search
from repro.hardware import LatencyLUT
from repro.hardware.calibration import calibrated_devices
from repro.hardware.device import DeviceModel
from repro.space import space_for_layout
from repro.space.search_space import pick
from repro.streams import bounded_draws


def assert_same_generator(fast, slow):
    assert fast.bit_generator.state == slow.bit_generator.state
    assert fast.random() == slow.random()


def numpy_normals(entropies, spawn_keys, k):
    """numpy's own ``standard_normal(k)`` of each seeded stream."""
    return np.array(
        [
            np.random.default_rng(
                np.random.SeedSequence(entropy, spawn_key=key)
            ).standard_normal(k)
            for entropy, key in zip(entropies, spawn_keys)
        ]
    ).reshape(len(entropies), k)


def entropy_row(entropy, key):
    """The words ``SeedSequence(entropy, spawn_key=key)`` hashes."""
    words = streams._words(entropy)
    if key:
        words += [0] * (4 - len(words))
        for part in key:
            words += streams._words(part)
    return words


def numpy_from_state(state, inc, k):
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bit_generator).standard_normal(k)


def as_lanes(values):
    """128-bit ints as the (high, low) uint64 lanes of ``_pcg_normals``."""
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & ((1 << 64) - 1) for v in values], dtype=np.uint64),
    )


# -- seeded_normals ----------------------------------------------------------------


def test_fast_path_is_active():
    """A numpy upgrade that makes the module fall back fails here, not
    only as a slower benchmark."""
    assert streams.FAST_PATH, f"bulk streams disabled on numpy {np.__version__}"
    assert streams._self_check()
    assert streams.normal_fast_lane(), "seeded-normal fast lane disabled"


def test_digest_seeds_one_and_two_words():
    """10^5 ``default_rng(int)`` seeds, the surrogate's digest pattern:
    three in four need two uint32 words, one in four fits in one, and
    the two kinds are interleaved in one ``[low, high]`` array."""
    rng = np.random.default_rng(0)
    seeds = rng.integers(1 << 32, 1 << 64, size=100_000, dtype=np.uint64)
    seeds[::4] >>= np.uint64(32)
    seeds[:4] = [0, 1, (1 << 32) - 1, 1 << 32]
    words = seeds.astype("<u8").view("<u4").reshape(-1, 2)
    expected = np.array(
        [np.random.default_rng(seed).standard_normal(2) for seed in seeds.tolist()]
    )
    assert streams.seeded_normals(words, 2).tobytes() == expected.tobytes()


def test_spawn_keys():
    """10^5 ``SeedSequence(seed, spawn_key=(i,))`` streams, the LUT
    noise pattern, at 1, 2 and 4 draws each."""
    count = 100_000
    rows = streams.spawn_entropy(7, np.arange(count))
    expected = numpy_normals([7] * count, [(i,) for i in range(count)], 4)
    for k in (1, 2, 4):
        fast = streams.seeded_normals(rows, k)
        assert fast.tobytes() == np.ascontiguousarray(expected[:, :k]).tobytes()


@pytest.mark.parametrize(
    "entropy, keys",
    [
        (0, [(0,), (5,), (1 << 31,), ((1 << 32) - 1,)]),
        ((1 << 64) - 1, [(0,), (3,), (9,)]),
        (1 << 130, [(2,), (4,)]),
        (12345, [(0, 1), (99, 1), (7, 7)]),
        (3, [(2, 3, 4), (1, 0, 0)]),
        (1 << 40, [(1 << 33,), (1 << 34,)]),
        (5, [(1 << 33, 2), (1 << 35, 0)]),
    ],
)
def test_long_entropies_and_multi_part_keys(entropy, keys):
    """Rows of 5 to 9 words (wide seeds, multi-part and multi-word
    keys); every row of one call has the same length."""
    rows = [entropy_row(entropy, key) for key in keys]
    assert len({len(row) for row in rows}) == 1
    assert len(rows[0]) >= 5
    expected = numpy_normals([entropy] * len(keys), keys, 3)
    assert streams.seeded_normals(rows, 3).tobytes() == expected.tobytes()
    if len(keys[0]) == 1 and keys[0][0] < 1 << 32:
        spawned = streams.spawn_entropy(entropy, [key[0] for key in keys])
        assert spawned.tolist() == rows


def test_short_rows_are_zero_filled():
    """Rows of one to four words hash like their zero-filled forms."""
    for row in ([9], [9, 0], [9, 0, 0], [9, 0, 0, 0]):
        expected = np.random.default_rng(9).standard_normal(3)
        assert streams.seeded_normals([row], 3).tobytes() == expected.tobytes()
    assert streams.seeded_normals(np.zeros((0, 2), np.uint32), 2).shape == (0, 2)
    assert streams.seeded_normals([[4]], 0).shape == (1, 0)


class TestCraftedLanes:
    """Lanes whose draws are chosen words, against numpy from the same
    PCG64 state: the ziggurat strips the fast lane never serves, the
    acceptance bound and its neighbours, and a late rejection."""

    MULT = streams._PCG_MULT
    INVERSE = pow(MULT, -1, 1 << 128)
    MASK = (1 << 128) - 1

    def state_before(self, stepped, inc):
        return ((stepped - inc) * self.INVERSE) & self.MASK

    def check(self, states, incs, k):
        tables = streams._ziggurat()
        fast = streams._pcg_normals(as_lanes(states), as_lanes(incs), k, tables)
        expected = np.array(
            [numpy_from_state(s, i, k) for s, i in zip(states, incs)]
        )
        assert fast.tobytes() == expected.tobytes()

    def word(self, rabs, strip, negative=False):
        return rabs << 9 | int(negative) << 8 | strip

    def test_strips_zero_and_one(self):
        words = [
            self.word(rabs, strip, negative)
            for strip in (0, 1)
            for rabs in (0, 1, 12345, (1 << 52) - 1)
            for negative in (False, True)
        ]
        incs = [2 * i + 1 for i in range(len(words))]
        states = [self.state_before(w, inc) for w, inc in zip(words, incs)]
        self.check(states, incs, 2)

    def test_rabs_around_each_bound(self):
        _, kc = streams._ziggurat()
        words = [
            self.word(int(kc[strip]) + delta, strip, negative=strip % 2 == 0)
            for strip in range(2, 256)
            for delta in (-1, 0, 1)
        ]
        incs = [0xDA3E39CB94B95BDB] * len(words)
        states = [self.state_before(w, inc) for w, inc in zip(words, incs)]
        self.check(states, incs, 2)

    def test_rejection_on_second_of_two_draws(self):
        wi, kc = streams._ziggurat()
        second = self.word(int(kc[7]) + 5, 7)
        for inc in range(1, 200, 2):
            # Step back from the second word; keep an inc whose first
            # word the fast lane accepts.
            first = self.state_before(second, inc)
            word = int(streams._xsl_rr(as_lanes([first]))[0])
            rabs, strip = (word >> 9) & ((1 << 52) - 1), word & 0xFF
            if strip >= 2 and rabs < int(kc[strip]):
                break
        else:
            pytest.fail("no inc gives an accepted first draw")
        state = self.state_before(first, inc)
        self.check([state], [inc], 2)
        # The lane is numpy's: a fast first draw, a redrawn second.
        assert numpy_from_state(state, inc, 2)[0] == rabs * wi[strip] * (
            -1 if word & 0x100 else 1
        )


def test_fast_path_off_uses_numpy(monkeypatch):
    rows = streams.spawn_entropy(3, np.arange(500))
    expected = numpy_normals([3] * 500, [(i,) for i in range(500)], 2)
    monkeypatch.setattr(streams, "FAST_PATH", False)
    assert streams.seeded_normals(rows, 2).tobytes() == expected.tobytes()


def test_failed_ziggurat_check_falls_back_exactly(monkeypatch, caplog):
    rows = streams.spawn_entropy(5, np.arange(2000))
    expected = streams.seeded_normals(rows, 2)
    read = streams._read_ziggurat

    def corrupted():
        wi, kc = read()
        return wi * (1 + 2.0**-52), kc

    monkeypatch.setattr(streams, "_read_ziggurat", corrupted)
    streams._ziggurat.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger="repro.streams"):
            assert not streams.normal_fast_lane()
            fallback = streams.seeded_normals(rows, 2)
        warnings = [r for r in caplog.records if r.name == "repro.streams"]
        assert len(warnings) == 1
        assert "seeded-normal fast lane" in warnings[0].getMessage()
        assert fallback.tobytes() == expected.tobytes()
    finally:
        monkeypatch.undo()
        streams._ziggurat.cache_clear()
    assert streams.normal_fast_lane()


def test_import_does_not_read_the_tables():
    src = pathlib.Path(streams.__file__).resolve().parents[1]
    code = (
        "import repro.streams as s, repro.hardware, repro.accuracy; "
        "assert s.FAST_PATH; "
        "assert s._ziggurat.cache_info().currsize == 0, 'tables read'"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_seeded_normals_rejects_bad_input():
    with pytest.raises(ValueError, match="array"):
        streams.seeded_normals([1, 2], 1)
    with pytest.raises(ValueError, match="uint32"):
        streams.seeded_normals([[1, -1]], 1)
    with pytest.raises(ValueError, match="uint32"):
        streams.seeded_normals([[1 << 32]], 1)
    with pytest.raises(ValueError, match="k must"):
        streams.seeded_normals([[1]], -1)
    with pytest.raises(ValueError, match="non-negative"):
        streams.spawn_entropy(-1, [0])
    with pytest.raises(ValueError, match="spawn keys"):
        streams.spawn_entropy(1, [1 << 32])


# -- bounded_draws ----------------------------------------------------------------


def scalar_draws(rng, bounds):
    return [int(rng.integers(b)) for b in bounds]


def check_bounded(seed, bounds, buffered):
    fast = np.random.default_rng(seed)
    slow = np.random.default_rng(seed)
    if buffered:  # start with a high half in has_uint32/uinteger
        assert fast.integers(7) == slow.integers(7)
        assert fast.bit_generator.state["has_uint32"] == 1
    assert bounded_draws(fast, bounds).tolist() == scalar_draws(slow, bounds)
    assert_same_generator(fast, slow)


BOUND_SETS = {
    "small": lambda rng, n: rng.integers(1, 9, size=n),
    "ones": lambda rng, n: np.ones(n, dtype=np.int64),
    "wide": lambda rng, n: rng.integers(1, (1 << 32) + 1, size=n),
    "two_pow_32": lambda rng, n: np.full(n, 1 << 32),
    # (2**32 - b) % b == 2**30: a quarter of the lanes are rejected.
    "rejecting": lambda rng, n: np.full(n, 3 << 30),
    "mixed": lambda rng, n: rng.choice(
        [1, 2, 3, 5, 1 << 31, 3 << 30, (1 << 31) + 1, 1 << 32], size=n
    ),
}


@pytest.mark.parametrize("kind", sorted(BOUND_SETS))
@pytest.mark.parametrize("buffered", [False, True], ids=["even", "buffered"])
def test_bounded_draws_match_scalar(kind, buffered):
    rng = np.random.default_rng(11)
    for seed in range(40):
        count = int(rng.choice([0, 1, 2, 3, 17, 64, 255, 1001]))
        check_bounded(seed, BOUND_SETS[kind](rng, count), buffered)


def test_bounded_draws_edge_bounds():
    """``integers(1)`` consumes nothing; ``2**32`` takes numpy's
    unmasked path; above ``2**32`` the scalar path serves the run."""
    for bounds in (
        [1],
        [1, 1, 1],
        [2],
        [1 << 32],
        [3, 1 << 32, 1, 5],
        [(1 << 32) + 1, 3],
        [1 << 40] * 5,
    ):
        for buffered in (False, True):
            check_bounded(3, bounds, buffered)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert bounded_draws(rng, [1, 1]).tolist() == [0, 0]
    assert bounded_draws(rng, []).tolist() == []
    assert rng.bit_generator.state == before


def test_bounded_draws_fast_path_decodes():
    """Small bounds decode from the raw block; a forced rejection hands
    the run back with the generator untouched."""
    bit_generator = np.random.default_rng(5).bit_generator
    assert streams._decode_bounded(bit_generator, np.full(301, 5)) is not None
    before = bit_generator.state
    assert streams._decode_bounded(bit_generator, np.full(64, 3 << 30)) is None
    assert bit_generator.state == before


def test_bounded_draws_rejects_bad_bounds():
    with pytest.raises(ValueError):
        bounded_draws(np.random.default_rng(0), [3, 0])


def test_other_bit_generators_take_the_scalar_path():
    fast = np.random.Generator(np.random.MT19937(4))
    slow = np.random.Generator(np.random.MT19937(4))
    bounds = [2, 3, 5, 7] * 10
    assert bounded_draws(fast, bounds).tolist() == scalar_draws(slow, bounds)
    assert fast.random(5).tolist() == slow.random(5).tolist()


# -- decoded_draws ----------------------------------------------------------------


def replay(rng, calls):
    """Run ``calls`` (``("random", None)``, ``("random", k)`` or
    ``("integers", n)``) on ``rng``, results as Python values."""
    out = []
    for name, arg in calls:
        if name == "integers":
            out.append(int(rng.integers(arg)))
        elif arg is None:
            out.append(float(rng.random()))
        else:
            out.append([float(v) for v in rng.random(arg)])
    return out


def check_decoded(seed, calls, buffered=False):
    fast = np.random.default_rng(seed)
    slow = np.random.default_rng(seed)
    if buffered:  # start with a high half in has_uint32/uinteger
        assert fast.integers(7) == slow.integers(7)
        assert fast.bit_generator.state["has_uint32"] == 1
    with streams.decoded_draws(fast) as draws:
        assert isinstance(draws, streams.DrawDecoder)
        decoded = replay(draws, calls)
    assert decoded == replay(slow, calls)
    assert_same_generator(fast, slow)


def mixed_calls(rng, count, bounds):
    calls = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.4:
            calls.append(("random", None))
        elif kind < 0.5:
            calls.append(("random", int(rng.integers(0, 30))))
        else:
            calls.append(("integers", int(rng.choice(bounds))))
    return calls


@pytest.mark.parametrize("buffered", [False, True], ids=["even", "buffered"])
def test_decoded_mixed_sequences(buffered):
    rng = np.random.default_rng(21)
    bounds = [1, 2, 3, 5, 20, 1000, (1 << 31) + 1, 3 << 30, 1 << 32]
    for seed in range(60):
        count = int(rng.choice([0, 1, 2, 5, 40, 700]))
        check_decoded(seed, mixed_calls(rng, count, bounds), buffered)


def test_decoded_integers_one_consumes_nothing():
    for buffered in (False, True):
        check_decoded(1, [("integers", 1)] * 5, buffered)
        check_decoded(2, [("integers", 1), ("integers", 3), ("integers", 1)], buffered)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with streams.decoded_draws(rng) as draws:
        assert draws.integers(1) == 0
    assert rng.bit_generator.state == before


def _redrawn_once(seed, bound):
    """Whether ``integers(bound)``'s first draw from ``seed`` takes two
    halves: from an even start an accepted half leaves the fresh word's
    high half buffered, and one redraw consumes it."""
    rng = np.random.default_rng(seed)
    rng.integers(bound)
    return rng.bit_generator.state["has_uint32"] == 0


@pytest.mark.parametrize("bound", [3 << 30, (1 << 31) + 1])
def test_decoded_lemire_rejection(bound):
    """Bounds near 2**32 where numpy redraws a quarter and a half of the
    halves: seeds whose first draw is redrawn decode exactly."""
    redrawn = [seed for seed in range(64) if _redrawn_once(seed, bound)]
    assert redrawn
    for seed in redrawn[:5]:
        for buffered in (False, True):
            check_decoded(
                seed, [("integers", bound)] * 3 + [("random", None)], buffered
            )


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_decoded_chunk_refills(monkeypatch, chunk):
    """Draws and ``random(k)`` runs that straddle chunk boundaries."""
    monkeypatch.setattr(streams, "_DRAW_CHUNK", chunk)
    rng = np.random.default_rng(4)
    for seed in range(20):
        calls = mixed_calls(rng, 60, [1, 2, 9, 3 << 30])
        check_decoded(seed, calls, buffered=seed % 2 == 1)


def test_decoded_full_default_chunks():
    size = streams._DRAW_CHUNK
    for count in (size - 1, size, size + 1, 2 * size + 1):
        check_decoded(3, [("random", None)] * count)
        check_decoded(3, [("random", count), ("integers", 5)], buffered=True)


def test_decoded_state_is_synced_when_the_block_raises():
    fast = np.random.default_rng(8)
    slow = np.random.default_rng(8)
    calls = [("integers", 6), ("random", 4), ("integers", 3)]
    with pytest.raises(RuntimeError):
        with streams.decoded_draws(fast) as draws:
            replay(draws, calls)
            raise RuntimeError("stop")
    replay(slow, calls)
    assert_same_generator(fast, slow)


def test_decoded_rejects_bad_bounds():
    with streams.decoded_draws(np.random.default_rng(0)) as draws:
        for bound in (0, -3, (1 << 32) + 1):
            with pytest.raises(ValueError, match="outside"):
                draws.integers(bound)


def test_decoded_draws_hands_back_the_generator(monkeypatch):
    """Other bit generators, and the fallback, draw through numpy."""
    rng = np.random.Generator(np.random.MT19937(4))
    with streams.decoded_draws(rng) as draws:
        assert draws is rng
    monkeypatch.setattr(streams, "FAST_PATH", False)
    rng = np.random.default_rng(4)
    with streams.decoded_draws(rng) as draws:
        assert draws is rng


# -- consumers ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def mini():
    return space_for_layout("mini")


@pytest.mark.parametrize("layout", ["a", "mini"])
@pytest.mark.parametrize("n", [0, 1, 7, 100])
def test_sample_many_matches_pick_loop(layout, n):
    space = space_for_layout(layout)
    for seed in range(5):
        fast = np.random.default_rng(seed)
        slow = np.random.default_rng(seed)
        archs = space.sample_many(fast, n)
        for arch in archs:
            assert arch.ops == tuple(pick(slow, c) for c in space.candidate_ops)
            assert arch.factors == tuple(
                pick(slow, c) for c in space.candidate_factors
            )
        assert len(archs) == n
        assert_same_generator(fast, slow)


def test_proxy_accuracy_many_matches_scalar(mini):
    space = space_for_layout("a")
    for surrogate in (AccuracySurrogate(space), AccuracySurrogate.for_space(mini)):
        archs = surrogate.space.sample_many(np.random.default_rng(2), 300)
        assert [v.hex() for v in surrogate.proxy_accuracy_many(archs)] == [
            surrogate.proxy_accuracy(a).hex() for a in archs
        ]
    assert AccuracySurrogate(mini).proxy_accuracy_many([]) == []


def test_nsga2_batched_accuracy_matches_scalar(mini):
    surrogate = AccuracySurrogate.for_space(mini)

    def front(**batched):
        return Nsga2Search(
            mini,
            accuracy_fn=surrogate.proxy_accuracy,
            latency_fn=mini.arch_flops,
            config=Nsga2Config(seed=3, generations=4, population_size=16),
            **batched,
        ).run()

    scalar = front()
    batched = front(accuracy_many_fn=surrogate.proxy_accuracy_many)
    assert [p.to_dict() for p in batched.population] == [
        p.to_dict() for p in scalar.population
    ]


# -- threads and fallback ----------------------------------------------------------


def consumer_outputs(space, seed, device=None):
    """One LUT build, one sample batch and one surrogate batch."""
    device = device or calibrated_devices()["edge"]
    lut = LatencyLUT.build(space, device, seed=seed)
    archs = space.sample_many(np.random.default_rng(seed), 60)
    accuracy = AccuracySurrogate.for_space(space).proxy_accuracy_many(archs)
    return lut.to_json(), [a.to_dict() for a in archs], accuracy


def test_concurrent_consumers_match_serial(mini):
    """Four threads on two cores share one cold device (its kernel-time
    memo fills concurrently) and one space."""
    seeds = [0, 1, 2, 3]
    serial = {seed: consumer_outputs(mini, seed) for seed in seeds}
    device = DeviceModel(calibrated_devices()["edge"].spec)
    results = {}
    barrier = threading.Barrier(len(seeds), timeout=60)

    def work(seed):
        barrier.wait()
        results[seed] = [consumer_outputs(mini, seed, device) for _ in range(5)]

    threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed in seeds:
        assert results[seed] == [serial[seed]] * 5


def test_threads_redrawing_lanes_match_serial(monkeypatch):
    """Every lane redrawn by numpy (no ziggurat tables), from four
    threads on two cores: each thread's scratch generator is its own."""
    rows = [streams.spawn_entropy(seed, np.arange(300)) for seed in range(4)]
    monkeypatch.setattr(streams, "_ziggurat", lambda: None)
    serial = [streams.seeded_normals(r, 2).tobytes() for r in rows]
    results = {}
    barrier = threading.Barrier(len(rows), timeout=60)

    def work(slot):
        barrier.wait()
        results[slot] = [
            streams.seeded_normals(rows[slot], 2).tobytes() for _ in range(20)
        ]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(rows))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for slot, expected in enumerate(serial):
        assert results[slot] == [expected] * 20


def _corrupt_seeding(monkeypatch):
    monkeypatch.setattr(streams, "_PCG_MULT", streams._PCG_MULT + 2)


def _break_decoder(monkeypatch):
    def broken(bit_generator, bounds):
        raise KeyError("has_uint32")

    monkeypatch.setattr(streams, "_decode_bounded", broken)


@pytest.mark.parametrize("breakage", [_corrupt_seeding, _break_decoder])
def test_failed_self_check_falls_back_exactly(mini, monkeypatch, caplog, breakage):
    fast = consumer_outputs(mini, 5)
    breakage(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="repro.streams"):
        active = streams._activate()
    assert active is False
    warnings = [r for r in caplog.records if r.name == "repro.streams"]
    assert len(warnings) == 1
    assert "\n" not in warnings[0].getMessage()
    monkeypatch.setattr(streams, "FAST_PATH", active)
    assert consumer_outputs(mini, 5) == fast
    # The fallback still leaves bounded draws on numpy's stream.
    check_bounded(9, [3, 5, 1, 7] * 9, buffered=True)
