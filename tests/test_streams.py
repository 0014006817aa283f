"""``repro.streams`` reproduces numpy's streams exactly, and so do its
consumers.

Every comparison is against numpy itself: the values, the generator
state left behind (``has_uint32`` and ``uinteger`` included, because
checkpoints save it), and the next draw after it.
"""

import logging
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
from repro.streams import bounded_draws, seeded_generators


def assert_same_generator(fast, slow):
    assert fast.bit_generator.state == slow.bit_generator.state
    assert fast.random() == slow.random()


def assert_seeded_like_numpy(entropies, spawn_keys=None):
    keys = [()] * len(entropies) if spawn_keys is None else spawn_keys
    fast = seeded_generators(entropies, spawn_keys)
    for entropy, key, rng in zip(entropies, keys, fast):
        expected = np.random.default_rng(
            np.random.SeedSequence(entropy, spawn_key=key)
        )
        assert rng.bit_generator.state == expected.bit_generator.state, (
            entropy,
            key,
        )
    # The last generator also continues like numpy's.
    assert rng.standard_normal() == expected.standard_normal()


# -- seeded_generators ------------------------------------------------------------


def test_fast_path_is_active():
    """A numpy upgrade that makes the module fall back fails here, not
    only as a slower benchmark."""
    assert streams.FAST_PATH, f"bulk streams disabled on numpy {np.__version__}"
    assert streams._self_check()


def test_digest_seeds_one_and_two_words():
    """10^5 ``default_rng(int)`` seeds, the surrogate's digest pattern:
    three in four need two uint32 words, one in four fits in one; the
    two lengths are interleaved so both hash groups keep item order."""
    rng = np.random.default_rng(0)
    seeds = rng.integers(1 << 32, 1 << 64, size=100_000, dtype=np.uint64)
    seeds[::4] >>= np.uint64(32)
    seeds = seeds.tolist()
    seeds[:4] = [0, 1, (1 << 32) - 1, 1 << 32]
    assert_seeded_like_numpy(seeds)


def test_spawn_keys():
    """10^5 ``SeedSequence(seed, spawn_key=(i,))`` streams, the LUT
    noise pattern, plus two-part and multi-word keys and seeds."""
    count = 100_000
    assert_seeded_like_numpy([7] * count, [(i,) for i in range(count)])
    entropies = [0, 3, 1 << 40, (1 << 64) - 1, 1 << 130, 12345]
    keys = [(0, 1), (99, 1), (1 << 33,), (5,), (2, 3, 4), ()]
    assert_seeded_like_numpy(entropies, keys)


def test_seeded_generators_rejects_mismatched_keys():
    with pytest.raises(ValueError, match="spawn keys"):
        list(seeded_generators([1, 2], [(0,)]))
    with pytest.raises(ValueError, match="non-negative"):
        list(seeded_generators([-1]))


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
