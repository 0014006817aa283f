"""numpy's per-item random streams, reproduced in bulk.

Three stream patterns run once per item on the search's hot paths:

* a uniform index per gene, ``rng.integers(len(cands))``, drawn gene by
  gene from one generator (architecture sampling),
* interleaved ``random()``, ``random(k)`` and ``integers(n)`` calls on
  one generator (breeding a generation), and
* a fresh ``default_rng(SeedSequence(entropy, spawn_key=key))`` per
  item (LUT measurement noise, the surrogate's digest residuals).

numpy spends most of that time in per-call overhead and in generator
construction, not in the draws. This module produces the same values in
bulk:

* :func:`bounded_draws` decodes a whole run of bounded draws from one
  ``random_raw`` block. ``PCG64`` serves ``integers(b)`` (for
  ``2 <= b <= 2**32``) from 32-bit halves of its 64-bit outputs, low
  half first, keeping the unused high half in ``has_uint32``/
  ``uinteger``; each half is mapped by Lemire's multiply-shift.
  ``integers(1)`` consumes nothing. Larger bounds, and any run in which
  a lane hits a Lemire rejection (probability about ``b / 2**32``),
  take numpy's own scalar path from the saved state.
* :func:`decoded_draws` hands out a :class:`DrawDecoder`, which serves
  the same calls, in the order they are made, from chunks of raw words
  (the same half-buffering and Lemire mapping, rejections redrawn
  inline) and on close puts the generator exactly where numpy's calls
  would have left it.
* :func:`seeded_generators` runs ``SeedSequence``'s uint32 hash mix as
  whole-array arithmetic across items, does ``PCG64``'s two-step
  128-bit seeding in Python ints, and assigns the result to one reused
  generator.

Values, and the generator state each leaves behind (checkpoints save
it), are exactly numpy's. On import a small self-check compares both
against numpy; on any mismatch (a numpy release that changed a stream)
the module logs one warning and falls back to numpy's own per-item
calls, so results stay exact and only speed is lost. ``FAST_PATH`` says
which path is active.
"""

from __future__ import annotations

import contextlib
import logging
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

logger = logging.getLogger(__name__)

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Items seeded per hash pass: large enough for the array arithmetic to
# pay off, small enough that a batch's seed states stay a few hundred KB.
_SEED_BLOCK = 1024

_LOW = np.uint64(_MASK32)
_HALF = np.uint64(32)
_TWO_32 = np.uint64(1 << 32)
_TWO_32_INT = 1 << 32
_DOUBLE_UNIT = 2.0**-53

# Raw words a DrawDecoder pulls at a time. A generation of breeding at
# the paper's settings reads about 1,300; the unread rest of the last
# chunk is given back on close, so a larger chunk only costs its
# ``tolist``.
_DRAW_CHUNK = 512


# -- bounded draws --------------------------------------------------------------


def bounded_draws(rng: np.random.Generator, bounds) -> np.ndarray:
    """``[rng.integers(b) for b in bounds]`` as one int64 array.

    Same values, and the same ``rng.bit_generator.state`` afterwards
    (``has_uint32`` and ``uinteger`` included), as the scalar loop.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    if bounds.size == 0:
        return np.zeros(0, dtype=np.int64)
    if (
        FAST_PATH
        and type(rng.bit_generator) is np.random.PCG64
        and bounds.min() >= 1
        and bounds.max() <= 1 << 32
    ):
        out = _decode_bounded(rng.bit_generator, bounds)
        if out is not None:
            return out
    return _scalar_draws(rng, bounds)


def _scalar_draws(rng: np.random.Generator, bounds: np.ndarray) -> np.ndarray:
    return np.array([rng.integers(b) for b in bounds.tolist()], dtype=np.int64)


def _decode_bounded(
    bit_generator: np.random.PCG64, bounds: np.ndarray
) -> Optional[np.ndarray]:
    """The draws from one raw block, or ``None`` (state restored) when a
    lane hits a Lemire rejection."""
    saved = bit_generator.state
    buffered = saved["has_uint32"]
    live = bounds > 1
    n = bounds[live].astype(np.uint64)
    fresh = max(n.size - buffered, 0)  # halves not already buffered
    raw = bit_generator.random_raw((fresh + 1) // 2)
    # Little-endian words of each output: its low half, then its high half.
    halves = raw.astype("<u8", copy=False).view("<u4")
    if buffered:
        halves = np.concatenate(([saved["uinteger"]], halves))
    scaled = halves[: n.size].astype(np.uint64) * n
    # numpy redraws a lane whose low word falls below (2**32 - n) % n.
    if ((scaled & _LOW) < (_TWO_32 - n) % n).any():
        bit_generator.state = saved
        return None
    out = np.zeros(bounds.size, dtype=np.int64)
    out[live] = scaled >> _HALF
    if n.size:
        if raw.size:
            state = bit_generator.state
            # numpy leaves the high half of the last output in
            # ``uinteger`` whether or not it was consumed.
            state["has_uint32"] = fresh % 2
            state["uinteger"] = int(raw[-1] >> _HALF)
        else:
            state = saved
            state["has_uint32"] = 0
        bit_generator.state = state
    return out


# -- decoded draws --------------------------------------------------------------------


class DrawDecoder:
    """``random()``, ``random(k)`` and ``integers(n)`` served in call
    order from chunks of one ``PCG64``'s raw 64-bit outputs.

    A double is ``(w >> 11) * 2**-53`` of a fresh word, leaving any
    buffered half alone. A bounded draw (``1 <= n <= 2**32``) takes a
    32-bit half: the buffered high half if there is one, else the low
    half of a fresh word, buffering its high half; Lemire's
    multiply-shift maps it, redrawing exactly as numpy does.
    ``integers(1)`` consumes nothing. Draws come back as Python
    ``int``/``float`` and ``random(k)`` as a list; the values are
    numpy's. :meth:`close` leaves the generator where numpy's own calls
    would have.
    """

    __slots__ = ("_bit_generator", "_start", "_words", "_pos", "_base",
                 "_has_half", "_half")

    def __init__(self, bit_generator: np.random.PCG64):
        self._bit_generator = bit_generator
        self._start = bit_generator.state
        self._words: List[int] = []
        self._pos = 0
        self._base = 0  # words in the chunks before ``_words``
        self._has_half = self._start["has_uint32"]
        self._half = self._start["uinteger"]

    def _refill(self) -> None:
        self._base += len(self._words)
        self._words = self._bit_generator.random_raw(_DRAW_CHUNK).tolist()
        self._pos = 0

    def _word(self) -> int:
        if self._pos == len(self._words):
            self._refill()
        word = self._words[self._pos]
        self._pos += 1
        return word

    def random(self, size: Optional[int] = None):
        """``Generator.random()`` (a float) or ``random(size)`` (a list)."""
        if size is None:  # ``_word`` inlined: breeding's hottest call
            pos = self._pos
            if pos == len(self._words):
                self._refill()
                pos = 0
            self._pos = pos + 1
            return (self._words[pos] >> 11) * _DOUBLE_UNIT
        end = self._pos + size
        if end <= len(self._words):
            words = self._words[self._pos : end]
            self._pos = end
        else:
            words = [self._word() for _ in range(size)]
        return [(w >> 11) * _DOUBLE_UNIT for w in words]

    def integers(self, n: int) -> int:
        """``Generator.integers(n)`` for ``1 <= n <= 2**32``."""
        if n == 1:
            return 0
        if not 1 < n <= _TWO_32_INT:
            raise ValueError(f"bound {n} outside [1, 2**32]")
        while True:
            if self._has_half:
                self._has_half = 0
                half = self._half
            else:
                word = self._word()
                half = word & _MASK32
                self._half = word >> 32
                self._has_half = 1
            scaled = half * n
            low = scaled & _MASK32
            # numpy redraws when the low word falls below (2**32 - n) % n.
            if low >= n or low >= (_TWO_32_INT - n) % n:
                return scaled >> 32

    def close(self) -> None:
        """Put the generator where numpy's own draws would have left it."""
        bit_generator = self._bit_generator
        bit_generator.state = self._start
        bit_generator.advance(self._base + self._pos)
        state = bit_generator.state
        state["has_uint32"] = self._has_half
        # numpy keeps the last buffered high half even once consumed.
        state["uinteger"] = self._half
        bit_generator.state = state


@contextlib.contextmanager
def decoded_draws(rng: np.random.Generator):
    """A :class:`DrawDecoder` over ``rng`` for the ``with`` block, closed
    on exit, or ``rng`` itself when it is not ``PCG64`` or the fast path
    is off. Draw only through the yielded object inside the block."""
    if not FAST_PATH or type(rng.bit_generator) is not np.random.PCG64:
        yield rng
        return
    decoder = DrawDecoder(rng.bit_generator)
    try:
        yield decoder
    finally:
        decoder.close()


# -- seeded generators -------------------------------------------------------------


def seeded_generators(
    entropies: Sequence[int],
    spawn_keys: Optional[Sequence[Tuple[int, ...]]] = None,
) -> Iterator[np.random.Generator]:
    """A generator at ``default_rng(SeedSequence(entropies[i],
    spawn_key=spawn_keys[i]))``'s state, for each item in turn.

    On the fast path every item gets the same generator object,
    re-positioned for it: draw from it before advancing the iterator.
    ``spawn_keys=None`` means no spawn key, as in ``default_rng(int)``.
    """
    entropies = [int(e) for e in entropies]
    keys = [()] * len(entropies) if spawn_keys is None else list(spawn_keys)
    if len(keys) != len(entropies):
        raise ValueError(
            f"got {len(keys)} spawn keys for {len(entropies)} entropies"
        )
    if FAST_PATH:
        return _reseeded(entropies, keys)
    return map(_numpy_generator, entropies, keys)


def _numpy_generator(entropy: int, key: Tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=key))


def _reseeded(
    entropies: List[int], keys: List[Tuple[int, ...]]
) -> Iterator[np.random.Generator]:
    """One generator, positioned at each item's state in turn."""
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    state = {
        "bit_generator": "PCG64",
        "state": {},
        "has_uint32": 0,
        "uinteger": 0,
    }
    for start in range(0, len(entropies), _SEED_BLOCK):
        block = slice(start, start + _SEED_BLOCK)
        for pcg in _pcg_states(entropies[block], keys[block]):
            state["state"] = pcg
            bit_generator.state = state
            yield generator


def _words(value: int) -> List[int]:
    """numpy's little-endian uint32 words of a non-negative int."""
    if 0 <= value <= _MASK32:
        return [value]
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _assembled_entropy(entropy: int, key: Tuple[int, ...]) -> List[int]:
    words = _words(entropy)
    if key:
        # A spawned sequence zero-fills its run entropy to the pool size.
        words += [0] * (_POOL_SIZE - len(words))
        for part in key:
            words += _words(int(part))
    return words


def _hashmix(values: np.ndarray, const: int) -> Tuple[np.ndarray, int]:
    values = values ^ np.uint32(const)
    const = (const * _MULT_A) & _MASK32
    values = values * np.uint32(const)
    values ^= values >> _XSHIFT
    return values, const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    out ^= out >> _XSHIFT
    return out


def _pool(entropy: np.ndarray) -> List[np.ndarray]:
    """``SeedSequence.pool`` of every row of ``entropy`` (items x words)."""
    const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        if i < entropy.shape[1]:
            word = entropy[:, i]
        else:
            word = np.zeros(entropy.shape[0], dtype=np.uint32)
        mixed, const = _hashmix(word, const)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], mixed)
    for src in range(_POOL_SIZE, entropy.shape[1]):
        for dst in range(_POOL_SIZE):
            mixed, const = _hashmix(entropy[:, src], const)
            pool[dst] = _mix(pool[dst], mixed)
    return pool


def _seed_words(pool: List[np.ndarray]) -> List[List[int]]:
    """``generate_state(4, np.uint64)`` of every item, as Python ints."""
    const = _INIT_B
    halves = []
    for i in range(8):
        word = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        word = word * np.uint32(const)
        word ^= word >> _XSHIFT
        halves.append(word.astype(np.uint64))
    words = np.stack(
        [halves[2 * j] | (halves[2 * j + 1] << _HALF) for j in range(4)],
        axis=1,
    )
    return words.tolist()


def _pcg_states(
    entropies: List[int], keys: List[Tuple[int, ...]]
) -> List[dict]:
    """``PCG64(SeedSequence(e, spawn_key=k)).state["state"]`` per item."""
    assembled = [_assembled_entropy(e, k) for e, k in zip(entropies, keys)]
    # Items hash in groups of equal entropy length (almost always one).
    seeds: List[Optional[List[int]]] = [None] * len(assembled)
    by_length = {}
    for item, words in enumerate(assembled):
        by_length.setdefault(len(words), []).append(item)
    for items in by_length.values():
        entropy = np.array([assembled[i] for i in items], dtype=np.uint32)
        for item, words in zip(items, _seed_words(_pool(entropy))):
            seeds[item] = words
    states = []
    for s0, s1, i0, i1 in seeds:
        # pcg_setseq_128_srandom_r: inc = seq << 1 | 1, then one LCG
        # step from 0, add the seed, one more step.
        inc = (((i0 << 64) | i1) << 1 | 1) & _MASK128
        state = ((inc + ((s0 << 64) | s1)) * _PCG_MULT + inc) & _MASK128
        states.append({"state": state, "inc": inc})
    return states


# -- self-check ---------------------------------------------------------------------


def _self_check() -> bool:
    """Whether the bulk paths reproduce numpy on this install.

    A few hundred draws, cheap enough for import time; the exhaustive
    comparisons live in the test suite.
    """
    entropies = [0, 1, 7, _MASK32, 1 << 32, (1 << 64) - 1, 1 << 70]
    keys = [(), (0,), (3,), (5, 1), (1 << 40,), (), (2,)]
    for entropy, key, fast in zip(entropies, keys, _reseeded(entropies, keys)):
        slow = _numpy_generator(entropy, key)
        if fast.bit_generator.state != slow.bit_generator.state:
            return False
        if fast.standard_normal(3).tolist() != slow.standard_normal(3).tolist():
            return False
    bounds = np.array([1, 2, 3, 5, 7, 1, 64, 1 << 32, 1000003, 1 << 31] * 30)
    # 299 and 300 draws, starting without and with a buffered high half.
    for buffered in (0, 1):
        fast = np.random.default_rng(buffered)
        slow = np.random.default_rng(buffered)
        if buffered:
            fast.integers(3)
            slow.integers(3)
        decoded = _decode_bounded(fast.bit_generator, bounds[: 299 + buffered])
        expected = _scalar_draws(slow, bounds[: 299 + buffered])
        if decoded is None or not np.array_equal(decoded, expected):
            return False
        if fast.bit_generator.state != slow.bit_generator.state:
            return False
        if fast.integers(1 << 20) != slow.integers(1 << 20):
            return False
    # A mixed run of decoded draws, starting with a buffered half.
    fast = np.random.default_rng(2)
    slow = np.random.default_rng(2)
    fast.integers(5)
    slow.integers(5)
    draws = DrawDecoder(fast.bit_generator)
    decoded = [draws.integers(7), draws.random(), draws.integers(1)]
    decoded += draws.random(3) + [draws.integers(1 << 32), draws.integers(3)]
    draws.close()
    expected = [int(slow.integers(7)), slow.random(), int(slow.integers(1))]
    expected += slow.random(3).tolist()
    expected += [int(slow.integers(1 << 32)), int(slow.integers(3))]
    if decoded != expected:
        return False
    if fast.bit_generator.state != slow.bit_generator.state:
        return False
    return fast.random() == slow.random()


def _activate() -> bool:
    """Run the self-check; on failure log one warning line."""
    try:
        ok, reason = _self_check(), "values differ"
    except Exception as exc:  # whatever broke, numpy's own path is exact
        ok, reason = False, repr(exc)
    if not ok:
        logger.warning(
            "repro.streams: bulk decoding does not reproduce numpy %s's "
            "streams (%s); using numpy's per-item calls (exact, slower)",
            np.__version__,
            reason,
        )
    return ok


FAST_PATH = _activate()
