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
* :func:`seeded_normals` gives each item's
  ``standard_normal(k)`` as one ``(n, k)`` array. ``SeedSequence``'s
  uint32 hash, ``PCG64``'s 128-bit seeding and its LCG steps with
  XSL-RR output run as whole-array arithmetic on uint64 (high, low)
  word pairs. Each draw takes numpy's ziggurat fast lane (strip byte,
  sign bit, 52-bit ``rabs``, accepted below ``ki[strip]`` as
  ``±rabs * wi[strip]``). A lane with any other draw (about one draw in
  a hundred) is drawn by numpy from its seeded state. The tables are
  read from numpy itself, through crafted ``PCG64`` states, the first
  time they are needed, never at import.

Values, and the generator state each leaves behind (checkpoints save
it), are exactly numpy's. On import a small self-check compares the
decoders and the seeding against numpy; the ziggurat tables are checked
when first read. On any mismatch (a numpy release that changed a
stream) the module logs one warning and falls back to numpy's own
per-item calls, so results stay exact and only speed is lost.
``FAST_PATH`` says which path is active, and :func:`normal_fast_lane`
whether the ziggurat fast lane is.
"""

from __future__ import annotations

import contextlib
import functools
import logging
from typing import List, Optional, Tuple

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

_LOW = np.uint64(_MASK32)
_HALF = np.uint64(32)
_TWO_32 = np.uint64(1 << 32)
_TWO_32_INT = 1 << 32
_DOUBLE_UNIT = 2.0**-53
_MASK64 = (1 << 64) - 1
_ONE = np.uint64(1)
_TOP_BIT = np.uint64(63)
_WORD_BITS = np.uint64(64)
_ROT_SHIFT = np.uint64(122 - 64)  # XSL-RR rotates by the state's top 6 bits
_ROT_MASK = np.uint64(63)

# numpy's ziggurat normal (random_standard_normal): of a 64-bit word,
# the low byte picks the strip, bit 8 is the sign, the next 52 bits are
# ``rabs``.
_STRIP = np.uint64(0xFF)
_SIGN = np.uint64(0x100)
_RABS_BITS = 9
_RABS_SHIFT = np.uint64(_RABS_BITS)
_MASK52 = np.uint64((1 << 52) - 1)

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


# -- seeded normals -----------------------------------------------------------------


def seeded_normals(entropy_words, k: int) -> np.ndarray:
    """``default_rng(SeedSequence(row)).standard_normal(k)`` of every row
    of ``entropy_words``, as an ``(n, k)`` float64 array.

    A row holds the uint32 words ``SeedSequence`` hashes: an integer
    seed's little-endian words, or, for a spawned sequence, the seed
    zero-filled to four words followed by each spawn-key part's words
    (:func:`spawn_entropy` builds those). ``SeedSequence`` hashes a row
    shorter than four words as if zero-filled, so the ``[low, high]``
    words of a 64-bit seed give ``default_rng(seed)``'s stream whether
    or not ``high`` is zero.
    """
    words = np.asarray(entropy_words)
    if words.ndim != 2:
        raise ValueError("entropy_words must be an (n, words) array")
    if words.size and (words.min() < 0 or words.max() > _MASK32):
        raise ValueError("entropy words must fit in uint32")
    if k < 0:
        raise ValueError("k must be >= 0")
    words = words.astype(np.uint32, copy=False)
    if not FAST_PATH:
        return _numpy_normals(words, k)
    state, inc = _seeded_states(words)
    return _pcg_normals(state, inc, k, _ziggurat())


def spawn_entropy(entropy: int, keys) -> np.ndarray:
    """:func:`seeded_normals` rows of ``SeedSequence(entropy,
    spawn_key=(key,))`` for each ``key`` in ``keys`` (each below
    ``2**32``)."""
    keys = np.asarray(keys)
    if keys.ndim != 1 or (keys.size and (keys.min() < 0 or keys.max() > _MASK32)):
        raise ValueError("spawn keys must be a 1-D array of uint32 values")
    prefix = _words(int(entropy))
    # A spawned sequence zero-fills its run entropy to the pool size.
    prefix += [0] * (_POOL_SIZE - len(prefix))
    rows = np.empty((keys.size, len(prefix) + 1), dtype=np.uint32)
    rows[:, :-1] = prefix
    rows[:, -1] = keys
    return rows


def normal_fast_lane() -> bool:
    """Whether :func:`seeded_normals` decodes on numpy's ziggurat fast
    lane here. The first call reads numpy's tables and checks them."""
    return FAST_PATH and _ziggurat() is not None


def _numpy_normals(words: np.ndarray, k: int) -> np.ndarray:
    """numpy's own per-item calls: the path when the self-check fails."""
    out = np.empty((len(words), k))
    for row, entropy in zip(out, words):
        generator = np.random.default_rng(np.random.SeedSequence(entropy))
        generator.standard_normal(out=row)
    return out


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


def _seed_words(pool: List[np.ndarray]) -> List[np.ndarray]:
    """``generate_state(4, np.uint64)`` of every item: four uint64 arrays."""
    const = _INIT_B
    halves = []
    for i in range(8):
        word = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        word = word * np.uint32(const)
        word ^= word >> _XSHIFT
        halves.append(word.astype(np.uint64))
    return [halves[2 * j] | (halves[2 * j + 1] << _HALF) for j in range(4)]


# A 128-bit PCG64 state or increment per lane, as (high, low) uint64 arrays.
_Lanes = Tuple[np.ndarray, np.ndarray]


def _multiplier() -> Tuple[np.uint64, np.uint64, np.uint64, np.uint64]:
    """``_PCG_MULT``'s high word, low word and the low word's 32-bit limbs."""
    high, low = _PCG_MULT >> 64, _PCG_MULT & _MASK64
    return (
        np.uint64(high),
        np.uint64(low),
        np.uint64(low & _MASK32),
        np.uint64(low >> 32),
    )


def _lcg_step(state: _Lanes, inc: _Lanes, mult) -> _Lanes:
    """``state * _PCG_MULT + inc`` mod ``2**128`` in every lane.

    uint64 products wrap, which gives every partial product's low word;
    the one carry they lose, the high word of ``low * mult_low``, comes
    from 32-bit limbs.
    """
    hi, lo = state
    m_hi, m_lo, m_lo0, m_lo1 = mult
    lo0 = lo & _LOW
    lo1 = lo >> _HALF
    p01 = lo0 * m_lo1
    p10 = lo1 * m_lo0
    mid = ((lo0 * m_lo0) >> _HALF) + (p01 & _LOW) + (p10 & _LOW)
    carry = lo1 * m_lo1 + (p01 >> _HALF) + (p10 >> _HALF) + (mid >> _HALF)
    product = lo * m_lo
    new_lo = product + inc[1]
    new_hi = carry + lo * m_hi + hi * m_lo + inc[0] + (new_lo < product)
    return new_hi, new_lo


def _xsl_rr(state: _Lanes) -> np.ndarray:
    """PCG64's output of each lane's (already stepped) state."""
    hi, lo = state
    folded = hi ^ lo
    rot = hi >> _ROT_SHIFT
    return (folded >> rot) | (folded << ((_WORD_BITS - rot) & _ROT_MASK))


def _seeded_states(words: np.ndarray) -> Tuple[_Lanes, _Lanes]:
    """``PCG64(SeedSequence(row))``'s state and increment of every row."""
    s_hi, s_lo, i_hi, i_lo = _seed_words(_pool(words))
    # pcg_setseq_128_srandom_r: inc = seq << 1 | 1; one LCG step from 0
    # (which gives inc), add the seed, one more step.
    inc = ((i_hi << _ONE) | (i_lo >> _TOP_BIT), (i_lo << _ONE) | _ONE)
    lo = inc[1] + s_lo
    hi = inc[0] + s_hi + (lo < s_lo)
    return _lcg_step((hi, lo), inc, _multiplier()), inc


def _pcg_normals(
    state: _Lanes, inc: _Lanes, k: int, tables: Optional[Tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """``standard_normal(k)`` of a PCG64 generator at each lane's state.

    Each draw takes numpy's ziggurat fast lane on whole arrays: of an
    output word ``r``, ``r & 0xff`` picks the strip, bit 8 the sign and
    the 52 bits above it ``rabs``; the draw is ``±rabs * wi[strip]`` when
    ``rabs < ki[strip]``. A lane with any other draw (``rabs`` at or
    above the lower bound ``kc`` of ``ki``, strips 0 and 1 included) is
    drawn by numpy from its state instead. Without ``tables`` every lane
    is.
    """
    n = len(state[0])
    out = np.empty((n, k))
    if tables is None:
        redo = np.ones(n, dtype=bool)
    else:
        wi, kc = tables
        redo = np.zeros(n, dtype=bool)
        mult = _multiplier()
        stepped = state
        for j in range(k):
            stepped = _lcg_step(stepped, inc, mult)
            word = _xsl_rr(stepped)
            strip = (word & _STRIP).astype(np.intp)
            rabs = (word >> _RABS_SHIFT) & _MASK52
            draws = out[:, j]
            np.multiply(rabs, wi[strip], out=draws)
            np.negative(draws, out=draws, where=(word & _SIGN) != 0)
            redo |= rabs >= kc[strip]
    lanes = np.flatnonzero(redo)
    if lanes.size:
        _numpy_lanes(out, lanes, state, inc)
    return out


def _numpy_lanes(
    out: np.ndarray, lanes: np.ndarray, state: _Lanes, inc: _Lanes
) -> None:
    """numpy's own ``standard_normal`` into ``out``'s rows ``lanes``,
    each from its lane's state."""
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    pcg = {}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    parts = [half[lanes].tolist() for half in (*state, *inc)]
    for lane, s_hi, s_lo, i_hi, i_lo in zip(lanes.tolist(), *parts):
        pcg["state"] = s_hi << 64 | s_lo
        pcg["inc"] = i_hi << 64 | i_lo
        bit_generator.state = full
        generator.standard_normal(out=out[lane])


@functools.lru_cache(maxsize=None)
def _ziggurat() -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """numpy's ziggurat tables for :func:`_pcg_normals`, read on first
    use and checked, or ``None`` (after one warning) when they do not
    reproduce numpy."""
    try:
        tables = _read_ziggurat()
        ok, reason = _normals_check(tables), "values differ"
    except Exception as exc:  # whatever broke, numpy's own path is exact
        tables, ok, reason = None, False, repr(exc)
    if not ok:
        _warn("the seeded-normal fast lane", reason)
        return None
    return tables


def _read_ziggurat() -> Tuple[np.ndarray, np.ndarray]:
    """``wi`` exactly, and ``kc``, a lower bound of ``ki``, from numpy's
    own ``standard_normal``.

    A PCG64 state whose stepped value has a zero high word outputs its
    low word unrotated, so stepping back from a chosen word (``(word -
    inc) * MULT**-1``) crafts a draw. ``rabs = 1`` reads ``wi[i]``. For
    ``i >= 2``, ``ki[i]`` is ``c = floor(2**52 * wi[i-1] / wi[i])`` or
    ``c + 1``: ``kc[i] = c``, and numpy must accept ``c - 1`` in one
    step and reject ``c + 1``. Strips 0 and 1 get ``kc = 0``, so their
    draws always go to numpy.
    """
    mult = _PCG_MULT
    inverse = pow(mult, -1, 1 << 128)
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    pcg = {"inc": 1}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}

    def draw(word: int) -> Tuple[float, int]:
        """``standard_normal()`` of the next output ``word``, and the
        LCG steps it took (1, 2, or 0 for more)."""
        pcg["state"] = ((word - 1) * inverse) & _MASK128
        bit_generator.state = full
        value = generator.standard_normal()
        after = bit_generator.state["state"]["state"]
        steps = {word: 1, (word * mult + 1) & _MASK128: 2}.get(after, 0)
        return value, steps

    wi = []
    for strip in range(256):
        value, steps = draw(1 << _RABS_BITS | strip)
        # ki[1] is 0: strip 1 always takes the wedge test, which draws
        # one more word and accepts a value this close to zero.
        if steps != (2 if strip == 1 else 1):
            raise ValueError(f"strip {strip} took {steps} steps")
        wi.append(value)
    kc = [0, 0]
    for strip in range(2, 256):
        num, den = wi[strip - 1].as_integer_ratio()
        num_i, den_i = wi[strip].as_integer_ratio()
        bound = (num * den_i << 52) // (den * num_i)
        value, steps = draw((bound - 1) << _RABS_BITS | strip)
        if steps != 1 or value != (bound - 1) * wi[strip]:
            raise ValueError(f"strip {strip} rejects rabs {bound - 1}")
        if draw((bound + 1) << _RABS_BITS | strip)[1] == 1:
            raise ValueError(f"strip {strip} accepts rabs {bound + 1}")
        kc.append(bound)
    return np.array(wi), np.array(kc, dtype=np.uint64)


def _normals_check(tables: Tuple[np.ndarray, np.ndarray]) -> bool:
    """The fast lane against numpy's per-item calls on 64 spawned and
    64 digest-style streams, three draws each."""
    digests = np.random.default_rng(3).integers(0, 1 << 32, size=(64, 2))
    for rows in (spawn_entropy(11, np.arange(64)), digests):
        rows = rows.astype(np.uint32)
        state, inc = _seeded_states(rows)
        fast = _pcg_normals(state, inc, 3, tables)
        if fast.tobytes() != _numpy_normals(rows, 3).tobytes():
            return False
    return True


# -- self-check ---------------------------------------------------------------------


def _self_check() -> bool:
    """Whether the bulk paths reproduce numpy on this install.

    A few hundred draws, cheap enough for import time; the exhaustive
    comparisons live in the test suite.
    """
    # Seeding and stepping of seeded_normals; its ziggurat decoding is
    # checked when the tables are first read (see _ziggurat).
    mult = _multiplier()
    for row in ([0], [7, 1], [0, 0, 0, 0, 0], [3, 0, 0, 0, 5, 1], [_MASK32] * 9):
        words = np.array([row], dtype=np.uint32)
        state, inc = _seeded_states(words)
        expected = np.random.PCG64(np.random.SeedSequence(words[0]))
        pcg = expected.state["state"]
        if [int(state[0][0]) << 64 | int(state[1][0]),
                int(inc[0][0]) << 64 | int(inc[1][0])] != [pcg["state"], pcg["inc"]]:
            return False
        for _ in range(3):
            state = _lcg_step(state, inc, mult)
            if int(_xsl_rr(state)[0]) != int(expected.random_raw()):
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


def _warn(what: str, reason: str) -> None:
    logger.warning(
        "repro.streams: %s does not reproduce numpy %s's streams (%s); "
        "using numpy's per-item calls (exact, slower)",
        what,
        np.__version__,
        reason,
    )


def _activate() -> bool:
    """Run the self-check; on failure log one warning line."""
    try:
        ok, reason = _self_check(), "values differ"
    except Exception as exc:  # whatever broke, numpy's own path is exact
        ok, reason = False, repr(exc)
    if not ok:
        _warn("bulk decoding", reason)
    return ok


FAST_PATH = _activate()
