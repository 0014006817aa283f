"""Device-probe fault model: errors, timeouts, retry with backoff.

Real device farms fail constantly — probes hang, USB links drop,
thermal throttling trips watchdogs. HW-NAS-Bench and similar efforts
document heavy measurement variance and lost probes as the norm, not
the exception. This module gives the measurement layer one vocabulary
for those faults (:class:`ProbeError` / :class:`ProbeTimeout`), one
knob for how hard to fight them (:class:`RetryPolicy` — bounded
attempts, exponential backoff with jitter, a per-probe time budget),
and one synthetic flaky device (:class:`FlakyDevice`) to test the whole
stack against.

Determinism note: retry jitter draws from its *own* generator, seeded
per call site — never from the measurement-noise stream. A run on a
healthy device therefore produces bit-identical results whether or not
retries are configured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.hardware.device import DeviceModel

T = TypeVar("T")


class ProbeError(RuntimeError):
    """A device probe failed (link drop, device-side crash, bad read)."""


class ProbeTimeout(ProbeError):
    """A device probe exceeded its time budget."""


class FaultStream:
    """A seeded source of injected-fault decisions.

    Shared by :class:`FlakyDevice` (probe faults) and the chaos harness
    (:mod:`repro.resilience.chaos` — backend/transport faults): one
    rng, separate from any measurement-noise stream, consumed exactly
    once per decision with non-zero rates — so fault injection never
    perturbs the values a healthy run would produce.

    ``fail_first`` deterministically forces the first N decisions
    (without consuming the rng), matching the historical
    ``FlakyDevice`` semantics the fail-twice-then-succeed retry tests
    rely on.
    """

    def __init__(self, seed: int = 0, fail_first: int = 0):
        if fail_first < 0:
            raise ValueError("fail_first must be >= 0")
        self._rng = np.random.default_rng(seed)
        self.fail_first = fail_first
        self.draws = 0

    def decide(
        self,
        outcomes: Sequence[Tuple[str, float]],
        fail_first_outcome: Optional[str] = None,
    ) -> Optional[str]:
        """One decision over ``((name, rate), ...)``; ``None`` = healthy.

        Rates must each be in [0, 1] and sum to at most 1; the single
        uniform draw is partitioned in the order given. While
        ``fail_first`` has budget, the forced outcome is
        ``fail_first_outcome`` (default: the first listed) and no
        randomness is consumed.
        """
        if self.fail_first > 0:
            self.fail_first -= 1
            if fail_first_outcome is not None:
                return fail_first_outcome
            return outcomes[0][0] if outcomes else None
        if not any(rate > 0 for _, rate in outcomes):
            return None
        self.draws += 1
        draw = float(self._rng.random())
        acc = 0.0
        for name, rate in outcomes:
            acc += rate
            if draw < acc:
                return name
        return None

    def state(self) -> dict:
        """Where the stream stands (JSON-serializable, for checkpoints)."""
        from repro.runstate.rng import generator_state

        return {
            "rng": generator_state(self._rng),
            "fail_first": self.fail_first,
            "draws": self.draws,
        }

    def restore(self, state: dict) -> None:
        """Rewind the stream to a :meth:`state` (bit-exact resume)."""
        from repro.runstate.rng import set_generator_state

        set_generator_state(self._rng, state["rng"])
        self.fail_first = int(state["fail_first"])
        self.draws = int(state["draws"])


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the measurement layer fights a failing probe.

    Parameters
    ----------
    attempts:
        Total tries per probe (first attempt included); >= 1.
    backoff_s:
        Sleep before the first retry; each further retry multiplies it
        by ``backoff_factor`` (exponential backoff).
    backoff_factor:
        Growth factor of the backoff series; >= 1.
    jitter:
        Fractional jitter on every backoff sleep: the actual delay is
        uniform in ``[delay * (1 - jitter), delay * (1 + jitter)]``.
        Jitter decorrelates retry storms across parallel probes.
    timeout_s:
        Optional per-attempt time budget. An attempt whose wall-clock
        exceeds it counts as a :class:`ProbeTimeout` failure even if it
        eventually returned (a real harness would have killed it).
    """

    attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.5
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.backoff_s < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff_s must be >= 0 and backoff_factor >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")

    def delay_s(self, retry_index: int, rng: Optional[np.random.Generator]) -> float:
        """Backoff sleep before retry ``retry_index`` (0 = first retry)."""
        if retry_index < 0:
            raise ValueError("retry_index must be >= 0")
        delay = self.backoff_s * self.backoff_factor**retry_index
        if rng is not None and self.jitter > 0 and delay > 0:
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return delay


def timed_attempt(
    probe: Callable[[], T],
    policy: RetryPolicy,
    clock: Callable[[], float] = time.perf_counter,
) -> T:
    """One attempt at ``probe`` under ``policy``'s time budget.

    With ``policy.timeout_s`` set, an attempt whose wall-clock exceeds
    it raises :class:`ProbeTimeout` even if it returned (a real harness
    would have killed it); without one, this is ``probe()``.
    """
    if policy.timeout_s is None:
        return probe()
    started = clock()
    value = probe()
    if clock() - started > policy.timeout_s:
        raise ProbeTimeout(f"probe exceeded its {policy.timeout_s}s budget")
    return value


def run_with_retry(
    probe: Callable[[], T],
    policy: RetryPolicy,
    rng: Optional[np.random.Generator] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.perf_counter,
    make_rng: Optional[Callable[[], np.random.Generator]] = None,
    first_fault: Optional[ProbeError] = None,
) -> Tuple[T, int]:
    """Run ``probe`` under ``policy``; returns ``(value, attempts_used)``.

    Only :class:`ProbeError` (and subclasses) are retried — any other
    exception is a bug in the probe, not a device fault, and propagates
    immediately. After the final attempt the last fault is re-raised,
    so callers see exactly what the device last said.

    Without an ``rng``, ``make_rng`` (if given) builds the jitter
    generator when the first attempt fails — a probe that succeeds at
    once never pays for one.

    ``first_fault`` says the caller already made the first attempt
    (with :func:`timed_attempt`) and it failed so: the loop continues
    at the first retry, with the same backoff schedule and jitter
    stream as if it had made that attempt itself.
    """
    last_fault = first_fault
    for attempt in range(0 if first_fault is None else 1, policy.attempts):
        if attempt > 0:
            if rng is None and make_rng is not None:
                rng = make_rng()
            delay = policy.delay_s(attempt - 1, rng)
            if delay > 0:
                sleep(delay)
        try:
            value = timed_attempt(probe, policy, clock)
        except ProbeError as fault:
            last_fault = fault
            continue
        return value, attempt + 1
    assert last_fault is not None
    raise last_fault


class FlakyDevice(DeviceModel):
    """A device model whose probes fail or time out at configured rates.

    Wraps any :class:`~repro.hardware.device.DeviceModel` (same spec,
    same timings on success) and injects :class:`ProbeError` /
    :class:`ProbeTimeout` from a *separate* seeded fault stream in the
    ``_probe`` hook every probe passes through first, so the
    measurement-noise stream is consumed exactly as on the healthy
    device — a retried probe returns the same value the healthy device
    would have.

    ``fail_first`` deterministically fails the first N probes (on top
    of the rates), which is what the fail-twice-then-succeed retry
    tests use.
    """

    def __init__(
        self,
        device: DeviceModel,
        failure_rate: float = 0.0,
        timeout_rate: float = 0.0,
        seed: int = 0,
        fail_first: int = 0,
    ):
        if not 0.0 <= failure_rate <= 1.0 or not 0.0 <= timeout_rate <= 1.0:
            raise ValueError("failure/timeout rates must be in [0, 1]")
        if failure_rate + timeout_rate > 1.0:
            raise ValueError("failure_rate + timeout_rate must be <= 1")
        if fail_first < 0:
            raise ValueError("fail_first must be >= 0")
        super().__init__(device.spec)
        # Same spec, same noise-free prices: share the wrapped device's
        # memos, so only the fault decisions are this device's own.
        self._kernel_s = device._kernel_s
        self._cell_ms = device._cell_ms
        self._cells_kept = device._cells_kept
        self.failure_rate = failure_rate
        self.timeout_rate = timeout_rate
        self._faults = FaultStream(seed=seed, fail_first=fail_first)
        # Observability: how much grief the device caused.
        self.probes = 0
        self.injected_failures = 0
        self.injected_timeouts = 0

    @property
    def fail_first(self) -> int:
        return self._faults.fail_first

    _COUNTERS = ("probes", "injected_failures", "injected_timeouts")

    def fault_state(self) -> dict:
        """The fault stream and counters, for run checkpoints: a run
        resumed from them injects the faults the uninterrupted run
        would have."""
        state = {name: getattr(self, name) for name in self._COUNTERS}
        state["stream"] = self._faults.state()
        return state

    def restore_fault_state(self, state: dict) -> None:
        """Continue from a :meth:`fault_state`."""
        self._faults.restore(state["stream"])
        for name in self._COUNTERS:
            setattr(self, name, int(state[name]))

    def _probe(self) -> None:
        """One fault decision per probe: every probe of the measurement
        layer (a LUT cell, one network run) passes through here before
        its time is read."""
        self.probes += 1
        forced = self._faults.fail_first > 0
        kind = self._faults.decide(
            (
                ("timeout", self.timeout_rate),
                ("failure", self.failure_rate),
            ),
            fail_first_outcome="failure",
        )
        if kind == "timeout":
            self.injected_timeouts += 1
            raise ProbeTimeout(f"injected timeout (probe #{self.probes})")
        if kind == "failure":
            self.injected_failures += 1
            suffix = ", fail_first" if forced else ""
            raise ProbeError(
                f"injected failure (probe #{self.probes}{suffix})"
            )
