"""Chaos harness: seeded hangs, crashes, slow-downs, and error bursts.

The online counterpart of :class:`repro.hardware.faults.FlakyDevice`:
where that injects probe faults under the *measurement* layer, this
module injects faults under the *serving* stack. One
:class:`ChaosInjector`, driven by a
:class:`repro.hardware.faults.FaultStream` so every fault sequence is
seeded and replayable, serves both layers:

* :meth:`ChaosInjector.inject` faults a front computation — the daemon
  calls it inside ``SearchService._compute`` (dispatch layer);
* :meth:`ChaosInjector.transport_hook` is a
  :class:`repro.serve.ServeClient` ``fault_hook`` that faults each
  retried request attempt (HTTP layer).

The ``serve-chaos`` CI job asserts *deterministic*
shedding/degradation under a fixed chaos seed.

Specs are compact strings so the daemon can be started straight into a
storm: ``--chaos "seed=7,error=0.3,burst=2,hang=0.1,hang_s=2"``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from http.client import RemoteDisconnected
from typing import Callable


class ChaosError(RuntimeError):
    """An injected backend crash (the chaos analogue of ProbeError)."""


_SPEC_KEYS = {
    "seed": ("seed", int),
    "error": ("error_rate", float),
    "hang": ("hang_rate", float),
    "hang_s": ("hang_s", float),
    "slow": ("slow_rate", float),
    "slow_s": ("slow_s", float),
    "reset": ("reset_rate", float),
    "burst": ("burst", int),
    "fail_first": ("fail_first", int),
}


@dataclass(frozen=True)
class ChaosSpec:
    """What to inject, how often, and from which seed.

    Rates are per dispatch decision: ``error_rate`` raises
    :class:`ChaosError` (in bursts of ``burst`` consecutive
    dispatches), ``hang_rate`` stalls the calling thread for ``hang_s``
    seconds (``0`` = forever: nothing in the program bounds that stall,
    so only a caller-side timeout ends it), ``slow_rate``
    sleeps ``slow_s`` then proceeds. ``reset_rate`` applies to the
    transport stream (:meth:`ChaosInjector.transport_fault`), and
    ``fail_first`` deterministically faults the first N transport
    attempts — the fail-twice-then-succeed client-retry fixture.
    """

    seed: int = 0
    error_rate: float = 0.0
    hang_rate: float = 0.0
    hang_s: float = 30.0
    slow_rate: float = 0.0
    slow_s: float = 0.1
    reset_rate: float = 0.0
    burst: int = 1
    fail_first: int = 0

    def __post_init__(self) -> None:
        for rate in (self.error_rate, self.hang_rate, self.slow_rate,
                     self.reset_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("chaos rates must be in [0, 1]")
        if self.error_rate + self.hang_rate + self.slow_rate > 1.0:
            raise ValueError("error + hang + slow rates must sum to <= 1")
        if self.hang_s < 0 or self.slow_s < 0:
            raise ValueError("hang_s and slow_s must be >= 0")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.fail_first < 0:
            raise ValueError("fail_first must be >= 0")

    @classmethod
    def parse(cls, spec: str) -> "ChaosSpec":
        """``"error=0.3,burst=2,hang=0.1,hang_s=2,seed=7"`` -> spec."""
        kwargs = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            if not sep or key.strip() not in _SPEC_KEYS:
                known = ", ".join(sorted(_SPEC_KEYS))
                raise ValueError(
                    f"bad chaos spec item {part!r}; expected key=value "
                    f"with key in {{{known}}}"
                )
            field_name, cast = _SPEC_KEYS[key.strip()]
            try:
                kwargs[field_name] = cast(raw.strip())
            except ValueError as exc:
                raise ValueError(
                    f"bad chaos spec value in {part!r}: {exc}"
                ) from exc
        return cls(**kwargs)

    def injector(
        self, sleep: Callable[[float], None] = time.sleep
    ) -> "ChaosInjector":
        return ChaosInjector(self, sleep=sleep)


class ChaosInjector:
    """The seeded fault engine one harness run shares.

    Thread-safe: decisions (rng draws, burst bookkeeping) happen under
    a lock; the injected sleeps happen outside it so a hang stalls only
    the dispatch it was injected into.
    """

    def __init__(
        self, spec: ChaosSpec, sleep: Callable[[float], None] = time.sleep
    ):
        # Local import: keeps repro.resilience a stdlib-only leaf (the
        # worker pool imports it, and the fault-stream home package
        # pulls in the whole hardware model).
        from repro.hardware.faults import FaultStream

        self.spec = spec
        self._sleep = sleep
        self._lock = threading.Lock()
        self._stream = FaultStream(seed=spec.seed)
        # The transport stream is separate (seed offset by 1) so HTTP
        # faults do not perturb the backend fault sequence.
        self._transport = FaultStream(
            seed=spec.seed + 1, fail_first=spec.fail_first
        )
        self._burst_left = 0
        # Observability.
        self.dispatches = 0
        self.injected_errors = 0
        self.injected_hangs = 0
        self.injected_slowdowns = 0
        self.injected_resets = 0

    # -- backend-layer faults -----------------------------------------------------

    def inject(self) -> None:
        """One dispatch decision: raise, stall, slow down, or pass."""
        with self._lock:
            self.dispatches += 1
            if self._burst_left > 0:
                self._burst_left -= 1
                self.injected_errors += 1
                raise ChaosError(
                    f"injected error burst (dispatch #{self.dispatches})"
                )
            kind = self._stream.decide(
                (
                    ("error", self.spec.error_rate),
                    ("hang", self.spec.hang_rate),
                    ("slow", self.spec.slow_rate),
                )
            )
            if kind == "error":
                self._burst_left = self.spec.burst - 1
                self.injected_errors += 1
                raise ChaosError(
                    f"injected error (dispatch #{self.dispatches})"
                )
            if kind == "hang":
                self.injected_hangs += 1
            elif kind == "slow":
                self.injected_slowdowns += 1
        if kind == "hang":
            if self.spec.hang_s > 0:
                self._sleep(self.spec.hang_s)
            else:
                # An intentionally infinite stall of the calling thread
                # — in the daemon, the request thread running
                # SearchService._compute — so a client sees a request
                # that never returns. RL109 is accepted here: bounding
                # the wait would turn the scenario into hang_s > 0.
                threading.Event().wait()  # repro-lint: disable=RL109
        elif kind == "slow":
            self._sleep(self.spec.slow_s)

    # -- transport-layer faults ---------------------------------------------------

    def transport_fault(self) -> None:
        """Maybe raise a transient connection fault (seeded stream).

        Alternates the two transient shapes a real daemon restart
        produces — ``ConnectionResetError`` and ``RemoteDisconnected``
        — so client retry handling is exercised against both.
        """
        with self._lock:
            kind = self._transport.decide(
                (("reset", self.spec.reset_rate),),
                fail_first_outcome="reset",
            )
            if kind != "reset":
                return
            self.injected_resets += 1
            count = self.injected_resets
        if count % 2 == 0:
            raise RemoteDisconnected(f"injected disconnect (#{count})")
        raise ConnectionResetError(f"injected reset (#{count})")

    def transport_hook(self) -> Callable[[], None]:
        """The :class:`repro.serve.ServeClient` ``fault_hook`` form."""
        return self.transport_fault

    # -- observability ------------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "dispatches": self.dispatches,
                "injected_errors": self.injected_errors,
                "injected_hangs": self.injected_hangs,
                "injected_slowdowns": self.injected_slowdowns,
                "injected_resets": self.injected_resets,
            }


__all__ = [
    "ChaosError",
    "ChaosInjector",
    "ChaosSpec",
]
