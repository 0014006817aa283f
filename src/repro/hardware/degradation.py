"""Graceful-degradation accounting for the measurement layer.

When probes fail for good (retries exhausted), the stack degrades
rather than crashes: failed LUT cells are omitted and later served by
the nearest present cell, failed bias-calibration measurements are
dropped from the Eq. 3 average. Every such
concession is recorded here, so a run that degraded *says so* — in the
artifact, the summary line, and the logs — instead of silently
returning slightly different numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

MAX_EVENTS = 50


@dataclass
class DegradationReport:
    """Counters + bounded event log of every degradation concession.

    Attributes
    ----------
    probe_retries:
        Extra probe attempts beyond the first (successful recoveries
        included).
    probe_failures:
        Probes that exhausted their retry budget.
    missing_cells:
        LUT cells absent after the build because their probe failed.
    fallback_cells:
        Distinct missing cells that have been served by a nearest-cell
        fallback at least once.
    fallback_lookups:
        Individual lookups answered by a fallback value.
    dropped_measurements:
        End-to-end measurement sessions abandoned after retries
        (e.g. a bias-calibration architecture skipped).
    events:
        Human-readable log, capped at ``MAX_EVENTS`` entries (the
        counter keeps counting past the cap).
    """

    probe_retries: int = 0
    probe_failures: int = 0
    missing_cells: int = 0
    fallback_cells: int = 0
    fallback_lookups: int = 0
    dropped_measurements: int = 0
    events: List[str] = field(default_factory=list)

    _COUNTERS = (
        "probe_retries",
        "probe_failures",
        "missing_cells",
        "fallback_cells",
        "fallback_lookups",
        "dropped_measurements",
    )

    def record_event(self, message: str) -> None:
        if len(self.events) < MAX_EVENTS:
            self.events.append(message)

    def merge(self, other: "DegradationReport") -> None:
        """Fold another report's counters and events into this one."""
        for name in self._COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for event in other.events:
            self.record_event(event)

    def degraded(self) -> bool:
        """Whether anything at all was conceded."""
        return any(getattr(self, name) for name in self._COUNTERS)

    def __bool__(self) -> bool:
        return self.degraded()

    def summary(self) -> str:
        if not self.degraded():
            return "no degradation"
        parts = [
            f"{name.replace('_', ' ')}: {getattr(self, name)}"
            for name in self._COUNTERS
            if getattr(self, name)
        ]
        return "degraded — " + ", ".join(parts)

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self._COUNTERS}
        out["events"] = list(self.events)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "DegradationReport":
        report = cls(**{k: int(payload.get(k, 0)) for k in cls._COUNTERS})
        report.events = [str(e) for e in payload.get("events", [])][:MAX_EVENTS]
        return report

    def restore(self, payload: dict) -> None:
        """Overwrite this report in place (for shared-reference holders)."""
        restored = self.from_dict(payload)
        for name in self._COUNTERS:
            setattr(self, name, getattr(restored, name))
        self.events = restored.events
