"""The run-directory manifest: what a run is and how far it got.

One ``manifest.json`` sits at the root of every run directory. It names
the manifest schema version, the kind of run (``search``, ``shrink``,
``front``), the configuration fingerprint the run was started with, and
the ordered list of pipeline phases with their completion status. The
per-phase *state* lives in separate self-checksummed checkpoint files
(see :mod:`repro.runstate.rundir`); the manifest only records identity
and progress, which keeps its update window tiny and its validation
cheap — the properties ``--resume`` relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
CHECKPOINT_DIR = "checkpoints"
CHECKPOINT_FORMAT = 1

PHASE_PENDING = "pending"
PHASE_RUNNING = "running"
PHASE_COMPLETE = "complete"
PHASE_STATUSES = (PHASE_PENDING, PHASE_RUNNING, PHASE_COMPLETE)

RUN_KINDS = ("search", "shrink", "front", "serve", "custom")


def checkpoint_relpath(phase: str) -> str:
    """Manifest-relative path of a phase's checkpoint file."""
    return f"{CHECKPOINT_DIR}/{phase}.json"


@dataclass
class RunManifest:
    """In-memory form of ``manifest.json``."""

    kind: str
    config: Dict
    phase_order: List[str]
    version: int = MANIFEST_VERSION
    phases: Dict[str, Dict] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for phase in self.phase_order:
            self.phases.setdefault(
                phase,
                {"status": PHASE_PENDING, "file": checkpoint_relpath(phase)},
            )

    def status(self, phase: str) -> str:
        return self.phases[phase]["status"]

    def set_status(self, phase: str, status: str) -> None:
        if status not in PHASE_STATUSES:
            raise ValueError(f"unknown phase status {status!r}")
        if phase not in self.phases:
            raise KeyError(f"phase {phase!r} is not part of this run")
        self.phases[phase]["status"] = status

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "kind": self.kind,
            "config": self.config,
            "phase_order": list(self.phase_order),
            "phases": {k: dict(v) for k, v in self.phases.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        problems = validate_manifest_dict(payload)
        if problems:
            raise ValueError("; ".join(problems))
        return cls(
            kind=payload["kind"],
            config=dict(payload["config"]),
            phase_order=list(payload["phase_order"]),
            version=int(payload["version"]),
            phases={k: dict(v) for k, v in payload["phases"].items()},
        )


def validate_manifest_dict(payload: object) -> List[str]:
    """Schema/consistency problems of a raw manifest payload.

    Returns human-readable problem strings (empty = valid);
    :meth:`RunManifest.from_dict` joins them into one error.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["manifest payload is not a JSON object"]
    version = payload.get("version")
    if not isinstance(version, int):
        problems.append("missing or non-integer 'version'")
    elif version != MANIFEST_VERSION:
        problems.append(
            f"unsupported manifest version {version} "
            f"(this build reads version {MANIFEST_VERSION})"
        )
    kind = payload.get("kind")
    if not isinstance(kind, str) or not kind:
        problems.append("missing 'kind'")
    elif kind not in RUN_KINDS:
        problems.append(f"unknown run kind {kind!r} (expected one of {RUN_KINDS})")
    if not isinstance(payload.get("config"), dict):
        problems.append("missing 'config' object")

    phase_order = payload.get("phase_order")
    if (
        not isinstance(phase_order, list)
        or not phase_order
        or not all(isinstance(p, str) and p for p in phase_order)
    ):
        problems.append("'phase_order' must be a non-empty list of phase names")
        return problems
    if len(set(phase_order)) != len(phase_order):
        problems.append("'phase_order' contains duplicate phase names")

    phases = payload.get("phases")
    if not isinstance(phases, dict):
        problems.append("missing 'phases' object")
        return problems
    for name in phase_order:
        if name not in phases:
            problems.append(f"phase {name!r} is in phase_order but has no entry")
    for name, entry in phases.items():
        if name not in phase_order:
            problems.append(f"phase {name!r} has an entry but is not in phase_order")
            continue
        if not isinstance(entry, dict):
            problems.append(f"phase {name!r} entry is not an object")
            continue
        status = entry.get("status")
        if status not in PHASE_STATUSES:
            problems.append(
                f"phase {name!r} has invalid status {status!r} "
                f"(expected one of {PHASE_STATUSES})"
            )
        if not isinstance(entry.get("file"), str):
            problems.append(f"phase {name!r} is missing its checkpoint 'file'")

    # Phase ordering: progress is monotone along phase_order — once a
    # phase is not complete, no later phase may be complete, and at most
    # one phase can be mid-flight.
    statuses = [
        phases.get(name, {}).get("status")
        for name in phase_order
        if isinstance(phases.get(name), dict)
    ]
    seen_incomplete = False
    for name, status in zip(phase_order, statuses):
        if status != PHASE_COMPLETE and status in PHASE_STATUSES:
            seen_incomplete = True
        elif status == PHASE_COMPLETE and seen_incomplete:
            problems.append(
                f"phase ordering violated: {name!r} is complete but an "
                "earlier phase is not"
            )
    running = [n for n, s in zip(phase_order, statuses) if s == PHASE_RUNNING]
    if len(running) > 1:
        problems.append(
            f"more than one phase marked running: {', '.join(running)}"
        )
    return problems
