"""Crash-safe run directories: checkpoint storage + resume semantics.

Layout (see ``docs/robustness.md``)::

    RUN_DIR/
      manifest.json             # identity + phase progress (RunManifest)
      checkpoints/<phase>.json  # self-checksummed phase state

Every file is written atomically (:mod:`repro.runstate.atomic`), and
each checkpoint carries a SHA-256 of its own record, so any crash
window leaves the directory in one of exactly two states per file: the
previous good version or the new good version. The manifest is the
*index* (which phases exist, which finished); the checkpoint files are
the *truth* for intra-phase progress — a checkpoint's own ``complete``
flag wins over the manifest status, which closes the race where a
checkpoint lands on disk but the process dies before the manifest
update. No crash window produces the reverse (a manifest that marks a
phase complete whose checkpoint is missing or in progress) or a
checkpoint that names another phase, so reading one fails in one line.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Union

from repro.runstate.atomic import atomic_write_text, sha256_text
from repro.runstate.manifest import (
    CHECKPOINT_FORMAT,
    MANIFEST_NAME,
    PHASE_COMPLETE,
    PHASE_RUNNING,
    RunManifest,
)


class RunStateError(Exception):
    """A run directory cannot be created, read, or resumed.

    The message is always a single actionable line — the CLI surfaces
    it verbatim with exit code 2.
    """


class CorruptCheckpointError(RunStateError):
    """A checkpoint file failed its self-checksum or schema check, or
    contradicts the manifest."""


def _canonical_json(record: dict) -> str:
    """The byte-stable serialization the checkpoint checksum covers."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class RunDir:
    """One crash-safe run directory (create new or open for resume)."""

    def __init__(self, path: Path, manifest: RunManifest):
        self.path = Path(path)
        self.manifest = manifest

    # -- construction -----------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        kind: str,
        config: Dict,
        phase_order: Sequence[str],
    ) -> "RunDir":
        """Initialise a fresh run directory (fails if one exists)."""
        path = Path(path)
        manifest_path = path / MANIFEST_NAME
        if manifest_path.exists():
            raise RunStateError(
                f"run directory {path} already contains a manifest; "
                "pass --resume to continue it or choose a new directory"
            )
        path.mkdir(parents=True, exist_ok=True)
        (path / "checkpoints").mkdir(exist_ok=True)
        run = cls(
            path,
            RunManifest(kind=kind, config=dict(config), phase_order=list(phase_order)),
        )
        run._write_manifest()
        return run

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        expect_kind: Optional[str] = None,
        expect_config: Optional[Dict] = None,
    ) -> "RunDir":
        """Open an existing run directory for resume.

        ``expect_config`` is compared key-by-key against the stored
        config; any mismatch aborts the resume, because continuing a
        run under different settings would silently produce a result
        that matches neither.
        """
        path = Path(path)
        manifest_path = path / MANIFEST_NAME
        if not path.exists():
            raise RunStateError(
                f"run directory {path} does not exist; "
                "pass --run-dir to start a new checkpointed run"
            )
        if not manifest_path.exists():
            raise RunStateError(
                f"{path} has no {MANIFEST_NAME} — not a run directory; "
                "pass --run-dir to start a new checkpointed run"
            )
        try:
            payload = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise RunStateError(
                f"cannot read {manifest_path}: {exc}; the manifest is "
                "corrupt — restart the run in a fresh directory"
            ) from exc
        try:
            manifest = RunManifest.from_dict(payload)
        except ValueError as exc:
            raise RunStateError(
                f"invalid manifest at {manifest_path}: {exc}"
            ) from exc
        if expect_kind is not None and manifest.kind != expect_kind:
            raise RunStateError(
                f"{path} holds a {manifest.kind!r} run, not {expect_kind!r}; "
                "resume it with the matching subcommand"
            )
        if expect_config is not None:
            for key, value in expect_config.items():
                stored = manifest.config.get(key)
                if stored != value:
                    raise RunStateError(
                        f"run directory {path} was started with "
                        f"{key}={stored!r} but this invocation passes "
                        f"{key}={value!r}; resume with the original "
                        "settings or start a new run directory"
                    )
        return cls(path, manifest)

    # -- manifest ---------------------------------------------------------------

    @property
    def config(self) -> Dict:
        return self.manifest.config

    def _write_manifest(self) -> None:
        atomic_write_text(
            self.path / MANIFEST_NAME,
            json.dumps(self.manifest.to_dict(), indent=2) + "\n",
        )

    def _checkpoint_path(self, phase: str) -> Path:
        return self.path / self.manifest.phases[phase]["file"]

    # -- checkpoints ------------------------------------------------------------

    def save_checkpoint(self, phase: str, payload: dict, complete: bool = False) -> None:
        """Atomically persist one phase's state.

        The record is self-checksummed: readers validate the embedded
        SHA-256 before trusting any field, so a torn or bit-flipped
        file is detected rather than resumed from. The manifest status
        is updated *after* the checkpoint lands — if the process dies
        between the two writes, the checkpoint's own ``complete`` flag
        still tells the resume the truth.
        """
        if phase not in self.manifest.phases:
            raise RunStateError(
                f"phase {phase!r} is not part of this run "
                f"(expected one of {self.manifest.phase_order})"
            )
        record = {
            "format": CHECKPOINT_FORMAT,
            "phase": phase,
            "complete": bool(complete),
            "payload": payload,
        }
        body = _canonical_json(record)
        envelope = {"sha256": sha256_text(body), "record": record}
        target = self._checkpoint_path(phase)
        target.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(target, json.dumps(envelope) + "\n")
        status = PHASE_COMPLETE if complete else PHASE_RUNNING
        if self.manifest.status(phase) != status:
            self.manifest.set_status(phase, status)
            self._write_manifest()

    def load_checkpoint(self, phase: str) -> Optional[dict]:
        """The validated checkpoint *record* for a phase, or ``None``.

        Raises :class:`CorruptCheckpointError` when the file fails
        validation, names another phase, or contradicts a manifest that
        marks the phase complete (file missing, or still in progress) —
        a resume must never silently continue from damaged state.
        """
        if phase not in self.manifest.phases:
            raise RunStateError(
                f"phase {phase!r} is not part of this run "
                f"(expected one of {self.manifest.phase_order})"
            )
        target = self._checkpoint_path(phase)
        marked_complete = self.manifest.status(phase) == PHASE_COMPLETE
        # A phase the manifest marks complete cannot be redone alone:
        # later phases were built on it.
        remedy = (
            "restart the run in a fresh directory"
            if marked_complete
            else f"delete it to restart the {phase!r} phase"
        )
        if not target.exists():
            if marked_complete:
                raise CorruptCheckpointError(
                    f"phase {phase!r} is marked complete but its checkpoint "
                    f"{target} is missing; {remedy}"
                )
            return None
        try:
            envelope = json.loads(target.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CorruptCheckpointError(
                f"checkpoint {target} is unreadable ({exc}); {remedy}"
            ) from exc
        record = envelope.get("record") if isinstance(envelope, dict) else None
        stated = envelope.get("sha256") if isinstance(envelope, dict) else None
        if not isinstance(record, dict) or not isinstance(stated, str):
            raise CorruptCheckpointError(
                f"checkpoint {target} has an unexpected layout; {remedy}"
            )
        actual = sha256_text(_canonical_json(record))
        if actual != stated:
            raise CorruptCheckpointError(
                f"checkpoint {target} failed its checksum (expected "
                f"{stated[:12]}…, got {actual[:12]}…); {remedy}"
            )
        if record.get("format") != CHECKPOINT_FORMAT:
            raise CorruptCheckpointError(
                f"checkpoint {target} has format {record.get('format')!r}; "
                f"this build reads format {CHECKPOINT_FORMAT}"
            )
        if record.get("phase") != phase:
            raise CorruptCheckpointError(
                f"checkpoint {target} belongs to phase "
                f"{record.get('phase')!r}, not {phase!r}; {remedy}"
            )
        if marked_complete and not record.get("complete"):
            raise CorruptCheckpointError(
                f"phase {phase!r} is marked complete but its checkpoint "
                f"{target} is still in progress; {remedy}"
            )
        return record

    def phase_complete(self, phase: str) -> bool:
        """Whether a phase finished: its checkpoint says so (the manifest
        may lag one write behind it)."""
        record = self.load_checkpoint(phase)
        return record is not None and bool(record["complete"])


class PhaseCheckpoint:
    """One phase's save/load handle, handed to a search component.

    Decouples the searchers from run-directory mechanics: a component
    only ever calls :meth:`load` once at start and :meth:`save` at each
    progress boundary. ``extra_save``/``extra_restore`` let the *owner*
    of surrounding state (the pipeline's evaluation cache, measurement
    ledger, profiler rng) piggyback that state on every checkpoint
    without the component knowing it exists.
    """

    def __init__(
        self,
        run: RunDir,
        phase: str,
        extra_save: Optional[Callable[[], dict]] = None,
        extra_restore: Optional[Callable[[dict], None]] = None,
    ):
        self.run = run
        self.phase = phase
        self._extra_save = extra_save
        self._extra_restore = extra_restore
        # The complete flag of the record last loaded or saved; None
        # until either happens.
        self._complete: Optional[bool] = None

    def load(self) -> Optional[dict]:
        """The phase payload to resume from, or ``None`` for a fresh start.

        Restores any piggybacked owner state as a side effect.
        """
        record = self.run.load_checkpoint(self.phase)
        self._complete = record is not None and bool(record["complete"])
        if record is None:
            return None
        payload = record["payload"]
        if self._extra_restore is not None and "owner_state" in payload:
            self._extra_restore(payload["owner_state"])
        return payload

    def is_complete(self) -> bool:
        """Whether the phase finished, from the record :meth:`load` or
        :meth:`save` last handled; read from the run directory only
        when neither has run."""
        if self._complete is None:
            self._complete = self.run.phase_complete(self.phase)
        return self._complete

    def save(self, payload: dict, complete: bool = False) -> None:
        if self._extra_save is not None:
            payload = dict(payload)
            payload["owner_state"] = self._extra_save()
        self.run.save_checkpoint(self.phase, payload, complete=complete)
        self._complete = bool(complete)


class MemoryCheckpoint:
    """In-memory stand-in for :class:`PhaseCheckpoint` (tests, dry runs)."""

    def __init__(self) -> None:
        self.payload: Optional[dict] = None
        self.complete = False
        self.saves = 0

    def load(self) -> Optional[dict]:
        return self.payload

    def is_complete(self) -> bool:
        return self.complete

    def save(self, payload: dict, complete: bool = False) -> None:
        # Round-trip through JSON so tests exercise exactly what a real
        # checkpoint file would preserve.
        self.payload = json.loads(json.dumps(payload))
        self.complete = bool(complete)
        self.saves += 1
