"""Crash-safe run state: atomic artifacts, checkpoints, bit-exact resume.

The subsystem behind ``repro search --resume RUN_DIR``:

* :mod:`repro.runstate.atomic` — write-then-rename file emission, used
  by every JSON artifact the stack produces.
* :mod:`repro.runstate.manifest` — the versioned ``manifest.json``
  schema, validated when a run directory is opened for resume.
* :mod:`repro.runstate.rundir` — :class:`RunDir` (checkpoint storage
  with self-checksummed files) and :class:`PhaseCheckpoint` (the handle
  search components save intra-phase progress through).
* :mod:`repro.runstate.rng` — numpy generator state capture/restore,
  the piece that makes a resumed run *bit-exact* with an uninterrupted
  one rather than merely "close".

See ``docs/robustness.md`` for the run-directory layout and the resume
semantics contract.
"""

from repro.runstate.atomic import (
    atomic_path,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    sha256_text,
)
from repro.runstate.manifest import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    RunManifest,
    validate_manifest_dict,
)
from repro.runstate.rng import (
    generator_state,
    restore_generator,
    set_generator_state,
)
from repro.runstate.rundir import (
    CorruptCheckpointError,
    MemoryCheckpoint,
    PhaseCheckpoint,
    RunDir,
    RunStateError,
)

__all__ = [
    "atomic_path",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "sha256_text",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "RunManifest",
    "validate_manifest_dict",
    "generator_state",
    "restore_generator",
    "set_generator_state",
    "CorruptCheckpointError",
    "MemoryCheckpoint",
    "PhaseCheckpoint",
    "RunDir",
    "RunStateError",
]
