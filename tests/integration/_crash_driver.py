"""Subprocess driver for the crash/resume integration tests.

Runs the quick-config HSCoNAS pipeline against a checkpointed run
directory and writes a result fingerprint as JSON. With ``--crash
PHASE:N:SIGNAME`` the process sends itself the named signal right after
the Nth checkpoint save of that phase lands — a real process death at a
checkpoint boundary, which is exactly the window an external ``kill -9``
hits. The test harness then re-invokes the driver with the same run
directory (no --crash) and asserts the fingerprint matches an
uninterrupted run bit-for-bit. A run directory that cannot be resumed
ends the driver as it ends ``repro --resume``: one ``error:`` line on
stderr and exit status 2.

Usage:
    python _crash_driver.py RUN_DIR OUT_JSON --workers N \
        [--crash search:2:SIGKILL]
"""

import argparse
import os
import signal
import sys
from pathlib import Path

from repro.core import EvolutionConfig, HSCoNAS, HSCoNASConfig
from repro.hardware import get_device
from repro.runstate import RunDir, RunStateError
from repro.runstate.atomic import atomic_write_json
from repro.space import SearchSpace, proxy


def make_config(workers: int) -> HSCoNASConfig:
    # Mirrors the quick_config fixture in tests/core/test_search_pipeline.py.
    return HSCoNASConfig(
        target_ms=1.3,
        lut_samples_per_cell=1,
        bias_calibration_archs=8,
        quality_samples=10,
        evolution=EvolutionConfig(
            generations=4, population_size=12, num_parents=5
        ),
        seed=0,
        workers=workers,
    )


def arm_crash(spec: str) -> None:
    phase, after_saves, signame = spec.split(":")
    sig = getattr(signal, signame)
    remaining = {"n": int(after_saves)}
    original = RunDir.save_checkpoint

    def crashing_save(self, ph, payload, complete=False):
        original(self, ph, payload, complete=complete)
        if ph == phase:
            remaining["n"] -= 1
            if remaining["n"] == 0:
                # The checkpoint is on disk; die before any further
                # progress, like a power cut between two saves.
                os.kill(os.getpid(), sig)

    RunDir.save_checkpoint = crashing_save


def fingerprint(result) -> dict:
    return {
        "arch": result.arch.to_dict(),
        "top1_error": result.top1_error,
        "top5_error": result.top5_error,
        "predicted_latency_ms": result.predicted_latency_ms,
        "measured_latency_ms": result.measured_latency_ms,
        "bias_ms": result.bias_ms,
        "cache_stats": result.search.cache_stats,
        "generations": [
            {"index": g.index, "best_score": g.best.score}
            for g in result.search.generations
        ],
        "shrink": result.shrink.to_dict() if result.shrink else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("run_dir", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--crash", default=None, metavar="PHASE:N:SIGNAME")
    args = parser.parse_args()

    if args.crash:
        arm_crash(args.crash)

    config = make_config(args.workers)
    space = SearchSpace(proxy())
    run_config = {"target_ms": config.target_ms, "seed": config.seed}
    try:
        if args.run_dir.exists():
            run_state = RunDir.open(
                args.run_dir, expect_kind="search", expect_config=run_config
            )
        else:
            run_state = RunDir.create(
                args.run_dir, "search", run_config, HSCoNAS.PHASES
            )
        result = HSCoNAS(space, get_device("gpu"), config).run(
            run_state=run_state
        )
    except RunStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    atomic_write_json(args.out, fingerprint(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
