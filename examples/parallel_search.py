"""Parallel evaluation: the same search, fanned across worker processes.

Runs progressive shrinking plus the EA twice — serially and with the
multiprocess backend (:class:`~repro.parallel.WorkerPool`) — and
verifies the two runs agree bit for bit: same shrinking decisions, same
discovered architecture, same scores, same cache hit/miss accounting.
``workers`` is a pure wall-clock knob (docs/parallel.md explains why),
so the parallel run is the one to use whenever spare cores exist.

Equivalent CLI invocation:

    python -m repro search --device edge --target 34 --workers 4

Run:  python examples/parallel_search.py
"""

import os
import time

from repro.core import EvolutionConfig, HSCoNAS, HSCoNASConfig
from repro.hardware.calibration import calibrated_devices
from repro.space import SearchSpace, imagenet_a

TARGET_MS = 34.0
WORKERS = min(4, os.cpu_count() or 1)


def run(workers: int):
    space = SearchSpace(imagenet_a())
    device = calibrated_devices()["edge"]
    config = HSCoNASConfig(
        target_ms=TARGET_MS,
        seed=0,
        quality_samples=50,
        evolution=EvolutionConfig(generations=8, population_size=30,
                                  num_parents=12, seed=3),
        workers=workers,
    )
    start = time.perf_counter()
    result = HSCoNAS(space, device, config).run()
    return result, time.perf_counter() - start


def main() -> None:
    serial, serial_s = run(workers=0)
    parallel, parallel_s = run(workers=WORKERS)

    assert parallel.arch == serial.arch
    assert parallel.search.to_dict() == serial.search.to_dict()
    assert parallel.shrink.to_dict() == serial.shrink.to_dict()

    print(f"discovered architecture: {serial.arch}")
    print(f"shrink decisions match, EA history matches, "
          f"cache stats match: {serial.search.cache_stats}")
    print(f"serial: {serial_s:.1f} s   "
          f"{WORKERS} workers: {parallel_s:.1f} s   "
          f"(speedup x{serial_s / parallel_s:.2f} on "
          f"{os.cpu_count()} visible cores)")
    print("workers changed wall-clock only — every payload is identical")


if __name__ == "__main__":
    main()
