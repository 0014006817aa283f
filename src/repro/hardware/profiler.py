"""On-device measurement methodology: warmup + repeats + robust median.

Real latency profiling discards warmup iterations (JIT, cache warming,
clock ramp) and aggregates repeated runs. The simulated devices add
per-measurement noise, so the same methodology applies here and the
profiler is the single place that owns it.

The profiler is also where probe faults are fought: with a
:class:`~repro.hardware.faults.RetryPolicy` each individual device run
is retried under backoff, and with ``mad_threshold`` the aggregation
switches from a plain median to a median with MAD outlier rejection —
runs further than ``threshold`` scaled-MADs from the median are dropped
before the final median is taken, which is the standard defence against
the occasional wildly-throttled run.
"""

from __future__ import annotations

import functools
from typing import List, Optional

import numpy as np

from repro.hardware.degradation import DegradationReport
from repro.hardware.device import DeviceModel
from repro.hardware.faults import ProbeError, RetryPolicy, run_with_retry
from repro.hardware.ledger import MeasurementLedger
from repro.space.architecture import Architecture
from repro.space.search_space import SearchSpace


def robust_median(runs: List[float], mad_threshold: Optional[float]) -> float:
    """Median of ``runs``, optionally after MAD outlier rejection.

    With a threshold, runs where ``|x - median| > threshold * 1.4826 *
    MAD`` are discarded and the median of the survivors is returned
    (1.4826 scales the MAD to a normal-consistent sigma). A zero MAD
    (all runs identical) keeps everything.
    """
    values = np.asarray(runs, dtype=np.float64)
    med = float(np.median(values))
    if mad_threshold is None or len(values) < 3:
        return med
    mad = float(np.median(np.abs(values - med)))
    if mad <= 0.0:
        return med
    keep = np.abs(values - med) <= mad_threshold * 1.4826 * mad
    if not keep.any():  # pragma: no cover - threshold < ~0.67 only
        return med
    return float(np.median(values[keep]))


class OnDeviceProfiler:
    """Measures architecture latency the way a practitioner would.

    Parameters
    ----------
    device:
        Target device model.
    warmup:
        Measurements discarded before aggregation.
    repeats:
        Measurements aggregated (by median) per architecture.
    seed:
        Seed of the measurement-noise stream.
    ledger:
        Optional cost ledger; every measurement session is recorded so
        the search-cost claims are checkable.
    retry:
        Optional :class:`~repro.hardware.faults.RetryPolicy` applied to
        every individual device run. Retry backoff jitter draws from a
        dedicated stream (``seed`` spawn-keyed away from the noise
        stream), so enabling retries never changes a healthy device's
        measurements.
    mad_threshold:
        Optional MAD outlier-rejection threshold for the per-session
        aggregation (see :func:`robust_median`). ``None`` keeps the
        plain median.
    degradation:
        Optional shared :class:`DegradationReport`; retry and failure
        accounting lands there (a private report is kept otherwise).
    """

    def __init__(
        self,
        device: DeviceModel,
        warmup: int = 3,
        repeats: int = 5,
        seed: int = 0,
        ledger: Optional[MeasurementLedger] = None,
        retry: Optional[RetryPolicy] = None,
        mad_threshold: Optional[float] = None,
        degradation: Optional[DegradationReport] = None,
    ):
        if warmup < 0 or repeats < 1:
            raise ValueError("warmup must be >= 0 and repeats >= 1")
        if mad_threshold is not None and mad_threshold <= 0:
            raise ValueError("mad_threshold must be positive")
        self.device = device
        self.warmup = warmup
        self.repeats = repeats
        self.ledger = ledger
        self.retry = retry
        self.mad_threshold = mad_threshold
        self.degradation = (
            degradation if degradation is not None else DegradationReport()
        )
        self._rng = np.random.default_rng(seed)
        # Backoff jitter must not touch the measurement-noise stream:
        # a healthy run consumes zero draws from it, so results with and
        # without a retry policy are bit-identical.
        self._retry_rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(0x5E77,))
        )

    # -- rng checkpointing -------------------------------------------------------

    def rng_state(self) -> dict:
        """Measurement-noise stream state (for run checkpoints).

        The retry-jitter stream is deliberately excluded: it influences
        only wall-clock sleeps, never values.
        """
        from repro.runstate.rng import generator_state

        return generator_state(self._rng)

    def set_rng_state(self, state: dict) -> None:
        """Rewind the measurement-noise stream (bit-exact resume)."""
        from repro.runstate.rng import set_generator_state

        set_generator_state(self._rng, state)

    # -- measurement -------------------------------------------------------------

    def _one_run(self, network_s: float) -> float:
        """One device run of a network whose noise-free time is
        ``network_s``: a probe plus one noise draw, retried under the
        policy if one is set."""
        if self.retry is None:
            return self.device.network_probe_ms(network_s, self._rng)
        value, attempts = run_with_retry(
            functools.partial(self.device.network_probe_ms, network_s, self._rng),
            self.retry,
            rng=self._retry_rng,
        )
        self.degradation.probe_retries += attempts - 1
        return value

    def measure_ms(self, space: SearchSpace, arch: Architecture) -> float:
        """Median latency over ``repeats`` noisy runs (after warmup).

        The architecture's noise-free time is computed once per session;
        each run then pays only for its probe and its noise draw.

        Raises :class:`~repro.hardware.faults.ProbeError` if any run
        exhausts its retries — a single measurement session either
        completes in full or fails loudly (callers that can degrade,
        like bias calibration, catch and drop the session).
        """
        if self.ledger is not None:
            self.ledger.record_measurement(runs=self.warmup + self.repeats)
        network_s = self.device.arch_time_s(space, arch)
        for _ in range(self.warmup):
            self._one_run(network_s)
        runs = [self._one_run(network_s) for _ in range(self.repeats)]
        return robust_median(runs, self.mad_threshold)

    def measure_many_ms(
        self,
        space: SearchSpace,
        archs: List[Architecture],
        on_failure: str = "raise",
    ) -> List[float]:
        """Measure a batch of architectures.

        ``on_failure="skip"`` replaces a session that failed all its
        retries with ``NaN`` and records a dropped measurement instead
        of raising — the graceful path bias calibration uses.
        """
        if on_failure not in ("raise", "skip"):
            raise ValueError("on_failure must be 'raise' or 'skip'")
        out: List[float] = []
        for index, arch in enumerate(archs):
            try:
                out.append(self.measure_ms(space, arch))
            except ProbeError as fault:
                if on_failure == "raise":
                    raise
                self.degradation.probe_failures += 1
                self.degradation.dropped_measurements += 1
                self.degradation.record_event(
                    f"dropped measurement session #{index} after retries: "
                    f"{fault}"
                )
                out.append(float("nan"))
        return out

    def ground_truth_ms(self, space: SearchSpace, arch: Architecture) -> float:
        """Noise-free device latency (not available on real hardware;
        exposed for tests and analysis only)."""
        return self.device.latency_ms(space, arch, rng=None)
