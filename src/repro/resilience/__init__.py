"""Online resilience primitives for the serving stack.

Four small, separately-testable pieces the daemon composes into its
overload story (see ``docs/robustness.md``, "Online resilience"):

* :mod:`~repro.resilience.deadline` — cooperative
  :class:`CancelToken` / :class:`DeadlineExceeded`, checked per search
  generation and per worker-pool dispatch.
* :mod:`~repro.resilience.admission` — :class:`AdmissionController`,
  a bounded in-flight limit + bounded queue with deterministic load
  shedding.
* :mod:`~repro.resilience.breaker` — :class:`CircuitBreaker`
  (closed/open/half-open) guarding live backend dispatch, with
  :class:`BreakerOpenError` driving graceful degradation.
* :mod:`~repro.resilience.chaos` — the seeded chaos harness
  (:class:`ChaosSpec` / :class:`ChaosInjector`) that the
  ``serve-chaos`` CI job drives.

None of these consume randomness on the healthy path, so a run that
never sheds, trips, or expires is bit-identical with or without them.
"""

from repro.resilience.admission import AdmissionController
from repro.resilience.breaker import (
    BreakerOpenError,
    CircuitBreaker,
    ServiceOverloadError,
)
from repro.resilience.chaos import ChaosError, ChaosInjector, ChaosSpec
from repro.resilience.deadline import CancelToken, DeadlineExceeded

__all__ = [
    "AdmissionController",
    "BreakerOpenError",
    "CancelToken",
    "ChaosError",
    "ChaosInjector",
    "ChaosSpec",
    "CircuitBreaker",
    "DeadlineExceeded",
    "ServiceOverloadError",
]
