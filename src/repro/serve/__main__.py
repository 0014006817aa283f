"""``python -m repro.serve`` — the daemon entry point.

Binds, restores/precomputes warm fronts, prints one ``listening on``
line, then serves until SIGTERM/SIGINT, draining in-flight requests
and persisting the front cache before exiting 0. State problems (a
corrupt snapshot, a state directory started under different settings)
exit 2 with a one-line message, matching the CLI's contract.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.parallel.backend import BACKEND_NAMES
from repro.runstate import RunStateError
from repro.serve.config import ServeConfig, warm_query_from_spec
from repro.serve.server import run_server


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.serve",
        description="search-as-a-service daemon (see docs/serving.md)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port; 0 (default) binds an ephemeral port, printed "
             "at startup and recorded in the state dir's endpoint.json",
    )
    parser.add_argument(
        "--backend", choices=BACKEND_NAMES, default="auto",
        help="evaluation backend for cache-missing front computations; "
             "results are bit-identical either way",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="evaluation worker processes; 0 = serial (the default)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=64, metavar="N",
        help="LRU cap on cached fronts (default 64); 0 = unbounded",
    )
    parser.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="crash-safe state directory: fronts persist atomically "
             "and reload on restart (repro.runstate)",
    )
    parser.add_argument(
        "--warm", action="append", default=[], metavar="DEV:LAYOUT[:SEED]",
        help="precompute this front before accepting traffic "
             "(repeatable), e.g. --warm edge:a --warm gpu:a:7",
    )
    parser.add_argument(
        "--table", default=None, metavar="DIR",
        help="tabular artifact directory (repro tabulate); covered "
             "queries replay from its columns — same bytes, "
             "milliseconds instead of a live search",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-request access logs (metrics still record)",
    )
    overload = parser.add_argument_group(
        "overload resilience (docs/robustness.md)"
    )
    overload.add_argument(
        "--max-inflight", type=int, default=0, metavar="N",
        help="max concurrently-computing query requests; 0 (default) "
             "= unlimited; beyond it requests queue then shed with "
             "a deterministic 503 + Retry-After",
    )
    overload.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="admission queue slots behind --max-inflight (default 16)",
    )
    overload.add_argument(
        "--queue-timeout", type=float, default=30.0, metavar="S",
        help="max seconds a request waits for admission (default 30)",
    )
    overload.add_argument(
        "--retry-after", type=int, default=1, metavar="S",
        help="Retry-After seconds on shed responses (default 1)",
    )
    overload.add_argument(
        "--breaker-failures", type=int, default=5, metavar="N",
        help="consecutive live-computation failures that open the "
             "circuit breaker (default 5)",
    )
    overload.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="S",
        help="seconds the breaker stays open before a half-open "
             "trial (default 30)",
    )
    overload.add_argument(
        "--hang-timeout", type=float, default=None, metavar="S",
        help="live computations slower than this count as breaker "
             "failures even when they return (default: no budget)",
    )
    overload.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="chaos-injection spec for the resilience harness, e.g. "
             "'seed=7,error=0.3,burst=2,hang=0.1,hang_s=2'; faults "
             "live computations only, never warmup or replay",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            backend=args.backend,
            workers=args.workers,
            front_cache_size=args.cache_size or None,
            state_dir=args.state_dir,
            warm=tuple(warm_query_from_spec(s) for s in args.warm),
            table=args.table,
            quiet=args.quiet,
            max_inflight=args.max_inflight or None,
            queue_depth=args.queue_depth,
            queue_timeout_s=args.queue_timeout,
            retry_after_s=args.retry_after,
            breaker_failures=args.breaker_failures,
            breaker_cooldown_s=args.breaker_cooldown,
            hang_timeout_s=args.hang_timeout,
            chaos=args.chaos,
        )
        return run_server(config)
    except RunStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
