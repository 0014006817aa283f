"""No-grad evaluation helpers for the numpy NN framework.

The framework has no autograd tape, so "no-grad" here means something
concrete: in eval mode every layer's forward must skip the allocations it
only needs for backprop (im2col column caches, saved inputs/outputs,
dropout-style masks). :func:`eval_no_grad` is the sanctioned way to enter
that mode temporarily — it snapshots each module's ``training`` flag,
clears it on the whole tree (what ``eval()`` does), and restores the
exact per-module flags on exit (a plain ``train()`` would clobber
mixed-mode trees).

:func:`assert_no_eval_caches` is the audit companion: after an eval-mode
forward it walks the module tree and fails loudly if any layer retained a
per-call cache. The test suite runs it over every layer type and the full
supernet so a future layer cannot silently regress the fast path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Tuple

from repro.nn.module import Module

#: Attribute names layers use for per-call backward caches. Persistent
#: per-layer state (im2col *workspaces*, channel masks, BN running
#: statistics) is deliberately absent: those are reused across calls and
#: are exactly what the fast path wants to keep warm.
CACHE_ATTRS: Tuple[str, ...] = (
    "_cache",
    "_x",
    "_y",
    "_mask",
    "_x_shape",
    "_left_channels",
)


@contextmanager
def eval_no_grad(module: Module) -> Iterator[Module]:
    """Temporarily put ``module`` (and descendants) in eval mode.

    Restores each module's individual ``training`` flag afterwards, so a
    tree with mixed modes round-trips exactly. Usage::

        with eval_no_grad(supernet):
            logits = supernet(images)
    """
    modules = list(module.modules())
    saved = [m.training for m in modules]
    # ``module.eval()`` would walk the tree a second time; the list
    # collected above already names every module it would reach.
    for m in modules:
        m.training = False
    try:
        yield module
    finally:
        for m, flag in zip(modules, saved):
            m.training = flag


def find_eval_caches(module: Module) -> List[str]:
    """Return ``"ClassName.attr"`` for every retained per-call cache.

    Only attributes named in :data:`CACHE_ATTRS` are inspected, and only
    non-``None`` values count: layers signal "nothing retained" by
    resetting their cache attributes to ``None`` on eval forwards.
    """
    offenders: List[str] = []
    for m in module.modules():
        for attr in CACHE_ATTRS:
            if getattr(m, attr, None) is not None:
                offenders.append(f"{type(m).__name__}.{attr}")
    return offenders


def assert_no_eval_caches(module: Module) -> None:
    """Raise ``AssertionError`` if any layer kept a backward cache.

    Call this right after an eval-mode forward; a non-empty result means
    some layer allocates backward state even when ``training`` is False,
    which defeats the no-grad fast path's memory guarantees.
    """
    offenders = find_eval_caches(module)
    if offenders:
        raise AssertionError(
            "eval-mode forward retained backward caches: "
            + ", ".join(sorted(set(offenders)))
        )
