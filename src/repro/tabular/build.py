"""Recipe-faithful tabulation: one build, every device, batch paths.

:func:`tabulate` precomputes the columns a replay needs so that the
replayed search is *bit-identical* to the live one. That only works if
the table is built by the very recipes the live searchers run, so two
named recipes ship:

* ``"front"`` — the ``repro front`` / serving recipe: stage 1 of the
  :func:`repro.serve.pipeline.front_pipeline` preset of
  :class:`~repro.core.search.HSCoNAS` (2 LUT samples per cell, 25
  calibration architectures, calibration at ``seed + 1``) with
  :class:`~repro.accuracy.AccuracySurrogate`'s proxy accuracy;
* ``"search"`` — the HSCoNAS pipeline recipe: stage 1
  (:meth:`repro.core.search.HSCoNAS.build_predictor`) at the
  :class:`~repro.core.search.HSCoNASConfig` defaults, with the
  space-calibrated ``AccuracySurrogate.for_space`` accuracy.

Both recipes' predictors are built by that one stage-1 method, so a
table records exactly what the live search it replays would compute.

Accuracy evaluation fans out through
:func:`repro.parallel.create_backend` (``workers``/``backend`` are
wall-clock-only knobs) and latency columns come from one
``predict_many`` gather per device — never a per-architecture loop.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.space.search_space import SearchSpace
from repro.tabular.table import (
    TabularBenchmark,
    decode_indices,
    resolve_indices,
)

RECIPES = ("front", "search")


def recipe_predictor(
    recipe: str,
    space: SearchSpace,
    device_name: str,
    seed: int,
    workers: int = 0,
    backend: str = "auto",
):
    """The latency predictor a named recipe uses for one device."""
    if recipe == "front":
        # Lazy import: serve.pipeline is a consumer of this package too.
        from repro.serve.pipeline import build_front_predictor

        return build_front_predictor(
            space, device_name, seed, workers=workers, backend=backend
        )
    if recipe == "search":
        from repro.core.search import HSCoNAS, HSCoNASConfig
        from repro.hardware.calibration import calibrated_devices

        config = HSCoNASConfig(seed=seed, workers=workers, backend=backend)
        device = calibrated_devices()[device_name]
        return HSCoNAS(space, device, config).build_predictor()
    raise ValueError(
        f"unknown recipe {recipe!r}; expected one of {RECIPES}"
    )


def recipe_surrogate(recipe: str, space: SearchSpace):
    """The accuracy model a named recipe scores with."""
    from repro.accuracy import AccuracySurrogate

    if recipe == "front":
        return AccuracySurrogate(space)
    if recipe == "search":
        return AccuracySurrogate.for_space(space)
    raise ValueError(
        f"unknown recipe {recipe!r}; expected one of {RECIPES}"
    )


def tabulate(
    space: SearchSpace,
    devices: Sequence[str] = ("edge",),
    *,
    seed: int = 0,
    num_archs: Optional[int] = None,
    recipe: str = "front",
    workers: int = 0,
    backend: str = "auto",
) -> TabularBenchmark:
    """Precompute a multi-device :class:`TabularBenchmark`.

    ``num_archs=None`` tabulates exhaustively (small spaces only);
    otherwise that many architectures are sampled without replacement.
    The result replays bit-identically against the matching live
    recipe at the same ``seed``, for every listed device.
    """
    if recipe not in RECIPES:
        raise ValueError(
            f"unknown recipe {recipe!r}; expected one of {RECIPES}"
        )
    devices = list(devices)
    if not devices:
        raise ValueError("at least one device is required")
    indices, exhaustive = resolve_indices(space, num_archs, seed)
    archs = decode_indices(space, indices)

    surrogate = recipe_surrogate(recipe, space)

    from repro.parallel.backend import create_backend

    with create_backend(
        backend, surrogate.proxy_accuracy_many, workers=workers
    ) as pool:
        accuracy = pool.map(archs)

    latency = {}
    for device_name in devices:
        predictor = recipe_predictor(
            recipe, space, device_name, seed,
            workers=workers, backend=backend,
        )
        latency[device_name] = [
            float(v) for v in predictor.predict_many(archs)
        ]

    return TabularBenchmark(
        space,
        indices=indices,
        accuracy=accuracy,
        latency=latency,
        exhaustive=exhaustive,
        primary_device=devices[0],
        recipe=recipe,
        build_seed=seed,
    )
