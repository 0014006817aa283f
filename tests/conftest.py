"""Shared fixtures for the test suite."""

import multiprocessing
import warnings

import numpy as np
import pytest

from repro.data import BatchLoader, SyntheticImageDataset
from repro.space import SearchSpace, imagenet_a, imagenet_b, proxy
from repro.supernet import Supernet


@pytest.fixture(scope="session")
def space_a():
    """Paper-scale search space with the HSCoNet-A channel layout."""
    return SearchSpace(imagenet_a())


@pytest.fixture(scope="session")
def space_b():
    """Paper-scale search space with the HSCoNet-B channel layout."""
    return SearchSpace(imagenet_b())


@pytest.fixture(scope="session")
def proxy_space():
    """Tiny space for real-training tests."""
    return SearchSpace(proxy())


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small synthetic dataset (session-cached for speed)."""
    return SyntheticImageDataset.generate(
        num_classes=4,
        train_per_class=8,
        test_per_class=4,
        image_size=16,
        seed=7,
    )


@pytest.fixture(scope="session")
def tiny_space():
    """A very small search space matched to the 16x16 tiny dataset."""
    from repro.space import SpaceConfig, StageSpec

    return SearchSpace(
        SpaceConfig(
            name="tiny",
            input_size=16,
            num_classes=4,
            stem_channels=4,
            stages=(StageSpec(2, 8), StageSpec(2, 16)),
            head_channels=16,
        )
    )


@pytest.fixture()
def tiny_supernet(tiny_space):
    return Supernet(tiny_space, seed=0)


@pytest.fixture()
def tiny_loader(tiny_dataset):
    return BatchLoader(
        tiny_dataset.train_x, tiny_dataset.train_y, batch_size=8, seed=0
    )


class ChildProcessLeftWarning(UserWarning):
    """A test left ``multiprocessing`` children running after teardown."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    """Warn, naming the test, when it leaves live child processes.

    A forked child that outlives its test can keep the whole run from
    exiting after the last test passes; this names the test that left
    it. Here it only reports; the CI tests job turns the warning into
    an error (``-W error::tests.conftest.ChildProcessLeftWarning``).
    """
    yield
    children = multiprocessing.active_children()
    if children:
        pids = ", ".join(str(child.pid) for child in children)
        warnings.warn(
            f"{item.nodeid} left {len(children)} child process(es) "
            f"running: pid {pids}",
            ChildProcessLeftWarning,
        )
