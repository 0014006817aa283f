"""Meta tests on the public API surface and documentation hygiene."""

import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro


def _all_modules():
    names = []
    for module in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if module.name.endswith("__main__"):
            continue  # importing it runs the CLI
        names.append(module.name)
    return names


class TestPublicApi:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    @pytest.mark.parametrize(
        "package",
        ["repro.nn", "repro.space", "repro.hardware", "repro.accuracy",
         "repro.core", "repro.baselines", "repro.data", "repro.train",
         "repro.supernet", "repro.analysis", "repro.report", "repro.deploy",
         "repro.serve"],
    )
    def test_subpackage_all_resolves(self, package):
        mod = importlib.import_module(package)
        assert hasattr(mod, "__all__"), package
        for name in mod.__all__:
            assert getattr(mod, name, None) is not None, (package, name)

    def test_every_module_importable(self):
        for name in _all_modules():
            importlib.import_module(name)

    def test_every_module_has_docstring(self):
        missing = []
        for name in _all_modules():
            mod = importlib.import_module(name)
            doc = (mod.__doc__ or "").strip()
            # package __init__ shims for tests are exempt; source
            # modules must explain themselves
            if not doc and not name.endswith("__main__"):
                missing.append(name)
        assert not missing, f"modules without docstrings: {missing}"

    def test_public_classes_have_docstrings(self):
        import inspect

        undocumented = []
        for package in ("repro.core", "repro.hardware", "repro.space",
                        "repro.train", "repro.deploy"):
            mod = importlib.import_module(package)
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not (obj.__doc__ or "").strip():
                        undocumented.append(f"{package}.{name}")
        assert not undocumented, undocumented

    def test_version_string(self):
        major, *_ = repro.__version__.split(".")
        assert int(major) >= 1


# Run in a fresh interpreter: the test process has long imported scipy.
_COLD_IMPORT = """
import json, sys
import repro, repro.cli, repro.serve, repro.tabular, repro.supernet
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, f"scipy imported at start-up: {loaded[:5]}"
from repro.accuracy import fit_capacity_curve
from repro.hardware import pearson, spearman
a, b = json.loads(sys.argv[1])
curve = fit_capacity_curve()
print(json.dumps([pearson(a, b), spearman(a, b), curve.floor, curve.scale, curve.gamma]))
"""


def test_start_up_imports_no_scipy_and_its_users_still_agree():
    """scipy loads only inside the three functions that need it, and
    they return what scipy returns when it is imported up front."""
    from scipy import stats

    from repro.accuracy import fit_capacity_curve

    a = [3.0, 1.5, 4.25, 1.0, 5.5, 9.0, 2.75]
    b = [2.5, 7.0, 1.75, 8.0, 2.0, 6.0, 4.5]
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _COLD_IMPORT, json.dumps([a, b])],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    curve = fit_capacity_curve()
    assert json.loads(done.stdout) == [
        float(stats.pearsonr(a, b).statistic),
        float(stats.spearmanr(a, b).statistic),
        curve.floor,
        curve.scale,
        curve.gamma,
    ]
