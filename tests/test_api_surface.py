"""API surface tests: every advertised name exists and is importable."""

import importlib
import os
import pkgutil

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.bcp",
    "repro.solver",
    "repro.proofs",
    "repro.verify",
    "repro.obs",
    "repro.circuits",
    "repro.bmc",
    "repro.pipelines",
    "repro.benchgen",
    "repro.experiments",
    "repro.testing",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", None)
    assert exported, f"{package_name} lacks __all__"
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_no_duplicate_exports(package_name):
    package = importlib.import_module(package_name)
    exported = package.__all__
    assert len(exported) == len(set(exported))


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)


def test_public_callables_have_docstrings():
    """Every public callable in the top-level API is documented."""
    import repro

    undocumented = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj) and not (obj.__doc__ or "").strip():
            undocumented.append(name)
    assert not undocumented, f"undocumented: {undocumented}"


LAZY_PACKAGES = [
    "repro",
    "repro.bcp",
    "repro.proofs",
    "repro.verify",
    "repro.obs",
    "repro.obs.insight",
    "repro.solver",
]


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
class TestLazyExports:
    """Packages that import an exported name's submodule on first use."""

    def test_dir_covers_all(self, package_name):
        package = importlib.import_module(package_name)
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_raises(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match=repr(package_name)):
            package.no_such_export  # noqa: B018

    def test_star_import_binds_all(self, package_name):
        namespace = {}
        exec(f"from {package_name} import *", namespace)
        package = importlib.import_module(package_name)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name)

    def test_no_export_shadows_a_submodule(self, package_name):
        # The import system binds a loaded submodule on its package, so
        # an export of the same name would be overwritten by it.
        package = importlib.import_module(package_name)
        submodules = {info.name
                      for info in pkgutil.iter_modules(package.__path__)}
        assert not submodules & set(package.__all__)


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter; return its stdout."""
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_bare_import_loads_no_solver_or_verifier():
    assert _fresh("import sys, repro; print(sorted(m for m in sys.modules "
                  "if m.startswith(('repro.solver', 'repro.verify'))))") \
        == "[]"


def test_building_instances_loads_no_solver_or_verifier():
    assert _fresh("import sys, repro.bmc, repro.benchgen.registry; "
                  "print(sorted(m for m in sys.modules "
                  "if m.startswith(('repro.solver', 'repro.verify'))))") \
        == "[]"
