"""The e2e benchmark's trace hooks still name real program attributes.

``benchmarks/e2e/trace.py`` wraps the functions at each layer boundary,
named by module and attribute path.  A refactor that moves a hooked
function silently zeroes the per-layer metric built on it.  These tests
read ``TARGETS`` from the source with ``ast`` (the ``benchmarks``
package is not imported) and resolve each path the way
``Recorder.patch`` does: attribute by attribute, then ``vars()`` on the
owner, so an inherited or missing attribute does not count.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACE = (Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
         / "trace.py")

# Hooks whose targets were deleted on purpose; their metrics are
# dropped at the next edit of benchmarks/e2e.
RETIRED = {("repro.verify.parallel", "planned_shards"),
           ("repro.obs", "fingerprint"),
           ("repro.obs", "HistoryStore.append")}


def trace_targets() -> tuple:
    tree = ast.parse(TRACE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TARGETS"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACE} defines no TARGETS")


LIVE = [target for target in trace_targets()
        if target[1:] not in RETIRED]


def test_targets_found():
    assert len(LIVE) >= 10


@pytest.mark.parametrize("name,module_name,path", LIVE,
                         ids=[f"{name}:{path}" for name, _, path in LIVE])
def test_target_resolves(name, module_name, path):
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
    assert owner is not None and attr in vars(owner), (
        f"e2e hook {name!r} names {module_name}.{path}, which no longer "
        "exists; its per-layer metric would read 0")
