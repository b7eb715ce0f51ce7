"""End-to-end fault-injection sweep (:mod:`repro.testing.faults`).

Each scenario drives the real CLI in a subprocess (or the in-process
pool hooks, for worker death) and asserts the typed exit-code
contract: faults surface as one-line diagnostics and partial reports,
never tracebacks — and interrupted runs flush their trace.  The sweep runs once per module;
each test reports one scenario, so a regression names its fault.
"""

import sys

import pytest

from repro.testing.faults import SCENARIOS, main, run_suite

pytestmark = pytest.mark.skipif(
    sys.platform.startswith("win"),
    reason="signal-delivery scenarios need POSIX semantics")


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("faults")
    outcomes = run_suite(workdir=str(workdir))
    return {outcome.scenario: outcome for outcome in outcomes}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario(sweep, name):
    outcome = sweep[name]
    assert outcome.passed, outcome.line()


def test_sweep_covers_the_exit_code_surface(sweep):
    codes = {code for outcome in sweep.values()
             for code in outcome.expected_exit}
    assert {0, 1, 2, 3, 65, 130} <= codes


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_suite(["no-such-fault"])


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out
