"""Documentation consistency checks (guard against drift)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class TestReadme:
    def test_mentions_every_example(self):
        readme = (REPO / "README.md").read_text()
        for example in sorted((REPO / "examples").glob("*.py")):
            assert example.name in readme, f"{example.name} not in README"

    def test_mentions_key_commands(self):
        readme = (REPO / "README.md").read_text()
        for command in ("python -m repro.experiments.table1",
                        "python -m repro.experiments.table2",
                        "python -m repro.experiments.table3",
                        "pytest benchmarks/ --benchmark-only",
                        "pytest tests/"):
            assert command in readme, command

    def test_links_resolve(self):
        readme = (REPO / "README.md").read_text()
        for target in ("EXPERIMENTS.md", "DESIGN.md",
                       "docs/proof_format.md", "docs/verification.md",
                       "docs/robustness.md", "docs/observability.md",
                       "docs/proof_insight.md"):
            assert target in readme
            assert (REPO / target).exists(), target

    def test_robustness_section(self):
        readme = (REPO / "README.md").read_text()
        assert "## Robustness" in readme


class TestRobustnessDoc:
    def test_error_taxonomy_is_complete(self):
        """Every ReproError subclass the library defines is documented."""
        import repro.core.exceptions as exceptions
        from repro.core.exceptions import ReproError

        doc = (REPO / "docs" / "robustness.md").read_text()
        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if (isinstance(obj, type) and issubclass(obj, ReproError)
                    and obj is not ReproError):
                assert name in doc, f"{name} missing from robustness.md"

    def test_exit_codes_documented(self):
        from repro import cli

        doc = (REPO / "docs" / "robustness.md").read_text()
        codes = {name: getattr(cli, name) for name in dir(cli)
                 if name.startswith("EXIT_")}
        assert codes  # the CLI defines typed exit codes
        for name, value in codes.items():
            assert f"| {value} " in doc, \
                f"exit code {value} ({name}) missing from robustness.md"

    def test_budget_semantics_documented(self):
        doc = (REPO / "docs" / "robustness.md").read_text()
        for term in ("max_props", "timeout", "resource_limit_exceeded",
                     "assignments + clause_visits"):
            assert term in doc

    def test_mutation_harness_documented(self):
        doc = (REPO / "docs" / "robustness.md").read_text()
        for term in ("run_differential", "ProofMutator",
                     "EXPECT_REJECT_ALL", "EXPECT_ACCEPT"):
            assert term in doc

    def test_referenced_test_files_exist(self):
        doc = (REPO / "docs" / "robustness.md").read_text()
        for piece in doc.split("`"):
            piece = piece.split("::")[0]
            if piece.startswith(("tests/", "benchmarks/")):
                assert (REPO / piece).exists(), piece


class TestObservabilityDoc:
    def test_schemas_and_flags_documented(self):
        doc = (REPO / "docs" / "observability.md").read_text()
        for term in ("repro.obs.trace/v1", "run_summary",
                     "--trace-out", "--progress",
                     "--stats", "deterministic_view",
                     "repro obs timeline", "repro_parallel_shards_total",
                     "critical path",
                     "python -m repro.obs.validate"):
            assert term in doc, term

    def test_metric_catalogue_matches_code(self):
        """Every metric name the verify layer registers is in the
        catalogue (families documented via their prefix count too)."""
        import re

        doc = (REPO / "docs" / "observability.md").read_text()
        source = ""
        for path in (REPO / "src" / "repro" / "verify").glob("*.py"):
            source += path.read_text()
        registered = set(re.findall(r'"(repro_[a-z_]+)"', source))
        documented = set(re.findall(r"`(repro_[a-z_*<>]+)`", doc))
        prefixes = tuple(name.split("*")[0].split("<")[0]
                         for name in documented)
        for name in registered:
            assert name in documented or name.startswith(prefixes), \
                f"{name} missing from observability.md catalogue"

    def test_referenced_test_files_exist(self):
        doc = (REPO / "docs" / "observability.md").read_text()
        for piece in doc.split("`"):
            piece = piece.split("::")[0]
            if piece.startswith(("tests/", "benchmarks/")):
                assert (REPO / piece).exists(), piece


class TestProofInsightDoc:
    def test_schemas_flags_and_formats_documented(self):
        doc = (REPO / "docs" / "proof_insight.md").read_text()
        for term in ("repro.obs.depgraph/v1", "run_summary",
                     "--depgraph-out", "--depgraph-dot", "cProfile",
                     "Gating a run", "stats.props", "elapsed",
                     "mem.peak_rss_bytes", "repro_parallel_shards_total",
                     "build_timeline"):
            assert term in doc, term

    def test_cross_linked(self):
        assert "proof_insight.md" in \
            (REPO / "docs" / "observability.md").read_text()
        assert "docs/proof_insight.md" in (REPO / "README.md").read_text()

    def test_referenced_test_files_exist(self):
        doc = (REPO / "docs" / "proof_insight.md").read_text()
        for piece in doc.split("`"):
            piece = piece.split("::")[0]
            if piece.startswith(("tests/", "benchmarks/", "ci/")):
                assert (REPO / piece).exists(), piece


EXAMPLES = sorted((REPO / "examples").glob("*.py"))

# Lines an example must print, beyond exiting 0.
EXAMPLE_LINES = {
    "proof_toolkit": ("dependency graph:", "shape from verifier evidence:",
                      "local:"),
}


class TestExamples:
    @pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.stem)
    def test_example_runs(self, example, tmp_path):
        """Every example stays runnable."""
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        result = subprocess.run(
            [sys.executable, str(example)],
            capture_output=True, text=True, timeout=120,
            cwd=tmp_path, env=env)
        assert result.returncode == 0, result.stderr
        for line in EXAMPLE_LINES.get(example.stem, ()):
            assert line in result.stdout, result.stdout


class TestDesign:
    def test_lists_all_three_tables(self):
        design = (REPO / "DESIGN.md").read_text()
        for table in ("Table 1", "Table 2", "Table 3"):
            assert table in design

    def test_bench_files_exist(self):
        design = (REPO / "DESIGN.md").read_text()
        for line in design.splitlines():
            if "`benchmarks/" not in line:
                continue
            for piece in line.split("`"):
                if piece.startswith("benchmarks/"):
                    assert (REPO / piece).exists(), piece

    def test_confirms_paper_identity(self):
        design = (REPO / "DESIGN.md").read_text()
        assert "Goldberg" in design and "Novikov" in design
        assert "DATE 2003" in design


class TestExperiments:
    def test_covers_all_tables(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for heading in ("## Table 1", "## Table 2", "## Table 3",
                        "## Ablations"):
            assert heading in experiments

    def test_every_table_instance_reported(self):
        from repro.benchgen.registry import (
            TABLE1_INSTANCES,
            TABLE3_INSTANCES,
        )

        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for name in TABLE1_INSTANCES + TABLE3_INSTANCES:
            assert name in experiments, name


class TestBenchmarkReferences:
    def test_named_benchmark_scripts_exist(self):
        """A doc that names a benchmark script names one that exists
        (deleting a script must take its doc references with it)."""
        import re

        docs = [REPO / name for name in ("README.md", "DESIGN.md",
                                         "EXPERIMENTS.md", "ci/README.md")]
        docs += sorted((REPO / "docs").glob("*.md"))
        missing = []
        for doc in docs:
            for path in re.findall(r"benchmarks/[\w./-]*?\.py",
                                   doc.read_text()):
                if not (REPO / path).exists():
                    missing.append(f"{doc.relative_to(REPO)}: {path}")
        assert not missing, missing


class TestBenchmarkCollection:
    def test_bench_files_collected_by_pytest(self):
        """Regression: bench_*.py must match pytest's file pattern."""
        pyproject = (REPO / "pyproject.toml").read_text()
        assert "bench_*.py" in pyproject
