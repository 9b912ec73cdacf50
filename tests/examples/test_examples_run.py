"""Smoke tests: every example script runs end to end at a tiny scale.

Examples are the public face of the repository; these tests run each one
in a subprocess (as a user would) and check for its signature output.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
EXAMPLES = os.path.join(REPO_ROOT, "examples")


def run_example(name, *args, timeout=300):
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name), *args],
        capture_output=True, text=True, timeout=timeout, cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def load_example(name):
    """Import an example script as a module, to call its ``main``."""
    spec = importlib.util.spec_from_file_location(
        name[:-len(".py")], os.path.join(EXAMPLES, name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "--scale", "0.02")
        assert "Listings advertised for sale" in out
        assert "paper: 19.71%" in out

    def test_marketplace_census(self):
        out = run_example(
            "marketplace_census.py", "--scale", "0.02", "--iterations", "3"
        )
        assert "Table 1" in out
        assert "Figure 2" in out
        assert "Seller activity profiling" in out

    def test_scam_cluster_analysis(self):
        out = run_example("scam_cluster_analysis.py", "--scale", "0.02")
        assert "Table 5" in out
        assert "Lure-domain infrastructure" in out

    def test_detection_efficacy_audit(self):
        out = run_example("detection_efficacy_audit.py", "--scale", "0.02")
        assert "Table 8" in out
        assert "cross-market sellers" in out

    def test_longitudinal_operations(self, tmp_path):
        out = run_example(
            "longitudinal_operations.py", "--scale", "0.02",
            "--workdir", str(tmp_path / "ops"),
        )
        assert "Reload check passed." in out
        assert "indicators flag" in out


class TestLongitudinalStore:
    def test_rerun_in_same_workdir_rewrites_the_store(self, tmp_path,
                                                       capsys):
        # The example owns <workdir>/dataset: a second run replaces the
        # first run's write-once store instead of being refused by it.
        example = load_example("longitudinal_operations.py")
        argv = ["--scale", "0.01", "--iterations", "2",
                "--workdir", str(tmp_path)]
        example.main(argv)
        first = capsys.readouterr().out
        assert "Reload check passed." in first
        example.main(argv)
        assert capsys.readouterr().out == first
        assert main(["data", "verify", str(tmp_path / "dataset")]) == 0
