"""Benchmark harness fixtures.

One study run is shared by every benchmark (building the ecosystem and
crawling it is the expensive part; each bench then measures its own
analysis stage).  Every bench renders its table/figure with the paper's
values alongside and registers it with :func:`record_report`; the full
reproduction report is printed in the terminal summary, so
``pytest benchmarks/ --benchmark-only`` ends with the paper's tables.

The suite also runs under plain ``pytest benchmarks/`` (no
``--benchmark-only``): each benchmark then executes once like a normal
test, and :func:`record_report` deduplicates repeated registrations so
the terminal summary prints each table exactly once.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — world scale (default 0.1; 1.0 regenerates the
  full 38K-listing / 205K-post ecosystem);
* ``REPRO_BENCH_SEED`` — root seed (default 2024);
* ``REPRO_BENCH_ITERATIONS`` — collection iterations (default 6);
* ``REPRO_BENCH_ROUNDS`` — timing rounds for ``repro bench`` (the
  BENCH_pipeline.json harness in :mod:`repro.obs.bench`; default 5).
  It does not affect this pytest suite.
"""

from __future__ import annotations

import os
from typing import Dict, List

import pytest

from repro.analysis import ScamPostAnalysis
from repro.core import Study, StudyConfig

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2024"))
BENCH_ITERATIONS = int(os.environ.get("REPRO_BENCH_ITERATIONS", "6"))

_REPORTS: Dict[str, str] = {}


def record_report(title: str, text: str) -> None:
    """Register a rendered table/figure for the end-of-run summary.

    Keyed by title: under plain pytest (without ``--benchmark-only``) a
    benchmark body may run more than once, and the latest rendering
    simply replaces the earlier one instead of duplicating it.
    """
    _REPORTS[title] = text


try:  # pragma: no cover - depends on the installed environment
    import pytest_benchmark  # noqa: F401
    _HAVE_PYTEST_BENCHMARK = True
except ImportError:
    _HAVE_PYTEST_BENCHMARK = False

if not _HAVE_PYTEST_BENCHMARK:
    class _FallbackBenchmark:
        """Minimal stand-in so ``pytest benchmarks/`` still runs (once
        per test, no timing statistics) without pytest-benchmark."""

        def __call__(self, fn, *args, **kwargs):
            return fn(*args, **kwargs)

        def pedantic(self, fn, args=(), kwargs=None, rounds=1,
                     iterations=1, **_ignored):
            # One execution: without the plugin there are no timing
            # statistics, so extra rounds would only burn CPU.
            return fn(*args, **(kwargs or {}))

    @pytest.fixture()
    def benchmark():
        return _FallbackBenchmark()


@pytest.fixture(scope="session")
def bench_config() -> StudyConfig:
    # Crawl archiving stays OFF for benchmarks (archive_dir=None): the
    # capture hook hashes and persists every response body, and that cost
    # belongs only to the bench that measures it
    # (``test_archive_overhead.py``), not to every analysis timing.
    return StudyConfig(
        seed=BENCH_SEED, scale=BENCH_SCALE, iterations=BENCH_ITERATIONS
    )


@pytest.fixture(scope="session")
def bench_study(bench_config):
    """The shared study run every benchmark analyses."""
    return Study(bench_config).run()


@pytest.fixture(scope="session")
def bench_dataset(bench_study):
    return bench_study.dataset


@pytest.fixture(scope="session")
def bench_scam_report(bench_dataset):
    """The Section-6 pipeline output, shared by Tables 5 and 6."""
    analysis = ScamPostAnalysis()
    return analysis.run(bench_dataset)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    write = terminalreporter.write_line
    write("")
    write("=" * 78)
    write(f"REPRODUCTION REPORT  (scale={BENCH_SCALE}, seed={BENCH_SEED}; "
          "paper values scaled to match)")
    write("=" * 78)
    for title, text in sorted(_REPORTS.items()):
        write("")
        write(f"--- {title} ---")
        for line in text.splitlines():
            write(line)
