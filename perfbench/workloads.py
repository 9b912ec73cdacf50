"""The benchmark workloads: their inputs, jobs and output digests.

The benchmark drives the program only through its public functions
(``repro.core``, ``repro.store``, ``repro.analysis``,
``repro.obs.quality``, ``repro.serve``).  Inputs are generated from the
workload seed by one worker process (:func:`prepare_inputs`) and handed
to fresh worker processes as files, so the measuring worker's set-up
time and peak RSS cover only the workload itself.

Import this module before ``repro``: it puts the checkout's ``src`` on
``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Everything the benchmark writes lives under here (git-ignored).
WORK = os.path.join(ROOT, ".bench_work")

if SRC not in sys.path:
    sys.path.insert(0, SRC)

WORKLOADS = ("collect", "analyze", "api_hot")
DEFAULT_SEED = 2024

#: ``repro run`` defaults: the collect job.
COLLECT_STUDY = {"scale": 0.05, "iterations": 6, "include_underground": True}
#: The ``benchmarks/`` paper-suite default: the analyze input.  At this
#: scale the English corpus exceeds the 12,000-post threshold, so the
#: scalable density clusterer runs.
ANALYZE_STUDY = {"scale": 0.1, "iterations": 6, "include_underground": True}
#: The api catalog: three monitor-style cycles (seeds s, s+1, s+2).
API_CYCLES = 3
API_STUDY = {"scale": 0.02, "iterations": 3, "include_underground": True}
#: Request sequence length and distinct-query pool.  The run sends the
#: sequence back to back in windows of ``API_WINDOW`` consecutive
#: requests, each window one capacity sample.
API_REQUESTS = 100_000
API_DISTINCT = 200
API_WINDOW = 5_000
#: Offered rate of the traced run's one open-loop window, which reports
#: how late the load generator ran (``loadgen.late_ms_max``).  It is
#: light, about 7% of the closed-loop capacity on a 2-CPU x86_64 VM.
API_RATE = 10_000.0
#: Share of windows taken as the host's best state: the reported
#: capacity is the window rate exceeded by this share of windows.  The
#: host's slow spells only ever slow a window down, so the best decile
#: is the steady estimate of the program's own speed.
BEST_SHARE = 0.1
#: The only client label the load generator sends (no connections: the
#: catalog site is dispatched in-process by ``Internet.fetch``).
CLIENT_LABEL = "loadgen"


def source_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_tree(directory: str) -> str:
    """Digest of every file under ``directory``: relative name + sha256."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            rel = os.path.relpath(path, directory)
            digest.update(f"{rel}\0{sha256_file(path)}\n".encode("utf-8"))
    return digest.hexdigest()


def tree_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(base, name))
               for base, _dirs, files in os.walk(directory)
               for name in files)


def reset_dir(path: str) -> None:
    """Remove ``path`` and make sure its parent exists."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.dirname(path), exist_ok=True)


# -- inputs -------------------------------------------------------------------


def _source_hash() -> str:
    """Inputs are cached per program source and per this file (which
    defines them), so a changed program or workload never reuses stale
    inputs."""
    digest = hashlib.sha256(sha256_file(__file__).encode("ascii"))
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode("utf-8"))
                digest.update(sha256_file(path).encode("ascii"))
    return digest.hexdigest()[:16]


def _cached(name: str, build) -> str:
    """``WORK/inputs/<source hash>/<name>``, built once by ``build(dir)``
    into a temporary dir and renamed into place when complete."""
    final = os.path.join(WORK, "inputs", _source_hash(), name)
    if not os.path.isdir(final):
        partial = f"{final}.partial-{os.getpid()}"
        reset_dir(partial)
        os.makedirs(partial)
        build(partial)
        os.rename(partial, final)
    return final


def _save_run(result, run_dir: str, config) -> None:
    """Persist one study as a ``repro run --store-dir`` directory."""
    from repro.obs.quality import write_scorecard
    from repro.store import save_dataset
    from repro.util.fileio import atomic_write_json

    report = save_dataset(result.dataset, run_dir)
    if not report.complete:
        raise RuntimeError(f"input store {run_dir} is {report.partial}")
    atomic_write_json(os.path.join(run_dir, "study_meta.json"), {
        "seed": config.seed,
        "scale": config.scale,
        "iterations": config.iterations,
        "active_per_iteration": result.active_per_iteration,
        "cumulative_per_iteration": result.cumulative_per_iteration,
        "payment_methods": {
            market: [list(pair) for pair in pairs]
            for market, pairs in result.payment_methods.items()
        },
        "simulated_seconds": result.simulated_seconds,
    })
    if result.scorecard is not None:
        write_scorecard(run_dir, result.scorecard)


def _build_analyze_input(seed: int, directory: str) -> None:
    from repro.core import Study, StudyConfig

    config = StudyConfig(seed=seed, **ANALYZE_STUDY)
    _save_run(Study(config).run(), os.path.join(directory, "store"), config)


def _build_catalog_input(seed: int, directory: str) -> None:
    from repro.core import Study, StudyConfig
    from repro.serve import build_catalog

    run_dirs = []
    for cycle in range(API_CYCLES):
        config = StudyConfig(seed=seed + cycle, telemetry_enabled=True,
                             **API_STUDY)
        run_dir = os.path.join(directory, f"cycle-{cycle:03d}")
        _save_run(Study(config).run(), run_dir, config)
        run_dirs.append(run_dir)
    build_catalog(run_dirs, os.path.join(directory, "catalog"))


def _build_load(seed: int, catalog_dir: str, directory: str) -> None:
    """The query pool, request sequence and the Poisson inter-arrival
    gaps of one open-loop window."""
    from repro.serve import Catalog
    from repro.serve.bench import build_query_pool

    rng = random.Random(f"api_hot:{seed}")
    with Catalog.open(catalog_dir) as catalog:
        pool = build_query_pool(catalog, rng, API_DISTINCT)
    if len(pool) < API_DISTINCT:
        raise RuntimeError(f"query pool holds {len(pool)} distinct queries, "
                           f"{API_DISTINCT} needed")
    sequence = [rng.randrange(len(pool)) for _ in range(API_REQUESTS)]
    gaps = [round(rng.expovariate(API_RATE), 9) for _ in range(API_WINDOW)]
    with open(os.path.join(directory, "load.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"pool": pool, "sequence": sequence, "gaps": gaps}, handle)


def prepare_inputs(workload: str, seed: int) -> Dict[str, str]:
    """Generate (or reuse) the workload's inputs; returns named paths."""
    if workload == "collect":
        return {}
    if workload == "analyze":
        path = _cached(f"analyze-{seed}",
                       lambda d: _build_analyze_input(seed, d))
        return {"store": os.path.join(path, "store")}
    catalog_root = _cached(f"catalog-{seed}",
                           lambda d: _build_catalog_input(seed, d))
    catalog_dir = os.path.join(catalog_root, "catalog")
    load_root = _cached(f"{workload}-{seed}",
                        lambda d: _build_load(seed, catalog_dir, d))
    return {"catalog": catalog_dir,
            "load": os.path.join(load_root, "load.json")}


# -- batch jobs ---------------------------------------------------------------


class CollectJob:
    """``Study(config).run()`` then ``save_dataset()`` into a fresh store."""

    name = "collect"

    def __init__(self, seed: int, inputs: Dict[str, str]) -> None:
        from repro.core import Study, StudyConfig
        from repro.store import StoreReader, save_dataset

        self._study = Study
        self._save = save_dataset
        self._reader = StoreReader
        self.config = StudyConfig(seed=seed, **COLLECT_STUDY)
        self.out = os.path.join(WORK, "run", "collect-store")

    def prepare(self) -> None:
        reset_dir(self.out)

    def run(self, tracer=None):
        result = self._study(self.config).run()
        if tracer is None:
            report = self._save(result.dataset, self.out)
        else:
            report = tracer.call("store.save", self._save,
                                 result.dataset, self.out)
        return result, report

    def check(self, output) -> dict:
        """Operations attempted and failed, failed output checks
        (``problems``) and the output digest of one job."""
        result, report = output
        problems = list(self._reader.open(self.out).verify())
        if not report.complete:
            problems.append(f"store save {report.partial}")
        pages = sum(r.pages_fetched for r in result.crawl_reports)
        errors = sum(r.errors for r in result.crawl_reports)
        contracts = result.contracts
        return {
            "attempted": pages + contracts.checked_total,
            "failed": errors + contracts.quarantined,
            "problems": problems,
            "digest": {"store": sha256_tree(self.out)},
        }

    def layer_counts(self, output, tracer) -> Dict[str, float]:
        _result, report = output
        return {
            "store.save.records": sum(report.counts.values()),
            "store.save.bytes": tree_bytes(self.out),
            "store.save.segments": len(os.listdir(
                os.path.join(self.out, "segments"))),
            **tracer.client_totals(),
        }


class AnalyzeJob:
    """``load_dataset`` -> supervised suite -> scorecard -> catalog."""

    name = "analyze"

    def __init__(self, seed: int, inputs: Dict[str, str]) -> None:
        from repro.analysis.suite import run_analysis_suite
        from repro.contracts.supervisor import StageSupervisor
        from repro.core import StudyConfig, StudyResult
        from repro.core.reports import render_table5, render_table6
        from repro.obs.quality import compute_scorecard, write_scorecard
        from repro.serve import build_catalog
        from repro.store import load_dataset
        from repro.synthetic.world import WorldBuilder

        self._suite = run_analysis_suite
        self._supervisor = StageSupervisor
        self._result = StudyResult
        self._tables = (render_table5, render_table6)
        self._score = compute_scorecard
        self._write_score = write_scorecard
        self._build = build_catalog
        self._load = load_dataset
        self.config = StudyConfig(seed=seed, **ANALYZE_STUDY)
        self.store = inputs["store"]
        self.out = os.path.join(WORK, "run", "analyze-catalog")
        # The scorecard scores against the world's ground truth, which
        # the seed rebuilds: part of opening this workload's inputs.
        self.world = WorldBuilder(self.config.world_config()).build()

    def prepare(self) -> None:
        reset_dir(self.out)

    def _call(self, tracer, name, fn, *args, **kwargs):
        if tracer is None:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, *args, **kwargs)

    def run(self, tracer=None):
        dataset = self._call(tracer, "store.load", self._load, self.store)
        analyses = self._suite(dataset, self._supervisor())
        scorecard = self._call(
            tracer, "obs.scorecard", self._score,
            self._result(dataset=dataset, world=self.world),
            analyses=analyses)
        self._write_score(self.store, scorecard)
        built = self._call(tracer, "serve.build_catalog", self._build,
                           [self.store], self.out)
        return dataset, analyses, built

    def check(self, output) -> dict:
        _dataset, analyses, built = output
        problems = []
        if not built.rebuilt:
            problems.append("catalog build was a no-op")
        db_sha = sha256_file(os.path.join(self.out, "catalog.db"))
        with open(os.path.join(self.out, "catalog.json"),
                  encoding="utf-8") as handle:
            if json.load(handle).get("db_sha256") != db_sha:
                problems.append("catalog.db does not match catalog.json")
        scam = analyses.report("scam_posts")
        tables = "\n".join(render(scam, self.config.scale)
                           for render in self._tables)
        return {
            "attempted": len(analyses.reports),
            "failed": len(analyses.failures),
            "problems": problems,
            "digest": {
                "tables_5_6": hashlib.sha256(tables.encode()).hexdigest(),
                "scorecard": sha256_file(
                    os.path.join(self.store, "scorecard.json")),
                "catalog_json": sha256_file(
                    os.path.join(self.out, "catalog.json")),
                "catalog_db": db_sha,
            },
        }

    def layer_counts(self, output, tracer) -> Dict[str, float]:
        dataset, _analyses, built = output
        return {
            "store.load.records": sum(
                len(getattr(dataset, name)) for name in
                ("listings", "sellers", "profiles", "posts", "underground")),
            "serve.build_catalog.rows": sum(built.tables.values()),
            "serve.build_catalog.db_bytes": os.path.getsize(
                os.path.join(self.out, "catalog.db")),
        }


BATCH_JOBS = {"collect": CollectJob, "analyze": AnalyzeJob}


# -- api load -----------------------------------------------------------------


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-round(q * 1000) * len(ordered) // 1000))
    return ordered[min(rank, len(ordered)) - 1]


class ApiLoad:
    """The catalog API driven through ``Internet.fetch``: one thread, no
    socket.

    Set-up opens the catalog, reads the request sequence and builds the
    catalog site with an empty response cache (:attr:`fetch`,
    :attr:`cache`).  :meth:`closed_loop` and :meth:`open_loop` send a
    slice of the seeded request sequence through one site; :meth:`fresh`
    builds another site with an empty cache.
    """

    def __init__(self, inputs: Dict[str, str]) -> None:
        from repro.serve import Catalog, ResponseCache, build_catalog_site
        from repro.web.http import Request
        from repro.web.server import Internet

        self._site = build_catalog_site
        self._cache = ResponseCache
        self._internet = Internet
        self._request = Request
        self.catalog = Catalog.open(inputs["catalog"])
        with open(inputs["load"], encoding="utf-8") as handle:
            load = json.load(handle)
        self.pool: List[Tuple[str, str]] = [tuple(p) for p in load["pool"]]
        self.urls = [self.pool[i][1] for i in load["sequence"]]
        self.gaps: List[float] = load["gaps"]
        self.fetch, self.cache = self.fresh()

    def fresh(self):
        """A new Internet with the catalog site and an empty cache;
        returns its ``fetch`` and the cache."""
        internet = self._internet()
        site, api = self._site(self.catalog, cache=self._cache())
        internet.register(site)
        return internet.fetch, api.cache

    def closed_loop(self, fetch, first: int = 0,
                    count: Optional[int] = None) -> Tuple[float, float, int]:
        """Send requests ``first..first+count`` back to back; returns
        (start, end, non-200s)."""
        request, label = self._request, CLIENT_LABEL
        urls = self.urls[first:None if count is None else first + count]
        bad = 0
        start = time.perf_counter()
        for url in urls:
            if fetch(request("GET", url), label).status != 200:
                bad += 1
        return start, time.perf_counter(), bad

    def open_loop(self, fetch) -> Tuple[float, int]:
        """Send the first requests of the sequence at their seeded
        Poisson arrival times, one per gap; returns (the generator's
        worst lateness in s, non-200s)."""
        request, label = self._request, CLIENT_LABEL
        clock = time.perf_counter
        late_max, bad = 0.0, 0
        due = clock() + 0.001
        for url, gap in zip(self.urls, self.gaps):
            req = request("GET", url)
            due += gap
            now = clock()
            while now < due:
                now = clock()
            if fetch(req, label).status != 200:
                bad += 1
            if now - due > late_max:
                late_max = now - due
        return late_max, bad

    def digest(self) -> Tuple[str, int]:
        """Status + body sha256 of every distinct URL, folded in pool
        order; returns (digest, non-200s).  Doubles as the warm-up."""
        (fetch, _cache), request = self.fresh(), self._request
        label = CLIENT_LABEL
        digest = hashlib.sha256()
        bad = 0
        for _endpoint, url in self.pool:
            response = fetch(request("GET", url), label)
            bad += response.status != 200
            body = hashlib.sha256(response.body.encode("utf-8")).hexdigest()
            digest.update(f"{url}\t{response.status}\t{body}\n".encode())
        return digest.hexdigest(), bad


# -- environment --------------------------------------------------------------


def filesystem_of(path: str) -> str:
    """The filesystem type of the mount holding ``path``."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def env_fingerprint() -> dict:
    import platform

    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "work_dir_fs": filesystem_of(WORK if os.path.isdir(WORK) else ROOT),
    }


def load_reference() -> Optional[dict]:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
