"""In-memory span recorder and the layer wrappers of the traced run.

Nothing here is imported by the program.  :class:`Tracer` patches the
program's public entry points *where they are looked up* (a class
attribute, or a module-level name in the module that calls it), records
one span per call (name, start, end, parent) plus counters at the same
boundary, and restores every original on :meth:`Tracer.uninstall`.

Self time of a span is its duration minus the durations of its direct
children.  The program is single-threaded, so children nest strictly
inside their parent and the self times of all spans in a job plus the
job time no span covers add up to the job's wall time.
"""

from __future__ import annotations

import functools
import json
import os
import sqlite3
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class Recorder:
    """Spans and counters of one traced job, kept in memory."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)

    def clear(self) -> None:
        self.__init__()

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(_clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = _clock()
        self.stack.pop()

    def open_names(self) -> List[str]:
        return [self.names[i] for i in self.stack]

    def add_under_open(self, suffix: str, value: float) -> None:
        """Add ``value`` to ``<span>.<suffix>`` of every open span."""
        for name in set(self.open_names()):
            self.counts[f"{name}.{suffix}"] += value

    def summary(self, job_start: float, job_end: float) -> dict:
        """Per-name calls and self time, plus the job time no span covers.

        A span nested directly in a span of the same name (a subclass
        override calling ``super()``) adds self time but not a call.
        """
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        covered = 0.0
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[index]
            else:
                covered += durations[index]
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        names = self.names
        for index, name in enumerate(names):
            parent = self.parents[index]
            if parent < 0 or names[parent] != name:
                calls[name] += 1
            self_s[name] += durations[index] - child_time[index]
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "job_s": job_end - job_start,
            "uncovered_s": (job_end - job_start) - covered,
        }

    def write(self, path: str, origin: float) -> None:
        """Write every span as ``[name, start_s, end_s, parent]`` lines,
        times relative to ``origin``."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in zip(self.names, self.starts,
                                                self.ends, self.parents):
                handle.write(json.dumps(
                    [name, round(start - origin, 9), round(end - origin, 9),
                     parent]) + "\n")


def _spanned(recorder: Recorder, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped in a span; ``before(args, kwargs)`` and
    ``after(args, result)`` record counters outside the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(args, result)
        return result

    return wrapper


class _Rows:
    """A fully fetched result set standing in for a sqlite3 cursor, so
    the span around ``execute`` covers stepping through every row."""

    def __init__(self, rows: list) -> None:
        self._rows = rows

    def __iter__(self):
        return iter(self._rows)

    def fetchall(self) -> list:
        return self._rows

    def fetchone(self):
        return self._rows[0] if self._rows else None


class QueryProxy:
    """Stands in for ``Catalog.conn``: every query is a ``serve.sql`` span."""

    def __init__(self, conn: sqlite3.Connection, recorder: Recorder) -> None:
        self._conn = conn
        self._recorder = recorder

    def execute(self, sql: str, parameters=()):
        recorder = self._recorder
        index = recorder.begin("serve.sql")
        try:
            rows = self._conn.execute(sql, parameters).fetchall()
        finally:
            recorder.end(index)
        recorder.counts["serve.sql.queries"] += 1
        return _Rows(rows)

    def __getattr__(self, name: str):
        return getattr(self._conn, name)


class Tracer:
    """Installs the layer wrappers for one traced job and removes them."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self._saved: List[tuple] = []
        self.clients: list = []

    # -- patching -----------------------------------------------------------

    @staticmethod
    def _original(owner, attr: str):
        """The attribute as stored: a class's own function, not a bound
        or inherited one."""
        return (owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, self._original(owner, attr)))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr: str, name: str, before=None,
              after=None) -> None:
        self._patch(owner, attr, _spanned(
            self.recorder, name, self._original(owner, attr), before, after))

    def _durable(self, suffix: str, fn: Callable, *args, **kwargs):
        """Run a durable-write call, counted and timed under every open
        span."""
        recorder = self.recorder
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.add_under_open("disk_s", _clock() - start)
            recorder.add_under_open(suffix, 1)

    def _patch_durable(self, owner, attr: str, suffix: str) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._durable(suffix, original, *args, **kwargs)

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- layer sets -----------------------------------------------------------

    def install_durable_writes(self) -> None:
        """``os.fsync``/``os.replace`` and SQLite commits of the catalog
        build, counted and timed under each open span."""
        import repro.serve.catalog as catalog_module

        self._patch_durable(os, "fsync", "fsyncs")
        self._patch_durable(os, "replace", "replaces")
        durable = self._durable

        class _WriteConn:
            def __init__(self, conn):
                self._conn = conn

            def commit(self):
                return durable("commits", self._conn.commit)

            def executescript(self, script):
                return durable("commits", self._conn.executescript, script)

            def __getattr__(self, name):
                return getattr(self._conn, name)

        class _Sqlite:
            def __getattr__(self, name):
                return getattr(sqlite3, name)

            @staticmethod
            def connect(*args, **kwargs):
                return _WriteConn(sqlite3.connect(*args, **kwargs))

        self._patch(catalog_module, "sqlite3", _Sqlite())

    def install_crawl(self) -> None:
        """World build, server dispatch and render, client, parse, crawl,
        contracts."""
        import repro.core.pipeline as pipeline
        import repro.crawler.extractor as extractor
        import repro.crawler.underground_collector as underground_collector
        import repro.marketplaces.public as public
        import repro.marketplaces.underground as underground
        from repro.crawler.crawler import MarketplaceCrawler
        from repro.crawler.profile_collector import ProfileCollector
        from repro.crawler.underground_collector import UndergroundCollector
        from repro.synthetic.world import WorldBuilder
        from repro.web.client import HttpClient
        from repro.web.html import Element

        counts = self.recorder.counts
        self._span(WorldBuilder, "build", "synthetic.build_world")
        for module in (public, underground):
            self._span(module, "render_document", "web.render")

        def count_bytes(args, kwargs):
            counts["web.parse_html.bytes"] += len(args[0])

        for module in (extractor, underground_collector):
            self._span(module, "parse_html", "web.parse_html",
                       before=count_bytes)
        self._span(Element, "find", "web.find")

        clients = self.clients
        original_request = HttpClient.__dict__["request"]

        @functools.wraps(original_request)
        def request(client, *args, **kwargs):
            if client not in clients:
                clients.append(client)
            try:
                response = original_request(client, *args, **kwargs)
            except Exception:
                counts["web.client.failed"] += 1
                raise
            if response.status >= 500:
                counts["web.client.failed"] += 1
            return response

        self._patch(HttpClient, "request", request)

        def crawl_counts(args, result):
            report = result[2]
            counts["crawler.pages"] += report.pages_fetched
            counts["crawler.errors"] += report.errors

        self._span(MarketplaceCrawler, "crawl", "crawler.crawl",
                   after=crawl_counts)
        self._span(ProfileCollector, "collect", "crawler.profiles")
        self._span(ProfileCollector, "sweep_status", "crawler.profiles")
        self._span(UndergroundCollector, "collect_market",
                   "crawler.underground")

        def contract_counts(args, report):
            counts["contracts.validate.records"] += report.checked_total
            counts["contracts.validate.repaired"] += report.repaired_total
            counts["contracts.validate.quarantined"] += report.quarantined

        self._span(pipeline, "validate_dataset", "contracts.validate",
                   after=contract_counts)
        self.install_dispatch()

    def client_totals(self) -> Dict[str, int]:
        return {
            "web.client.requests": sum(c.stats.requests_sent
                                       for c in self.clients),
            "web.client.retries": sum(c.stats.retries for c in self.clients),
        }

    def install_dispatch(self) -> None:
        """``Internet.fetch`` and ``Site.handle``."""
        from repro.marketplaces.underground import UndergroundForumSite
        from repro.web.server import Internet, Site

        self._span(Internet, "fetch", "web.fetch")
        self._span(Site, "handle", "web.site_handle")
        self._span(UndergroundForumSite, "handle", "web.site_handle")

    def install_analysis(self) -> None:
        """Supervised stages and the Section-6 NLP sub-steps."""
        import repro.analysis.scam_posts as scam_posts
        from repro.analysis.scam_posts import ClusterVetter
        from repro.contracts.supervisor import StageSupervisor
        from repro.nlp.cluster import DBSCAN, ScalableDensityClusterer
        from repro.nlp.embeddings import HashedTfidfEmbedder
        from repro.nlp.langdetect import LanguageDetector

        recorder = self.recorder
        counts = recorder.counts
        original_run = StageSupervisor.__dict__["run"]

        @functools.wraps(original_run)
        def supervised(supervisor, stage, fn, *args, **kwargs):
            index = recorder.begin(f"analysis.{stage}")
            try:
                return original_run(supervisor, stage, fn, *args, **kwargs)
            finally:
                recorder.end(index)

        self._patch(StageSupervisor, "run", supervised)

        def nlp_call(args, kwargs):
            if "obs.scorecard" in recorder.open_names():
                counts["obs.scorecard.nlp_calls"] += 1

        def english(args, result):
            counts["nlp.language_filter.english"] += bool(result)

        self._span(LanguageDetector, "is_english", "nlp.language_filter",
                   before=nlp_call, after=english)

        def embed_docs(args, kwargs):
            nlp_call(args, kwargs)
            counts["nlp.embed.docs"] += len(args[1])

        self._span(HashedTfidfEmbedder, "fit_transform", "nlp.embed",
                   before=embed_docs)

        def cluster_counts(args, labels):
            counts["nlp.cluster.points"] += len(labels)
            counts["nlp.cluster.clusters"] += len(
                set(labels[labels >= 0].tolist()))
            counts["nlp.cluster.noise"] += int((labels < 0).sum())

        for clusterer in (DBSCAN, ScalableDensityClusterer):
            self._span(clusterer, "fit_predict", "nlp.cluster",
                       before=nlp_call, after=cluster_counts)
        self._span(scam_posts, "class_tfidf_keywords", "nlp.keywords",
                   before=nlp_call)

        def vetting_counts(args, verdicts):
            counts["analysis.vetting.clusters"] += len(verdicts)
            counts["analysis.vetting.scam"] += sum(
                1 for verdict in verdicts if verdict.is_scam)

        self._span(ClusterVetter, "vet", "analysis.vetting",
                   after=vetting_counts)

    def install_cache(self) -> None:
        """``ResponseCache.get``/``put``."""
        from repro.serve.cache import ResponseCache

        self._span(ResponseCache, "get", "serve.cache")
        self._span(ResponseCache, "put", "serve.cache")

    def proxy_catalog(self, catalog) -> None:
        """Time every catalog query through a proxy on ``Catalog.conn``."""
        self._patch(catalog, "conn", QueryProxy(catalog.conn, self.recorder))

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run one of the benchmark's own calls into a layer as a span."""
        index = self.recorder.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.recorder.end(index)
