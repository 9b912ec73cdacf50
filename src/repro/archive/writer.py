"""The archive writer: capture sink, per-phase indexes, sealed manifest.

An :class:`ArchiveWriter` is handed to :class:`~repro.web.client.HttpClient`
as its ``capture`` hook and to :class:`~repro.crawler.crawler.IterationCrawl`
as its ``archive``.  The client calls :meth:`record_exchange` for every
response *as observed on the wire* (before retries or refetches repair
anything) and :meth:`record_outcome` for what each top-level request
delivered; the crawl drives the phase lifecycle
(:meth:`begin_iteration` / :meth:`end_iteration`), the pipeline opens the
post-collection phase and :meth:`seal`\\ s the archive at the end of the
run.

Layout under ``archive_dir``::

    blobs/iteration_0000.pack     bodies first observed in this phase,
                                  deduplicated, in first-put order
    blobs/iteration_0000.pack.idx sidecar: offset/sha256/size per body
    index/iteration_0000.jsonl    one ExchangeRecord line per exchange
    index/post_collection.jsonl
    archive.json                  sealed manifest: config, counts,
                                  per-file SHA-256s, and a hash chain

The manifest's ``chain_sha256`` folds every index file's hash in phase
order, then every pack's and sidecar's, so a single flipped byte
anywhere invalidates the seal — ``repro archive verify`` re-derives the
whole chain.

Resume: a killed archived run leaves closed index files (and packs) for
every iteration its checkpoint covers plus (possibly) torn ones for the
iteration it died in.  :meth:`begin_resume` prunes everything at or past
the resume point — indexes and packs together, since a pack holds
exactly the bodies its phase first observed — so a killed+resumed run
seals an archive byte-identical to an uninterrupted twin's.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from typing import Dict, List, Optional, Set, TextIO, Tuple

from repro.archive.blobstore import BlobStore
from repro.archive.records import ROLE_EXCHANGE, ROLE_OUTCOME, ArchiveError
from repro.obs.schemas import ARCHIVE_SCHEMA
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.util.fileio import atomic_write_json

ARCHIVE_MANIFEST = "archive.json"
INDEX_DIRNAME = "index"
BLOBS_DIRNAME = "blobs"
POST_COLLECTION_PHASE = "post_collection"
#: Seed value of the manifest hash chain.
CHAIN_SEED = "0" * 64


def iteration_phase(iteration: int) -> str:
    return f"iteration_{iteration:04d}"


def index_filename(phase: str) -> str:
    return f"{phase}.jsonl"


def phase_sort_key(filename: str) -> Tuple[int, int, str]:
    """Deterministic phase order: iterations numerically, then post."""
    stem = filename[:-len(".jsonl")] if filename.endswith(".jsonl") else filename
    if stem.startswith("iteration_"):
        try:
            return (0, int(stem.split("_", 1)[1]), stem)
        except ValueError:
            pass
    return (1, 0, stem)


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def chain_sha256(index_hashes: List[str]) -> str:
    """Fold per-index hashes into one chain hash (order-sensitive)."""
    chain = CHAIN_SEED
    for file_hash in index_hashes:
        chain = hashlib.sha256((chain + file_hash).encode("ascii")).hexdigest()
    return chain


class ArchiveWriter:
    """Writes one study run's HTTP traffic into a sealed archive."""

    def __init__(
        self,
        root: str,
        clock,
        telemetry: Optional[Telemetry] = None,
        resume: bool = False,
    ) -> None:
        self.root = root
        self._clock = clock
        self.telemetry = telemetry or NULL_TELEMETRY
        self._index_dir = os.path.join(root, INDEX_DIRNAME)
        if not resume:
            # A fresh (non-resume) run must not append to a stale archive,
            # exactly like the crawl checkpoint's fresh-run semantics.
            for stale in (
                self._index_dir,
                os.path.join(root, BLOBS_DIRNAME),
            ):
                shutil.rmtree(stale, ignore_errors=True)
            try:
                os.remove(os.path.join(root, ARCHIVE_MANIFEST))
            except FileNotFoundError:
                pass
        os.makedirs(self._index_dir, exist_ok=True)
        self.blobs = BlobStore(os.path.join(root, BLOBS_DIRNAME))
        self._seq = 0
        self._bodies_stored = 0
        # Unique blobs, tracked incrementally: the live dedup gauge is
        # updated on every exchange, and a BlobStore.count() there would
        # rescan the whole store per request (quadratic in crawl size).
        self._blob_count = self.blobs.count() if resume else 0
        self._phase: Optional[str] = None
        self._handle: Optional[TextIO] = None
        # Per-index [entries, outcomes, exchange bodies] and the set of
        # every referenced digest, tallied as records are written (and
        # recounted from the kept files once on resume) so seal() never
        # has to re-parse the indexes it just wrote.
        self._index_stats: Dict[str, List[int]] = {}
        self._current_stats: List[int] = [0, 0, 0]
        self._referenced: Set[str] = set()
        self.sealed = False
        metrics = self.telemetry.metrics
        self._m_exchanges = metrics.counter(
            "archive_exchanges_total",
            "archived HTTP exchanges, by index role",
            labels=("role",),
        )
        self._m_blobs = metrics.counter(
            "archive_blobs_total", "unique response bodies stored"
        )
        self._m_bytes = metrics.counter(
            "archive_bytes_total", "bytes of unique response bodies stored"
        )
        self._m_dedup = metrics.gauge(
            "archive_dedup_ratio",
            "share of archived bodies served from the dedup store",
        )

    # -- phase lifecycle -----------------------------------------------------

    def begin_resume(self, completed_iterations: int) -> None:
        """Prune index files the resumed crawl will re-produce.

        Everything from the resume point on — the (possibly torn) index
        and pack of the iteration the run died in, later iterations, and
        the post-collection phase — is deleted; the resumed run rewrites
        it identically.  The sequence counter continues from the last
        kept entry so twin archives number their exchanges identically.
        """
        self._close_phase()

        def keep(stem: str) -> bool:
            return (
                stem.startswith("iteration_")
                and stem.split("_", 1)[1].isdigit()
                and int(stem.split("_", 1)[1]) < completed_iterations
            )

        for name in sorted(os.listdir(self._index_dir)):
            if name.endswith(".jsonl") and not keep(name[:-len(".jsonl")]):
                os.remove(os.path.join(self._index_dir, name))
        for stem in self.blobs.phases():
            if not keep(stem):
                self.blobs.drop_phase(stem)
        self._blob_count = self.blobs.count()
        self._seq = 0
        self._bodies_stored = 0
        self._index_stats = {}
        self._referenced = set()
        for name in self._index_files():
            stats = self._index_stats[name] = [0, 0, 0]
            path = os.path.join(self._index_dir, name)
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    payload = json.loads(line)
                    self._seq = max(self._seq, payload["seq"] + 1)
                    stats[0] += 1
                    role = payload.get("role")
                    if role == ROLE_OUTCOME:
                        stats[1] += 1
                    digest = payload.get("sha256")
                    if digest is not None:
                        self._referenced.add(digest)
                        if role == ROLE_EXCHANGE:
                            stats[2] += 1
                            self._bodies_stored += 1

    def begin_iteration(self, iteration: int) -> None:
        self._open_phase(iteration_phase(iteration))

    def end_iteration(self, iteration: int) -> None:
        """Flush + close the iteration's index before the checkpoint
        claims the iteration complete."""
        del iteration
        self._close_phase()

    def begin_phase(self, phase: str) -> None:
        self._open_phase(phase)

    def _open_phase(self, phase: str) -> None:
        self._close_phase()
        self._phase = phase
        self.blobs.begin_phase(phase)
        path = os.path.join(self._index_dir, index_filename(phase))
        self._handle = open(path, "w", encoding="utf-8")
        # "w" truncated the file, so its tallies restart too.
        self._current_stats = self._index_stats[index_filename(phase)] = [0, 0, 0]

    def _close_phase(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._phase = None
        # Every blob the just-closed index references must be durable
        # (pack closed, sidecar written) before the checkpoint may claim
        # the phase complete.
        self.blobs.flush()

    # -- capture hook (called by HttpClient) ---------------------------------

    def record_exchange(
        self,
        *,
        client: str,
        method: str,
        url: str,
        params: Optional[Dict[str, str]] = None,
        form: Optional[Dict[str, str]] = None,
        response=None,
        error: Optional[BaseException] = None,
        note: str = "",
    ) -> None:
        """Archive a response exactly as observed on the wire."""
        self._record(
            ROLE_EXCHANGE, client, method, url, params, form,
            response=response, error=error, note=note,
        )

    def record_outcome(
        self,
        *,
        client: str,
        method: str,
        url: str,
        params: Optional[Dict[str, str]] = None,
        form: Optional[Dict[str, str]] = None,
        response=None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Archive what one top-level request delivered to its caller."""
        self._record(
            ROLE_OUTCOME, client, method, url, params, form,
            response=response, error=error,
        )

    def _record(
        self,
        role: str,
        client: str,
        method: str,
        url: str,
        params: Optional[Dict[str, str]],
        form: Optional[Dict[str, str]],
        response=None,
        error: Optional[BaseException] = None,
        note: str = "",
    ) -> None:
        if self.sealed:
            raise ArchiveError("archive is sealed; no further captures")
        if self._handle is None:
            raise ArchiveError(
                f"capture before any archive phase began ({method} {url})"
            )
        # The payload is serialized directly rather than through an
        # ExchangeRecord: this runs once per HTTP exchange, and building
        # the dataclass only to re-read its 18 fields in to_json() is a
        # measurable share of the crawl's archive overhead.  The key set
        # MUST stay in lockstep with ExchangeRecord — the read side
        # (replay, verify, diff) parses these lines via from_json, so any
        # drift fails the archive test suite.
        payload = {
            "client": client,
            "elapsed": 0.0,
            "error": None,
            "form": dict(form or {}),
            "headers": {},
            "method": method.upper(),
            "note": note,
            "params": dict(params or {}),
            "phase": self._phase or "",
            "response_url": "",
            "role": role,
            "seq": self._seq,
            "set_cookies": {},
            "sha256": None,
            "sim_at": self._clock.now(),
            "size": 0,
            "status": None,
            "url": url,
        }
        self._seq += 1
        if error is not None:
            payload["error"] = {
                "type": type(error).__name__,
                "message": str(error),
            }
        if response is not None:
            # The outcome record re-archives the very Response object its
            # final exchange already recorded; caching the digest on the
            # object halves the hot path's hashing work.  The has() guard
            # covers a response cached by some *other* writer's capture.
            blob = getattr(response, "_archive_blob", None)
            if blob is not None and self.blobs.has(blob[0]):
                digest, size = blob
            else:
                body = response.body.encode("utf-8")
                digest, created = self.blobs.put(body)
                size = len(body)
                response._archive_blob = (digest, size)
                if created:
                    self._blob_count += 1
                    self._m_blobs.inc()
                    self._m_bytes.inc(size)
            self._bodies_stored += 1
            if role == ROLE_EXCHANGE:
                # Dedup only counts wire-observed bodies; outcomes re-point
                # at blobs their exchanges already stored.
                self._m_dedup.set(self._dedup_ratio_live())
            payload["status"] = response.status
            payload["sha256"] = digest
            payload["size"] = size
            payload["headers"] = dict(response.headers)
            payload["set_cookies"] = dict(response.set_cookies)
            payload["response_url"] = response.url
            payload["elapsed"] = response.elapsed
            self._referenced.add(digest)
            if role == ROLE_EXCHANGE:
                self._current_stats[2] += 1
        self._m_exchanges.inc(role=role)
        self._current_stats[0] += 1
        if role == ROLE_OUTCOME:
            self._current_stats[1] += 1
        # Same bytes ExchangeRecord.to_json produces: sorted keys, default
        # separators — index files stay canonical either way.
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")

    def _dedup_ratio_live(self) -> float:
        stored = self._bodies_stored
        if stored <= 0:
            return 0.0
        return 1.0 - (self._blob_count / stored)

    # -- sealing -------------------------------------------------------------

    def _index_files(self) -> List[str]:
        return sorted(
            (
                name for name in os.listdir(self._index_dir)
                if name.endswith(".jsonl")
            ),
            key=phase_sort_key,
        )

    def seal(self, config) -> dict:
        """Close the archive: GC unreferenced blobs, hash-chain the
        indexes, write ``archive.json``.  Returns the manifest dict.

        ``config`` is the run's StudyConfig (duck-typed); the subset a
        replay needs to rebuild the world is embedded in the manifest.
        """
        self._close_phase()
        # Counts come from the incremental tallies (kept identical to the
        # files by _record, and recounted from disk once on resume); the
        # only per-byte work left at seal time is hashing.
        referenced: Set[str] = set(self._referenced)
        indexes: List[dict] = []
        exchanges_total = 0
        outcomes_total = 0
        bodies_total = 0
        for name in self._index_files():
            path = os.path.join(self._index_dir, name)
            entries, outcomes, bodies = self._index_stats.get(name, (0, 0, 0))
            exchanges_total += entries
            outcomes_total += outcomes
            bodies_total += bodies
            indexes.append({
                "name": name,
                "sha256": file_sha256(path),
                "entries": entries,
                "outcomes": outcomes,
            })
        # Packs hold exactly the bodies their phase first observed, and
        # begin_resume prunes pack and index together — so stored and
        # referenced digests must agree exactly.  A mismatch means the
        # archive is lying about its own contents: refuse to seal it.
        stored = set(self.blobs.digests())
        if stored != referenced:
            raise ArchiveError(
                f"refusing to seal: {len(stored - referenced)} stored "
                f"bodies unreferenced, {len(referenced - stored)} "
                "referenced bodies missing"
            )
        packs: List[dict] = []
        for stem in sorted(self.blobs.phases(), key=phase_sort_key):
            rows = list(self.blobs.sidecar_entries(stem))
            packs.append({
                "name": stem,
                "sha256": file_sha256(self.blobs.pack_path(stem)),
                "idx_sha256": file_sha256(self.blobs.sidecar_path(stem)),
                "blobs": len(rows),
                "bytes": sum(size for _d, _o, size in rows),
            })
        blobs_total = self.blobs.count()
        bytes_total = self.blobs.total_bytes()
        dedup_ratio = (
            1.0 - (blobs_total / bodies_total) if bodies_total else 0.0
        )
        chain_hashes = [i["sha256"] for i in indexes]
        for pack in packs:
            chain_hashes += [pack["sha256"], pack["idx_sha256"]]
        manifest = {
            "schema": ARCHIVE_SCHEMA,
            "config": {
                "seed": config.seed,
                "scale": config.scale,
                "iterations": config.iterations,
                "include_underground": config.include_underground,
                "chaos_profile": getattr(config, "chaos_profile", "off"),
            },
            "sim_seconds": self._clock.now(),
            "indexes": indexes,
            "packs": packs,
            "chain_sha256": chain_sha256(chain_hashes),
            "exchanges_total": exchanges_total,
            "outcomes_total": outcomes_total,
            "bodies_total": bodies_total,
            "blobs_total": blobs_total,
            "bytes_total": bytes_total,
            "dedup_ratio": round(dedup_ratio, 6),
            "sealed": True,
        }
        atomic_write_json(os.path.join(self.root, ARCHIVE_MANIFEST), manifest,
                          indent=2, sort_keys=True, trailing_newline=True)
        self.sealed = True
        self._m_dedup.set(round(dedup_ratio, 6))
        self.telemetry.events.emit(
            "archive.sealed",
            dir=self.root,
            blobs=blobs_total,
            bytes=bytes_total,
            exchanges=exchanges_total,
        )
        return manifest

    def summary(self, manifest: dict) -> dict:
        """The run-manifest / ``repro trace`` section for this archive."""
        return {
            "dir": self.root,
            "sealed": manifest["sealed"],
            "exchanges_total": manifest["exchanges_total"],
            "outcomes_total": manifest["outcomes_total"],
            "blobs_total": manifest["blobs_total"],
            "bytes_total": manifest["bytes_total"],
            "dedup_ratio": manifest["dedup_ratio"],
            "chain_sha256": manifest["chain_sha256"],
        }


__all__ = [
    "ARCHIVE_MANIFEST",
    "ARCHIVE_SCHEMA",
    "ArchiveWriter",
    "BLOBS_DIRNAME",
    "CHAIN_SEED",
    "INDEX_DIRNAME",
    "POST_COLLECTION_PHASE",
    "chain_sha256",
    "file_sha256",
    "index_filename",
    "iteration_phase",
    "phase_sort_key",
]
