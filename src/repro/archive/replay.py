"""Offline replay: re-run extraction + analysis from a sealed archive.

The archive's ``outcome`` records are, per client, exactly the sequence
of results the live run's :class:`~repro.web.client.HttpClient` handed
to the crawlers — final responses after redirects and retries, or the
errors it raised.  :class:`ReplayClient` exposes the same ``get``/
``post``/``request`` surface and feeds that sequence back, validating on
every call that the replayed code asked for the same request the live
run made.

Replay is not a second pipeline: :func:`run_replay` runs
:class:`~repro.core.pipeline.Study` over an :class:`ArchiveNetwork`, so
every phase of the live run re-executes over the archived bytes under
the same span names, and live/replay parity holds by construction.

Nothing else from the live run happens: no sites deploy, no faults
inject, no politeness waits or retries burn simulated time.  The
:class:`ReplayClock` instead jumps straight to each outcome's archived
``sim_at``, so every timestamp-derived artifact (including
``simulated_seconds``) is byte-identical to the live run's.  The
ground-truth world the scorecard needs is rebuilt from the archived
seed/scale config — world construction never touches the network.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.archive.reader import ArchiveReader
from repro.archive.records import ExchangeRecord
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.util.simtime import SimClock
from repro.web.client import ClientStats
from repro.web.http import (
    CircuitOpen,
    ConnectionFailed,
    HttpError,
    RequestRejected,
    RequestTimeout,
    Response,
    TooManyRedirects,
)


class ReplayError(Exception):
    """The replay could not run to completion against the archive."""


class ReplayMismatch(ReplayError):
    """The replayed code diverged from the archived request sequence."""


#: Error type names archived in outcome records, mapped back to the
#: exception classes the live client raised.
_ERROR_TYPES: Dict[str, Type[HttpError]] = {
    "ConnectionFailed": ConnectionFailed,
    "RequestTimeout": RequestTimeout,
    "CircuitOpen": CircuitOpen,
    "TooManyRedirects": TooManyRedirects,
    "RequestRejected": RequestRejected,
    "HttpError": HttpError,
}


class ReplayClock(SimClock):
    """A simulated clock that can jump forward to archived instants.

    Replayed code still *advances* it (the underground solver charges
    its human solving pace), but each delivered outcome then pins the
    clock to the exact ``sim_at`` the live run recorded — absorbing all
    the politeness, backoff, and latency time replay skips.
    """

    def set_at_least(self, value: float) -> None:
        if value > self._now:
            self._now = float(value)


class ReplayClient:
    """Serves one client's archived outcome stream through the
    :class:`~repro.web.client.HttpClient` interface the collectors use."""

    def __init__(
        self,
        reader: ArchiveReader,
        outcomes: List[ExchangeRecord],
        client_id: str,
        clock: ReplayClock,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._reader = reader
        self._outcomes = list(outcomes)
        self._cursor = 0
        self.client_id = client_id
        self._clock = clock
        self.telemetry = telemetry or NULL_TELEMETRY
        #: Nothing goes over a wire offline; kept for the profiler.
        self.stats = ClientStats()

    # -- HttpClient surface --------------------------------------------------

    @property
    def clock(self) -> ReplayClock:
        return self._clock

    def begin_epoch(self, epoch: int) -> None:
        """No transport state to reset offline."""

    def get(self, url: str, **params: str) -> Response:
        return self.request(
            "GET", url, params={k: str(v) for k, v in params.items()}
        )

    def post(self, url: str, form: Optional[Dict[str, str]] = None) -> Response:
        return self.request("POST", url, form=form or {})

    def request(
        self,
        method: str,
        url: str,
        params: Optional[Dict[str, str]] = None,
        form: Optional[Dict[str, str]] = None,
    ) -> Response:
        record = self._next(method, url, params or {}, form or {})
        self._clock.set_at_least(record.sim_at)
        if record.error is not None:
            error_type = _ERROR_TYPES.get(record.error["type"], HttpError)
            raise error_type(record.error["message"])
        return self._reader.response_for(record)

    # -- stream bookkeeping --------------------------------------------------

    @property
    def remaining(self) -> int:
        return len(self._outcomes) - self._cursor

    def _next(
        self,
        method: str,
        url: str,
        params: Dict[str, str],
        form: Dict[str, str],
    ) -> ExchangeRecord:
        if self._cursor >= len(self._outcomes):
            raise ReplayMismatch(
                f"client {self.client_id!r} requested {method} {url} but "
                "the archived outcome stream is exhausted — the replayed "
                "code diverged from the recorded run"
            )
        record = self._outcomes[self._cursor]
        requested = (method.upper(), url, params, form)
        archived = (record.method, record.url, record.params, record.form)
        if requested != archived:
            raise ReplayMismatch(
                f"client {self.client_id!r} diverged at seq={record.seq}: "
                f"requested {method.upper()} {url} "
                f"params={params} form={form}, archive recorded "
                f"{record.method} {record.url} "
                f"params={record.params} form={record.form}"
            )
        self._cursor += 1
        return record


class ArchiveNetwork:
    """A sealed archive as the network a :class:`~repro.core.pipeline.Study`
    crawls: the :class:`~repro.core.pipeline.LiveNetwork` surface with one
    :class:`ReplayClient` per archived stream and no watchdog."""

    fault_injector = None
    disk_faults = None
    archive = None
    expected_counts = None

    def __init__(
        self, reader: ArchiveReader, telemetry: Optional[Telemetry] = None
    ) -> None:
        self._reader = reader
        self._telemetry = telemetry or NULL_TELEMETRY
        self._streams = reader.outcome_streams()
        self._clients: List[ReplayClient] = []
        self.clock = ReplayClock()

    def client(self, client_id: str, via_tor: bool = False) -> ReplayClient:
        client = ReplayClient(
            self._reader, self._streams.get(client_id, []), client_id,
            self.clock, self._telemetry,
        )
        self._clients.append(client)
        return client

    def _offline(self, *_args) -> None:
        """No sites to deploy, advance or moderate, no fault epochs."""

    deploy = begin_iteration = begin_post_collection = begin_sweep = _offline

    def finish(self) -> dict:
        """Check every archived outcome was consumed and pin the clock to
        the archived end-of-run instant, so ``simulated_seconds`` matches
        even if the final archived exchanges carried no outcome."""
        for replayed in self._clients:
            if replayed.remaining:
                raise ReplayMismatch(
                    f"client {replayed.client_id!r} left "
                    f"{replayed.remaining} archived outcomes unconsumed — "
                    "the replayed code diverged from the recorded run"
                )
        self.clock.set_at_least(self._reader.sim_seconds)
        return self._reader.summary()


def run_replay(
    archive_dir: str, telemetry: Optional[Telemetry] = None
):
    """Re-run Module-2 extraction + the full analysis suite offline.

    Returns a :class:`StudyResult` whose dataset, meta series, and
    scorecard are byte-identical to the live run that wrote the archive.
    Raises :class:`~repro.archive.records.ArchiveError` for a missing or
    unsealed archive, :class:`ReplayMismatch` when the replayed code
    requests anything other than the recorded sequence.
    """
    # Imported here, not at module top: repro.core.pipeline imports the
    # archive writer, so a top-level import would be circular.
    from repro.core.pipeline import Study, StudyConfig

    telemetry = telemetry or NULL_TELEMETRY
    reader = ArchiveReader.open(archive_dir)
    archived = reader.config
    config = StudyConfig(
        seed=int(archived["seed"]),
        scale=float(archived["scale"]),
        iterations=int(archived["iterations"]),
        include_underground=bool(archived["include_underground"]),
        telemetry_enabled=telemetry.enabled,
        # The archive this run reads (only a LiveNetwork writes one).
        archive_dir=archive_dir,
    )
    study = Study(config, telemetry, network=ArchiveNetwork(reader, telemetry))
    result = study.run()
    # Replay exists to analyze many times: score the result even when
    # telemetry is off and the run therefore skipped it.
    if result.scorecard is None:
        study.analyze(result)
    return result


__all__ = [
    "ArchiveNetwork",
    "ReplayClient",
    "ReplayClock",
    "ReplayError",
    "ReplayMismatch",
    "run_replay",
]
