"""One benchmark worker: a fresh process that sets up one workload and
measures it.  Started by ``run.py``; not meant to be run by hand.

Usage: ``python3 perfbench/worker.py '<json args>'`` where the args hold
``workload``, ``seed``, ``seconds``, ``mode`` (``inputs``, ``setup``,
``measure`` or ``trace``), ``inputs``, ``spawned`` (the spawning
process's ``perf_counter`` just before the spawn; the clock is
system-wide) and ``out`` (result path).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time

import workloads
from spans import Tracer
from workloads import percentile


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _verdict(checks, reference) -> dict:
    """Fold per-job checks: every digest equal, and equal to the
    reference when one applies.  A failed check is a failed operation."""
    digests = [check["digest"] for check in checks]
    problems = [p for check in checks for p in check["problems"]]
    if any(d != digests[0] for d in digests[1:]):
        problems.append("output digests differ between jobs")
    if reference is not None and digests[0] != reference:
        problems.append("output digests differ from the reference")
    return {
        "attempted": sum(check["attempted"] for check in checks),
        "failed": sum(check["failed"] for check in checks) + len(problems),
        "problems": problems,
        "digest": digests[0],
    }


# -- batch workloads ----------------------------------------------------------


def _timed_job(job, tracer=None):
    job.prepare()
    gc.collect()
    start = time.perf_counter()
    output = job.run(tracer)
    return output, start, time.perf_counter()


def measure_batch(job, seconds: float, reference) -> dict:
    """Repeat the job while another one fits in ``seconds``.  ``job_s``
    is the fastest job, as the host only ever slows one down, and
    ``capacity_rps`` the jobs per second at that speed."""
    samples, checks = [], []
    began = time.perf_counter()
    while True:
        output, start, end = _timed_job(job)
        samples.append(end - start)
        checks.append(job.check(output))
        del output
        if time.perf_counter() - began + samples[-1] > seconds:
            break
    return {
        "verdict": _verdict(checks, reference),
        "samples": {"job_s": samples},
        "metrics": {
            "job_s": min(samples),
            "capacity_rps": 1.0 / min(samples),
        },
        "loop": f"closed loop, one job at a time, {len(samples)} jobs",
    }


def trace_batch(job, reference, spans_path: str) -> dict:
    output, start, end = _timed_job(job)
    untraced_s = end - start
    untraced = job.check(output)
    del output

    tracer = Tracer()
    if job.name == "collect":
        tracer.install_crawl()
    else:
        tracer.install_analysis()
    tracer.install_durable_writes()
    try:
        output, start, end = _timed_job(job, tracer)
    finally:
        tracer.uninstall()
    recorder = tracer.recorder
    values = layer_values(recorder.summary(start, end), recorder.counts)
    values.update(job.layer_counts(output, tracer))
    values["trace.overhead_ratio"] = (end - start) / untraced_s
    traced = job.check(output)
    recorder.write(spans_path, start)
    return {"verdict": _verdict([untraced, traced], reference),
            "values": values}


# -- api workloads ------------------------------------------------------------


def measure_api(load, seconds: float, reference) -> dict:
    """Send the request sequence back to back through the site built in
    set-up, cycling through it in windows of consecutive requests, while
    another window fits in ``seconds``.  Each window gives one capacity
    sample, kept in the detail document; the run reports the capacity of
    the host's best decile of windows (``BEST_SHARE``), and ``job_s`` is
    the time the whole sequence takes at that capacity."""
    digest, bad = load.digest()
    attempted, failed = len(load.pool), bad
    rates = []
    total, window = len(load.urls), workloads.API_WINDOW
    position = 0
    began = time.perf_counter()
    while True:
        gc.collect()
        start, end, bad = load.closed_loop(load.fetch, position, window)
        failed += bad
        rates.append(window / (end - start))
        attempted += window
        position = (position + window) % total
        if end - began + (end - start) > seconds:
            break
    verdict = _verdict([{"attempted": attempted, "failed": failed,
                         "problems": [], "digest": {"responses": digest}}],
                       reference)
    best = workloads.BEST_SHARE
    capacity = percentile(sorted(rates), 1.0 - best)
    return {
        "verdict": verdict,
        "samples": {"window_rps": rates},
        "metrics": {
            "job_s": total / capacity,
            "capacity_rps": capacity,
        },
        "loop": (f"in-process dispatch through Internet.fetch, one thread, "
                 f"no socket, one client label; closed loop sending back to "
                 f"back, {len(rates)} windows of {window} requests; "
                 f"best-{best:g} share of windows reported"),
        "cache": load.cache.stats(),
    }


def trace_api(load, reference, spans_path: str) -> dict:
    untraced_digest, bad = load.digest()
    gc.collect()
    start, end, failed = load.closed_loop(load.fetch)
    untraced_s = end - start
    late, open_bad = load.open_loop(load.fetch)
    failed += bad + open_bad

    tracer = Tracer()
    tracer.install_dispatch()
    tracer.install_cache()
    tracer.proxy_catalog(load.catalog)
    try:
        traced_digest, bad = load.digest()
        failed += bad
        fetch, cache = load.fresh()
        tracer.recorder.clear()
        gc.collect()
        start, end, bad = load.closed_loop(fetch)
        failed += bad
    finally:
        tracer.uninstall()
    recorder = tracer.recorder
    values = layer_values(recorder.summary(start, end), recorder.counts)
    values.update({
        "serve.cache.hits": cache.hits,
        "serve.cache.misses": cache.misses,
        "serve.cache.evictions": cache.evictions,
        "serve.cache.hit_ratio": cache.hit_rate,
        "loadgen.late_ms_max": 1000.0 * late,
        "trace.overhead_ratio": (end - start) / untraced_s,
    })
    recorder.write(spans_path, start)
    attempted = 2 * (len(load.pool) + len(load.urls)) + len(load.gaps)
    checks = [{"attempted": attempted, "failed": failed, "problems": [],
               "digest": {"responses": untraced_digest}},
              {"attempted": 0, "failed": 0, "problems": [],
               "digest": {"responses": traced_digest}}]
    return {"verdict": _verdict(checks, reference), "values": values}


# -- per-layer values ---------------------------------------------------------

#: Spans whose call count is a per-layer metric.
_CALL_METRICS = ("web.site_handle", "web.fetch", "web.parse_html", "web.find",
                 "nlp.language_filter")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_values(summary: dict, counts: dict) -> dict:
    """Self times, calls and counters of one traced job by metric name."""
    values = {f"{name}.self_s": value
              for name, value in summary["self_s"].items()}
    values.update({f"{name}.calls": summary["calls"].get(name, 0)
                   for name in _CALL_METRICS})
    values.update(counts)
    values.update({
        "nlp.language_filter.english_ratio": _ratio(
            counts.get("nlp.language_filter.english", 0),
            summary["calls"].get("nlp.language_filter", 0)),
        "nlp.cluster.noise_ratio": _ratio(
            counts.get("nlp.cluster.noise", 0),
            counts.get("nlp.cluster.points", 0)),
        "analysis.vetting.scam_ratio": _ratio(
            counts.get("analysis.vetting.scam", 0),
            counts.get("analysis.vetting.clusters", 0)),
        "trace.job_s": summary["job_s"],
        "trace.uncovered_s": summary["uncovered_s"],
    })
    return values


# -- entry point --------------------------------------------------------------


def main(argv) -> int:
    args = json.loads(argv[1])
    workload, seed = args["workload"], args["seed"]
    if args["mode"] == "inputs":
        result = {"inputs": workloads.prepare_inputs(workload, seed)}
        with open(args["out"], "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        return 0
    if workload in workloads.BATCH_JOBS:
        subject = workloads.BATCH_JOBS[workload](seed, args["inputs"])
    else:
        subject = workloads.ApiLoad(args["inputs"])
    result = {"setup_s": time.perf_counter() - args["spawned"]}

    if args["mode"] != "setup":
        reference = None
        if seed == workloads.DEFAULT_SEED:
            reference = (workloads.load_reference() or {}).get(workload)
        if args["mode"] == "trace":
            spans_path = os.path.join(workloads.WORK, "trace",
                                      f"{workload}-seed{seed}.spans.jsonl")
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            run = (trace_batch if workload in workloads.BATCH_JOBS
                   else trace_api)
            result.update(run(subject, reference, spans_path))
            result["spans_file"] = os.path.relpath(spans_path, workloads.ROOT)
        else:
            run = (measure_batch if workload in workloads.BATCH_JOBS
                   else measure_api)
            result.update(run(subject, args["seconds"], reference))
        if seed == workloads.DEFAULT_SEED and reference is None:
            result["verdict"]["problems"].append("no reference digests")
            result["verdict"]["failed"] += 1
    result["peak_rss_mb"] = _peak_rss_mb()
    with open(args["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
