"""The repository benchmark: three workloads, end-to-end and per-layer.

Run one workload::

    python3 perfbench/run.py --workload collect --seed 2024 --seconds 30

or every workload in turn (``--workload all``, the default).  Each
metric is printed as ``workload metric value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics named in ``BENCHMARK.json``, measured untraced; ``--trace 1``
runs the job once untraced and once with the layer wrappers of
``spans.py`` installed, and reports the per-layer metrics.

Inputs are generated from ``--seed`` by a worker process, outside every
timed region; each measurement then runs in another fresh worker
process (``worker.py``).  Everything written goes under ``.bench_work/``
of the checkout; ``.bench_work/results/`` keeps one detail document per
run (samples, digests, loop description, environment fingerprint).

Exit status is 2 when the checkout has no program source, when
``BENCHMARK.json`` is missing, or when a worker fails; nothing is printed
on standard output then.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import workloads

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "worker.py")
#: Fresh processes whose set-up time is measured per run (the measuring
#: worker is the last of them); ``setup_s`` is the fastest, as the host
#: only ever slows a process down.
SETUP_RUNS = 7
#: Every run ends well inside three minutes.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def _spawn(mode: str, workload: str, seed: int, seconds: float,
           inputs: dict, deadline: float) -> dict:
    out = os.path.join(workloads.WORK, "run", f"{workload}-{mode}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    if os.path.exists(out):
        os.remove(out)
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before the {mode} worker")
    args = {"workload": workload, "seed": seed, "seconds": seconds,
            "mode": mode, "inputs": inputs, "out": out,
            "spawned": time.perf_counter()}
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(args)],
            cwd=workloads.ROOT, stdout=sys.stderr, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {mode} worker timed out") from None
    if proc.returncode != 0 or not os.path.exists(out):
        raise BenchError(
            f"{workload}: {mode} worker exited with {proc.returncode}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict, deadline: float) -> dict:
    inputs_started = time.perf_counter()
    # A worker makes the inputs: ``ru_maxrss`` carries over from the
    # spawning process, so this process must stay small.
    inputs = _spawn("inputs", workload, seed, seconds, {},
                    deadline)["inputs"]
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "inputs": {
                  name: os.path.relpath(path, workloads.ROOT)
                  for name, path in inputs.items()},
              "inputs_s": time.perf_counter() - inputs_started,
              "env": workloads.env_fingerprint()}
    if trace:
        result = _spawn("trace", workload, seed, seconds, inputs, deadline)
        wanted = spec["per_layer"]
        values = {m["name"]: result["values"].get(m["name"], 0.0)
                  for m in wanted}
        detail["unlisted_values"] = {
            k: v for k, v in result["values"].items() if k not in values}
        detail["spans_file"] = result["spans_file"]
    else:
        setups = [_spawn("setup", workload, seed, seconds, inputs,
                         deadline)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        result = _spawn("measure", workload, seed, seconds, inputs, deadline)
        setups.append(result["setup_s"])
        wanted = spec["end_to_end"]
        values = dict(result["metrics"],
                      setup_s=min(setups),
                      peak_rss_mb=result["peak_rss_mb"])
        detail.update(setup_samples_s=setups, loop=result["loop"],
                      samples=result["samples"])
        if "cache" in result:
            detail["cache"] = result["cache"]
    verdict = result["verdict"]
    detail["verdict"] = verdict
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    detail["metrics"] = metrics
    results_dir = os.path.join(workloads.WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir,
                        f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, sort_keys=True)
    return {"correct": not verdict["problems"] and verdict["failed"] == 0,
            "attempted": int(verdict["attempted"]),
            "failed": int(verdict["failed"]),
            "problems": verdict["problems"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not workloads.source_present():
        print(f"no program source under {workloads.SRC}", file=sys.stderr)
        return 2
    spec_path = os.path.join(workloads.ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        print(f"missing {spec_path}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)

    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    deadline = time.perf_counter() + RUN_BUDGET_S * len(names)
    results = {}
    try:
        for workload in names:
            results[workload] = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), spec,
                deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    for workload, result in results.items():
        for problem in result["problems"]:
            print(f"{workload}: CHECK FAILED: {problem}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            print(f"{workload:<9} {name:<36} {metric['value']:>16.6f} "
                  f"{metric['unit']}")
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{workload}.{name}": metric
                   for workload, result in results.items()
                   for name, metric in result["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
