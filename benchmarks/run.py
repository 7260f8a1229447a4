"""Benchmark of dnacap: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload figures|capacity_grid|ingest \
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it uses the checkout's ``src/``
and ``BENCHMARK.json`` and writes only under ``.bench_work/`` at the
checkout's root.  It generates the workload's inputs from the seed, times
set-up in fresh processes, runs whole passes of the workload, each in a
fresh measured process (``worker.py``), while the time allows, checks the
first pass's outputs against the oracle, and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Every time
is reported at the reference speed (``speed.py``).  See README.md for
what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import gen
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 12
WORKER_TIMEOUT_S = 150
# the fewest passes a run makes: on capacity_grid and ingest each op's
# latency is the mean of at least three timings
MIN_PASSES = {"figures": 1, "capacity_grid": 3, "ingest": 3}
# highest percentile with at least ten ops beyond it in one run (README)
TAIL_PERCENTILE = {"figures": 99.5, "capacity_grid": 95, "ingest": 75}
EXPECTED_FAULTS = {"figures": {check.STOP_RULE, check.DIVERGENCE, check.ROUNDING},
                   "capacity_grid": set(), "ingest": set()}


class BenchError(RuntimeError):
    pass


def _units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def _worker_env() -> dict:
    # One process and one workload at a time; numpy's BLAS pool is kept to
    # one thread, which is no larger than nproc and leaves 64-element
    # products unchanged.
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], log) -> tuple[float, str]:
    """Run worker.py to its end; return the seconds until it was ready and what it printed after."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, stderr=log, text=True,
                            env=_worker_env())
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"worker did not get ready; see {log.name}")
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran past {WORKER_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}; see {log.name}")
    return ready, rest


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    planted = gen.write_inputs(workload, seed, inputs)
    oracle.self_check()
    base = ["--workload", workload, "--inputs", str(inputs)]
    passes = []
    with open(work / "worker.log", "w") as log:
        setups = []
        for probe in range(SETUP_PROBES + 1):  # the first one only warms caches
            ready, printed = _worker(base + ["--setup-only"], log)
            if probe:
                setups.append(ready * float(printed))
        start = time.perf_counter()
        durations = []
        while (len(passes) < MIN_PASSES[workload]
               or time.perf_counter() - start + statistics.median(durations) <= seconds):
            t0 = time.perf_counter()
            out = work / f"pass_{len(passes)}.json"
            extra = ["--outputs", "--spans", str(work / "spans.jsonl")] if not passes else []
            _worker(base + ["--trace", str(trace), "--out", str(out)] + extra, log)
            passes.append(json.loads(out.read_text()))
            durations.append(time.perf_counter() - t0)
    first = passes[0]

    report = check.CHECKS[workload](first.pop("outputs"), planted)
    consistent = len({p["digest"] for p in passes}) == 1
    correct = (consistent and report.ops == len(first["latencies_s"])
               and set(report.failed) <= EXPECTED_FAULTS[workload])
    (work / "report.json").write_text(json.dumps({
        "passes": len(passes), "ops_per_pass": report.ops, "failed_by_class": report.failed,
        "unexpected": report.unexpected, "ba_runs": report.ba_runs,
        "ba_uncertified": report.ba_uncertified, "worst_rel_gap": report.worst_rel_gap,
        "chunks_per_pass": [p["chunks"] for p in passes],
        "scale_per_pass": [p["scale"] for p in passes],
    }, indent=1))
    print(f"{workload} seed {seed}: {len(passes)} pass(es) of {report.ops} ops, failed per "
          f"pass {dict(report.failed)}, {len(report.unexpected)} unexpected", file=sys.stderr)
    for what in report.unexpected[:10]:
        print(f"  unexpected: {what}", file=sys.stderr)

    if trace:
        units = _units("per_layer")
        layers = {name: statistics.median(p["layers"][name] for p in passes)
                  for name in passes[0]["layers"]}
        layers["cdna.ba_uncertified"] = report.ba_uncertified
        layers["cdna.worst_rel_gap"] = report.worst_rel_gap
        metrics = {name: _metric(layers[name], unit) for name, unit in units.items()}
    else:
        units = _units("end_to_end")
        # each op's latency: the mean of its timings, one per pass, each at
        # the reference speed around it (a mean, as the speed is one)
        latencies = np.mean([np.array(p["latencies_s"]) * np.array(p["op_scales"])
                             for p in passes], axis=0)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.fmean(p["wall_s"] * p["scale"] for p in passes),
            "op_p50_ms": np.median(latencies) * 1e3,
            "op_tail_ms": np.percentile(latencies, TAIL_PERCENTILE[workload]) * 1e3,
            "peak_rss_mb": statistics.median(p["peak_rss_kib"] for p in passes) / 1024.0,
        }
        metrics = {name: _metric(values[name], unit) for name, unit in units.items()}
    return {"correct": bool(correct), "attempted": report.ops * len(passes),
            "failed": report.failed_ops * len(passes), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(check.CHECKS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dnacap" / "__init__.py").is_file():
        print(f"benchmark: no dnacap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        outcome = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
