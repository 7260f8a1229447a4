"""The measured process: one pass of one workload's fixed job.

    python3 benchmarks/worker.py --workload NAME --inputs DIR --out PASS.json \
        [--trace 0|1] [--outputs] [--spans SPANS.jsonl]
    python3 benchmarks/worker.py --workload NAME --inputs DIR --setup-only

It imports dnacap from the checkout's ``src/``, loads the workload's
inputs and prints ``ready`` (the end of set-up).  With ``--setup-only`` it
then runs the calibration kernel (``speed.py``) and prints the factor
from its raw seconds to the reference speed.  Otherwise it runs one pass of the job, with a calibration chunk
between ops at most every ``speed.INTERVAL_S``, and writes the pass's raw
times, the factor to the reference speed, its peak memory and a digest of
what it computed (with ``--outputs``, the outputs themselves, for the
oracle checks).  Every pass runs in a fresh process, so no state carries
from one timing to the next.  With ``--trace 1`` spans are recorded at
every module boundary and the pass also reports its per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import spans
import speed

ROOT = Path(__file__).resolve().parents[1]

# one channel point for the ingest workload's rates: shallow enough that a
# gene host's rate is well above zero, so the rate checks bite
INGEST_POINT = (1e-3, 0.1, 10)
SETUP_CHUNKS = 40


def import_dnacap() -> dict:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dnacap
    from dnacap import cdna, cli, ncdna, sequences

    if Path(dnacap.__file__).resolve().parent != (src / "dnacap").resolve():
        raise SystemExit(f"dnacap imported from {dnacap.__file__}, not from {src}")
    return {"dnacap": dnacap, "cdna": cdna, "cli": cli, "ncdna": ncdna,
            "sequences": sequences}


def _rate_record(result) -> dict:
    return {"rate": result.rate, "mi": result.mutual_information,
            "h": result.host_entropy, "iterations": result.iterations,
            "converged": bool(result.converged), "cond": result.conditional.tolist()}


def _params(p) -> list:
    return [p.q, p.gamma, int(p.m)]


def _ba_record(args, kwargs, result) -> dict:
    host, params = args[0], args[1]
    return {"host": list(map(float, host)), "params": _params(params), **_rate_record(result)}


# ---------------------------------------------------------------------------
# workloads: the constructor is set-up (it loads the inputs); run_pass() is
# one pass of the fixed job and returns each op's start and raw latency;
# outputs() describes what that pass computed


class Figures:
    """``dnacap figures`` through cli.main; an op is one CSV row."""

    def __init__(self, modules, inputs: Path, recorder: spans.Spans, meter: speed.Speedometer):
        self.cli = modules["cli"]
        self.recorder = recorder
        recorder.after_op = meter.tick
        self.gene = inputs / "gene.fa"
        if not self.gene.is_file():
            raise SystemExit(f"missing input {self.gene}")
        self.out_dir = inputs.parent / "figures_out"
        self.listing = ""

    def run_pass(self) -> list[tuple[float, float]]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.cli.main(["figures", "--out", str(self.out_dir),
                                  "--fasta", f"gene={self.gene}"])
        if code != 0:
            raise SystemExit(f"dnacap figures exited {code}")
        self.listing = stdout.getvalue()
        return [(span[spans.START], span[spans.END] - span[spans.START])
                for span in self.recorder.ops()]

    def outputs(self) -> dict:
        files = [Path(line) for line in self.listing.splitlines()]
        ops = []
        for span in self.recorder.ops():
            attr = span[spans.NAME].split(".")[1]
            args, kwargs, result = span[spans.CALL]
            if attr == "capacity_nc":
                ops.append({"fn": attr, "params": _params(args[0]), "value": result.value})
            elif attr == "ba_optimize":
                ops.append({"fn": attr, **_ba_record(args, kwargs, result)})
            elif attr == "steganographic_rate":
                ops.append({"fn": attr, "host": list(map(float, args[1])),
                            "params": _params(args[2]), **_rate_record(result)})
            elif attr == "uniform_conditional_rate":
                ops.append({"fn": attr, "host": list(map(float, args[0])),
                            "params": _params(args[1]), **_rate_record(result)})
            elif attr == "deterministic_rate":
                ops.append({"fn": attr, "amino": args[0], "params": _params(args[1]),
                            "method": args[2] if len(args) > 2 else kwargs.get("method", "ba"),
                            **_rate_record(result)})
            else:
                ops.append({"fn": attr})
        return {"files": [[f.name, f.read_text()] for f in files], "ops": ops}


class CapacityGrid:
    """capacity_c over a seeded grid of (q, gamma, m); an op is one point."""

    def __init__(self, modules, inputs: Path, recorder: spans.Spans, meter: speed.Speedometer):
        self.cdna = modules["cdna"]
        self.params_type = modules["dnacap"].ChannelParams
        self.points = json.loads((inputs / "grid.json").read_text())
        self.recorder = recorder
        self.meter = meter
        self.results = []

    def run_pass(self) -> list[tuple[float, float]]:
        latencies = []
        for q, gamma, m in self.points:
            start = time.perf_counter()
            result = self.cdna.capacity_c(self.params_type(q=q, gamma=gamma, m=m))
            latencies.append((start, time.perf_counter() - start))
            self.results.append(result)
            self.meter.tick()
        return latencies

    def outputs(self) -> dict:
        runs = [_ba_record(*call) for call in self.recorder.calls("cdna.ba_optimize")]
        return {"points": self.points,
                "results": [{"best": r.best_amino, "rate": r.rate,
                             "table": r.per_amino.tolist()} for r in self.results],
                "ba_runs": runs}


class Ingest:
    """Gene-set FASTA files through ingestion and two rates; an op is one file."""

    def __init__(self, modules, inputs: Path, recorder: spans.Spans, meter: speed.Speedometer):
        self.cdna = modules["cdna"]
        self.sequences = modules["sequences"]
        self.params = modules["dnacap"].ChannelParams(*INGEST_POINT)
        self.texts = [p.read_text() for p in sorted(inputs.glob("genes_*.fa"))]
        if not self.texts:
            raise SystemExit(f"no gene-set files under {inputs}")
        self.meter = meter
        self.results = []

    def run_pass(self) -> list[tuple[float, float]]:
        latencies = []
        seq, cdna = self.sequences, self.cdna
        for text in self.texts:
            start = time.perf_counter()
            counts = seq.ingest_fasta(text)
            pmf = seq.amino_pmf(counts)
            usage = seq.codon_usage(counts)
            steg = cdna.steganographic_rate(usage, pmf, self.params)
            uniform = cdna.uniform_conditional_rate(pmf, self.params)
            latencies.append((start, time.perf_counter() - start))
            self.results.append((counts, pmf, usage, steg, uniform))
            self.meter.tick()
        return latencies

    def outputs(self) -> dict:
        return {"params": list(INGEST_POINT), "files": [
            {"counts": counts.counts.tolist(), "pmf": pmf.tolist(), "usage": usage.tolist(),
             "steg": _rate_record(steg), "uniform": _rate_record(uniform)}
            for counts, pmf, usage, steg, uniform in self.results]}


WORKLOADS = {"figures": Figures, "capacity_grid": CapacityGrid, "ingest": Ingest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--outputs", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    modules = import_dnacap()
    recorder = spans.Spans()
    meter = speed.Speedometer()
    job = WORKLOADS[args.workload](modules, args.inputs, recorder, meter)
    print("ready", flush=True)
    if args.setup_only:
        meter.sample(SETUP_CHUNKS)
        print(meter.scale(), flush=True)
        return 0

    spans.install(recorder, modules, trace=bool(args.trace))
    meter.reset()
    start = time.perf_counter()
    ops = job.run_pass()
    wall = time.perf_counter() - start - meter.spent_s
    starts, latencies = zip(*ops)
    if not meter.samples:
        meter.sample()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = meter.scale()
    outputs = job.outputs()
    result = {"wall_s": wall, "latencies_s": latencies, "scale": scale,
              "op_scales": meter.local_scales(starts, latencies),
              "chunks": len(meter.samples), "peak_rss_kib": peak_kib,
              "digest": hashlib.sha256(json.dumps(outputs).encode()).hexdigest()}
    if args.outputs:
        result["outputs"] = outputs
    if args.trace:
        result["layers"] = spans.layer_metrics(recorder.summary(scale))
        # the spans a traced pass records beyond an untraced one (those that
        # keep no call), times the cost of one, at the reference speed
        extra = sum(span[spans.CALL] is None for span in recorder.spans)
        result["layers"]["trace.overhead_s"] = extra * spans.span_cost_s() * scale
        if args.spans:
            recorder.write(args.spans)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
