"""In-memory spans around dnacap's public functions.

One mechanism serves both kinds of run.  Each wrapped function records a
span ``[name, start, end, parent, count, call, outermost]``:

* the op functions (``OP_FUNCTIONS``) are wrapped in every run and keep
  their call (arguments and result), which is how the worker learns what
  each op computed and how long the outermost call took;
* a traced run also wraps the public functions at every module boundary
  (``install(..., trace=True)``); where the boundary has one, a count is
  taken from the arguments or the result.

Self time is a span's duration minus the time its child spans cover.
Nothing here touches dnacap's source: the wrappers replace module
attributes, which the package itself looks up at call time.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

NAME, START, END, PARENT, COUNT, CALL, OUTERMOST = range(7)

#: functions whose outermost call is an op on ``figures``; every call of
#: them keeps its arguments and result
OP_FUNCTIONS = {
    "cdna": ("ba_optimize", "uniform_conditional_rate", "steganographic_rate",
             "deterministic_rate", "capacity_c"),
    "ncdna": ("capacity_nc",),
}


def _ba_count(args, kwargs, result) -> list:
    return [result.iterations, bool(result.converged)]


class Spans:
    def __init__(self):
        self.spans: list[list] = []
        self.after_op = None  # called when an outermost op returns
        self._stack: list[int] = []
        self._ops_open = 0

    def wrap(self, module, attr: str, name: str, count=None, keep: bool = False) -> None:
        """Record a span around ``module.attr``.

        ``count(args, kwargs, result)`` adds a count; ``keep`` keeps the call.
        """
        inner = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None, None,
                    keep and not self._ops_open]
            spans.append(span)
            stack.append(index)
            self._ops_open += keep
            try:
                result = inner(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                self._ops_open -= keep
            if count is not None:
                span[COUNT] = count(args, kwargs, result)
            if keep:
                span[CALL] = (args, kwargs, result)
                if span[OUTERMOST] and self.after_op is not None:
                    self.after_op()
            return result

        setattr(module, attr, wrapped)

    def ops(self) -> list[list]:
        """The outermost op calls, in order."""
        return [span for span in self.spans if span[OUTERMOST]]

    def calls(self, name: str) -> list[tuple]:
        """(args, kwargs, result) of every kept call of ``name``, at any depth."""
        return [span[CALL] for span in self.spans if span[NAME] == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, count, _, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "count": count}) + "\n")

    def summary(self, scale: float = 1.0) -> dict:
        """Per span name: calls, total and self seconds, durations, counts.

        Every time is multiplied by ``scale``.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            entry = out.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                                "durations": [], "counts": []})
            duration = (span[END] - span[START]) * scale
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[index] * scale
            entry["durations"].append(duration)
            entry["counts"].append(span[COUNT])
        return out


def install(spans: Spans, dnacap_modules: dict, trace: bool) -> None:
    """Wrap the op functions and, with ``trace``, every other layer boundary."""
    cdna = dnacap_modules["cdna"]
    for module_name, attrs in OP_FUNCTIONS.items():
        for attr in attrs:
            spans.wrap(dnacap_modules[module_name], attr, f"{module_name}.{attr}",
                       count=_ba_count if attr == "ba_optimize" else None, keep=True)
    if not trace:
        return
    sequences = dnacap_modules["sequences"]
    cli = dnacap_modules["cli"]
    # mutation_channel, as bound in cdna: channel construction
    for attr in ("base_matrix_power", "codon_matrix", "codon_matrix_deviations"):
        spans.wrap(cdna, attr, f"mutation_channel.{attr}")
    spans.wrap(cdna, "evaluate_rate", "cdna.evaluate_rate")
    spans.wrap(sequences, "parse_fasta", "sequences.parse_fasta",
               count=lambda a, k, r: sum(len(rec.bases) for rec in r))
    for attr in ("frame_codons", "count_codons", "ingest_fasta", "amino_pmf", "codon_usage"):
        spans.wrap(sequences, attr, f"sequences.{attr}")
    spans.wrap(cli, "run_sweep", "cli.run_sweep", count=lambda a, k, r: len(r))
    spans.wrap(cli, "rows_to_csv", "cli.rows_to_csv")


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one traced span adds to a call: a counted no-op, wrapped and bare."""

    class Module:
        @staticmethod
        def noop(x):
            return x

    bare = Module.noop
    start = time.perf_counter()
    for i in range(calls):
        bare(i)
    bare_s = time.perf_counter() - start
    spans = Spans()
    spans.wrap(Module, "noop", "noop", count=lambda a, k, r: r)
    wrapped = Module.noop
    start = time.perf_counter()
    for i in range(calls):
        wrapped(i)
    return max(0.0, (time.perf_counter() - start - bare_s) / calls)


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics that come from spans (one traced pass)."""

    def get(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "durations": [], "counts": []})

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    builds = get("mutation_channel.codon_matrix")["calls"]
    build_s = sum(get(f"mutation_channel.{a}")["total_s"]
                  for a in ("base_matrix_power", "codon_matrix", "codon_matrix_deviations"))
    ba = get("cdna.ba_optimize")
    iterations = sum(c[0] for c in ba["counts"])
    unconverged = [d for d, c in zip(ba["durations"], ba["counts"]) if not c[1]]
    evaluate = get("cdna.evaluate_rate")
    capacity = get("cdna.capacity_c")
    nc = get("ncdna.capacity_nc")
    parse = get("sequences.parse_fasta")
    bases = sum(parse["counts"])
    ingest_calls = get("sequences.ingest_fasta")["calls"]
    tables_s = get("sequences.amino_pmf")["total_s"] + get("sequences.codon_usage")["total_s"]
    rows = sum(get("cli.run_sweep")["counts"])
    return {
        "mutation_channel.builds": builds,
        "mutation_channel.build_us": ratio(build_s, builds, 1e6),
        "cdna.ba_runs": ba["calls"],
        "cdna.ba_iterations": iterations,
        "cdna.ba_unconverged": len(unconverged),
        "cdna.ba_stalled_s": sum(unconverged),
        "cdna.ba_iter_us": ratio(ba["self_s"], iterations, 1e6),
        "cdna.ba_run_p50_ms": statistics.median(ba["durations"]) * 1e3 if ba["calls"] else 0.0,
        "cdna.capacity_ms": ratio(capacity["total_s"], capacity["calls"], 1e3),
        "cdna.evaluate_calls": evaluate["calls"],
        "cdna.evaluate_us": ratio(evaluate["total_s"], evaluate["calls"], 1e6),
        "ncdna.capacity_us": ratio(nc["total_s"], nc["calls"], 1e6),
        "sequences.bases": bases,
        "sequences.parse_ns_per_base": ratio(parse["total_s"], bases, 1e9),
        "sequences.frame_ns_per_base": ratio(get("sequences.frame_codons")["total_s"], bases, 1e9),
        "sequences.count_ns_per_base": ratio(get("sequences.count_codons")["total_s"], bases, 1e9),
        "sequences.tables_us": ratio(tables_s, ingest_calls, 1e6),
        "cli.rows": rows,
        "cli.csv_us_per_row": ratio(get("cli.rows_to_csv")["total_s"], rows, 1e6),
    }
