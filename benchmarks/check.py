"""Checks of one pass's outputs against the oracle and the planted inputs.

The stated accuracy, the same for every row: a value in bits is accurate
when it is within ``ACC_REL * x + ACC_ABS`` of the reference x.  The
absolute floor is the package's own threshold below which a noncoding
capacity prints as zero; below it a difference of O(1)-bit quantities in
double precision is rounding.

ACC_REL is the largest relative error that the certified BA runs of
``capacity_grid`` come near (their duality gaps reach 2e-7), so an
optimizer that stops earlier than that shows as failed rows.

A Blahut-Arimoto (BA) result is certified when its mutual information v
lies within that accuracy of every point of the oracle's band
[I(cond), B]: the optimum lies in the band, so ``|v - I| <= eps(I)`` and
``B - v <= eps(B)`` put v within the accuracy of the optimum.  A value
that misses its reference is tried against the channel whose eigenvalues
``1 + q*rho`` are rounded to double before their m-th power; when it
meets that one, the fault class is ``eigenvalue-rounding``.  Otherwise a
run that misses the first condition has a wrong divergence evaluation
(fault class ``divergence``); one that meets it but misses the second
stopped too early or stalled (fault class ``stop-rule``), and so does an
unconverged run whose v lies below I(cond): it stopped at ``max_iter``
one update short of the conditional it returns.  Evaluated
rates (no optimizer) fail as ``eigenvalue-rounding`` or ``divergence``,
``ncdna`` rows as ``eigenvalue-rounding`` only.

Each check function returns a Report: failed ops of one pass by class,
anything that is no known fault (``unexpected``; the run is then not
correct) and the BA counts the traced run reports.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import oracle

ACC_REL = 1e-6
ACC_ABS = 1e-15
STOP_RULE, DIVERGENCE, UNEXPECTED = "stop-rule", "divergence", "unexpected"
ROUNDING = "eigenvalue-rounding"
# BA runs whose bound is at least this large enter cdna.worst_rel_gap, the
# range where the accuracy is relative
GAP_FLOOR = 1e-12


def eps(x: float) -> float:
    return ACC_REL * abs(x) + ACC_ABS


@dataclass
class Report:
    ops: int = 0
    failed: Counter = field(default_factory=Counter)
    unexpected: list = field(default_factory=list)
    ba_runs: int = 0
    ba_uncertified: int = 0
    worst_rel_gap: float = 0.0

    @property
    def failed_ops(self) -> int:
        return sum(self.failed.values())

    def settle(self, fault: str | None, unexpected_before: int) -> None:
        """Count one op: failed by a fault class, by a new issue, or passed."""
        if len(self.unexpected) > unexpected_before:
            self.failed[UNEXPECTED] += 1
        elif fault is not None:
            self.failed[fault] += 1

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.unexpected.append(what)
        return ok


@functools.lru_cache(maxsize=None)
def _channel(q: float, gamma: float, m: int, rounded: bool) -> oracle.CodonChannel:
    return oracle.CodonChannel(q, gamma, m, rounded)


def _info_and_bound(run: dict, rounded: bool = False) -> tuple[float, float]:
    return oracle.information_and_bound(run["host"], run["cond"],
                                        _channel(*run["params"], rounded))


def _info_fault(run: dict) -> tuple[str | None, tuple[float, float]]:
    """The fault of a run's I(cond), and the (I, B) of the channel it matches."""
    exact = _info_and_bound(run)
    if abs(run["mi"] - exact[0]) <= eps(exact[0]):
        return None, exact
    rounded = _info_and_bound(run, rounded=True)
    if abs(run["mi"] - rounded[0]) <= eps(rounded[0]):
        return ROUNDING, rounded
    return DIVERGENCE, exact


def _ba_fault(report: Report, run: dict) -> str | None:
    """Check one BA run; return its fault class, or None when certified."""
    fault, (info, bound) = _info_fault(run)
    v = run["mi"]
    if fault == DIVERGENCE and not run["converged"] and v < info:
        # stopped at max_iter: v is the information of the iterate before
        # the conditional it returns, below it by one update
        fault = STOP_RULE
    report.ba_runs += 1
    if bound >= GAP_FLOOR:
        report.worst_rel_gap = max(report.worst_rel_gap, (bound - v) / bound)
    if fault != DIVERGENCE and bound - v > eps(bound):
        fault = STOP_RULE
    report.ba_uncertified += fault is not None
    return fault


def _evaluation_fault(run: dict) -> str | None:
    return _info_fault(run)[0]


def _rate_consistent(report: Report, run: dict, where: str) -> bool:
    h = oracle.entropy(run["host"])
    return (report.expect(abs(run["h"] - h) <= 1e-12 * max(1.0, h), f"{where}: host entropy")
            and report.expect(run["rate"] == max(0.0, run["mi"] - run["h"]),
                              f"{where}: rate is not max(0, I - H)"))


def _uniform_cond() -> np.ndarray:
    return 1.0 / oracle.GROUP_SIZES[oracle.AMINO_INDEX_OF_CODON]


def planted_tables(counts) -> tuple[list, list, list]:
    """(counts, amino pmf, synonymous usage) from planted codon counts, exactly."""
    total = sum(counts)
    mass = [sum(counts[i] for i in oracle.GROUPS[a]) for a in range(21)]
    usage = [0.0] * 64
    for a, group in enumerate(oracle.GROUPS):
        for i in group:
            usage[i] = counts[i] / mass[a] if mass[a] else 1.0 / len(group)
    return list(counts), [c / total for c in mass], usage


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# figures


def check_figures(outputs: dict, planted: dict) -> Report:
    report = Report()
    _, gene_pmf, gene_usage = planted_tables(planted["counts"])
    rows = []
    for name, text in outputs["files"]:
        lines = text.splitlines()
        report.expect(lines[0] == "m,q,gamma,quantity,method,host,value_bits", f"{name}: header")
        rows += [(name, line.split(",")) for line in lines[1:]]
    ops = outputs["ops"]
    report.ops = len(rows)
    if not report.expect(len(rows) == len(ops), f"{len(rows)} CSV rows for {len(ops)} calls"):
        return report
    for (name, row), op in zip(rows, ops):
        before = len(report.unexpected)
        report.settle(_figures_row(report, name, row, op, gene_pmf, gene_usage), before)
    return report


def _figures_row(report, name, row, op, gene_pmf, gene_usage) -> str | None:
    m, q, gamma, quantity, method, host_label, value = row
    where = f"{name} m={m} {quantity} {method} {host_label}"
    report.expect([_fmt(float(q)), _fmt(float(gamma)), int(m)]
                  == [_fmt(op["params"][0]), _fmt(op["params"][1]), op["params"][2]],
                  f"{where}: parameters")
    if op["fn"] == "capacity_nc":
        report.expect(value == _fmt(op["value"]), f"{where}: printed value")
        ref = oracle.noncoding_capacity(*op["params"])
        if abs(op["value"] - ref) <= eps(ref):
            return None
        rounded = oracle.noncoding_capacity(*op["params"], rounded=True)
        if abs(op["value"] - rounded) <= eps(rounded):
            return ROUNDING
        report.expect(False, f"{where}: ncdna {op['value']} vs {ref}")
        return None
    report.expect(value == _fmt(op["rate"]), f"{where}: printed value")
    if host_label == "uniform":
        expected_host = oracle.GROUP_SIZES / 64.0
    elif host_label.startswith("amino:"):
        expected_host = np.zeros(21)
        expected_host[oracle.AMINO_ORDER.index(host_label[6:])] = 1.0
    else:
        expected_host = np.asarray(gene_pmf)
    if op["fn"] == "deterministic_rate":
        op["host"] = expected_host.tolist()
    if not (report.expect(np.array_equal(op["host"], expected_host), f"{where}: host pmf")
            and _rate_consistent(report, op, where)):
        return None
    cond = np.asarray(op["cond"])
    if op["fn"] == "uniform_conditional_rate":
        report.expect(np.array_equal(cond, _uniform_cond()), f"{where}: uniform conditional")
    elif op["fn"] == "steganographic_rate":
        usage = _uniform_cond() if host_label == "uniform" else np.asarray(gene_usage)
        report.expect(np.array_equal(cond, usage), f"{where}: codon usage")
    if op["fn"] == "ba_optimize":
        return _ba_fault(report, op)
    return _evaluation_fault(op)


# ---------------------------------------------------------------------------
# capacity_grid


def check_capacity_grid(outputs: dict, planted: dict) -> Report:
    report = Report()
    points, results, runs = outputs["points"], outputs["results"], outputs["ba_runs"]
    report.ops = len(points)
    report.expect(points == [list(p) for p in planted["points"]], "grid points")
    multi = [a for a in range(21) if oracle.GROUP_SIZES[a] > 1]
    if not report.expect(len(runs) == len(multi) * len(points), "19 BA runs per point"):
        return report
    for k, (point, result) in enumerate(zip(points, results)):
        before = len(report.unexpected)
        where = f"point {k} {point}"
        table = result["table"]
        point_runs = runs[k * len(multi):(k + 1) * len(multi)]
        faults = set()
        for a, run in zip(multi, point_runs):
            expected_host = np.zeros(21)
            expected_host[a] = 1.0
            report.expect(run["params"] == list(point), f"{where}: BA parameters")
            report.expect(np.array_equal(run["host"], expected_host), f"{where}: BA host")
            report.expect(table[a] == run["rate"], f"{where}: table entry {oracle.AMINO_ORDER[a]}")
            _rate_consistent(report, run, where)
            fault = _ba_fault(report, run)
            if fault is not None:
                faults.add(fault)
        for a in range(21):
            if oracle.GROUP_SIZES[a] == 1:
                report.expect(table[a] == 0.0, f"{where}: single-codon amino")
        best = max(range(21), key=lambda a: table[a])
        report.expect(result["rate"] == max(table), f"{where}: best rate is the table maximum")
        report.expect(result["best"] == oracle.AMINO_ORDER[best], f"{where}: best amino")
        cap3 = 3.0 * oracle.noncoding_capacity(*point)
        for a in range(21):
            limit = min(math.log2(oracle.GROUP_SIZES[a]), cap3)
            report.expect(table[a] <= limit + eps(limit), f"{where}: rate above min(log2|syn|, 3 C_nc)")
        report.settle(min(faults) if faults else None, before)
    return report


# ---------------------------------------------------------------------------
# ingest


def check_ingest(outputs: dict, planted: dict) -> Report:
    report = Report()
    params = outputs["params"]
    uniform_cond = _uniform_cond()
    report.ops = len(planted["files"])
    if not report.expect(len(outputs["files"]) == report.ops, "one result per file"):
        return report
    for entry, out in zip(planted["files"], outputs["files"]):
        before = len(report.unexpected)
        where = entry["file"]
        counts, pmf, usage = planted_tables(entry["counts"])
        report.expect(out["counts"] == counts, f"{where}: codon counts")
        report.expect(out["pmf"] == pmf, f"{where}: amino pmf")
        report.expect(out["usage"] == usage, f"{where}: codon usage")
        fault = None
        for key, cond in (("steg", usage), ("uniform", uniform_cond)):
            run = {"host": pmf, "params": params, **out[key]}
            report.expect(np.array_equal(run["cond"], cond), f"{where}: {key} conditional")
            _rate_consistent(report, run, f"{where} {key}")
            fault = fault or _evaluation_fault(run)
        report.settle(fault, before)
    return report


CHECKS = {"figures": check_figures, "capacity_grid": check_capacity_grid, "ingest": check_ingest}
