"""Command-line surface: sweeps, single points, gene ingestion, figure data.

Everything prints CSV (schema ``m,q,gamma,quantity,method,host,value_bits``)
or JSON with floats at 12 significant digits, so identical invocations
produce byte-identical output.  Exit codes: 0 success, 1 usage error,
2 data error, 3 numerical failure.

Every output file is written as a new file: an existing regular file at
the destination is removed and created again, not truncated in place, so
a hard link to the old file keeps the old contents.  Any other
destination (a symlink, a device such as ``/dev/null``, a FIFO) is
written through.  A destination that cannot be written is a data error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cdna, ncdna, sequences
from .genetic_code import AMINO_ACIDS, MULTIPLICITY
from .mutation_channel import _MAX_STAGES, ChannelParams

QUANTITIES = ("ncdna", "cdna_rate", "capacity", "steg_rate")
METHODS = ("ba", "uniform", "linearized")

CSV_HEADER = "m,q,gamma,quantity,method,host,value_bits"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


@dataclass
class SweepSpec:
    quantity: str
    q: float
    gamma: float
    m_grid: list[int]
    host_source: str = "uniform"
    method: str = "ba"
    frame: int = 0
    tol: float = cdna.DEFAULT_TOL
    max_iter: int = cdna.DEFAULT_MAX_ITER
    include_stp: bool = True
    strict: bool = False
    _host_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise UsageError(f"unknown quantity {self.quantity!r}")
        if self.method not in METHODS:
            raise UsageError(f"unknown method {self.method!r}")
        if not self.m_grid or any(m < 0 for m in self.m_grid):
            raise UsageError("m grid must be non-empty with m >= 0")
        if max(self.m_grid) > _MAX_STAGES:
            raise UsageError(f"m must be at most {_MAX_STAGES}, got {max(self.m_grid)}")
        if any(b <= a for a, b in zip(self.m_grid, self.m_grid[1:])):
            raise UsageError("m grid must be strictly increasing")


def log_m_grid(start: int, stop: int, points: int) -> list[int]:
    """Log-spaced integer stage counts from ``start`` to ``stop``, duplicates collapsed.

    The ends are set exactly and the points between clipped to them: from
    about 1e15 up, the points of ``np.logspace`` round past them.
    """
    if start < 1 or stop < start or points < 1:
        raise UsageError("m range needs 1 <= start <= stop and points >= 1")
    if points == 1:
        return [int(start)]
    inner = np.logspace(np.log10(start), np.log10(stop), points)[1:-1]
    return sorted({int(start), int(stop), *(min(max(int(round(g)), start), stop) for g in inner)})


def _read_text(path: Path) -> str:
    # utf-8-sig drops a byte-order mark, which would otherwise read as data
    # before the first header
    try:
        return path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise sequences.FastaError(f"cannot read {path}: {exc}") from exc


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _write_new(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, replacing an existing regular file with a new one.

    The old file is unlinked before the new one is created.  On ext4
    mounted with ``discard``, rewriting the figure bundle by truncating
    each file in place (or by renaming a temporary file over it) stalled
    in ``open`` for longer than the bundle takes to compute; unlinking
    first does not stall.  Only a regular file is unlinked: a symlink, a
    device or a FIFO (``--out /dev/null``) is written through.
    """
    try:
        try:
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.unlink(path)
        except FileNotFoundError:
            pass
        path.write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _resolve_host(spec: SweepSpec):
    """Return (host_pmf, usage_or_None, label) for the spec's host source."""
    source = spec.host_source
    key = (source, spec.frame)
    if key in spec._host_cache:
        return spec._host_cache[key]
    if source == "uniform":
        host = cdna.uniform_codon_host()
        usage = cdna.uniform_conditional()
        resolved = (host, usage, "uniform")
    elif source.startswith("amino:"):
        name = source.split(":", 1)[1]
        if name not in AMINO_ACIDS:
            raise UsageError(f"unknown amino acid {name!r}")
        resolved = (cdna.point_mass_host(name), None, source)
    elif source.startswith("fasta:"):
        resolved = (*_gene_host(Path(source.split(":", 1)[1]), spec.frame), source)
    else:
        raise UsageError(
            f"host must be 'uniform', 'amino:NAME' or 'fasta:PATH', got {source!r}"
        )
    spec._host_cache[key] = resolved
    return resolved


def _gene_host(path: Path, frame: int):
    """(host_pmf, usage) of the gene in the FASTA file at ``path``."""
    counts = sequences.ingest_fasta(_read_text(path), frame=frame)
    return sequences.amino_pmf(counts), sequences.codon_usage(counts)


def _point_value(spec: SweepSpec, m: int):
    """Evaluate one grid point; returns the output row as a dict and the result."""
    params = ChannelParams(q=spec.q, gamma=spec.gamma, m=m)
    row = {
        "m": m,
        "q": spec.q,
        "gamma": spec.gamma,
        "quantity": spec.quantity,
        "method": "-",
        "host": "-",
        "value_bits": None,  # set below; the keys are in output order
    }
    if spec.quantity == "ncdna":
        row["value_bits"] = ncdna.capacity_nc(params).value
        return row, None
    if spec.quantity == "capacity":
        result = cdna.capacity_c(params, include_stp=spec.include_stp,
                                 tol=spec.tol, max_iter=spec.max_iter)
        row.update(method="ba", best_amino=result.best_amino)
    else:
        host, usage, label = _resolve_host(spec)
        row["host"] = label
        if spec.quantity == "steg_rate":
            if usage is None:
                raise UsageError("steg_rate needs a host with codon usage (uniform or fasta)")
            result = cdna.steganographic_rate(usage, host, params)
        elif spec.method == "ba":
            result = cdna.ba_optimize(host, params, tol=spec.tol, max_iter=spec.max_iter)
            row["method"] = "ba"
        elif spec.method == "uniform":
            result = cdna.uniform_conditional_rate(host, params)
            row["method"] = "uniform"
        else:  # linearized: only defined for point-mass hosts
            if not spec.host_source.startswith("amino:"):
                raise UsageError("method 'linearized' needs a deterministic host (amino:NAME)")
            result = cdna.deterministic_rate(
                spec.host_source.split(":", 1)[1], params, method="linearized"
            )
            row["method"] = "linearized"
    if spec.strict and not result.converged:
        raise NumericalError(
            f"optimizer did not converge at m={m} within {spec.max_iter} iterations: "
            f"duality gap {result.gap_bits:.3g} bits exceeds tol*I with tol={spec.tol:g}"
        )
    row["value_bits"] = result.rate
    return row, result


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate every grid point, in grid order."""
    rows = []
    for m in spec.m_grid:
        try:
            rows.append(_point_value(spec, m)[0])
        except (UsageError, NumericalError):
            raise
        except Exception as exc:
            raise type(exc)(f"at m={m}: {exc}") from exc
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    # fields are quoted only where they hold a comma, quote or line end
    # (a host label can); every other row reads as if joined with commas
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    csv.writer(out, lineterminator="\n").writerows(
        (r["m"], _fmt(r["q"]), _fmt(r["gamma"]), r["quantity"], r["method"], r["host"],
         _fmt(r["value_bits"]))
        for r in rows
    )
    return out.getvalue()


def run_point(spec: SweepSpec) -> dict:
    """Evaluate the (single-m) spec and return the JSON-ready dict.

    Besides the row it reports how the value was computed: the optimizer
    iterations, whether the result is certified and its duality gap
    (``null`` where no optimizer ran; a capacity reports its worst run).
    """
    row, result = _point_value(spec, spec.m_grid[0])
    row["value_bits"] = float(f"{row['value_bits']:.12g}")
    if result is None:  # a noncoding capacity, in closed form
        row.update(iterations=0, converged=True, gap_bits=None)
    else:
        gap = result.gap_bits
        row.update(iterations=result.iterations, converged=bool(result.converged),
                   gap_bits=None if gap is None else float(f"{gap:.12g}"))
    return row


def run_ingest(path: Path, frame: int, fmt: str, out: Path | None) -> str:
    """Ingest a FASTA file; returns the stdout payload, writing files if asked."""
    counts = sequences.ingest_fasta(_read_text(path), frame=frame)
    pmf = sequences.amino_pmf(counts)
    if out is not None:
        _make_dir(out)
        _write_new(out / "codon_counts.csv", counts.to_csv())
        _write_new(out / "codon_counts.json", counts.to_json() + "\n")
        _write_new(out / "amino_pmf.csv", sequences.amino_pmf_to_csv(pmf))
        return f"wrote codon_counts.csv, codon_counts.json, amino_pmf.csv to {out}\n"
    if fmt == "csv":
        return counts.to_csv() + "\n" + sequences.amino_pmf_to_csv(pmf)
    payload = {
        "counts": json.loads(counts.to_json()),
        "amino_pmf": {a: float(f"{p:.12g}") for a, p in zip(AMINO_ACIDS, pmf)},
    }
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# figure-data bundle


def _figure_specs(genes: dict[str, Path]) -> dict[str, list[SweepSpec]]:
    gene_hosts = [f"fasta:{name}" for name in genes]
    coding_hosts = ["uniform", "amino:Ser"] + gene_hosts
    multi = [a for a in AMINO_ACIDS if MULTIPLICITY[a] >= 2]
    bundle: dict[str, list[SweepSpec]] = {}
    for q, top in ((1e-2, 10**7), (1e-9, 10**12)):
        bundle[f"ncdna_q{q:g}.csv"] = [
            SweepSpec("ncdna", q, g, log_m_grid(1, top, 37))
            for g in (1.0, 0.1, 0.01, 0.001, 0.0)
        ]
    # the two files of a grid run back to back: its 25 parameter sets are
    # then still among the last 32 that cdna._constants keeps, so the
    # det_aminos file reads the orbit optima that the hosts file's amino:Ser
    # ba rows solved, and derives nothing anew
    for gamma in (1.0, 0.1):
        for q, top in ((1e-2, 10**5), (1e-9, 10**12)):
            m_values = log_m_grid(1, top, 25)
            bundle[f"cdna_hosts_g{gamma:g}_q{q:g}.csv"] = [
                SweepSpec("cdna_rate", q, gamma, m_values, host_source=h, method=meth)
                for h in coding_hosts
                for meth in ("ba", "uniform")
            ]
            bundle[f"det_aminos_g{gamma:g}_q{q:g}.csv"] = [
                SweepSpec("cdna_rate", q, gamma, m_values, host_source=f"amino:{a}")
                for a in multi
            ]
    bundle["steg_g0.1_q1e-05.csv"] = [
        SweepSpec(quant, 1e-5, 0.1, log_m_grid(1, 10**8, 25), host_source=h)
        for h in (["uniform"] + gene_hosts)
        for quant in ("steg_rate", "cdna_rate")
    ]
    # the linearized system is only well conditioned while within-category
    # mixing survives (mu^m away from 0), so compare methods on that range
    bundle["det_methods_g0.1_q1e-02.csv"] = [
        SweepSpec("cdna_rate", 1e-2, 0.1, log_m_grid(1, 300, 20),
                  host_source=f"amino:{a}", method=meth)
        for a in ("Ser", "Leu")
        for meth in ("ba", "linearized", "uniform")
    ]
    # one host cache for the whole bundle, which holds each gene under its
    # name (at frame 0, as every spec here reads), so no row depends on where
    # the file lies: each gene file is read, ingested and warned about once
    at_path = {path: _gene_host(path, 0) for path in dict.fromkeys(genes.values())}
    host_cache = {(f"fasta:{name}", 0): (*at_path[path], f"fasta:{name}")
                  for name, path in genes.items()}
    for specs in bundle.values():
        for spec in specs:
            spec._host_cache = host_cache
    return bundle


def run_figures(out_dir: Path, genes: dict[str, Path]) -> list[str]:
    _make_dir(out_dir)
    written = []
    for name, specs in _figure_specs(genes).items():
        rows = []
        for spec in specs:
            rows.extend(run_sweep(spec))
        _write_new(out_dir / name, rows_to_csv(rows))
        written.append(name)
    return written


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _integer(text: str) -> int:
    """An integer argument, also in a form like ``1e5``; anything else is a usage error."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not value.is_integer():  # also nan and inf
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(value)


def _iterations(text: str) -> int:
    """An iteration budget: an integer of at least 1, as :func:`_integer` reads it."""
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """A relative gap bound: a finite number above zero; anything else is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:  # also nan
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _add_common(p):
    p.add_argument("--q", type=float, required=True, help="per-stage substitution probability")
    p.add_argument("--gamma", type=float, required=True, help="transversion shape parameter in [0, 1.5]")
    p.add_argument("--quantity", choices=QUANTITIES, required=True)
    p.add_argument("--method", choices=METHODS, default="ba")
    p.add_argument("--host", default="uniform",
                   help="'uniform', 'amino:NAME' or 'fasta:PATH' (default uniform)")
    p.add_argument("--frame", type=int, default=0, choices=(0, 1, 2))
    p.add_argument("--tol", type=_tolerance, default=cdna.DEFAULT_TOL,
                   help="relative duality-gap bound that certifies an optimizer run: "
                        "stop once gap <= tol*I, plus 1e-15 bits unless the host is a "
                        "point mass; finite and > 0 "
                        "(default %(default)g)")
    p.add_argument("--max-iter", type=_iterations, default=cdna.DEFAULT_MAX_ITER,
                   help="evaluations per optimizer run, at least 1 (default %(default)d)")
    p.add_argument("--exclude-stp", action="store_true",
                   help="leave the stop symbol out of the capacity search")
    p.add_argument("--strict", action="store_true",
                   help="treat optimizer non-convergence as a failure (exit 3)")
    p.add_argument("--out", type=Path, default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dnacap",
                     description="Embedding capacity of DNA hosts under substitution mutations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate a quantity over a grid of stage counts")
    _add_common(p_sweep)
    group = p_sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=_integer, nargs="+",
                       help="explicit stage counts; each an integer such as 10 or 1e5")
    group.add_argument("--m-range", nargs=3, type=_integer,
                       metavar=("START", "STOP", "POINTS"),
                       help="log-spaced integer grid; each value an integer such as 10 or 1e5")

    p_point = sub.add_parser("point", help="evaluate a single point, JSON output")
    _add_common(p_point)
    p_point.add_argument("--m", type=_integer, required=True,
                         help="stage count, an integer such as 10 or 1e5")

    p_ingest = sub.add_parser("ingest", help="codon counts and amino pmf from FASTA")
    p_ingest.add_argument("path", type=Path)
    p_ingest.add_argument("--frame", type=int, default=0, choices=(0, 1, 2))
    p_ingest.add_argument("--format", choices=("json", "csv"), default="json")
    p_ingest.add_argument("--out", type=Path, default=None,
                          help="directory for codon_counts.{csv,json} and amino_pmf.csv")

    p_fig = sub.add_parser("figures", help="emit the whole CSV bundle of capacity/rate curves")
    p_fig.add_argument("--out", type=Path, default=Path("figures_csv"))
    p_fig.add_argument("--fasta", action="append", default=[], metavar="NAME=PATH",
                       help="add a gene host to the coding-DNA figures, its rows "
                            "labelled fasta:NAME (repeatable)")
    return parser


def _spec_from_args(args, m_grid) -> SweepSpec:
    return SweepSpec(
        quantity=args.quantity,
        q=args.q,
        gamma=args.gamma,
        m_grid=m_grid,
        host_source=args.host,
        method=args.method,
        frame=args.frame,
        tol=args.tol,
        max_iter=args.max_iter,
        include_stp=not args.exclude_stp,
        strict=args.strict,
    )


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_new(out, text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            if args.m_range is not None:
                grid = log_m_grid(*args.m_range)
            else:
                grid = sorted(set(args.m))
            rows = run_sweep(_spec_from_args(args, grid))
            _emit(rows_to_csv(rows), args.out)
        elif args.command == "point":
            spec = _spec_from_args(args, [args.m])
            _emit(json.dumps(run_point(spec)) + "\n", args.out)
        elif args.command == "ingest":
            sys.stdout.write(run_ingest(args.path, args.frame, args.format, args.out))
        elif args.command == "figures":
            genes = {}
            for item in args.fasta:
                name, _, path = item.partition("=")
                if not name or not path:
                    raise UsageError(f"--fasta expects NAME=PATH, got {item!r}")
                if name in genes:
                    raise UsageError(f"--fasta names {name!r} more than once")
                genes[name] = Path(path)
            written = run_figures(args.out, genes)
            sys.stdout.write("".join(f"{args.out / n}\n" for n in written))
    except UsageError as exc:
        print(f"dnacap: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (cdna.SingularSystemError, NumericalError, np.linalg.LinAlgError) as exc:
        print(f"dnacap: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (sequences.FastaError, ValueError) as exc:
        print(f"dnacap: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
