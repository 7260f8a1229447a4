import csv
import io
import json
import os
import re
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dnacap.cli import SweepSpec, UsageError, log_m_grid, main
from dnacap.genetic_code import AMINO_ACIDS, MULTIPLICITY

DATA = Path(__file__).parent / "data"
GENE_A = str(DATA / "toy_gene_a.fasta")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- point -------------------------------------------------------------------

def test_point_noiseless_ncdna(capsys):
    code, out, _ = run(capsys, "point", "--quantity", "ncdna",
                       "--q", "0", "--gamma", "1", "--m", "5")
    assert code == 0
    assert json.loads(out)["value_bits"] == 2.0


def test_point_reports_no_negative_gap(capsys):
    # the uniform host certifies at its start; the gap, taken term by term,
    # reads 0 there; formed as sum h*max D - I it reads -8.881784197e-16
    code, out, _ = run(capsys, "point", "--quantity", "cdna_rate", "--host", "uniform",
                       "--q", "0.01", "--gamma", "1", "--m", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["gap_bits"] == 0.0
    assert payload["iterations"] == 1 and payload["converged"] is True


def test_point_capacity_catastrophic(capsys):
    code, out, _ = run(capsys, "point", "--quantity", "capacity",
                       "--q", "0.75", "--gamma", "1", "--m", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value_bits"] == 0.0
    assert "best_amino" in payload


def test_point_steg_not_above_optimized(capsys):
    common = ["--q", "1e-3", "--gamma", "0.1", "--m", "100",
              "--host", f"fasta:{GENE_A}"]
    _, out_steg, _ = run(capsys, "point", "--quantity", "steg_rate", *common)
    _, out_ba, _ = run(capsys, "point", "--quantity", "cdna_rate", *common)
    assert json.loads(out_steg)["value_bits"] <= json.loads(out_ba)["value_bits"] + 1e-9


def test_point_capacity_no_mutation(capsys):
    code, out, _ = run(capsys, "point", "--quantity", "capacity",
                       "--q", "0", "--gamma", "1", "--m", "1")
    assert code == 0
    assert json.loads(out)["value_bits"] == pytest.approx(2.584962500721156, abs=1e-9)


def test_point_capacity_uses_the_same_tolerance_as_the_rate(capsys):
    # Ser is the best amino here, so the capacity is its optimized rate
    common = ["--q", "1e-2", "--gamma", "0.1", "--m", "5000"]
    _, out_cap, _ = run(capsys, "point", "--quantity", "capacity", *common)
    _, out_ser, _ = run(capsys, "point", "--quantity", "cdna_rate",
                        "--host", "amino:Ser", *common)
    assert json.loads(out_cap)["best_amino"] == "Ser"
    assert json.loads(out_cap)["value_bits"] == json.loads(out_ser)["value_bits"]


# --- sweep -------------------------------------------------------------------

def test_sweep_ncdna_rows_decrease(capsys):
    code, out, _ = run(capsys, "sweep", "--quantity", "ncdna",
                       "--q", "1e-2", "--gamma", "1", "--m", "1", "10", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,q,gamma,quantity,method,host,value_bits"
    values = [float(line.split(",")[-1]) for line in lines[1:]]
    assert len(values) == 3
    assert values[0] > values[1] > values[2]


def test_sweep_is_deterministic(capsys, tmp_path):
    argv = ["sweep", "--quantity", "cdna_rate", "--q", "1e-2", "--gamma", "0.5",
            "--m", "1", "10", "--host", f"fasta:{GENE_A}"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_ba_matches_closed_form_rows(capsys):
    code, out, _ = run(capsys, "sweep", "--quantity", "cdna_rate",
                       "--q", "1e-2", "--gamma", "1", "--m", "1", "10",
                       "--host", "uniform", "--method", "ba")
    assert code == 0
    from dnacap.cdna import rate_uniform_host
    from dnacap.mutation_channel import ChannelParams

    for line in out.strip().splitlines()[1:]:
        fields = line.split(",")
        closed = rate_uniform_host(ChannelParams(1e-2, 1.0, int(fields[0])))
        assert float(fields[-1]) == pytest.approx(closed, abs=1e-6)


def test_sweep_m_range_collapses_duplicates(capsys):
    code, out, _ = run(capsys, "sweep", "--quantity", "ncdna", "--q", "1e-2",
                       "--gamma", "1", "--m-range", "1", "10", "30")
    assert code == 0
    ms = [int(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert ms == sorted(set(ms))
    assert ms[0] == 1 and ms[-1] == 10


# "a" used to exit 2 as a data error, and "1.9 10 2.7" to run silently as 1 10 2
@pytest.mark.parametrize("values", [("a", "10", "3"), ("1.9", "10", "2.7")])
def test_sweep_m_range_rejects_non_integers_as_usage_errors(capsys, values):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--quantity", "ncdna", "--q", "1e-2", "--gamma", "1",
              "--m-range", *values])
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"expected an integer, got {values[0]!r}" in captured.err


def test_sweep_m_range_accepts_integers_in_exponent_form(capsys):
    common = ("sweep", "--quantity", "ncdna", "--q", "1e-2", "--gamma", "1", "--m-range")
    _, plain, _ = run(capsys, *common, "10", "1000", "3")
    code, out, _ = run(capsys, *common, "1e1", "1e3", "3.0")
    assert code == 0
    assert out == plain


# --m was read as a plain int, so --m 1e5 exited 1 where --m-range 1e5 ran
@pytest.mark.parametrize("command", ["sweep", "point"])
def test_m_accepts_integers_in_exponent_form(capsys, command):
    common = (command, "--quantity", "ncdna", "--q", "1e-2", "--gamma", "1", "--m")
    _, plain, _ = run(capsys, *common, "100000")
    code, out, _ = run(capsys, *common, "1e5")
    assert code == 0
    assert out == plain


@pytest.mark.parametrize("command", ["sweep", "point"])
@pytest.mark.parametrize("value", ["1.9", "inf", "a"])
def test_m_rejects_non_integers_as_usage_errors(capsys, command, value):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--quantity", "ncdna", "--q", "1e-2", "--gamma", "1", "--m", value])
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"expected an integer, got {value!r}" in captured.err


# --tol -1 and --max-iter 0 used to exit 2 as data errors, and --tol nan to
# run 10000 iterations and exit 0
@pytest.mark.parametrize("option, value, message", [
    ("--tol", "-1", "expected a finite number > 0"),
    ("--tol", "0", "expected a finite number > 0"),
    ("--tol", "nan", "expected a finite number > 0"),
    ("--tol", "inf", "expected a finite number > 0"),
    ("--tol", "x", "expected a finite number > 0"),
    ("--max-iter", "0", "expected an integer >= 1"),
    ("--max-iter", "-3", "expected an integer >= 1"),
    ("--max-iter", "1.5", "expected an integer"),
])
@pytest.mark.parametrize("command", ["point", "sweep"])
def test_bad_optimizer_controls_are_usage_errors(capsys, command, option, value, message):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--quantity", "cdna_rate", "--host", "amino:Ser", "--q", "1e-2",
              "--gamma", "0.1", "--m", "30", option, value])
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: {message}, got {value!r}" in captured.err


def test_optimizer_controls_accept_their_boundary_values(capsys):
    code, out, _ = run(capsys, "point", "--quantity", "cdna_rate", "--host", "amino:Ser",
                       "--q", "1e-2", "--gamma", "0.1", "--m", "30",
                       "--tol", "1e-300", "--max-iter", "1e1")
    assert code == 0
    assert json.loads(out)["iterations"] <= 10


def test_sweep_quotes_a_host_label_holding_a_comma(capsys, tmp_path):
    gene = tmp_path / "d,x" / "g.fa"
    gene.parent.mkdir()
    gene.write_bytes(Path(GENE_A).read_bytes())
    code, out, _ = run(capsys, "sweep", "--quantity", "cdna_rate", "--method", "uniform",
                       "--q", "1e-2", "--gamma", "0.5", "--m", "1", "10",
                       "--host", f"fasta:{gene}")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [len(row) for row in rows] == [7, 7, 7]
    assert rows[1][5] == rows[2][5] == f"fasta:{gene}"


def test_sweep_rows_without_a_comma_are_plain_comma_joins(capsys):
    code, out, _ = run(capsys, "sweep", "--quantity", "cdna_rate", "--q", "1e-2",
                       "--gamma", "0.5", "--m", "1", "10", "--host", f"fasta:{GENE_A}")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3
    assert out == "".join(",".join(row) + "\n" for row in rows)


def test_log_m_grid():
    assert log_m_grid(1, 1000, 4) == [1, 10, 100, 1000]
    assert log_m_grid(5, 5, 1) == [5]


def test_log_m_grid_ends_at_large_stops_exactly(capsys):
    # np.logspace ends at 9007199254740982 and at 2**63 + 2048 here
    assert log_m_grid(1, 2**53 + 1, 2) == [1, 2**53 + 1]
    grid = log_m_grid(1, 2**63 - 1, 3)
    assert grid[0] == 1 and grid[-1] == 2**63 - 1 and len(grid) == 3
    # the point between rounds to 2**63, past the stop
    assert log_m_grid(2**63 - 2, 2**63 - 1, 3) == [2**63 - 2, 2**63 - 1]
    code, out, _ = run(capsys, "sweep", "--quantity", "ncdna", "--q", "1e-9",
                       "--gamma", "1", "--m-range", "1", str(2**63 - 1), "3")
    assert code == 0
    assert [row["m"] for row in csv.DictReader(io.StringIO(out))][-1] == str(2**63 - 1)


# --- exit codes ----------------------------------------------------------------

SWEEP = ["sweep", "--quantity", "ncdna", "--q", "1e-3", "--gamma", "1"]
POINT = ["point", "--q", "1e-3", "--gamma", "1", "--m", "1"]


@pytest.mark.parametrize("case, message", [
    (SWEEP + ["--m", "-1"], "m grid must be non-empty with m >= 0"),
    (SWEEP + ["--m", "5", "1e19"], "m must be at most 9223372036854775807"),
    (SWEEP + ["--m-range", "1", "9223372036854775808", "3"],
     "m must be at most 9223372036854775807, got 9223372036854775808"),
    (["point", *SWEEP[1:], "--m", "1e19"], "m must be at most 9223372036854775807"),
    (SWEEP + ["--m-range", "10", "1", "3"], "m range needs 1 <= start <= stop and points >= 1"),
    (SWEEP + ["--m-range", "1", "10", "0"], "m range needs 1 <= start <= stop and points >= 1"),
    (POINT + ["--quantity", "cdna_rate", "--host", "amino:Xyz"], "unknown amino acid 'Xyz'"),
    (["sweep", "--quantity", "cdna_rate", "--q", "1e-2", "--gamma", "0.1", "--m", "1", "10",
      "--host", "amino:Xyz"], "dnacap: error: unknown amino acid 'Xyz'"),
    (POINT + ["--quantity", "steg_rate", "--host", "amino:Ser"],
     "steg_rate needs a host with codon usage"),
    ({"quantity": "bogus", "q": 1e-3, "gamma": 1.0, "m_grid": [1]}, "unknown quantity 'bogus'"),
    ({"quantity": "ncdna", "q": 1e-3, "gamma": 1.0, "m_grid": [1], "method": "bogus"},
     "unknown method 'bogus'"),
    ({"quantity": "ncdna", "q": 1e-3, "gamma": 1.0, "m_grid": [1, 1]},
     "m grid must be strictly increasing"),
], ids=["m<0", "m>2**63-1", "m_range>2**63-1", "point_m>2**63-1", "start>stop", "points=0",
        "amino", "sweep_amino", "steg_point_mass", "spec_quantity", "spec_method", "spec_grid"])
def test_usage_errors(capsys, case, message):
    # the last three reach SweepSpec from the API only: the CLI's choices and
    # its sorted grids stop them first
    if isinstance(case, dict):
        with pytest.raises(UsageError, match=re.escape(message)):
            SweepSpec(**case)
        return
    code, _, err = run(capsys, *case)
    assert code == 1
    assert message in err
    # a sweep passes a usage error on without the grid point in front
    assert not re.search(r"at m=\d+:", err)

def test_usage_error_unknown_host(capsys):
    code, _, err = run(capsys, "point", "--quantity", "cdna_rate",
                       "--q", "0.1", "--gamma", "1", "--m", "1",
                       "--host", "bogus:thing")
    assert code == 1
    assert "host" in err


def test_usage_error_linearized_needs_deterministic_host(capsys):
    code, _, err = run(capsys, "point", "--quantity", "cdna_rate",
                       "--q", "0.1", "--gamma", "1", "--m", "1",
                       "--method", "linearized", "--host", "uniform")
    assert code == 1
    assert "linearized" in err


def test_usage_error_from_argparse_is_exit_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--quantity", "nope", "--q", "0", "--gamma", "1", "--m", "1"])
    assert excinfo.value.code == 1


def test_data_error_missing_file(capsys):
    code, _, err = run(capsys, "ingest", "/nonexistent/gene.fa")
    assert code == 2
    assert "data error" in err


def test_data_error_empty_fasta(capsys, tmp_path):
    empty = tmp_path / "empty.fa"
    empty.write_text("")
    code, _, err = run(capsys, "ingest", str(empty))
    assert code == 2
    assert "no sequences" in err


@pytest.mark.parametrize("command", ["sweep", "point", "ingest"])
def test_data_error_undecodable_fasta(capsys, tmp_path, command):
    path = tmp_path / "binary.fa"
    path.write_bytes(b"\xff\xfe")
    argv = ["ingest", str(path)] if command == "ingest" else [
        command, "--quantity", "cdna_rate", "--q", "1e-3", "--gamma", "0.1", "--m", "1",
        "--host", f"fasta:{path}"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "data error" in err


def test_fasta_with_a_byte_order_mark_reads_as_without(capsys, tmp_path):
    bom = tmp_path / "bom.fa"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(GENE_A).read_bytes())
    outputs = []
    for path in (GENE_A, str(bom)):
        ingested = run(capsys, "ingest", path)
        swept = run(capsys, "sweep", "--quantity", "steg_rate", "--q", "1e-3",
                    "--gamma", "0.1", "--m", "10", "--host", f"fasta:{path}")
        assert ingested[0] == swept[0] == 0
        outputs.append((ingested[1], swept[1].replace(path, "PATH")))
    assert outputs[0] == outputs[1]


def test_data_error_out_of_range_parameter(capsys):
    code, _, err = run(capsys, "point", "--quantity", "ncdna",
                       "--q", "1.5", "--gamma", "1", "--m", "1")
    assert code == 2
    assert "q must be" in err


def test_numerical_error_singular_linearized_system(capsys):
    # mu vanishes at q = 3/(2*(3-gamma)); the synonym rows collapse
    code, _, err = run(capsys, "point", "--quantity", "cdna_rate",
                       "--q", "0.6", "--gamma", "0.5", "--m", "1",
                       "--method", "linearized", "--host", "amino:Lys")
    assert code == 3
    assert "singular" in err


def test_strict_flags_non_convergence(capsys):
    code, _, err = run(capsys, "point", "--quantity", "cdna_rate",
                       "--q", "1e-2", "--gamma", "0.3", "--m", "50",
                       "--host", f"fasta:{GENE_A}", "--max-iter", "1", "--strict")
    assert code == 3
    assert "converge" in err


def test_strict_flags_non_convergence_of_capacity(capsys):
    # the uniform start of some amino is not certified at this depth
    code, _, err = run(capsys, "point", "--quantity", "capacity",
                       "--q", "1e-3", "--gamma", "0.5", "--m", "10000",
                       "--max-iter", "1", "--strict")
    assert code == 3
    assert "converge" in err


def test_sweep_strict_error_keeps_its_own_message(capsys):
    code, _, err = run(capsys, "sweep", "--quantity", "cdna_rate", "--q", "1e-2",
                       "--gamma", "0.1", "--m", "825", "2154", "--host", "amino:Ser",
                       "--max-iter", "1", "--strict")
    assert code == 3
    assert "numerical failure: optimizer did not converge at m=825" in err
    assert "at m=825:" not in err


def test_strict_error_names_the_gap(capsys):
    code, _, err = run(capsys, "point", "--quantity", "cdna_rate",
                       "--q", "1e-2", "--gamma", "1", "--m", "316",
                       "--host", "amino:Ser", "--max-iter", "2", "--strict")
    assert code == 3
    assert re.search(r"duality gap [0-9.e+-]+ bits", err)


@pytest.mark.parametrize("argv, optimized", [
    (["--quantity", "cdna_rate", "--host", "amino:Ser"], True),
    (["--quantity", "capacity"], True),
    (["--quantity", "cdna_rate", "--method", "uniform"], False),
    (["--quantity", "steg_rate"], False),
    (["--quantity", "ncdna"], False),
])
def test_point_reports_how_the_value_was_computed(capsys, argv, optimized):
    code, out, _ = run(capsys, "point", "--q", "1e-2", "--gamma", "0.1", "--m", "5000", *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    if optimized:
        assert payload["iterations"] >= 1
        assert payload["gap_bits"] <= 1e-9 * payload["value_bits"] + 1e-15
    else:
        assert payload["iterations"] == 0 and payload["gap_bits"] is None


# --- ingest ---------------------------------------------------------------------

def test_ingest_csv_stdout(capsys, tmp_path):
    fa = tmp_path / "g.fa"
    fa.write_text(">g\nTATTGC\n")
    code, out, _ = run(capsys, "ingest", str(fa), "--format", "csv")
    assert code == 0
    assert "codon,count" in out
    assert "TAT,1" in out
    assert "Tyr,0.5" in out
    assert "Cys,0.5" in out


def test_ingest_json_stdout(capsys, tmp_path):
    fa = tmp_path / "g.fa"
    fa.write_text(">g\nTATTGC\n")
    code, out, _ = run(capsys, "ingest", str(fa))
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["TAT"] == 1
    assert payload["amino_pmf"]["Tyr"] == 0.5


def test_ingest_writes_file_bundle(capsys, tmp_path):
    out_dir = tmp_path / "ingested"
    code, _, _ = run(capsys, "ingest", GENE_A, "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "codon_counts.csv").exists()
    assert (out_dir / "codon_counts.json").exists()
    pmf_lines = (out_dir / "amino_pmf.csv").read_text().splitlines()
    assert len(pmf_lines) == 22


def test_ingest_frame_shift(capsys, tmp_path):
    fa = tmp_path / "g.fa"
    fa.write_text(">g\nTATTGC\n")
    code, out, _ = run(capsys, "ingest", str(fa), "--frame", "1", "--format", "csv")
    assert code == 0
    assert "ATT,1" in out
    # only a single codon survives the shift
    payload_lines = [l for l in out.splitlines() if l.endswith(",1")]
    assert len(payload_lines) == 2  # one codon row + one pmf row (Ile,1)


def test_ingest_stderr_has_one_line_per_warning(tmp_path):
    # a file's warnings are one log record; under the default handler stderr
    # still gets one line per warning, in record order, from either front end
    # (a CR-only copy is read by the general parser)
    text = ">a stops\nTAAGCATGAGGC\n>b\nACGNNNTTTA\n>c\nGGCAAT\n>d late\nTAGACGNTTTGA\n"
    expected = ("record 'a stops': 2 stop codon(s) before the final codon\n"
                "dropping 1 trailing base(s) beyond the last codon\n"
                "dropped 1 codon(s) containing N\n"
                "dropped 1 codon(s) containing N\n"
                "record 'd late': 1 stop codon(s) before the final codon\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    outputs = []
    for name, copy in (("lf.fa", text), ("cr.fa", text.replace("\n", "\r"))):
        path = tmp_path / name
        path.write_bytes(copy.encode("ascii"))
        done = subprocess.run([sys.executable, "-m", "dnacap.cli", "ingest", str(path)],
                              cwd=root, env=env, capture_output=True, timeout=120)
        assert done.returncode == 0
        assert done.stderr == expected.encode("ascii")
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


# --- figures --------------------------------------------------------------------

def test_figures_writes_bundle(capsys, tmp_path):
    out_dir = tmp_path / "figs"
    code, out, _ = run(capsys, "figures", "--out", str(out_dir),
                       "--fasta", f"toyA={GENE_A}")
    assert code == 0
    written = [Path(line).name for line in out.strip().splitlines()]
    grids = [f"g{gamma}_q{q}" for gamma in ("1", "0.1") for q in ("0.01", "1e-09")]
    assert sorted(written) == sorted(
        ["ncdna_q0.01.csv", "ncdna_q1e-09.csv", "steg_g0.1_q1e-05.csv",
         "det_methods_g0.1_q1e-02.csv"]
        + [f"{kind}_{grid}.csv" for kind in ("cdna_hosts", "det_aminos") for grid in grids])
    assert sorted(written) == sorted(path.name for path in out_dir.iterdir())
    # grid by grid: each det_aminos file right after the hosts file of its grid
    for grid in grids:
        hosts = written.index(f"cdna_hosts_{grid}.csv")
        assert written[hosts + 1] == f"det_aminos_{grid}.csv"
    for name in written:
        text = (out_dir / name).read_text()
        assert text.startswith("m,q,gamma,quantity,method,host,value_bits\n")
        assert len(text.splitlines()) > 10


# Optimizer runs of the bundle that may end uncertified: (q, gamma, m, amino
# of a point-mass host or "mixed") -> the relative gap measured there, each
# below 1e-6.  None today.
UNCERTIFIED_EXEMPT = {}


def test_figures_certifies_every_optimizer_run(tmp_path, monkeypatch):
    from dnacap import cdna, cli

    runs = []
    optimize = cdna.ba_optimize

    def recording_optimize(host, params, *args, **kwargs):
        result = optimize(host, params, *args, **kwargs)
        label = AMINO_ACIDS[int(np.argmax(host))] if np.max(host) == 1.0 else "mixed"
        runs.append(((params.q, params.gamma, params.m, label), result))
        return result

    monkeypatch.setattr(cdna, "ba_optimize", recording_optimize)
    cli.run_figures(tmp_path, {"toyA": DATA / "toy_gene_a.fasta"})
    assert len(runs) == 2286
    uncertified = {key: r.gap_bits / r.mutual_information
                   for key, r in runs if not r.converged}
    assert set(uncertified) <= set(UNCERTIFIED_EXEMPT), uncertified
    assert all(gap < 1e-6 for gap in uncertified.values())
    assert all(r.gap_bits <= 1e-9 * r.mutual_information + 1e-15
               for _, r in runs if r.converged)


def test_figures_reports_no_negative_gap(tmp_path, monkeypatch):
    # every gap is a sum of non-negative terms; formed as sum h*max D - I,
    # 27 runs of this pass read below zero, down to -1.8e-15 bits
    from dnacap import cdna, cli

    gaps = []
    optimize = cdna.ba_optimize

    def recording_optimize(*args, **kwargs):
        result = optimize(*args, **kwargs)
        gaps.append(result.gap_bits)
        return result

    monkeypatch.setattr(cdna, "ba_optimize", recording_optimize)
    cli.run_figures(tmp_path, {"toyA": DATA / "toy_gene_a.fasta"})
    assert len(gaps) == 2286
    assert min(gaps) >= 0.0


def test_figures_rows_keep_the_information_inequalities(tmp_path, monkeypatch):
    # every row of the bundle, none excluded.  A point mass's rate is at most
    # 3*C_nc (the codon channel is three uses of the base channel; Cover and
    # Thomas, Thm 2.8.1): 278 rows broke it while capacities below 1e-15
    # printed as 0.  Its slack, 1e-10 relative, covers the kernel's 5e-11 in I.
    # A fixed conditional's rate is at most the optimized one, certified to
    # tol*I with no floor.
    from dnacap import cdna, cli, ncdna
    from dnacap.mutation_channel import ChannelParams

    rows = []
    to_csv = cli.rows_to_csv
    monkeypatch.setattr(cli, "rows_to_csv", lambda r: rows.extend(r) or to_csv(r))
    cli.run_figures(tmp_path, {"toyA": DATA / "toy_gene_a.fasta"})
    assert len(rows) == 3073
    point_masses = [r for r in rows if r["host"].startswith("amino:")]
    above_three_capacities = [
        r for r in point_masses
        if r["value_bits"] > 3.0 * (1.0 + 1e-10) * ncdna.capacity_nc(
            ChannelParams(r["q"], r["gamma"], r["m"])).value]
    assert len(point_masses) == 2208 and above_three_capacities == []
    key = ("q", "gamma", "m", "host")
    optimized = {tuple(r[k] for k in key): r["value_bits"] for r in rows
                 if r["quantity"] == "cdna_rate" and r["method"] == "ba"}
    fixed = [r for r in rows if r["quantity"] == "steg_rate"
             or r["method"] in ("uniform", "linearized")]
    above_optimum = [r for r in fixed if r["value_bits"] > (1.0 + cdna.DEFAULT_TOL)
                     * optimized[tuple(r[k] for k in key)]]
    assert len(fixed) == 422 and above_optimum == []


def test_figures_point_mass_optima_never_rise_with_m(tmp_path, monkeypatch):
    # a deeper cascade is the shallower one followed by more stages, so a
    # point mass's optimum cannot rise with m (data processing; Cover and
    # Thomas, Thm 2.8.1).  Each ba row lies within tol*I of its optimum, with
    # no floor, so the slack is tol relative.  Stp at q=1e-2, gamma=0.1 rose
    # three times (2154 -> 3481, 9085 -> 14678, 61897 -> 100000) while its
    # 64-codon rows differed by less than their rounding
    from dnacap import cdna, cli

    rows = []
    to_csv = cli.rows_to_csv
    monkeypatch.setattr(cli, "rows_to_csv", lambda r: rows.extend(r) or to_csv(r))
    cli.run_figures(tmp_path, {"toyA": DATA / "toy_gene_a.fasta"})
    sweeps = {}
    for r in rows:
        if r["host"].startswith("amino:") and r["method"] == "ba":
            sweeps.setdefault((r["q"], r["gamma"], r["host"]), {})[r["m"]] = r["value_bits"]
    multi = [a for a in AMINO_ACIDS if MULTIPLICITY[a] > 1]
    assert {key for key in sweeps if key[:2] in {(1e-2, 1.0), (1e-2, 0.1), (1e-9, 1.0),
                                                 (1e-9, 0.1)}} == {
        (q, gamma, f"amino:{a}") for q in (1e-2, 1e-9) for gamma in (1.0, 0.1) for a in multi}
    rises = [(key, m, deeper) for key, by_m in sweeps.items()
             for m, deeper in zip(sorted(by_m), sorted(by_m)[1:])
             if by_m[deeper] > (1.0 + cdna.DEFAULT_TOL) * by_m[m]]
    assert rises == []


def test_figures_builds_each_parameter_set_once_per_file(tmp_path, monkeypatch):
    from dnacap import cdna, cli

    made = []  # one entry for every kernel built
    build = cdna._kernel
    monkeypatch.setattr(cdna, "_kernel", lambda *args: made.append(1) or build(*args))

    def builds():
        return len(made)

    per_file = []  # (builds made for the file, its distinct coding (q, gamma, m))
    to_csv = cli.rows_to_csv

    def recording_to_csv(rows):
        coding = {(r["q"], r["gamma"], r["m"]) for r in rows if r["quantity"] != "ncdna"}
        per_file.append((builds() - sum(made for made, _ in per_file), len(coding)))
        return to_csv(rows)

    monkeypatch.setattr(cli, "rows_to_csv", recording_to_csv)
    cdna._constants.cache_clear()
    written = cli.run_figures(tmp_path, {"toyA": DATA / "toy_gene_a.fasta"})
    counts = dict(zip(written, per_file))
    # the point masses of det_aminos build none: 14 closed forms and the orbit stack
    assert all(made == distinct for name, (made, distinct) in counts.items()
               if not name.startswith("det_aminos")), counts
    expected = {name: 0 if name.startswith(("ncdna", "det_aminos"))
                else 18 if name.startswith("det_methods") else 25 for name in written}
    assert {name: made for name, (made, _) in counts.items()} == expected
    assert builds() == 143


def test_figures_solves_each_orbit_stack_once_per_grid(tmp_path, monkeypatch):
    from dnacap import cdna, cli

    solved = []  # one entry for every stacked solve of the five orbit point masses
    solve = cdna._orbit_optima
    monkeypatch.setattr(cdna, "_orbit_optima", lambda *args: solved.append(1) or solve(*args))
    per_file = []  # solves made for each file, in the order the files are computed
    to_csv = cli.rows_to_csv

    def recording_to_csv(rows):
        per_file.append(len(solved) - sum(per_file))
        return to_csv(rows)

    monkeypatch.setattr(cli, "rows_to_csv", recording_to_csv)
    cdna._constants.cache_clear()
    written = cli.run_figures(tmp_path, {"toyA": DATA / "toy_gene_a.fasta"})
    counts = dict(zip(written, per_file))
    # each det_aminos file reads the optima its grid's hosts file solved for
    # amino:Ser; det_methods runs last, after steg has evicted the 5 sets it
    # shares with the gamma=0.1, q=1e-2 grid, so it solves all 18 of its sets
    expected = {name: 25 if name.startswith("cdna_hosts")
                else 18 if name.startswith("det_methods") else 0 for name in written}
    assert counts == expected
    assert len(solved) == 118


def test_figures_reads_each_uniform_row_its_ba_run_evaluated(tmp_path, monkeypatch):
    from dnacap import cdna, cli

    # the 64-codon evaluations of a pass (optimizer points and evaluations),
    # and its orbit stack tables
    counts = {"information": 0, "stack": 0}
    information, tables = cdna._Problem.information, cdna._orbit_tables

    def counted_information(problem, cond):
        counts["information"] += 1
        return information(problem, cond)

    def counted_tables(constants):
        counts["stack"] += 1
        return tables(constants)

    monkeypatch.setattr(cdna._Problem, "information", counted_information)
    monkeypatch.setattr(cdna, "_orbit_tables", counted_tables)
    cdna._constants.cache_clear()
    cli.run_figures(tmp_path, {"toyA": DATA / "toy_gene_a.fasta"})
    # every uniform row of the cdna_hosts files (100 for each of the uniform
    # host, the gene and amino:Ser) and of det_methods (Ser and Leu) reads I
    # from its ba run's start; of the 119 stack tables, 118 are the stacked
    # solves and one evaluates the one linearized row even on its orbits (Leu
    # at m=4) in Leu's lane
    assert counts == {"information": 793, "stack": 119}


def test_figures_bad_fasta_argument(capsys, tmp_path):
    # an empty NAME would label the gene's rows "fasta:"
    for argument in ("justaname", f"={DATA / 'toy_gene_a.fasta'}"):
        code, _, err = run(capsys, "figures", "--out", str(tmp_path / "x"),
                           "--fasta", argument)
        assert code == 1
        assert "NAME=PATH" in err
        assert not (tmp_path / "x").exists()


def test_figures_rejects_a_repeated_fasta_name(capsys, tmp_path):
    # under one name the second gene would replace the first
    out_dir = tmp_path / "figs"
    code, _, err = run(capsys, "figures", "--out", str(out_dir),
                       "--fasta", f"a={DATA / 'toy_gene_a.fasta'}",
                       "--fasta", f"a={DATA / 'toy_gene_b.fasta'}")
    assert code == 1
    assert "--fasta names 'a' more than once" in err
    assert not out_dir.exists()


def test_figures_ingest_each_gene_once(tmp_path, monkeypatch):
    # the numerics are stubbed out: only the host resolution is under test
    from types import SimpleNamespace

    from dnacap import cdna, cli, ncdna, sequences

    ingested = []
    ingest = sequences.ingest_fasta

    def counting_ingest(text, **kwargs):
        ingested.append(text)
        return ingest(text, **kwargs)

    monkeypatch.setattr(sequences, "ingest_fasta", counting_ingest)
    result = SimpleNamespace(rate=0.0, value=0.0, converged=True)
    for name in ("ba_optimize", "uniform_conditional_rate", "steganographic_rate",
                 "deterministic_rate"):
        monkeypatch.setattr(cdna, name, lambda *args, **kwargs: result)
    monkeypatch.setattr(ncdna, "capacity_nc", lambda *args, **kwargs: result)
    genes = {"a": DATA / "toy_gene_a.fasta", "b": DATA / "toy_gene_b.fasta"}
    cli.run_figures(tmp_path, {**genes, "a again": genes["a"]})
    assert sorted(ingested) == sorted(path.read_text() for path in genes.values())


def test_figures_label_each_gene_by_its_name(tmp_path):
    # the same gene at two paths under one name gives the same bundle, and
    # two names of one file give two hosts
    from dnacap import cli

    moved = tmp_path / "elsewhere" / "gene.fa"
    moved.parent.mkdir()
    shutil.copy(GENE_A, moved)
    bundles = [tmp_path / "here", tmp_path / "there"]
    for out_dir, gene in zip(bundles, (Path(GENE_A), moved)):
        cli.run_figures(out_dir, {"toy": gene})
    names = sorted(p.name for p in bundles[0].iterdir())
    assert names == sorted(p.name for p in bundles[1].iterdir())
    assert all((bundles[0] / n).read_bytes() == (bundles[1] / n).read_bytes() for n in names)
    bundle = cli._figure_specs({"a": moved, "b": moved})
    hosts = {cli._resolve_host(spec)[2] for specs in bundle.values() for spec in specs
             if spec.host_source.startswith("fasta:")}
    assert hosts == {"fasta:a", "fasta:b"}


# --- output files -----------------------------------------------------------------

NCDNA_SWEEP = ["sweep", "--quantity", "ncdna", "--q", "1e-2", "--gamma", "1"]


def test_figures_rerun_matches_a_fresh_run(capsys, tmp_path):
    argv = ["--fasta", f"toyA={GENE_A}"]
    again, fresh = tmp_path / "again", tmp_path / "fresh"
    listings = [run(capsys, "figures", "--out", str(out_dir), *argv)
                for out_dir in (again, again, fresh)]
    assert [code for code, _, _ in listings] == [0, 0, 0]
    assert listings[0][1] == listings[1][1]
    assert listings[2][1] == listings[1][1].replace(str(again), str(fresh))
    names = sorted(p.name for p in again.iterdir())
    assert names == sorted(p.name for p in fresh.iterdir())
    assert names == sorted(Path(line).name for line in listings[0][1].splitlines())
    assert all((again / n).read_bytes() == (fresh / n).read_bytes() for n in names)


def test_rewritten_output_is_a_new_file(capsys, tmp_path):
    out, link = tmp_path / "rates.csv", tmp_path / "old.csv"
    assert main(NCDNA_SWEEP + ["--m", "1", "--out", str(out)]) == 0
    old = out.read_bytes()
    os.link(out, link)
    assert main(NCDNA_SWEEP + ["--m", "2", "--out", str(out)]) == 0
    # a truncate in place would show the new rows through the link as well
    assert link.read_bytes() == old
    assert out.read_bytes() != old
    assert out.read_text().splitlines()[1].startswith("2,")
    assert os.stat(link).st_nlink == 1


def test_symlinked_output_is_written_through(capsys, tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("stale\n")
    link.symlink_to(target)
    assert main(NCDNA_SWEEP + ["--m", "5", "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_text().startswith("m,q,gamma,quantity,method,host,value_bits\n5,")


@pytest.mark.skipif(os.name != "posix" or not os.path.exists("/dev/null"),
                    reason="needs a POSIX /dev/null")
def test_output_to_dev_null_keeps_the_device(capsys):
    assert main(NCDNA_SWEEP + ["--m", "5", "--out", "/dev/null"]) == 0
    assert stat.S_ISCHR(os.lstat("/dev/null").st_mode)


@pytest.mark.parametrize("argv, out", [
    (NCDNA_SWEEP + ["--m", "5"], "x.csv"),
    (["point", "--quantity", "ncdna", "--q", "1e-2", "--gamma", "1", "--m", "5"], "x.json"),
    (["ingest", GENE_A], "ingested"),
    (["figures"], "figs"),
])
def test_unwritable_output_is_a_data_error(capsys, tmp_path, argv, out):
    # a path under a regular file cannot be created, whatever the permissions
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, stdout, err = run(capsys, *argv, "--out", str(blocker / out))
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"dnacap: data error: cannot write {blocker / out}: ")
    assert "Traceback" not in err
