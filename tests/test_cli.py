import json
from pathlib import Path

import pytest

from dnacap.cli import log_m_grid, main

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


def test_log_m_grid():
    assert log_m_grid(1, 1000, 4) == [1, 10, 100, 1000]
    assert log_m_grid(5, 5, 1) == [5]


# --- exit codes ----------------------------------------------------------------

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
    # the Ser run stalls at max_iter at this tolerance
    code, _, err = run(capsys, "point", "--quantity", "capacity",
                       "--q", "1e-3", "--gamma", "0.5", "--m", "10000",
                       "--tol", "1e-12", "--strict")
    assert code == 3
    assert "converge" in err


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


# --- figures --------------------------------------------------------------------

def test_figures_writes_bundle(capsys, tmp_path):
    out_dir = tmp_path / "figs"
    code, out, _ = run(capsys, "figures", "--out", str(out_dir),
                       "--fasta", f"toyA={GENE_A}")
    assert code == 0
    written = [Path(line).name for line in out.strip().splitlines()]
    assert "ncdna_q0.01.csv" in written
    assert "det_methods_g0.1_q1e-02.csv" in written
    for name in written:
        text = (out_dir / name).read_text()
        assert text.startswith("m,q,gamma,quantity,method,host,value_bits\n")
        assert len(text.splitlines()) > 10


def test_figures_bad_fasta_argument(capsys, tmp_path):
    code, _, err = run(capsys, "figures", "--out", str(tmp_path / "x"),
                       "--fasta", "justaname")
    assert code == 1
    assert "NAME=PATH" in err
