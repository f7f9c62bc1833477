import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opineq import (
    CSV_COLUMNS,
    BoundParams,
    CampaignConfig,
    ReportDocument,
    canonical_dumps,
    emit_report,
    render_csv,
    render_json,
    run_campaign,
)
from opineq.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_RATIO_EXCEEDED,
    EXIT_USAGE,
    EXIT_VIOLATIONS,
    cli_main,
)


def _small_report(**overrides):
    defaults = dict(theorem_ids=("scalar_amgm", "lemma_amgm"), dims=(2,),
                    samples=4, seed=1)
    defaults.update(overrides)
    return run_campaign(CampaignConfig(**defaults))


def test_canonical_float_formatting():
    assert canonical_dumps(0.1) == "0.10000000000000001"
    assert canonical_dumps(1.0) == "1"
    assert canonical_dumps(1.5625) == "1.5625"
    assert canonical_dumps(np.float64(0.25)) == "0.25"


def test_canonical_scalars_and_containers():
    obj = {"b": 1, "a": [True, False, None, "x"], "c": np.bool_(True),
           "d": np.int64(7)}
    assert canonical_dumps(obj) == '{"a":[true,false,null,"x"],"b":1,"c":true,"d":7}'


def test_canonical_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        canonical_dumps(float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        canonical_dumps({"x": float("inf")})


def test_canonical_rejects_unknown_types_and_keys():
    with pytest.raises(TypeError, match="string keys"):
        canonical_dumps({1: "x"})
    with pytest.raises(TypeError, match="canonically"):
        canonical_dumps(object())


def test_canonical_roundtrip_is_byte_identical():
    doc = ReportDocument.from_campaign(_small_report(), version="0.0.0",
                                       timestamp="2026-01-01T00:00:00+00:00")
    rendered = render_json(doc)
    reparsed = json.loads(rendered)
    assert canonical_dumps(reparsed) + "\n" == rendered


def test_report_document_fields():
    report = _small_report()
    doc = ReportDocument.from_campaign(report, version="1.2.3",
                                       timestamp="2026-01-01T00:00:00+00:00")
    assert doc.meta["version"] == "1.2.3"
    assert doc.meta["seed"] == 1
    assert doc.meta["samples"] == 4
    assert doc.meta["dims"] == [2]
    assert doc.meta["log_base"].startswith("natural")
    assert doc.meta["total_checks"] == report.total_checks
    assert doc.total_violations == 0
    assert len(doc.results) == 2
    for row in doc.results:
        assert set(row) >= {"theorem_id", "dim", "m", "m_prime", "M_prime", "M",
                            "samples", "violations", "max_ratio", "min_slack",
                            "mean_slack"}
    # one extremal instance per theorem, sorted by id
    assert [e["theorem_id"] for e in doc.extremal_instances] == ["lemma_amgm",
                                                                 "scalar_amgm"]


def test_report_document_default_timestamp_parses():
    doc = ReportDocument.from_campaign(_small_report(), version="0")
    assert "T" in doc.meta["timestamp"]


def test_report_document_dict_roundtrip():
    doc = ReportDocument.from_campaign(_small_report(), version="0",
                                       timestamp="t")
    clone = ReportDocument.from_dict(json.loads(render_json(doc)))
    assert render_json(clone) == render_json(doc)


def test_csv_has_exact_header_and_one_row_per_cell():
    doc = ReportDocument.from_campaign(_small_report(), version="0", timestamp="t")
    lines = render_csv(doc).strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(doc.results)
    first = lines[1].split(",")
    assert first[0] == "scalar_amgm"
    assert first[1] == "2"


def test_emit_report_writes_files(tmp_path):
    doc = ReportDocument.from_campaign(_small_report(), version="0", timestamp="t")
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    emit_report(doc, "json", json_path)
    emit_report(doc, "csv", csv_path)
    assert json.loads(json_path.read_text())["meta"]["seed"] == 1
    assert csv_path.read_text().startswith("theorem_id,")
    with pytest.raises(ValueError, match="format"):
        emit_report(doc, "xml", tmp_path / "report.xml")


def test_same_seed_reports_are_byte_identical_without_timestamp():
    first = ReportDocument.from_campaign(_small_report(), version="0", timestamp="t")
    second = ReportDocument.from_campaign(_small_report(), version="0", timestamp="t")
    assert render_json(first) == render_json(second)


def test_cli_usage_errors_exit_64(capsys):
    assert cli_main([]) == EXIT_USAGE
    assert cli_main(["verify", "--samples", "0"]) == EXIT_USAGE
    assert cli_main(["verify", "--no-such-flag"]) == EXIT_USAGE
    assert cli_main(["verify", "--theorems", "bogus"]) == EXIT_USAGE
    assert cli_main(["verify", "--dims", "0"]) == EXIT_USAGE
    assert cli_main(["verify", "--dims", "2", "--m", "1.0"]) == EXIT_USAGE
    assert cli_main(["search", "--theorem", "choi"]) == EXIT_USAGE
    capsys.readouterr()


REGIME_FLAGS = {"--m": "1", "--mp": "2", "--Mp": "3", "--M": "4"}
REGIME_COMMANDS = {
    "verify": ["verify", "--theorems", "choi", "--dims", "2", "--samples", "2"],
    "search": ["search", "--theorem", "choi", "--budget", "10"],
    "constants": ["constants"],
}


@pytest.mark.parametrize("command", sorted(REGIME_COMMANDS))
@pytest.mark.parametrize("flag", sorted(REGIME_FLAGS))
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "x"])
def test_cli_regime_flag_not_positive_and_finite_exits_64(capsys, command, flag, value):
    flags = {**REGIME_FLAGS, flag: value}
    code = cli_main([*REGIME_COMMANDS[command], *(x for pair in flags.items() for x in pair)])
    assert code == EXIT_USAGE
    assert f"argument {flag}: must be a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # Without --Mp, M' defaults to M: the error names --M, the flag given.
    ["verify", "--theorems", "choi", "--dims", "2", "--m", "1", "--M", "inf"],
    ["search", "--theorem", "choi", "--m", "1:inf", "--M", "4"],
    ["search", "--theorem", "choi", "--m", "0:1", "--M", "4"],
])
def test_cli_regime_flag_error_names_the_flag_given(capsys, argv):
    assert cli_main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    flag = "--M" if argv[0] == "verify" else "--m"
    assert f"argument {flag}: must be a positive finite number" in err
    assert "M_prime" not in err


def test_cli_verify_small_run_ok(capsys):
    code = cli_main(["verify", "--theorems", "scalar_amgm", "--dims", "2",
                     "--samples", "5", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "scalar_amgm" in out
    assert "0 violations" in out
    assert "seed=0" in out


def test_cli_verify_prints_the_report_counts_and_time(tmp_path, capsys):
    # choi at h = 1e8 fails by rounding, so the violation counts are not all 0.
    out_path = tmp_path / "r.json"
    code = cli_main(["verify", "--theorems", "choi,kantorovich", "--dims", "2,3,4",
                     "--samples", "20", "--seed", "42", "--m", "1e-4", "--M", "1e4",
                     "--mp", "1.01", "--out", str(out_path)])
    out = capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    assert code == EXIT_VIOLATIONS
    cell_lines = re.findall(r"^(\w+) +dim=(\d+) +checks=(\d+) +violations=(\d+) +"
                            r"classical_violations=(\d+) +near_tight=(\d+) ", out, re.M)
    assert cell_lines == [
        (row["theorem_id"], str(row["dim"]), str(row["samples"]), str(row["violations"]),
         str(row["classical_violations"]), str(row["near_tight"]))
        for row in doc["results"]]
    assert sum(row["violations"] for row in doc["results"]) > 0
    assert sum(row["near_tight"] for row in doc["results"]) > 0
    total = re.search(r"^total: (\d+) checks, (\d+) violations, 0 skipped cells, seed=42, "
                      r"(\d+\.\d{3}) s$", out, re.M)
    assert total is not None
    assert int(total.group(1)) == doc["meta"]["total_checks"]
    assert int(total.group(2)) == doc["meta"]["total_violations"]


@pytest.mark.parametrize("command", [
    ["verify", "--theorems", "choi", "--dims", "2", "--samples", "2"],
    ["search", "--theorem", "choi", "--m", "1", "--M", "2", "--budget", "10"],
])
def test_cli_rejects_a_negative_seed(capsys, command):
    assert cli_main([*command, "--seed", "-1"]) == EXIT_USAGE
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


def test_cli_verify_infeasible_override_exits_65(capsys):
    code = cli_main(["verify", "--theorems", "lemma_amgm", "--dims", "2",
                     "--samples", "2", "--m", "0.5", "--M", "4"])
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err


def test_cli_verify_corner_violation_exits_1(capsys):
    # the collapsed window corner really violates the refined bound
    code = cli_main(["verify", "--theorems", "kantorovich", "--dims", "2",
                     "--samples", "2", "--seed", "0",
                     "--m", "1", "--mp", "4", "--M", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_VIOLATIONS
    assert "VIOLATIONS" in out


def test_cli_verify_writes_reports(tmp_path, capsys):
    json_out = tmp_path / "r.json"
    csv_out = tmp_path / "r.csv"
    base = ["verify", "--theorems", "scalar_amgm", "--dims", "2",
            "--samples", "3", "--seed", "5"]
    assert cli_main(base + ["--out", str(json_out)]) == EXIT_OK
    assert cli_main(base + ["--out", str(csv_out)]) == EXIT_OK
    capsys.readouterr()
    assert json.loads(json_out.read_text())["meta"]["seed"] == 5
    assert csv_out.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)


@pytest.mark.parametrize("box", [
    ["--theorems", "wielandt_scalar,wielandt_bhatia_davis,wielandt_gumus"],
    ["--theorems", "wielandt_refined", "--mp", "4"],
])
def test_cli_verify_degenerate_box_writes_report(tmp_path, capsys, box):
    # at m = M every right side is exactly 0: both sides vanish, ratio 1
    out = tmp_path / "r.json"
    code = cli_main(["verify", *box, "--dims", "2,4", "--samples", "5",
                     "--m", "2", "--M", "2", "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    rows = json.loads(out.read_text())["results"]
    assert rows and all(row["max_ratio"] == 1.0 and row["violations"] == 0 for row in rows)


def test_cli_verify_unwritable_out_exits_64(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code = cli_main(["verify", "--theorems", "scalar_amgm", "--dims", "2", "--samples", "2",
                     "--out", str(target)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.count("\n") == 1 and str(target) in err


@pytest.mark.parametrize("cells", [
    ["--theorems", "scalar_amgm,scalar_amgm", "--dims", "2"],
    ["--theorems", "scalar_amgm", "--dims", "2,2"],
])
def test_cli_verify_rejects_repeated_cells(capsys, cells):
    code = cli_main(["verify", *cells, "--samples", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "repeated" in captured.err
    assert "total:" not in captured.out


def test_cli_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("OPINEQ_SEED", "7")
    cli_main(["verify", "--theorems", "scalar_amgm", "--dims", "2", "--samples", "2"])
    assert "seed=7" in capsys.readouterr().out
    monkeypatch.setenv("OPINEQ_SEED", "not-a-number")
    code = cli_main(["verify", "--theorems", "scalar_amgm", "--dims", "2", "--samples", "2"])
    assert code == EXIT_USAGE
    assert "OPINEQ_SEED" in capsys.readouterr().err


def test_cli_search_ok(capsys):
    code = cli_main(["search", "--theorem", "choi", "--dim", "2", "--budget", "60",
                     "--seed", "1", "--m", "1", "--M", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "best ratio" in out


def test_cli_search_infeasible_box_exits_65(capsys):
    code = cli_main(["search", "--theorem", "kantorovich", "--budget", "10",
                     "--m", "3", "--mp", "2", "--M", "4"])
    assert code == EXIT_INFEASIBLE
    capsys.readouterr()


def test_cli_search_ratio_gate_exits_2(capsys):
    # At m = 1, m' = 4, M = 2 the window is {1/2} and the refined Kantorovich
    # constant is below the Cauchy-Schwarz floor of 1: every instance violates it.
    code = cli_main(["search", "--theorem", "kantorovich", "--budget", "5",
                     "--seed", "0", "--m", "1", "--mp", "4", "--M", "2"])
    assert code == EXIT_RATIO_EXCEEDED
    assert "exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_cli_search_rejects_invalid_tol(capsys, tol):
    # With a NaN or infinite tol, ratio > 1 + tol could never flag a ratio;
    # a negative tol would flag a sound bound that reaches ratio 1.
    code = cli_main(["search", "--theorem", "kantorovich", "--classical", "--m", "1",
                     "--M", "4", "--budget", "50", "--tol", tol])
    assert code == EXIT_USAGE
    assert "tol must be finite and >= 0" in capsys.readouterr().err


def test_cli_constants_table(capsys):
    code = cli_main(["constants", "--m", "1", "--mp", "2", "--Mp", "3", "--M", "4"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "1.5625000000" in out
    assert "natural" in out
    assert "kantorovich" in out and "wielandt" in out


def test_cli_constants_infeasible_exits_65(capsys):
    code = cli_main(["constants", "--m", "3", "--mp", "2", "--Mp", "3", "--M", "4"])
    assert code == EXIT_INFEASIBLE
    capsys.readouterr()


# The 14 lines of opineq demo, one per record of a registered witness, in any order.
DEMO_LINES = (
    "[demo] scalar refined am-gm a=1 b=4       lhs=2.48045301  rhs=2.5  "
    "slack=0.019547  holds=True",
    "[demo] scalar equality a=b=3              lhs=3  rhs=3  "
    "slack=0  holds=True",
    "[demo] squared mean bound a=1 b=4         lhs=6.25  rhs=6.34889325  "
    "slack=0.0988933  holds=True",
    "[demo] wielandt refined 2x2 witness       lhs=0.0170132325  rhs=0.187029752  "
    "slack=0.170017  holds=True",
    "[demo] wielandt gumus 2x2 witness         lhs=0.0170132325  rhs=0.231959256  "
    "slack=0.214946  holds=True",
    "[demo] kantorovich equality witness       lhs=1.5625  rhs=1.5625  "
    "slack=4.44089e-16  holds=True",
    "[demo] wielandt scalar equality pair      lhs=2.25  rhs=2.25  "
    "slack=-4.44089e-16  holds=True",
    "[demo] chain half_a at m=M                lhs=2  rhs=2  "
    "slack=0  holds=True",
    "[demo] chain half_b at m=M                lhs=2  rhs=2  "
    "slack=0  holds=True",
    "[demo] chain summed at m=M                lhs=4  rhs=4  "
    "slack=0  holds=True",
    "[demo] chain geo_inverse at m=M           lhs=4  rhs=4  "
    "slack=0  holds=True",
    "[demo] chain mapped_inverse_mean at m=M   lhs=4  rhs=4  "
    "slack=0  holds=True",
    "[demo] chain mapped_mean_inverse at m=M   lhs=4  rhs=4  "
    "slack=0  holds=True",
    "[demo] chain norm_product at m=M          lhs=1  rhs=1  "
    "slack=0  holds=True",
)


def test_cli_demo_all_hold(capsys):
    assert cli_main(["demo"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("[demo]")]
    assert sorted(lines) == sorted(DEMO_LINES)
    assert all(line.endswith("holds=True") for line in lines)


def test_cli_version(capsys):
    assert cli_main(["--version"]) == 0
    assert "opineq" in capsys.readouterr().out


def test_cli_rejects_big_dims(capsys):
    assert cli_main(["verify", "--dims", "65", "--samples", "1"]) == EXIT_USAGE
    capsys.readouterr()


def test_exit_codes_are_distinct():
    codes = {EXIT_OK, EXIT_VIOLATIONS, EXIT_RATIO_EXCEEDED, EXIT_USAGE,
             EXIT_INFEASIBLE}
    assert codes == {0, 1, 2, 64, 65}


def test_bound_params_flow_through_reports():
    params = BoundParams(m=1.0, M=4.0)
    report = _small_report(theorem_ids=("scalar_amgm",),
                           grids={"scalar_amgm": params})
    doc = ReportDocument.from_campaign(report, version="0", timestamp="t")
    row = doc.results[0]
    assert (row["m"], row["M"]) == (1.0, 4.0)
    assert (row["m_prime"], row["M_prime"]) == (1.0, 4.0)


def test_cli_into_a_closed_pipe_exits_quietly():
    # As in `opineq search ... | head -1` once head has exited.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    try:
        proc = subprocess.run([sys.executable, "-m", "opineq", "search", "--theorem", "choi",
                               "--m", "0.5", "--M", "4", "--budget", "20"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == -signal.SIGPIPE
    assert b"Traceback" not in proc.stderr
