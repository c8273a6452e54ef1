import csv
import io
import json
import math
import subprocess
import sys

import pytest

from shenell import scd_real
from shenell.cli import (MAX_GRID_POINTS, UsageError, main, parse_grid,
                         reports_from_json, reports_to_json, rows_to_csv,
                         sample_grid_from_json, sample_grid_rows_from_csv,
                         sample_grid_to_json)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "shenell", *args],
                          capture_output=True, text=True)


# ------------------------------------------------------------------ invariants

def test_invariants_text():
    result = run_cli("invariants", "--k", "0.5")
    assert result.returncode == 0
    assert "1.037037037037037" in result.stdout


def test_invariants_json():
    result = run_cli("invariants", "--k", "0.5", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["g2"] == 28.0 / 27.0
    assert payload["g3"] == 148.0 / 729.0
    assert payload["delta"] == 48.0 / 19683.0


def test_invariants_domain_error_exit_2():
    result = run_cli("invariants", "--k", "1.5")
    assert result.returncode == 2
    assert "modulus out of range" in result.stderr


# --------------------------------------------------------------------- periods

def test_periods_json():
    result = run_cli("periods", "--k", "0.5", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["K"] == pytest.approx(1.6727806413678799, abs=1e-12)
    assert payload["e1"] > payload["e2"] > payload["e3"]


# ------------------------------------------------------------------------ eval

def test_eval_matches_library():
    result = run_cli("eval", "--k", "0.5", "--fn", "d", "--real", "0.4", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["re_f"] == pytest.approx(scd_real(0.5, 0.4).d, abs=1e-9)
    assert payload["is_pole"] == 0


def test_eval_unknown_function_exit_2():
    result = run_cli("eval", "--k", "0.5", "--fn", "bogus", "--real", "0.4")
    assert result.returncode == 2


def test_eval_rejects_grids():
    result = run_cli("eval", "--k", "0.5", "--fn", "d", "--real", "0:0.1:1")
    assert result.returncode == 2


# ---------------------------------------------------------------------- verify

def test_verify_pole_passes():
    result = run_cli("verify", "--k", "0.5", "--suite", "pole", "--tol", "1e-10")
    assert result.returncode == 0
    assert result.stdout.startswith("PASS")


def test_verify_passes_next_to_k_one():
    result = run_cli("verify", "--k", "0.999999999")
    assert result.returncode == 0, result.stdout
    assert "Traceback" not in result.stderr
    assert "FAIL" not in result.stdout


def test_verify_unknown_suite_exit_2():
    result = run_cli("verify", "--k", "0.5", "--suite", "no-such")
    assert result.returncode == 2


@pytest.mark.parametrize("suites", ["pole,bogus", ","])
def test_verify_bad_suite_list_exit_2(suites):
    result = run_cli("verify", "--k", "0.5", "--suite", suites)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr


def test_verify_failure_exit_1():
    result = run_cli("verify", "--k", "0.5", "--suite", "pole", "--tol", "1e-30")
    assert result.returncode == 1
    assert "FAIL" in result.stdout


def test_verify_bad_k_exit_2():
    result = run_cli("verify", "--k", "abc", "--suite", "pole")
    assert result.returncode == 2


def test_verify_multiple_k_json_sorted():
    result = run_cli("verify", "--k", "0.7,0.3", "--suite",
                     "factorization,pythagorean", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    keys = [(item["identity"], item["k"]) for item in payload]
    assert keys == sorted(keys)
    assert all(item["passed"] for item in payload)


def test_verify_json_round_trip(tmp_path):
    out = tmp_path / "reports.json"
    result = run_cli("verify", "--k", "0.5", "--suite", "pole", "--json",
                     "--out", str(out))
    assert result.returncode == 0
    text = out.read_text()
    assert reports_to_json(reports_from_json(text)) == text


def test_verify_json_is_strict_for_a_nan_residual(tmp_path):
    # the pole-order residual is nan at k = 1e-50: it is written as null,
    # which a parser that refuses NaN and Infinity reads, and reads back as nan
    out = tmp_path / "reports.json"
    result = run_cli("verify", "--k", "1e-50", "--suite", "pole-order", "--json",
                     "--out", str(out))
    assert result.returncode == 1
    text = out.read_text()

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    assert json.loads(text, parse_constant=refuse)[0]["max_residual"] is None
    (report,) = reports_from_json(text)
    assert math.isnan(report.max_residual) and not report.passed
    assert reports_to_json([report]) == text


# ---------------------------------------------------------------------- sample

def test_sample_real_axis_matches_phase_map(tmp_path):
    out = tmp_path / "grid.csv"
    result = run_cli("sample", "--k", "0.5", "--fn", "d", "--real", "0:0.1:1",
                     "--out", str(out))
    assert result.returncode == 0
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "re_z,im_z,re_f,im_f,is_pole"
    rows = sample_grid_rows_from_csv(text)
    assert len(rows) == 11
    for re, im, ref, imf, pole in rows:
        assert pole == 0
        expected = 1.0 if re == 0.0 else scd_real(0.5, re).d
        assert ref == pytest.approx(expected, abs=1e-9)


def test_sample_flags_pole_row():
    periods = json.loads(run_cli("periods", "--k", "0.5", "--json").stdout)
    pole_im = repr((2.0 / 3.0) * periods["K_prime"])
    result = run_cli("sample", "--k", "0.5", "--fn", "d",
                     "--real", "0", "--imag", f"0:{pole_im}:{pole_im}")
    assert result.returncode == 0
    rows = sample_grid_rows_from_csv(result.stdout)
    assert len(rows) == 2
    assert rows[0][4] == 0
    assert rows[1][4] == 1  # the d pole at (2/3) i K'
    assert rows[1][2] is None and rows[1][3] is None


def test_sample_wp_pole_at_origin():
    result = run_cli("sample", "--k", "0.5", "--fn", "wp", "--real", "0")
    assert result.returncode == 0
    rows = sample_grid_rows_from_csv(result.stdout)
    assert rows[0][4] == 1


def test_sample_csv_round_trip(tmp_path):
    out = tmp_path / "grid.csv"
    result = run_cli("sample", "--k", "0.5", "--fn", "s2",
                     "--real=-0.5:0.25:0.5", "--imag", "0:0.5:1",
                     "--out", str(out))
    assert result.returncode == 0
    text = out.read_text()
    assert rows_to_csv(sample_grid_rows_from_csv(text)) == text


def test_sample_json_round_trip(tmp_path):
    out = tmp_path / "grid.json"
    result = run_cli("sample", "--k", "0.5", "--fn", "wp", "--json",
                     "--real", "0:0.5:1", "--imag", "0:1:2",
                     "--out", str(out))
    assert result.returncode == 0
    text = out.read_text()
    assert sample_grid_to_json(sample_grid_from_json(text)) == text


def test_sample_empty_grid_exit_2():
    result = run_cli("sample", "--k", "0.5", "--fn", "d", "--real", "")
    assert result.returncode == 2


def test_sample_malformed_grid_exit_2():
    for spec in ("1:2", "a:b:c", "0:0:1"):
        result = run_cli("sample", "--k", "0.5", "--fn", "d", "--real", spec)
        assert result.returncode == 2, spec


def test_sample_without_axes_exit_2():
    result = run_cli("sample", "--k", "0.5", "--fn", "d")
    assert result.returncode == 2


# ---------------------------------------------------------------------- parser

def test_unknown_subcommand_exit_2():
    result = run_cli("frobnicate")
    assert result.returncode == 2


def test_parse_grid_unit():
    assert parse_grid("0:0.25:1") == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert parse_grid("0.3") == [0.3]
    assert parse_grid("2:1:2") == [2.0]
    with pytest.raises(UsageError):
        parse_grid("")
    with pytest.raises(UsageError):
        parse_grid("0:1")
    with pytest.raises(UsageError):
        parse_grid("0:0:1")


# ------------------------------------------------------------ input validation

def test_eval_nan_coordinate_exit_2():
    result = run_cli("eval", "--k", "0.5", "--fn", "d", "--real", "nan")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr


def test_sample_infinite_coordinate_exit_2():
    result = run_cli("sample", "--k", "0.5", "--fn", "d", "--real=inf")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr


def test_parse_grid_rejects_non_finite():
    for spec in ("nan", "inf", "-inf", "0:nan:1", "0:0.1:inf", "-inf:1:0"):
        with pytest.raises(UsageError):
            parse_grid(spec)


def test_parse_grid_caps_points_before_building():
    # 1e300 points, and one point over the cap: both refused from the
    # count alone, without building the list
    for spec in ("0:1e-300:1", f"0:1:{MAX_GRID_POINTS}", "-1e308:1e-300:1e308"):
        with pytest.raises(UsageError, match="more than"):
            parse_grid(spec)


def test_sample_caps_grid_points():
    side = int(MAX_GRID_POINTS ** 0.5) + 1
    code = main(["sample", "--k", "0.5", "--fn", "d",
                 "--real", f"0:1:{side - 1}", "--imag", f"0:1:{side - 1}"])
    assert code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_verify_rejects_bad_tolerance(tol):
    assert main(["verify", "--k", "0.5", "--suite", "factorization", f"--tol={tol}"]) == 2


# ------------------------------------------------------------------ CSV writer

def _csv_module_reference(rows):
    # the csv.writer formulation of sample_grid_to_csv
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["re_z", "im_z", "re_f", "im_f", "is_pole"])
    for re, im, ref, imf, pole in rows:
        if pole:
            writer.writerow([repr(float(re)), repr(float(im)), "", "", "1"])
        else:
            writer.writerow([repr(float(re)), repr(float(im)),
                             repr(float(ref)), repr(float(imf)), "0"])
    return out.getvalue()


def test_csv_writer_matches_csv_module():
    rows = [
        (0.0, 0.0, None, None, 1),
        (-0.0, 5e-324, 1e308, -1e308, 0),
        (0.1, -0.0, -0.0, 5e-324, 0),
        (1, 2, 3, 4, 0),
        (1e-300, 1.7976931348623157e308, -5e-324, 0.30000000000000004, 0),
        (2.5, 1.25, None, None, 1),
    ]
    assert rows_to_csv(rows) == _csv_module_reference(rows)
    assert rows_to_csv([]) == _csv_module_reference([])
