import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "bohmpart", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def read_series(csv_text: str) -> dict[tuple, list[tuple]]:
    """Group fig1 CSV rows by (sigma, kbt)."""
    out: dict[tuple, list[tuple]] = {}
    lines = csv_text.strip().splitlines()
    for line in lines[1:]:
        sigma, kbt, t, z = (float(v) for v in line.split(","))
        out.setdefault((sigma, kbt), []).append((t, z))
    return out


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "fig1" in cp.stdout and "verify" in cp.stdout


def test_fig1_default_three_series(tmp_path: Path):
    out = tmp_path / "fig1.csv"
    cp = run_cli("fig1", "--samples", "24", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    series = read_series(out.read_text())
    assert set(series) == {(0.45, 2.0), (0.45, 5.0), (0.65, 2.0)}
    for rows in series.values():
        assert rows[0][0] == 0.0 and rows[0][1] == 1.0  # normalized exactly


def test_fig1_header_schema(tmp_path: Path):
    out = tmp_path / "fig1.csv"
    run_cli("fig1", "--samples", "4", "--out", str(out))
    header = out.read_text().splitlines()[0]
    assert header == "sigma[length],kbt[energy],t[time],z[dimensionless]"


def test_fig1_temperature_ordering(tmp_path: Path):
    out = tmp_path / "fig1.csv"
    cp = run_cli("fig1", "--kbt", "2", "--kbt", "5", "--sigma", "0.45",
                 "--samples", "60", "--tmax", "3.2", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    series = read_series(out.read_text())
    amp = {key: max(z for _, z in rows) - min(z for _, z in rows)
           for key, rows in series.items()}
    assert amp[(0.45, 5.0)] < amp[(0.45, 2.0)]


def test_fig1_usage_error_exit_1():
    cp = run_cli("fig1", "--samples", "1")
    assert cp.returncode == 1


def test_bad_flag_exit_1():
    cp = run_cli("fig1", "--no-such-flag")
    assert cp.returncode == 1


def test_fig1_divergent_exit_2():
    cp = run_cli("fig1", "--sigma", "0.2", "--kbt", "0.5", "--samples", "4")
    assert cp.returncode == 2
    assert "divergent" in cp.stderr


def test_fig1_deterministic_digest(tmp_path: Path):
    digests = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        cp = run_cli("fig1", "--samples", "12", "--tmax", "2.0",
                     "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        manifest = json.loads(
            (tmp_path / f"{name}.csv.manifest.json").read_text())
        digests.append(manifest["digest"])
    assert digests[0] == digests[1]
    payload_a = (tmp_path / "a.csv").read_bytes()
    payload_b = (tmp_path / "b.csv").read_bytes()
    assert payload_a == payload_b
    assert b"\r" not in payload_a  # LF line endings only


def test_marginal_json_config_roundtrip(tmp_path: Path):
    out = tmp_path / "m.json"
    cp = run_cli("marginal", "--sigma", "0.5", "--kbt", "3.0", "--x0", "0.8",
                 "--samples", "8", "--tmax", "2.0", "--format", "json",
                 "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    first = json.loads(out.read_text())
    digest_first = json.loads(
        (tmp_path / "m.json.manifest.json").read_text())["digest"]

    cfg_file = tmp_path / "replay.cfg"
    cfg_file.write_text("".join(
        f"{key} = {value}\n" for key, value in first["config"].items()))
    out2 = tmp_path / "m2.json"
    cp = run_cli("marginal", "--config", str(cfg_file), "--samples", "8",
                 "--tmax", "2.0", "--format", "json", "--out", str(out2))
    assert cp.returncode == 0, cp.stderr
    digest_second = json.loads(
        (tmp_path / "m2.json.manifest.json").read_text())["digest"]
    assert digest_first == digest_second


def test_config_file_unknown_key_exit_1(tmp_path: Path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("massq = 2.0\n")
    cp = run_cli("marginal", "--config", str(cfg), "--samples", "4")
    assert cp.returncode == 1
    assert "unknown config key" in cp.stderr


@pytest.mark.parametrize("argv", [
    ("partition", "--kbt", "0"),
    ("partition", "--kbt", "nan"),
    ("partition", "--sigma", "nan"),
    ("partition", "--mass", "nan"),
    ("partition", "--hbar", "inf"),
    ("marginal", "--kbt", "-1", "--samples", "4"),
    ("fig1", "--sigma", "nan", "--samples", "4"),
    ("bath", "--beta", "nan"),
    ("trajectory", "--system", "free", "--omega", "nan", "--x-start", "1"),
])
def test_non_finite_or_non_positive_input_exit_1(argv):
    cp = run_cli(*argv)
    assert cp.returncode == 1, cp.stdout
    assert "Traceback" not in cp.stderr


def test_trajectory_csv_schema(tmp_path: Path):
    out = tmp_path / "t.csv"
    cp = run_cli("trajectory", "--x-start", "1.45", "--tmax", "1.0",
                 "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t[time],x[length],v[length/time]"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 1.45


def test_bath_default_summary(tmp_path: Path):
    out = tmp_path / "bath.csv"
    cp = run_cli("bath", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    text = out.read_text()
    z_b = float([line for line in text.splitlines()
                 if line.startswith("z_b,")][0].split(",")[1])
    assert z_b == pytest.approx(2.0 * np.pi, rel=1e-12)
    assert (tmp_path / "bath_oscillators.csv").exists()
    assert (tmp_path / "bath_kernel.csv").exists()


def test_bath_uniform_large_n(tmp_path: Path):
    out = tmp_path / "bath.csv"
    cp = run_cli("bath", "--n", "10", "--sigma", "5.0", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    rel = float([line for line in out.read_text().splitlines()
                 if line.startswith("large_n_rel_err,")][0].split(",")[1])
    assert rel == pytest.approx(abs(1.0 - 0.99**5), rel=1e-10)


def test_bath_divergent_exit_2_and_allow_flag(tmp_path: Path):
    cp = run_cli("bath", "--sigma", "0.4")
    assert cp.returncode == 2
    out = tmp_path / "crit.csv"
    cp = run_cli("bath", "--sigma", "0.4", "--allow-divergent",
                 "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    text = out.read_text()
    assert "criterion" in text.splitlines()[0]
    assert "fail" in text
    assert "z_b" not in text


def test_bath_file_parsing(tmp_path: Path):
    bath_file = tmp_path / "bath.cfg"
    bath_file.write_text(
        "# two oscillators\nsigma = 2.0\nq0 = 0.1\n"
        "osc = 1.0, 1.0, 1.0\nosc = 1.0, 2.0, 0.5\n")
    out = tmp_path / "bath.csv"
    cp = run_cli("bath", "--bath-file", str(bath_file), "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    z_b = float([line for line in out.read_text().splitlines()
                 if line.startswith("z_b,")][0].split(",")[1])
    assert z_b == pytest.approx((2.0 * np.pi) ** 2 / 2.0, rel=1e-12)


def test_limits_fixed_msigma2_constant_ratio(tmp_path: Path):
    out = tmp_path / "lim.csv"
    cp = run_cli("limits", "--var", "sigma", "--start", "1.0", "--stop",
                 "0.25", "--num", "4", "--fixed-msigma2", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    rows = out.read_text().strip().splitlines()[1:]
    ratios = [float(r.split(",")[3]) for r in rows]
    assert max(ratios) - min(ratios) < 1e-10
    assert all(r.split(",")[5] == "ok" for r in rows)


def test_limits_divergent_rows_marked(tmp_path: Path):
    out = tmp_path / "lim.csv"
    cp = run_cli("limits", "--var", "kbt", "--start", "0.2", "--stop", "0.3",
                 "--num", "3", "--sigma", "0.5", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    rows = out.read_text().strip().splitlines()[1:]
    assert all(row.endswith("divergent") for row in rows)
    assert all(row.split(",")[1] == "nan" for row in rows)


def test_limits_ratio_tends_to_one(tmp_path: Path):
    out = tmp_path / "lim.csv"
    cp = run_cli("limits", "--var", "sigma", "--start", "2.0", "--stop",
                 "40.0", "--num", "5", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    rows = out.read_text().strip().splitlines()[1:]
    ratios = [float(r.split(",")[3]) for r in rows]
    crits = [float(r.split(",")[4]) for r in rows]
    assert crits[-1] < crits[0]
    assert abs(ratios[-1] - 1.0) < 1e-3


def test_golden_csv_headers(tmp_path: Path):
    runs = {
        "marginal": (["marginal", "--samples", "2", "--tmax", "1.0"],
                     "t[time],z[dimensionless]"),
        "limits": (["limits", "--var", "sigma", "--start", "1.0", "--stop",
                    "2.0", "--num", "2"],
                   "sigma[swept],z_u[dimensionless],z_cl[dimensionless],"
                   "ratio[dimensionless],criterion_ratio[dimensionless],status"),
        "partition": (["partition"],
                      "quantity,method,value[dimensionless],"
                      "est_error[dimensionless]"),
        "bath": (["bath"], "quantity,value[dimensionless]"),
    }
    for name, (argv, header) in runs.items():
        out = tmp_path / f"{name}.csv"
        cp = run_cli(*argv, "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        assert out.read_text().splitlines()[0] == header, name
    osc_header = (tmp_path / "bath_oscillators.csv").read_text().splitlines()[0]
    assert osc_header == ("index,mass[mass],omega[1/time],coupling[coupling],"
                          "ratio[dimensionless],criterion")
    kernel_header = (tmp_path / "bath_kernel.csv").read_text().splitlines()[0]
    assert kernel_header == "t[time],nu[coupling^2*time^2]"


def test_verify_fault_injection_exit_3(tmp_path: Path):
    out = tmp_path / "report.txt"
    cp = run_cli("verify", "--inject-q-scale", "1.001", "--out", str(out))
    assert cp.returncode == 3
    assert "FAIL" in cp.stdout
    text = out.read_text()
    # the three documented discrepancy entries are always listed
    assert "center potential" in text
    assert "-beta weight" in text
    assert "2 pi per oscillator" in text


def test_partition_table(tmp_path: Path):
    out = tmp_path / "p.csv"
    cp = run_cli("partition", "--kbt", "1.0", "--sigma", "1.0",
                 "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    rows = {tuple(line.split(",")[:2]): float(line.split(",")[2])
            for line in out.read_text().strip().splitlines()[1:]}
    assert rows[("z_classical", "closed_form")] == pytest.approx(1.0)
    assert rows[("z_quantum", "closed_form")] == pytest.approx(
        1.0 / (2.0 * np.sinh(0.5)), rel=1e-12)
    assert rows[("gaussian_correction", "closed_form")] == pytest.approx(
        0.899281683502734, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ("partition", "--oracle"),
    ("marginal", "--samples", "3"),
])
def test_quadrature_failure_exit_4(tmp_path: Path, argv):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("rel_tol = 1e-30\nabs_tol = 1e-300\n")
    cp = run_cli(*argv, "--config", str(cfg))
    assert cp.returncode == 4, cp.stderr
    assert "Traceback" not in cp.stderr
    assert cp.stderr.startswith("bohmpart: numerical failure:")


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_partition_json_divergent_cells_are_null():
    cp = run_cli("partition", "--sigma", "0.2", "--kbt", "0.5", "--format", "json")
    assert cp.returncode == 0, cp.stderr
    rows = _strict_json(cp.stdout)["rows"]
    for row in rows:
        for key in ("value", "est_error"):
            if row["method"] == "divergent":
                assert row[key] is None
            else:
                assert isinstance(row[key], float)
    assert sum(row["method"] == "divergent" for row in rows) == 2


def test_limits_json_cells_are_numbers_or_null():
    cp = run_cli("limits", "--var", "kbt", "--start", "0.5", "--stop", "3",
                 "--num", "4", "--format", "json")
    assert cp.returncode == 0, cp.stderr
    rows = _strict_json(cp.stdout)["rows"]
    assert [row[-1] for row in rows] == ["divergent", "ok", "ok", "ok"]
    for *numbers, status in rows:
        assert all(isinstance(c, float) for c in numbers if c is not None)
        divergent = status == "divergent"
        assert (numbers[1] is None) == divergent
        assert (numbers[3] is None) == divergent
        assert isinstance(numbers[2], float)
        assert isinstance(numbers[4], float)
