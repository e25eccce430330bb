import functools
import io
import json
import math
import shlex
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st


# A child process turns RuntimeWarning into an error, as pytest does in
# process, so that a warning cannot pass unseen on a child's stderr.
PYTHON = [sys.executable, "-W", "error::RuntimeWarning"]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [*PYTHON, "-m", "bohmpart", *args]
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


def test_import_leaves_scipy_out():
    """No code path needs scipy: with every scipy import made to fail, a
    spectral_project call and each subcommand still run and exit 0."""
    cp = subprocess.run(
        [*PYTHON, "-c",
         "import sys\n"
         "class NoScipy:\n"
         "    def find_spec(self, name, path=None, target=None):\n"
         "        if name == 'scipy' or name.startswith('scipy.'):\n"
         "            raise ImportError(f'{name} is blocked')\n"
         "sys.meta_path.insert(0, NoScipy())\n"
         "from bohmpart import WavepacketInit, evolve, harmonic_system\n"
         "from bohmpart.wavepacket import default_spectral_grid, spectral_project\n"
         "HO, init = harmonic_system(1.0, 1.0), WavepacketInit(1.0, 0.5, 0.6)\n"
         "dec = spectral_project(evolve(HO, init, 0.0), 40,\n"
         "                       default_spectral_grid(HO, init, 40))\n"
         "assert abs(dec.weights.sum() - 1.0) < 1e-8\n"
         "import bohmpart.cli as c\n"
         "for argv in (['verify'], ['partition', '--oracle'],\n"
         "             ['fig1', '--samples', '3'], ['marginal', '--samples', '3'],\n"
         "             ['limits', '--var', 'kbt', '--start', '1', '--stop', '2'],\n"
         "             ['bath'], ['trajectory', '--x-start', '1']):\n"
         "    assert c.main(argv) == 0, argv\n"
         "print('scipy' in sys.modules, file=sys.stderr)"],
        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stderr.strip() == "False"


def test_import_and_closed_form_commands_leave_numpy_out(tmp_path: Path):
    """The import, partition (CSV, and JSON with a manifest), limits, bath
    (with its companion tables), trajectory (harmonic and free, CSV and
    JSON), fig1 and marginal, whose 1-D quadratures run on math alone, and
    partition --oracle, whose 2-D and 3-D oracles are products of 1-D
    rules, and verify, which draws its sample points from the standard
    library and evaluates each kernel one float at a time, never load
    numpy."""
    out = tmp_path / "z.json"
    bath_out = tmp_path / "b.csv"
    curve_out = tmp_path / "curve.json"
    cp = subprocess.run(
        [*PYTHON, "-c",
         "import sys, bohmpart, bohmpart.cli as c\n"
         "assert 'numpy' not in sys.modules\n"
         "assert c.main(['partition']) == 0\n"
         f"assert c.main(['partition', '--format', 'json', '--out', {str(out)!r}]) == 0\n"
         "assert c.main(['limits', '--var', 'sigma', '--start', '1', "
         "'--stop', '0.125', '--num', '8', '--fixed-msigma2']) == 0\n"
         "assert c.main(['trajectory', '--x-start', '1']) == 0\n"
         "assert c.main(['trajectory', '--system', 'free', '--x-start', '1']) == 0\n"
         "assert c.main(['trajectory', '--x-start', '1', '--format', 'json']) == 0\n"
         f"assert c.main(['bath', '--out', {str(bath_out)!r}]) == 0\n"
         "assert c.main(['fig1']) == 0\n"
         "assert c.main(['marginal', '--format', 'json', '--out', "
         f"{str(curve_out)!r}]) == 0\n"
         "assert c.main(['partition', '--oracle']) == 0\n"
         "assert c.main(['verify']) == 0\n"
         "assert 'numpy' not in sys.modules\n"],
        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert json.loads(Path(f"{out}.manifest.json").read_text())["digest"]
    assert len(json.loads(curve_out.read_text())["rows"]) == 400
    assert sorted(p.name for p in tmp_path.glob("b_*.csv")) == [
        "b_kernel.csv", "b_oscillators.csv"]


def test_scalar_energy_call_leaves_numpy_out():
    """energy_pointwise of a float or an int tells it from an array before it
    reads np, so a scalar call in a fresh interpreter imports no numpy."""
    cp = subprocess.run(
        [*PYTHON, "-c",
         "import sys\n"
         "from bohmpart import WavepacketInit, energy_pointwise, evolve, "
         "harmonic_system\n"
         "state = evolve(harmonic_system(1.0, 1.0), WavepacketInit(1.0, 0.5, 0.45), 0.7)\n"
         "assert type(energy_pointwise(state, 0.3)) is float\n"
         "assert energy_pointwise(state, 1) == energy_pointwise(state, 1.0)\n"
         "assert 'numpy' not in sys.modules\n"],
        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr


# The names `bohmpart` exports, by the submodule that defines each.
EXPORTS = {
    "core": "DivergentIntegral QuadratureFailure StepFailure SystemParams "
            "ThermalSpec TruncationInsufficient free_system harmonic_system "
            "potential_value",
    "wavepacket": "WavepacketInit WavepacketState density energy_pointwise "
                  "evolve phase_gradient quantum_potential spectral_project",
    "trajectories": "RK4Fixed RK45Adaptive TrajectoryConfig bohmian_velocity "
                    "equivariance_check integrate quantum_force",
    "partition": "CriterionReport classical_Z classicality_criterion "
                 "gaussian_correction marginal_Z marginal_Z_derivative "
                 "marginal_curve phase_space_integral quantum_Z "
                 "unified_Z_gaussian unified_integral",
    "bath": "BathSpec Oscillator classical_bath_Z large_N_ratio memory_kernel "
            "unified_bath_Z uniform_bath",
}


def _modules_loaded_by(code: str) -> set[str]:
    """The modules a child process loads while it runs `code`."""
    cp = subprocess.run(
        [*PYTHON, "-c",
         "import json, sys\n"
         "before = set(sys.modules)\n"
         f"{code}\n"
         "print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)"],
        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    return set(json.loads(cp.stderr.splitlines()[-1]))


@pytest.mark.parametrize("argv, modules", [
    (None, set()),
    (["partition"], {"cli", "core", "partition"}),
    (["limits", "--var", "kbt", "--start", "1", "--stop", "2"],
     {"cli", "core", "partition"}),
    (["bath"], {"bath", "cli", "core", "partition"}),
    (["trajectory", "--x-start", "1"], {"cli", "core", "trajectories",
                                        "wavepacket"}),
    (["fig1", "--samples", "3"], {"cli", "core", "partition", "wavepacket"}),
    (["partition", "--oracle"], {"cli", "core", "partition"}),
    (["verify"], {"bath", "cli", "core", "numdiff", "partition",
                  "trajectories", "verify", "wavepacket"}),
], ids=["import", "partition", "limits", "bath", "trajectory", "fig1",
        "partition-oracle", "verify"])
def test_import_and_closed_form_commands_load_only_what_they_run(argv, modules):
    """`import bohmpart` loads no submodule, and each closed-form subcommand,
    fig1 with its scalar quadratures, partition --oracle and verify, writing
    to stdout, loads just the submodules it calls and none of dataclasses,
    statistics and hashlib.  Each runs in a child process, since pytest has
    loaded those already."""
    loaded = _modules_loaded_by(
        "import bohmpart" if argv is None else
        f"import bohmpart.cli as c; assert c.main({argv!r}) == 0")
    assert {m for m in loaded if m.startswith("bohmpart.")} == {
        f"bohmpart.{m}" for m in modules}
    assert not loaded & {"dataclasses", "statistics", "hashlib"}


def test_package_names_resolve_in_their_submodules_on_each_read():
    """Each exported name is its submodule's object, read afresh on every
    access (never kept in the package, so a wrapper swapped into the
    submodule and back is what the package hands out), and an unknown name
    is an AttributeError."""
    import importlib
    import bohmpart
    assert sorted(bohmpart.__all__) == sorted(
        name for names in EXPORTS.values() for name in names.split())
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"bohmpart.{module}")
        for name in names.split():
            assert getattr(bohmpart, name) is getattr(sub, name), name
            assert name not in vars(bohmpart)
    from bohmpart import core
    original = core.harmonic_system
    with mock.patch.object(core, "harmonic_system", lambda *a: "swapped"):
        assert bohmpart.harmonic_system() == "swapped"
    assert bohmpart.harmonic_system is original
    with pytest.raises(AttributeError, match="no_such_name"):
        bohmpart.no_such_name
    assert not hasattr(bohmpart, "np")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _grid_args(draw):
    """(start, stop, num): any finite span, start == stop, or a span of a
    few ulps, whose step underflows to 0 where the span is subnormal."""
    kind = draw(st.sampled_from(["any", "equal", "ulps", "subnormal"]))
    start = draw(st.floats(-1e-320, 1e-320) if kind == "subnormal"
                 else _FINITE)
    if kind == "any":
        stop = draw(_FINITE)
    else:
        stop = start
        toward = draw(st.sampled_from([-math.inf, math.inf]))
        for _ in range(0 if kind == "equal" else draw(st.integers(1, 3))):
            stop = math.nextafter(stop, toward)
    return start, stop, draw(st.integers(1, 500))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(args=_grid_args())
@example(args=(0.0, 4 * math.pi, 400))
@example(args=(1.0, 0.125, 8))  # a reversed range
@example(args=(0.0, 5e-324, 3))  # step underflows to 0
@example(args=(5e-324, -5e-324, 500))
@example(args=(-0.0, -0.0, 2))
@example(args=(-1e308, 1e308, 5))  # the span overflows
def test_cli_linspace_is_numpy_linspace(args):
    """The CLI's grid equals np.linspace element for element, by == and
    by the sign of zero."""
    from bohmpart.cli import linspace
    start, stop, num = args
    with np.errstate(all="ignore"):  # a span past the doubles, in both
        want = np.linspace(start, stop, num).tolist()
    got = linspace(start, stop, num)
    assert len(got) == num and all(type(x) is float for x in got)
    for g, w in zip(got, want):
        if math.isnan(w):
            assert math.isnan(g)
        else:
            assert g == w and math.copysign(1.0, g) == math.copysign(1.0, w)


def test_readme_cli_lines_are_corpus_lines():
    """cli_corpus.txt is the one byte pin of README's CLI lines: it holds
    each line without its --out, so the payload goes to stdout, and, where
    README gives an --out, the line as written, whose digest covers the
    files it writes."""
    from test_cli_corpus import corpus
    pinned = set(corpus())
    for line in _readme_cli_lines():
        argv = shlex.split(line)[1:]
        if "--out" in argv:
            assert shlex.join(argv) in pinned, line
            at = argv.index("--out")
            del argv[at:at + 2]
        assert shlex.join(argv) in pinned, line


def _readme_cli_lines() -> list[str]:
    """The `bohmpart ...` lines of README's `## CLI` code block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.startswith("bohmpart ")]


def test_readme_cli_block_runs(tmp_path: Path, capsys):
    from bohmpart import cli
    runs = [shlex.split(line)[1:] for line in _readme_cli_lines()]
    # every subcommand: those READS lists, and verify, which reads no key
    assert {argv[0] for argv in runs} == {*cli.READS, "verify"}
    for argv in runs:
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        assert cli.main(argv) == 0, argv
    capsys.readouterr()


def test_readme_config_key_table_matches_reads():
    """Each row of README's config-key table lists exactly the keys that
    cli.READS gives the subcommand and a --<key> override for each: the
    first backquoted span of each cell, before any remark."""
    import re
    from bohmpart import cli
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| subcommand | config keys | overrides |\n", 1)[1]
    rows = {}
    for line in table.splitlines()[1:]:
        if not line.startswith("|"):
            break
        command, keys, overrides = (re.match(r"\s*`([^`]*)`", cell)[1]
                                    for cell in line.split("|")[1:4])
        rows[command] = (sorted(keys.split()), sorted(overrides.split()))
    assert rows == {
        command: (sorted(flags + lists),
                  sorted(f"--{key}" for key in flags + lists))
        for command, (flags, lists) in cli.READS.items()}


def test_parser_declares_one_flag_per_config_key():
    """Each subcommand's cfg_* dests are exactly the keys READS gives it, in
    READS' order, each set by --<key>, and only a list key's flag appends."""
    import argparse
    from bohmpart import cli
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        flags, lists = cli.READS.get(command, ((), ()))
        keyed = [action for action in parser._actions
                 if action.dest.startswith("cfg_")]
        assert [(action.dest, action.option_strings) for action in keyed] == [
            (f"cfg_{key}", [f"--{key}"]) for key in flags + lists], command
        assert [action.dest for action in keyed
                if isinstance(action, argparse._AppendAction)] == [
            f"cfg_{key}" for key in lists], command


def test_bad_flag_exit_1():
    cp = run_cli("fig1", "--no-such-flag")
    assert cp.returncode == 1


@pytest.mark.parametrize("argv", [
    ["fig1", "--kb", "2"],
    ["marginal", "--kb", "2"],
    ["limits", "--var", "kbt", "--start", "1", "--stop", "2", "--kb", "2"],
    ["limits", "--var", "kbt", "--start", "1", "--stop", "2", "--x0", "2"],
    ["limits", "--var", "kbt", "--start", "1", "--stop", "2", "--p0", "2"],
    ["bath", "--kb", "2"],
    ["trajectory", "--x-start", "1", "--kbt", "2"],
    ["trajectory", "--x-start", "1", "--kb", "2"],
    ["partition", "--x0", "2"],
    ["partition", "--p0", "2"],
    ["verify", "--format", "json"],
    ["verify", "--hbar", "2"],
    ["verify", "--kb", "2"],
    ["verify", "--config", "x"],
    ["partition", "--kb", "2"],
    ["verify", "--profile", "strict"],
])
def test_flag_the_subcommand_does_not_read_exit_1(capsys, argv):
    from bohmpart import cli
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err
    assert "Traceback" not in err


def test_fig1_divergent_exit_2():
    cp = run_cli("fig1", "--sigma", "0.2", "--kbt", "0.5", "--samples", "4")
    assert cp.returncode == 2
    assert "divergent" in cp.stderr


@pytest.mark.parametrize("kbt, named", [
    ("0.5", "t=0, sigma=0.45, kbt=0.5"),  # the first pair already diverges
    ("2", "t=0, sigma=0.2, kbt=2"),  # (0.45, 2) is one of the paper's pairs
])
def test_fig1_divergent_message_names_the_pair(kbt, named):
    cp = run_cli("fig1", "--sigma", "0.45", "--sigma", "0.2", "--kbt", kbt,
                 "--samples", "50")
    assert cp.returncode == 2
    assert cp.stderr.startswith("bohmpart: divergent integral:")
    assert named in cp.stderr
    assert cp.stderr.count("\n") == 1


@pytest.mark.parametrize("cfg_text, flags, pairs", [
    ("x0 = 1.0\n", (), {(0.45, 2.0), (0.45, 5.0), (0.65, 2.0)}),
    ("sigma = 0.3\nkbt = 4\n", (), {(0.3, 4.0)}),
    ("sigma = 0.6\n", (), {(0.6, 2.0)}),
    ("kbt = 4\n", (), {(0.45, 4.0)}),
    ("sigma = 0.3\nkbt = 4\n", ("--kbt", "3", "--kbt", "5"),
     {(0.3, 3.0), (0.3, 5.0)}),
    ("sigma = 0.3\nkbt = 4\n", ("--sigma", "0.5"), {(0.5, 4.0)}),
    ("sigma = 0.3\n", ("--sigma", "0.5", "--sigma", "0.6"),
     {(0.5, 2.0), (0.6, 2.0)}),
    (None, ("--sigma", "0.5"), {(0.5, 2.0)}),
    ("sigma = [0.5, 0.6]\nkbt = [2, 5]\n", (), {(0.5, 2.0), (0.6, 5.0)}),
    ("sigma = [0.5, 0.6]\n", (), {(0.5, 2.0), (0.6, 2.0)}),
    ("sigma = [0.5, 0.6]\nkbt = [5]\n", (), {(0.5, 5.0), (0.6, 5.0)}),
    ("sigma = [0.5, 0.6]\nkbt = [2, 5]\n", ("--kbt", "3"),
     {(0.5, 3.0), (0.6, 3.0)}),
    ("sigma = [0.5, 0.6]\n", ("--kbt", "3", "--kbt", "5"),
     {(0.5, 3.0), (0.5, 5.0), (0.6, 3.0), (0.6, 5.0)}),
], ids=["file-without-pair-keys", "file-only", "file-sigma",
        "file-kbt", "file-sigma-flag-kbt", "flag-over-file",
        "file-sigma-flag-sigma", "flags-only", "file-lists-pair-up",
        "file-list-default-kbt", "file-list-one-kbt",
        "flag-over-file-list", "file-list-times-flag-list"])
def test_fig1_config_keys_count_as_one_pair_value(tmp_path: Path, cfg_text,
                                                  flags, pairs):
    """A sigma or kbt key of the config file counts as the values of a
    --sigma or --kbt list that is not given; two file lists pair up one value
    per curve, as fig1 echoes them.  The paper's pairs apply only when
    neither gives sigma or kbt."""
    from bohmpart import cli
    argv = ["fig1", "--samples", "2", "--tmax", "0.5", *flags]
    if cfg_text is not None:
        cfg = tmp_path / "fig1.cfg"
        cfg.write_text(cfg_text)
        argv += ["--config", str(cfg)]
    out = tmp_path / "fig1.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert set(read_series(out.read_text())) == pairs


@pytest.mark.parametrize("cfg_text, flags, sigmas, kbts", [
    (None, (), [0.45, 0.45, 0.65], [2.0, 5.0, 2.0]),
    (None, ("--sigma", "0.5", "--kbt", "3"), [0.5], [3.0]),
    (None, ("--sigma", "0.5", "--sigma", "0.6", "--kbt", "3"),
     [0.5, 0.6], [3.0, 3.0]),
    ("sigma = 0.3\nkbt = 4\n", (), [0.3], [4.0]),
    ("sigma = 0.3\n", ("--kbt", "3", "--kbt", "5"), [0.3, 0.3], [3.0, 5.0]),
    # 1/(1/49) is 49.00000000000001; the rows write the kbt typed
    (None, ("--sigma", "0.6", "--kbt", "49"), [0.6], [49.0]),
], ids=["default", "flags", "flag-lists", "file", "file-and-flags", "kbt-49"])
def test_fig1_config_echoes_each_curves_pair(tmp_path: Path, cfg_text, flags,
                                             sigmas, kbts):
    """fig1's JSON config and manifest give sigma and kbt per curve, in the
    order of the curves' rows."""
    from bohmpart import cli
    argv = ["fig1", "--samples", "2", "--tmax", "0.5", *flags]
    if cfg_text is not None:
        cfg = tmp_path / "fig1.cfg"
        cfg.write_text(cfg_text)
        argv += ["--config", str(cfg)]
    out = tmp_path / "fig1.json"
    assert cli.main([*argv, "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    manifest = json.loads((tmp_path / "fig1.json.manifest.json").read_text())
    for config in (payload["config"], manifest["config"]):
        assert (config["sigma"], config["kbt"]) == (sigmas, kbts)
    pairs = [(row["sigma"], row["kbt"]) for row in payload["rows"]]
    assert pairs == [pair for pair in zip(sigmas, kbts) for _ in range(2)]


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


@pytest.mark.parametrize("flags", [
    (), ("--sigma", "0.5", "--sigma", "0.6", "--kbt", "3"),
], ids=["default-pairs", "flag-lists"])
def test_fig1_json_config_roundtrip(tmp_path: Path, flags):
    """fig1's echoed config, written as key = value lines with its sigma and
    kbt lists, replays the same curves and digest."""
    out = tmp_path / "f.json"
    cp = run_cli("fig1", *flags, "--samples", "3", "--format", "json",
                 "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    first = json.loads(out.read_text())
    digest_first = json.loads(
        (tmp_path / "f.json.manifest.json").read_text())["digest"]

    cfg_file = tmp_path / "replay.cfg"
    cfg_file.write_text("".join(
        f"{key} = {value}\n" for key, value in first["config"].items()))
    out2 = tmp_path / "f2.json"
    cp = run_cli("fig1", "--config", str(cfg_file), "--samples", "3",
                 "--format", "json", "--out", str(out2))
    assert cp.returncode == 0, cp.stderr
    assert json.loads(out2.read_text()) == first
    digest_second = json.loads(
        (tmp_path / "f2.json.manifest.json").read_text())["digest"]
    assert digest_first == digest_second


@pytest.mark.parametrize("cfg_text, argv, message", [
    ("sigma = [0.3, 0.4]\nkbt = [2, 5, 7]\n", ["fig1"], "lengths must agree"),
    ("sigma = [0.3, nan]\n", ["fig1"], "non-finite value for sigma"),
    ("kbt = [2, x]\n", ["fig1"], "kbt needs a number, not 'x'"),
    ("sigma = []\n", ["fig1"], "sigma needs a number"),
    ("x0 = [1.0]\n", ["fig1"], "x0 needs a number, not '[1.0]'"),
    ("sigma = [0.5, 0.6]\n", ["marginal"], "sigma needs a number"),
    ("kbt = [2.0]\n", ["partition"], "kbt needs a number"),
], ids=["unequal-lists", "non-finite-item", "bad-item", "empty-list",
        "fig1-scalar-key", "marginal", "partition"])
def test_config_list_errors_exit_1(tmp_path: Path, capsys, cfg_text, argv,
                                   message):
    """A list outside fig1's sigma and kbt, a bad list item or fig1 lists of
    unequal lengths exit 1 with a message that names the key."""
    from bohmpart import cli
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(cfg_text)
    assert cli.main([*argv, "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err


def test_resolve_config_leaves_the_parsed_flags_alone(tmp_path: Path):
    """fig1's file lists come back in the config, not written into args."""
    from bohmpart import cli
    cfg = tmp_path / "fig1.cfg"
    cfg.write_text("sigma = [0.5, 0.6]\nkbt = [2, 5]\n")
    args = cli.build_parser().parse_args(["fig1", "--config", str(cfg)])
    before = dict(vars(args))
    resolved = cli.resolve_config(args)
    assert vars(args) == before
    assert (resolved["sigma"], resolved["kbt"]) == ([0.5, 0.6], [2.0, 5.0])


@pytest.mark.parametrize("argv", [
    ["partition", "--config", "{missing}/x.cfg"],
    ["bath", "--bath-file", "{dir}"],
    ["partition", "--out", "{file}/x.csv"],
    ["verify", "--out", "{file}/r.txt"],
], ids=["missing-config", "bath-file-is-a-directory", "out-under-a-file",
        "verify-out-under-a-file"])
def test_a_file_it_cannot_use_exits_1_in_one_line(tmp_path: Path, capsys,
                                                  argv):
    from bohmpart import cli
    (tmp_path / "file").write_text("")
    paths = {"missing": tmp_path / "missing", "dir": tmp_path,
             "file": tmp_path / "file"}
    argv = [arg.format(**paths) for arg in argv]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("bohmpart: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if "--out" in argv:  # the line names the path asked for, not its parent
        assert f"--out {argv[-1]}" in err


def test_config_file_unknown_key_exit_1(tmp_path: Path):
    """A config file may set only the keys its subcommand reads."""
    cases = [
        ("massq = 2.0", ["marginal", "--samples", "4"]),
        ("kb = 2", ["fig1", "--samples", "4"]),
        ("kb = 2", ["marginal", "--samples", "4"]),
        ("x0 = 2", ["limits", "--var", "kbt", "--start", "1", "--stop", "2"]),
        ("window_sigmas = 8",
         ["limits", "--var", "kbt", "--start", "1", "--stop", "2"]),
        ("kb = 2", ["bath"]),
        ("sigma = 2", ["bath"]),
        ("kbt = 2", ["trajectory", "--x-start", "1"]),
        ("rel_tol = 1e-8", ["trajectory", "--x-start", "1"]),
        ("p0 = 1", ["partition"]),
        ("window_sigmas = 12", ["fig1", "--samples", "4"]),
        ("rel_tol = 1e-10", ["fig1", "--samples", "4"]),
        ("window_sigmas = 12", ["marginal", "--samples", "4"]),
        ("rel_tol = 1e-10", ["marginal", "--samples", "4"]),
        ("window_sigmas = 12", ["partition"]),
        ("rel_tol = 1e-10", ["partition", "--oracle"]),
        ("kb = 1", ["partition"]),
    ]
    cfg = tmp_path / "bad.cfg"
    for line, argv in cases:
        cfg.write_text(line + "\n")
        cp = run_cli(*argv, "--config", str(cfg))
        assert cp.returncode == 1, (line, argv)
        assert "unknown config key" in cp.stderr
        assert "Traceback" not in cp.stderr


@pytest.mark.parametrize("argv, keys", [
    (["fig1", "--samples", "2", "--tmax", "0.5"],
     "hbar mass omega x0 p0 sigma kbt"),
    (["marginal", "--samples", "2", "--tmax", "0.5"],
     "hbar mass omega sigma x0 p0 kbt"),
    # limits leaves out the key it sweeps, which its rows set, but for
    # sigma under --fixed-msigma2, the reference width; --kbt is accepted
    (["limits", "--var", "kbt", "--start", "1", "--stop", "2", "--num", "2",
      "--kbt", "3"], "hbar mass omega sigma"),
    (["limits", "--var", "sigma", "--start", "1", "--stop", "2", "--num", "2"],
     "hbar mass omega kbt"),
    (["limits", "--var", "sigma", "--start", "1", "--stop", "2", "--num", "2",
      "--fixed-msigma2"], "hbar mass omega sigma kbt"),
    (["bath"], "hbar"),
    (["trajectory", "--x-start", "1", "--tmax", "0.5"],
     "hbar mass omega sigma x0 p0"),
    (["partition"], "hbar mass omega sigma kbt"),
], ids=["fig1", "marginal", "limits", "limits-sigma", "limits-fixed-msigma2",
        "bath", "trajectory", "partition"])
def test_json_config_echoes_the_keys_the_subcommand_reads(tmp_path: Path,
                                                          argv, keys):
    from bohmpart import cli
    flags, lists = cli.READS[argv[0]]
    swept = ([argv[argv.index("--var") + 1]]
             if "--var" in argv and "--fixed-msigma2" not in argv else [])
    assert sorted(flags + lists) == sorted(keys.split() + swept)
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--format", "json", "--out", str(out)]) == 0
    assert sorted(json.loads(out.read_text())["config"]) == sorted(keys.split())
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
    assert sorted(manifest["config"]) == sorted(keys.split())


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


# partition --oracle inputs whose phase-space box doubles cannot hold, each
# with the text its one-line message must contain: the p window is inf; m w^2
# overflows, so the integral reads 0; w^2 is subnormal, so it is 4.6% low;
# p^2/(2m) overflows; the 3-D box volume overflows.  The first and the last
# set sigma 1e-60 or hbar 1e30, without which their criterion ratio
# underflows and is named before the box is formed.
ORACLE_BOX = [
    (["--mass", "1e75", "--kbt", "1e300", "--omega", "1e70", "--sigma",
      "1e-60"], "mass = 1e+75, omega = 1e+70"),
    (["--omega", "1e160", "--kbt", "1e158"], "omega = 1e+160, kbt = 1e+158"),
    (["--omega", "3e-162", "--kbt", "1e-20", "--sigma", "1e10"],
     "omega = 3e-162, kbt = 1e-20"),
    (["--kbt", "1e307", "--omega", "1e10", "--mass", "1e-3"],
     "mass = 0.001, omega = 10000000000.0"),
    (["--sigma", "5.3213166474075176e+29", "--kbt", "5.672420291711578e+304",
      "--hbar", "1e30"],
     "sigma = 5.3213166474075176e+29"),
]

# beta m = 4.7e-321 is subnormal, so the box's x window lost digits and the
# oracle exited 1, where the rule it stopped was right
SUBNORMAL_BETA_M = ["--omega=7.655492808947607e+87",
                    "--kbt=1.1189365365002268e+287",
                    "--mass=5.219913566980221e-34"]


# a criterion scale past the doubles, which printed inf with exit 0, and the
# text its one-line message must contain
CRITERION_OVERFLOW = [
    (["limits", "--var", "kbt", "--num", "3",
      "--start=4.513665175843066e-299", "--stop=3.2849807868885394e+49",
      "--sigma=2.53101710146827e-74"], "criterion_ratio = inf"),
    (["bath", "--beta", "1e300", "--sigma", "1e-74", "--allow-divergent"],
     "criterion_ratio = inf is not a finite double at beta = 1e+300, "
     "mass = 1.0, sigma = 1e-74, hbar = 1.0"),
    (["partition", "--hbar", "1e75", "--mass", "1e-75", "--sigma", "1e-75",
      "--kbt", "1e300"], "t_min = inf"),
    # beta hbar^2 overflows, and so does the ratio that _group gives
    (["partition", "--kbt", "1e-299", "--hbar", "1e10"],
     "criterion_ratio = inf is not a finite double at beta = 1e+299, "
     "mass = 1.0, sigma = 0.45, hbar = 10000000000.0"),
]

# a criterion scale below the normal doubles, which printed 0.0 with exit 0,
# and the text its one-line message must contain
CRITERION_UNDERFLOW = [
    (["partition", "--hbar", "1e-75", "--mass", "1e75", "--sigma", "1e75"],
     "criterion_ratio = 0.0 is below the normal doubles at beta = 0.5, "
     "mass = 1e+75, sigma = 1e+75, hbar = 1e-75"),
    (["partition", "--oracle", "--kbt", "1e-240", "--mass", "1e75", "--sigma",
      "1e75", "--hbar", "1e-75", "--omega", "1e-162"],
     "t_min = 0.0 is below the normal doubles"),
    (["limits", "--var", "kbt", "--start", "1", "--stop", "2", "--num", "2",
      "--hbar", "1e-75", "--mass", "1e75", "--sigma", "1e75"],
     "criterion_ratio = 0.0 is below the normal doubles at beta = 1.0"),
    (["bath", "--hbar", "1e-75", "--m0", "1e75", "--sigma", "1e75"],
     "criterion_ratio = 0.0 is below the normal doubles at beta = 1.0"),
    (["bath", "--beta", "5e-324", "--n", "2"],
     "criterion_ratio = 0.0 is below the normal doubles at beta = 5e-324"),
]

# 2 pi hbar^2 beta / m overflows, where the thermal wavelength is 2.5e155
WAVELENGTH_PAST_ITS_SQUARE = [
    "partition", "--kbt", "1e-200", "--hbar", "1e50", "--mass", "1e-10",
    "--sigma", "1e75", "--omega", "1e-248"]


def _exit_1_naming(capsys, argv, name):
    from bohmpart import cli
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("bohmpart: ") and name in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_partition_rows_survive_a_subnormal_beta_hbar(capsys):
    """beta = 2.5e-308 times hbar = 1e-15 and hbar^2 is subnormal or 0, yet
    every row is a normal double: each matches 50-digit mpmath of the typed
    inputs to 1e-12, where naive products print the Z rows 1.2% high and
    the criterion ratio and thermal wavelength 0.0."""
    from bohmpart import cli
    assert cli.main(["partition", "--kbt", "4e307", "--hbar", "1e-15", "--mass",
                     "1e-75", "--sigma", "1e-75", "--omega", "1e300"]) == 0
    rows = {(q, method): float(value) for q, method, value, _ in
            (line.split(",") for line in
             capsys.readouterr().out.splitlines()[1:])}
    with mpmath.workdps(50):
        beta, hbar, m = 1 / mpmath.mpf(4e307), mpmath.mpf(1e-15), mpmath.mpf(1e-75)
        z = 1 / (beta * hbar * mpmath.mpf(1e300))
        ratio = beta * hbar**2 / (4 * m * m**2)  # sigma = m
        refs = {"z_classical": z, "z_quantum": z, "z_unified": z,
                "gaussian_correction": mpmath.exp(-ratio) / mpmath.sqrt(1 - ratio),
                "criterion_ratio": ratio, "t_min": hbar**2 / (4 * m**3),
                "thermal_de_broglie": mpmath.sqrt(2 * mpmath.pi * hbar**2
                                                  * beta / m)}
    for (quantity, _), value in rows.items():
        assert abs(value - refs[quantity]) <= 1e-12 * refs[quantity], quantity


def test_partition_oracle_survives_a_subnormal_beta_m(capsys):
    """The x window of a subnormal beta m is formed on exact exponents
    (partition._group), so the oracle runs, with RuntimeWarning an error,
    and each quadrature row is within 2e-14 of its closed form."""
    from bohmpart import cli
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["partition", "--oracle", *SUBNORMAL_BETA_M]) == 0
    rows = {(q, method): float(value) for q, method, value, _ in
            (line.split(",") for line in
             capsys.readouterr().out.splitlines()[1:])}
    for quantity in ("z_classical", "z_unified"):
        closed = rows[quantity, "closed_form"]
        assert abs(rows[quantity, "quadrature"] - closed) <= 2e-14 * closed


def test_partition_oracle_writes_its_classical_row_where_z_unified_diverges(
        capsys):
    """The classical oracle does not depend on sigma: at sigma 0.1 (ratio
    12.5) the unified Z diverges and has no quadrature row, yet the
    classical one is written, within its est_error of the closed form."""
    from bohmpart import cli
    assert cli.main(["partition", "--oracle", "--sigma", "0.1"]) == 0
    rows = {(q, method): (float(value), float(err)) for q, method, value, err
            in (line.split(",") for line in
                capsys.readouterr().out.splitlines()[1:])}
    assert ("z_unified", "divergent") in rows
    assert ("z_unified", "quadrature") not in rows
    value, err = rows["z_classical", "quadrature"]
    assert abs(value - rows["z_classical", "closed_form"][0]) <= err


# beta m = 1e315 overflows, so half_x was 0 and the box missed its energy
OVERFLOWING_BETA_M = ["--kbt", "1e-240", "--mass", "1e75", "--sigma", "1e25",
                      "--hbar", "1e-75", "--omega", "1e-162"]


def test_partition_oracle_survives_an_overflowing_beta_m(capsys):
    """The x window of an overflowing beta m is formed on exact exponents
    (partition._group), so the oracle runs, with RuntimeWarning an error,
    and each quadrature row is within 1e-12 of its closed form."""
    from bohmpart import cli
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["partition", "--oracle", *OVERFLOWING_BETA_M]) == 0
    rows = {(q, method): float(value) for q, method, value, _ in
            (line.split(",") for line in
             capsys.readouterr().out.splitlines()[1:])}
    for quantity in ("z_classical", "z_unified"):
        closed = rows[quantity, "closed_form"]
        assert abs(rows[quantity, "quadrature"] - closed) <= 1e-12 * closed


def test_partition_rows_survive_a_thermal_wavelength_whose_square_overflows(
        capsys):
    """2 pi hbar^2 beta / m overflows, and it exited 1, yet every scale is a
    double: each finite row matches 50-digit mpmath of the typed inputs to
    1e-12, and the unified rows are divergent (r = 2.5e159)."""
    from bohmpart import cli
    assert cli.main(WAVELENGTH_PAST_ITS_SQUARE) == 0
    rows = {(q, method): float(value) for q, method, value, _ in
            (line.split(",") for line in
             capsys.readouterr().out.splitlines()[1:])}
    with mpmath.workdps(50):
        beta, hbar = 1 / mpmath.mpf(1e-200), mpmath.mpf(1e50)
        m, sigma, omega = mpmath.mpf(1e-10), mpmath.mpf(1e75), mpmath.mpf(1e-248)
        x = beta * hbar * omega
        refs = {"z_classical": 1 / x, "z_quantum": 1 / (2 * mpmath.sinh(x / 2)),
                "criterion_ratio": beta * hbar**2 / (4 * m * sigma**2),
                "t_min": hbar**2 / (4 * m * sigma**2),
                "thermal_de_broglie": mpmath.sqrt(2 * mpmath.pi * hbar**2
                                                  * beta / m)}
    assert {key for key in rows if key[1] == "divergent"} == {
        ("gaussian_correction", "divergent"), ("z_unified", "divergent")}
    for (quantity, method), value in rows.items():
        if method != "divergent":
            assert abs(value - refs[quantity]) <= 1e-12 * refs[quantity], quantity
    assert rows["thermal_de_broglie", "closed_form"] == pytest.approx(2.5e155,
                                                                      rel=3e-3)


@pytest.mark.parametrize("argv, name", [
    (["trajectory", "--x-start", "1", "--tmax", "inf"], "--tmax"),
    (["trajectory", "--x-start", "1", "--tmax", "nan"], "--tmax"),
    (["trajectory", "--x-start", "nan"], "x_start"),
    (["trajectory", "--x-start", "inf"], "x_start"),
    (["trajectory", "--x-start", "1", "--tmax", "0"], "--tmax"),
    (["bath", "--n", "0"], "--n"),
    (["limits", "--var", "kbt", "--start", "1", "--stop", "2", "--num", "2",
      "--fixed-msigma2"], "--fixed-msigma2"),
    (["bath", "--kernel-tmax", "inf"], "--kernel-tmax"),
    (["bath", "--kernel-tmax", "nan"], "--kernel-tmax"),
    (["bath", "--kernel-tmax", "nan", "--format", "json"], "--kernel-tmax"),
    (["bath", "--kernel-samples", "0"], "--kernel-samples"),
    (["bath", "--kernel-samples", "-3"], "--kernel-samples"),
    (["marginal", "--tmax", "inf"], "--tmax"),
    (["marginal", "--tmax", "nan", "--samples", "4"], "--tmax"),
    (["fig1", "--tmax", "nan"], "--tmax"),
    (["fig1", "--tmax=-inf", "--format", "json"], "--tmax"),
    (["limits", "--var", "kbt", "--start", "1", "--stop", "inf"], "--stop"),
    (["limits", "--var", "sigma", "--start", "nan", "--stop", "2"], "--start"),
    (["trajectory", "--x-start", "1", "--tmax", "-1"], "--tmax"),
    (["trajectory", "--system", "free", "--x-start", "1.2", "--tmax", "1e308"],
     "--tmax"),
    (["trajectory", "--omega", "10", "--x-start", "1.2", "--tmax", "1e308"],
     "--tmax"),
    (["trajectory", "--x-start", "1.2", "--sigma", "1e200"], "sigma"),
    (["marginal", "--sigma", "1e200", "--samples", "3"], "sigma"),
    (["fig1", "--sigma", "1e200", "--kbt", "2", "--samples", "3"], "sigma"),
    (["partition", "--sigma", "1e-200"], "sigma"),
    (["limits", "--var", "sigma", "--start", "1e-200", "--stop", "1",
      "--num", "2"], "sigma"),
    (["bath", "--sigma", "1e-200"], "sigma"),
    (["partition", "--hbar", "1e200"], "hbar"),
    (["fig1", "--hbar", "1e200", "--samples", "3"], "hbar"),
    (["limits", "--var", "kbt", "--start", "1", "--stop", "2", "--hbar",
      "1e200"], "hbar"),
    (["bath", "--hbar", "1e200"], "hbar"),
    (["marginal", "--mass", "1e300", "--samples", "3"], "mass"),
    (["trajectory", "--x-start", "1", "--hbar", "1e200"], "hbar"),
    (["trajectory", "--system", "free", "--omega", "3", "--x-start", "1.2",
      "--tmax", "1"], "--omega"),
    (["partition", "--omega", "1e-310"], "beta hbar omega"),
    # beta = 1/kbt = 1e-308 is subnormal, so from_kbt refuses it before any
    # scale formed from it is checked
    (["partition", "--kbt", "1e308"], "kbt = 1e+308 is so large that beta = "
     "1/kbt is below the normal doubles"),
    (["partition", "--kbt", "1e308", "--omega", "1e-300"],
     "kbt = 1e+308 is so large that beta = 1/kbt is below the normal doubles"),
    (["partition", "--omega", "1e308"], "beta hbar omega"),
    (["partition", "--kbt", "1e-300"], "beta hbar omega"),
    (["bath", "--n", "400"], "z_b"),
    (["bath", "--n", "100000", "--m0", "1e3"], "z_b"),
    (["bath", "--n", "100", "--beta", "1e10"], "z_b"),
    (["bath", "--n", "390", "--beta", "10", "--sigma", "5"],
     "z_b_unified_with_2pi"),
    (["bath", "--omega-max", "1e300"], "omega"),
    (["bath", "--coupling", "1e300"], "coupling"),
    (["bath", "--omega-max", "1e-310"], "omega"),
    (["limits", "--var", "kbt", "--start", "1", "--stop", "2", "--sigma",
      "1e200"], "sigma"),
    (["limits", "--var", "sigma", "--start", "1e200", "--stop", "2e200",
      "--fixed-msigma2"], "sigma"),
    (["limits", "--var", "sigma", "--start", "0", "--stop", "1",
      "--num", "3", "--fixed-msigma2"], "sigma"),
    (["bath", "--kernel-tmax", "1e300", "--omega-max", "1e75",
      "--kernel-samples", "3"], "--kernel-tmax"),
    (["bath", "--kernel-tmax=-1e300", "--omega-max", "1e75",
      "--kernel-samples", "3", "--format", "json"], "--kernel-tmax"),
    (["partition", "--omega", "1e300", "--kbt", "1e-300"], "beta hbar omega"),
    # x = 9.999999600000016e-306 is below 1e-305, which `:g` would not show
    (["partition", "--sigma", "1", "--kbt", "0.25000001", "--omega",
      "2.5e-306"], "beta hbar omega = 9.999999600000016e-306"),
    (["partition", "--sigma", "1", "--kbt", "0.25000001", "--omega",
      "2.55e-306"], "z_unified"),
    (["limits", "--var", "kbt", "--start", "0.25000001", "--stop", "0.3",
      "--num", "2", "--sigma", "1", "--omega", "2.55e-306"], "z_unified"),
    (["partition", "--oracle", "--omega", "1e-200"], "omega = 1e-200"),
    (["marginal", "--x0", "1e200", "--samples", "3"], "x0 = 1e+200"),
    (["fig1", "--p0", "1e200", "--samples", "3"], "p0 = 1e+200"),
    (["marginal", "--omega", "1e300", "--samples", "3"], "omega = 1e+300"),
    # the t = 0 marginal Z underflows to 0, so the curve cannot be normalized
    (["marginal", "--x0", "100", "--samples", "3"], "x0 = 100"),
    (["fig1", "--p0", "1e3", "--samples", "3"], "p0 = 1000"),
    # beta m underflows to 0; on exact exponents the x window is a double,
    # but its square overflows at the box's corner
    (["partition", "--oracle", "--mass", "5.4e-69", "--kbt", "2.5e268"],
     "kbt = 2.5e+268: doubles miss"),
    (["marginal", "--omega", "3.5e286", "--tmax=-7.6e74", "--samples", "3"],
     "--tmax -7.6e+74 times omega = 3.5e+286"),
    (["fig1", "--omega", "3.5e286", "--tmax=-7.6e74", "--samples", "3"],
     "--tmax -7.6e+74 times omega = 3.5e+286"),
    *((["partition", "--oracle", *flags], name) for flags, name in ORACLE_BOX),
    # a window so wide that (x - q)^2 overflows, where the rule read 0.0
    (["marginal", "--omega", "1e-160", "--tmax", "1e170", "--samples", "3"],
     "t = 5e+169, omega = 1e-160, sigma = 0.45"),
    (["fig1", "--samples", "3", "--tmax=2.54811989855662e+196",
      "--omega=1.7092657971253837e-160", "--x0=2.5508573107064796e-29"],
     "omega = 1.70927e-160"),
    *CRITERION_OVERFLOW,
    # kbt is echoed as typed, not as 1/beta = 9.999999999999999e+299
    (["partition", "--oracle", "--mass", "1e75", "--kbt", "1e300", "--omega",
      "1e70", "--sigma", "1e-60"], "kbt = 1e+300"),
    # 1/kbt overflows, so beta is inf
    (["partition", "--kbt", "1e-320"], "kbt = 1e-320"),
    # the kernel grid is checked before Z, so even where Z diverges
    (["bath", "--beta", "10", "--sigma", "0.1", "--allow-divergent",
      "--kernel-tmax", "1e308", "--omega-max", "10"], "--kernel-tmax"),
    *CRITERION_UNDERFLOW,
])
def test_input_the_subcommand_cannot_honour_exit_1(capsys, argv, name):
    _exit_1_naming(capsys, argv, name)


# magnitudes log-uniform over the positive doubles, 5e-324 to 1.8e308
_MAGNITUDE = st.floats(math.log(5e-324),
                       math.log(sys.float_info.max)).map(math.exp)


@st.composite
def _oracle_flags(draw):
    """One to three of partition's keys, each set to a signed magnitude."""
    keys = draw(st.lists(st.sampled_from(["mass", "kbt", "omega", "sigma",
                                          "hbar"]),
                         min_size=1, max_size=3, unique=True))
    return [f"--{key}={draw(st.sampled_from([1.0, -1.0])) * draw(_MAGNITUDE)!r}"
            for key in keys]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(flags=_oracle_flags())
@example(flags=ORACLE_BOX[0][0])
@example(flags=ORACLE_BOX[1][0])
@example(flags=ORACLE_BOX[2][0])
@example(flags=ORACLE_BOX[3][0])
@example(flags=ORACLE_BOX[4][0])
@example(flags=SUBNORMAL_BETA_M)
def test_partition_oracle_agrees_with_its_closed_forms_or_exits(flags):
    """A documented exit code, one bohmpart: line on failure, and each
    quadrature row within max(1e-8 relative, est_error) of its closed form."""
    from bohmpart import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["partition", "--oracle", *flags])
    assert code in (0, 1, 2, 4)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("bohmpart: ")
        return
    assert err.getvalue() == ""
    rows = {}
    for line in out.getvalue().splitlines()[1:]:
        name, method, value, est_error = line.split(",")
        rows[name, method] = float(value), float(est_error)
    for (name, method), (value, est_error) in rows.items():
        if method == "quadrature":
            closed = rows[name, "closed_form"][0]
            assert abs(value - closed) <= max(1e-8 * abs(closed), est_error)


# the float flags each closed-form subcommand reads
CLI_FLOAT_FLAGS = {
    "limits": ["start", "stop", "hbar", "mass", "omega", "sigma", "kbt"],
    "bath": ["hbar", "m0", "omega-max", "coupling", "sigma", "q0", "beta",
             "kernel-tmax"],
    "trajectory": ["hbar", "mass", "omega", "sigma", "x0", "p0", "x-start",
                   "tmax"],
    "partition": ["hbar", "mass", "omega", "sigma", "kbt"],
}


@functools.cache
def _built_parser():
    from bohmpart import cli
    return cli.build_parser()


@st.composite
def _cli_argv(draw):
    """A closed-form subcommand with one to three of its float flags, each
    set to a signed magnitude, and at most 3 of anything it counts."""
    command = draw(st.sampled_from(sorted(CLI_FLOAT_FLAGS)))
    keys = draw(st.lists(st.sampled_from(CLI_FLOAT_FLAGS[command]),
                         min_size=1, max_size=3, unique=True))
    argv = [command] + [
        f"--{key}={draw(st.sampled_from([1.0, -1.0])) * draw(_MAGNITUDE)!r}"
        for key in keys]
    if command == "limits":
        argv += ["--var", draw(st.sampled_from(["sigma", "kbt", "hbar"])),
                 "--num", str(draw(st.integers(2, 3)))]
        argv += [f"--{key}={val}" for key, val in (("start", 1), ("stop", 2))
                 if key not in keys]
    elif command == "bath":
        argv += ["--n", str(draw(st.integers(1, 3))),
                 "--kernel-samples", str(draw(st.integers(1, 3)))]
        argv += ["--allow-divergent"] if draw(st.booleans()) else []
    elif command == "trajectory":
        argv += ["--system", draw(st.sampled_from(["harmonic", "free"]))]
        argv += [] if "x-start" in keys else ["--x-start", "1"]
    return argv


@settings(derandomize=True, max_examples=2000, deadline=None)
@given(argv=_cli_argv())
@example(argv=CRITERION_OVERFLOW[0][0])
@example(argv=CRITERION_OVERFLOW[1][0])
@example(argv=CRITERION_OVERFLOW[2][0])
@example(argv=CRITERION_OVERFLOW[3][0])
@example(argv=WAVELENGTH_PAST_ITS_SQUARE)
@example(argv=["bath", "--beta", "5e-324", "--n", "2"])  # beta w_a is 0.0
def test_closed_form_subcommands_exit_as_documented(argv):
    _exits_as_documented(argv)


# the float flags fig1 and marginal both read
MARGINAL_FLOAT_FLAGS = ["hbar", "mass", "omega", "sigma", "x0", "p0", "kbt",
                        "tmax"]


@st.composite
def _marginal_argv(draw):
    """fig1 or marginal with one to three of its float flags, each set to a
    signed magnitude, on 3 samples."""
    command = draw(st.sampled_from(["fig1", "marginal"]))
    keys = draw(st.lists(st.sampled_from(MARGINAL_FLOAT_FLAGS),
                         min_size=1, max_size=3, unique=True))
    return [command, "--samples", "3"] + [
        f"--{key}={draw(st.sampled_from([1.0, -1.0])) * draw(_MAGNITUDE)!r}"
        for key in keys]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(argv=_marginal_argv())
@example(argv=["fig1", "--samples", "3", "--omega", "3.7e12"])
def test_marginal_subcommands_exit_as_documented(argv):
    _exits_as_documented(argv)


def _exits_as_documented(argv):
    """A documented exit code, one bohmpart: line on failure, and tables
    (companions included) with no inf, and nan only in a divergent row.
    main reuses one parser, since building it is most of a call's time, and
    hands its CSV tables to a stand-in for emit instead of to files."""
    from bohmpart import cli
    err, parser, tables = io.StringIO(), _built_parser(), []

    def keep(args, command, config, payload, extra_files=None):
        tables.extend(blob.decode() for blob in
                      [payload, *(extra_files or {}).values()])

    with redirect_stderr(err), warnings.catch_warnings(), \
            mock.patch.object(cli, "build_parser", lambda: parser), \
            mock.patch.object(cli, "emit", keep):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    assert code in (0, 1, 2, 4)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("bohmpart: ")
        return
    assert err.getvalue() == "" and tables
    for table in tables:
        for row in (line.split(",") for line in table.splitlines()[1:]):
            assert "inf" not in row and "-inf" not in row, row
            assert "nan" not in row or "divergent" in row, row


def test_fig1_large_omega_ends_without_a_traceback(capsys):
    from bohmpart import cli
    code = cli.main(["fig1", "--omega", "3.7e12", "--samples", "3"])
    err = capsys.readouterr().err
    assert code == 0 or (err.startswith("bohmpart: ")
                         and err.count("\n") == 1)


def test_marginal_overflow_names_its_sample(capsys):
    """Exit 4 names the curve's inputs and the failing sample's time, as the
    exit-1 messages of a marginal window do."""
    from bohmpart import cli
    assert cli.main(["fig1", "--omega", "3.7e12", "--samples", "3"]) == 4
    err = capsys.readouterr().err
    assert err == ("bohmpart: numerical failure: marginal Z at t = 0, "
                   "omega = 3.7e+12, sigma = 0.45, kbt = 2, x0 = 1, p0 = 0: "
                   "non-finite value inf with 48 nodes per axis\n")


@pytest.mark.parametrize("flag", ["--n", "--m0", "--omega-max", "--coupling"])
def test_bath_file_with_a_uniform_bath_flag_exit_1(tmp_path: Path, capsys,
                                                   flag):
    bath_file = tmp_path / "bath.cfg"
    bath_file.write_text("osc = 1.0, 1.0, 1.0\n")
    _exit_1_naming(capsys, ["bath", "--bath-file", str(bath_file), flag, "2"],
                   flag)


def test_marginal_divergent_after_an_overflowing_sample_exit_2(capsys):
    # t = 1.354 is convergent but its log Z is ~4e3, which overflows the
    # quadrature; t = 1.386 diverges and must decide the exit code
    from bohmpart import cli
    assert cli.main(["marginal", "--sigma", "1.27766", "--kbt", "0.473019",
                     "--x0", "1.58504", "--p0", "0.434832",
                     "--samples", "400"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bohmpart: divergent integral:")
    assert "Traceback" not in err


def test_trajectory_csv_schema(tmp_path: Path):
    out = tmp_path / "t.csv"
    cp = run_cli("trajectory", "--x-start", "1.45", "--tmax", "1.0",
                 "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t[time],x[length],v[length/time]"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 1.45


@pytest.mark.parametrize("cfg_text, flags", [
    (None, ()),
    ("omega = 0\n", ()),
    (None, ("--omega", "0")),
], ids=["default", "file-omega-0", "flag-omega-0"])
def test_free_trajectory_echoes_omega_0(tmp_path: Path, capsys, cfg_text,
                                        flags):
    """A free path echoes the omega it ran with, 0, whether or not the
    config repeats it; the harmonic default omega = 1 alone is no clash."""
    from bohmpart import cli
    argv = ["trajectory", "--system", "free", "--x-start", "1.2", "--tmax",
            "1", "--format", "json", *flags]
    if cfg_text is not None:
        cfg = tmp_path / "free.cfg"
        cfg.write_text(cfg_text)
        argv += ["--config", str(cfg)]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["config"]["omega"] == 0.0


@pytest.mark.parametrize("cfg_text", ["omega = 3\n", "omega = 1\n"])
def test_free_trajectory_with_config_file_omega_exit_1(tmp_path: Path, capsys,
                                                       cfg_text):
    cfg = tmp_path / "free.cfg"
    cfg.write_text(cfg_text)
    _exit_1_naming(capsys, ["trajectory", "--system", "free", "--x-start",
                            "1.2", "--config", str(cfg)], "omega")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("system", ["harmonic", "free"])
def test_trajectory_matches_integrator_and_velocity_oracles(capsys, system,
                                                            seed):
    """trajectory writes 101 uniform samples of the exact path: x within the
    RK45 tolerance of Dormand-Prince runs ended at each sample time, and v
    the t-derivative of scaling_solution.  Seed 0 keeps hbar = m = omega = 1.
    (One RK45 run interpolated by cubic Hermite is up to 2.6e-6 off, so each
    sample time gets a run of its own.)"""
    from bohmpart import cli
    from bohmpart.core import free_system, harmonic_system
    from bohmpart.numdiff import central_first
    from bohmpart.trajectories import (RK45Adaptive, TrajectoryConfig,
                                       integrate, scaling_solution)
    from bohmpart.wavepacket import WavepacketInit
    rng = np.random.default_rng(seed)
    hbar, mass, omega = ((1.0, 1.0, 1.0) if seed == 0
                         else map(float, rng.uniform(0.5, 2.0, 3)))
    sigma = float(rng.uniform(0.3, 1.0))
    x0, p0 = map(float, rng.uniform(-1.0, 1.0, 2))
    x_start = x0 + float(rng.uniform(-2.0, 2.0)) * sigma
    tmax = float(rng.uniform(2.0, 8.0))
    flags = {"--hbar": hbar, "--mass": mass, "--sigma": sigma, "--x0": x0,
             "--p0": p0, "--x-start": x_start, "--tmax": tmax}
    if system == "harmonic":  # a free path has omega = 0 and takes no --omega
        flags["--omega"] = omega
    argv = ["trajectory", "--system", system, "--format", "json",
            *(s for flag, val in flags.items() for s in (flag, repr(val)))]
    assert cli.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    times, xs, vs = (np.array([row[key] for row in rows])
                     for key in ("t", "x", "v"))
    assert np.array_equal(times, np.linspace(0.0, tmax, 101))

    params = (harmonic_system(mass, omega, hbar) if system == "harmonic"
              else free_system(mass, hbar))
    init = WavepacketInit(x0, p0, sigma)
    rk45 = [x_start] + [
        integrate(params, init, x_start,
                  TrajectoryConfig(RK45Adaptive(), t)).positions[-1]
        for t in times[1:]]
    assert np.max(np.abs(xs - rk45) / (sigma + np.abs(xs))) <= 1e-6
    dxdt = central_first(
        lambda t: scaling_solution(params, init, x_start, t), times)
    assert np.max(np.abs(vs - dxdt) / np.maximum(1.0, np.abs(dxdt))) <= 1e-8


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


def test_bath_without_shape_flags_lists_the_default_uniform_bath(capsys):
    """No shape flag leaves every shape and well default to uniform_bath."""
    from bohmpart import cli
    from bohmpart.bath import uniform_bath
    from bohmpart.core import ThermalSpec
    from bohmpart.partition import quantum_ratio
    assert cli.main(["bath", "--format", "json"]) == 0
    listed = json.loads(capsys.readouterr().out)["oscillators"]
    bath = uniform_bath()
    assert [(row["mass"], row["omega"], row["coupling"], row["ratio"])
            for row in listed] == [
        (o.mass, o.omega, o.coupling,
         quantum_ratio(o.mass, bath.sigma, ThermalSpec(1.0), 1.0))
        for o in bath.oscillators]


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
    cp = run_cli("bath", "--sigma", "0.4", "--allow-divergent",
                 "--format", "json")
    assert cp.returncode == 0, cp.stderr
    payload = _strict_json(cp.stdout)
    assert sorted(payload) == ["command", "config", "rows"]
    assert [osc["criterion"] for osc in payload["rows"]] == ["fail"]


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


def test_bath_file_criterion_column_is_per_oscillator(tmp_path: Path,
                                                      capsys):
    """A mixed-mass bath fails the criterion as a whole where one oscillator
    fails it: the light one's ratio 1/(4 0.1 0.6^2) is over 1."""
    from bohmpart import cli
    bath_file = tmp_path / "bath.cfg"
    bath_file.write_text("sigma = 0.6\nosc = 1.0, 1.0, 1.0\n"
                         "osc = 0.1, 1.0, 1.0\n")
    argv = ["bath", "--bath-file", str(bath_file), "--format", "json"]
    assert cli.main(argv) == 2
    assert cli.main([*argv, "--allow-divergent"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["criterion"] for row in rows] == ["pass", "fail"]
    assert [row["ratio"] for row in rows] == pytest.approx(
        [1 / 1.44, 1 / 0.144], rel=1e-12)


def test_bath_flags_override_the_bath_file(tmp_path: Path, capsys):
    """--sigma and --q0 override the file's sigma and q0, as flags override
    --config."""
    from bohmpart import BathSpec, Oscillator, cli
    bath_file = tmp_path / "bath.cfg"
    bath_file.write_text("sigma = 2\nq0 = 0.1\nosc = 1, 1, 1\n")
    osc = (Oscillator(1.0, 1.0, 1.0),)
    assert cli.parse_bath_file(str(bath_file)) == BathSpec(osc, 2.0, 0.1)
    assert cli.parse_bath_file(str(bath_file), sigma=5.0, q0=0.3) == \
        BathSpec(osc, 5.0, 0.3)
    for flags, ratio in (([], 1 / 16), (["--sigma", "5"], 1 / 100)):
        assert cli.main(["bath", "--bath-file", str(bath_file),
                         "--format", "json", *flags]) == 0
        rows = json.loads(capsys.readouterr().out)["oscillators"]
        assert rows[0]["ratio"] == pytest.approx(ratio, rel=1e-12)


def test_bath_file_bad_number_names_its_line_and_key(tmp_path: Path, capsys):
    bath_file = tmp_path / "bath.cfg"
    bath_file.write_text("sigma = 2\nosc = 1, abc, 1\n")
    _exit_1_naming(capsys, ["bath", "--bath-file", str(bath_file)],
                   f"{bath_file}:2: osc needs a number, not 'abc'")


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
        # some rows carry units (README lists them), so no header names one
        "partition": (["partition"], "quantity,method,value,est_error"),
        "bath": (["bath"], "quantity,value"),
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


@pytest.mark.parametrize("command,first_line", [
    ("partition", "quantity,method,value,est_error"),
    ("verify", "[ok  ] quantum potential"),
], ids=["partition", "verify"])
def test_out_makes_its_missing_parent_directories(tmp_path: Path, command,
                                                  first_line):
    """A table's --out and verify's share one writer, which makes the
    directories the path needs."""
    from bohmpart import cli
    out = tmp_path / "run" / "deeper" / "out.txt"
    assert cli.main([command, "--out", str(out)]) == 0
    assert out.read_text().startswith(first_line)


def test_out_puts_companions_and_manifest_in_the_directory_it_makes(
        tmp_path: Path):
    """bath's payload, its two companion tables and the manifest all land in
    the directory --out makes, and the digest hashes the payload, then the
    companions in name order, as one byte string."""
    import hashlib
    from bohmpart import cli
    out = tmp_path / "run" / "bath.csv"
    assert cli.main(["bath", "--n", "5", "--out", str(out)]) == 0
    written = sorted(path.name for path in out.parent.iterdir())
    assert written == ["bath.csv", "bath.csv.manifest.json",
                       "bath_kernel.csv", "bath_oscillators.csv"]
    manifest = json.loads(out.with_name("bath.csv.manifest.json").read_text())
    assert manifest["outputs"] == [str(out),
                                   str(out.with_name("bath_oscillators.csv")),
                                   str(out.with_name("bath_kernel.csv"))]
    blobs = [out.read_bytes(), out.with_name("bath_kernel.csv").read_bytes(),
             out.with_name("bath_oscillators.csv").read_bytes()]
    assert manifest["digest"] == hashlib.sha256(b"".join(blobs)).hexdigest()


def test_verify_out_writes_the_report_it_prints_and_no_manifest(
        tmp_path: Path, capsys):
    """verify's --out file is its stdout byte for byte; the report is not a
    table, so no manifest is written beside it."""
    from bohmpart import cli
    out = tmp_path / "run" / "report.txt"
    assert cli.main(["verify", "--out", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out
    assert [path.name for path in out.parent.iterdir()] == ["report.txt"]


@pytest.mark.parametrize("scale", [1.01, math.nan])
def test_verify_fault_injection_exit_3(tmp_path: Path, monkeypatch, capsys,
                                       scale):
    """A quantum potential moved by 1%, or one that gives NaN, fails verify."""
    from bohmpart import cli, verify
    closed_form = verify.quantum_potential
    monkeypatch.setattr(verify, "quantum_potential", lambda state, x:
                        scale * closed_form(state, x))
    out = tmp_path / "report.txt"
    assert cli.main(["verify", "--out", str(out)]) == 3
    stdout = capsys.readouterr().out
    assert "[FAIL] quantum potential" in stdout
    assert stdout.endswith("verification FAILED\n")
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


def test_partition_tiny_level_spacing(capsys):
    """At beta hbar omega = 5e-301 both quantum Z rows are 1/x, with no
    division by the 1 - exp(-x) that rounds to 0.  Where hbar is so large
    that beta omega alone underflows (1e-330) or 2 pi/(beta omega) overflows
    (1.3e311), z_classical is still kbt/(hbar omega) and no cell is inf."""
    from bohmpart import cli
    assert cli.main(["partition", "--omega", "1e-300", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    z_q = [row["value"] for row in rows if row["quantity"] == "z_quantum"]
    assert z_q == [pytest.approx(2e300, rel=1e-12)] * 2
    for flags, kbt, hbar, omega in (
            (["--hbar", "1e75", "--omega", "1e-300", "--kbt", "1e30"],
             1e30, 1e75, 1e-300),
            (["--hbar", "1e30", "--omega", "1e-310"], 2.0, 1e30, 1e-310)):
        assert cli.main(["partition", *flags]) == 0
        _, *lines = capsys.readouterr().out.splitlines()
        assert not any("inf" in line for line in lines)
        cells = {tuple(line.split(",")[:2]): float(line.split(",")[2])
                 for line in lines}
        assert cells[("z_classical", "closed_form")] == pytest.approx(
            kbt / (hbar * omega), rel=1e-15)


@pytest.mark.parametrize("argv", [
    ("partition", "--oracle"),
    ("marginal", "--samples", "3"),
])
def test_quadrature_failure_exit_4(monkeypatch, capsys, argv):
    from bohmpart import cli, core
    # a tolerance no Gauss-Legendre rule meets, so the ladder runs out
    monkeypatch.setattr(core, "REL_TOL", 1e-30)
    assert cli.main(list(argv)) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("bohmpart: numerical failure:")
    assert err.count("\n") == 1


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
    columns = ("kbt", "z_u", "z_cl", "ratio", "criterion_ratio", "status")
    rows = [[row[key] for key in columns]
            for row in _strict_json(cp.stdout)["rows"]]
    assert [row[-1] for row in rows] == ["divergent", "ok", "ok", "ok"]
    for *numbers, status in rows:
        assert all(isinstance(c, float) for c in numbers if c is not None)
        divergent = status == "divergent"
        assert (numbers[1] is None) == divergent
        assert (numbers[3] is None) == divergent
        assert isinstance(numbers[2], float)
        assert isinstance(numbers[4], float)


@pytest.mark.parametrize("oscillators, large_n_defined", [
    ("osc = 1.0, 1.0, 1.0\nosc = 1.0, 2.0, 0.5\n", True),
    ("osc = 1.0, 1.0, 1.0\nosc = 2.0, 2.0, 0.5\n", False),
], ids=["uniform-mass", "mixed-mass"])
def test_bath_json_summary_numbers_or_null(tmp_path: Path, oscillators,
                                           large_n_defined):
    bath_file = tmp_path / "bath.cfg"
    bath_file.write_text("sigma = 2.0\n" + oscillators)
    cp = run_cli("bath", "--bath-file", str(bath_file), "--format", "json")
    assert cp.returncode == 0, cp.stderr
    rows = _strict_json(cp.stdout)["rows"]
    summary = {row["quantity"]: row["value"] for row in rows}
    assert len(rows) == len(summary) == 7
    for key, value in summary.items():
        if key.startswith("large_n_") and not large_n_defined:
            assert value is None
        else:
            assert isinstance(value, float)
    assert summary["z_b"] == pytest.approx((2.0 * np.pi) ** 2 / 2.0, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["partition", "--sigma", "0.6", "--kbt", "2"],
    ["limits", "--var", "kbt", "--start", "0.5", "--stop", "3", "--num", "4"],
    ["bath", "--n", "3", "--q0", "0.4"],
    ["trajectory", "--x-start", "1.2", "--tmax", "3"],
    ["trajectory", "--x-start", "1.2", "--tmax", "3", "--system", "free"],
])
def test_closed_form_subcommands_never_integrate(monkeypatch, capsys, argv):
    from bohmpart import cli, core, partition, trajectories
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out

    def forbidden(*args, **kwargs):
        raise AssertionError("a closed-form subcommand ran an integrator")
    for module in (core, partition):
        monkeypatch.setattr(module, "integrate_window", forbidden)
    for name in ("integrate", "_dormand_prince", "_rk4"):
        monkeypatch.setattr(trajectories, name, forbidden)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


def _csv_cell(text: str):
    """A CSV cell as its JSON value: a number, null for nan, or the text."""
    try:
        x = float(text)
    except ValueError:
        return text
    return x if np.isfinite(x) else None


@pytest.mark.parametrize("argv", [
    ["fig1", "--samples", "5", "--tmax", "2"],
    ["marginal", "--samples", "5", "--raw"],
    ["limits", "--var", "kbt", "--start", "0.5", "--stop", "3", "--num", "4"],
    ["bath", "--n", "3", "--q0", "0.4", "--kernel-samples", "5"],
    ["bath", "--sigma", "0.4", "--allow-divergent"],
    ["trajectory", "--x-start", "1.2", "--tmax", "3"],
    ["partition", "--sigma", "0.2", "--kbt", "0.5"],
    ["partition", "--oracle"],
], ids=["fig1", "marginal", "limits", "bath", "bath-allow-divergent",
        "trajectory", "partition-divergent", "partition-oracle"])
def test_json_rows_match_csv_rows(tmp_path: Path, argv):
    """JSON holds exactly the CSV tables, one record per row: `rows` is the
    main table and each further key one companion file's table."""
    from bohmpart import cli
    assert cli.main([*argv, "--out", str(tmp_path / "t.csv")]) == 0
    assert cli.main([*argv, "--format", "json",
                     "--out", str(tmp_path / "t.json")]) == 0
    payload = _strict_json((tmp_path / "t.json").read_text())
    tables = {"rows": tmp_path / "t.csv",
              **{path.stem[2:]: path for path in tmp_path.glob("t_*.csv")}}
    assert sorted(payload) == sorted(["command", "config", *tables])
    for name, path in tables.items():
        header, *lines = path.read_text().splitlines()
        keys = [column.split("[")[0] for column in header.split(",")]
        assert all(sorted(record) == sorted(keys) for record in payload[name])
        assert [[record[key] for key in keys] for record in payload[name]] \
            == [[_csv_cell(cell) for cell in line.split(",")] for line in lines]
