"""Command-line front end.

Subcommands: fig1, marginal, limits, bath, trajectory, partition, verify.
All numeric work happens in the library modules; a subcommand imports the
names it calls as it runs, so a run loads only those modules.  Each
subcommand resolves the config keys it reads (defaults < config file <
flags; the table READS lists them) and returns its config and its tables,
name -> (header, rows), where `rows` is the main table and any other entry a
companion.  `main` is the one emit path and alone decides both formats.  CSV
writes the main table, plus one companion file per further table.  JSON is
one object with `command`, `config` and one list of records per table, one
record per row.  Either is written with a manifest carrying the resolved
config and a stable digest of the numeric payload.  `verify` reads no config
key and prints its text report.

Exit codes: 0 ok, 1 usage error (an OSError included: a file it cannot read
or write), 2 domain error (a DivergentIntegral from the library, which alone
decides where an integral diverges), 3 verification failure, 4 numerical
failure (a quadrature did not converge).  JSON output holds numbers as
JSON numbers and divergent cells as null.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from . import __version__
from .core import (DivergentIntegral, QuadratureFailure, SystemParams,
                   ThermalSpec, check_scale, free_system, harmonic_system)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3
EXIT_NUMERIC = 4

CONFIG_KEYS = {
    "mass": 1.0, "omega": 1.0, "hbar": 1.0,
    "sigma": 0.45, "x0": 1.0, "p0": 0.0, "kbt": 2.0,
}

# The config keys each subcommand reads, as (keys with a --<key> override
# flag, list keys).  Together they are the keys its config file may set,
# resolve_config resolves and its JSON output and manifest echo.  fig1's
# list keys sigma and kbt come from a repeatable flag or the file (one value
# or [a, b, ...]); it echoes them as lists, one value per curve, which a
# config file reads back as the same curves.
READS = {
    "fig1": (("hbar", "mass", "omega", "x0", "p0"), ("sigma", "kbt")),
    "marginal": (("hbar", "mass", "omega", "sigma", "x0", "p0", "kbt"), ()),
    "limits": (("hbar", "mass", "omega", "sigma", "kbt"), ()),
    "bath": (("hbar",), ()),
    "trajectory": (("hbar", "mass", "omega", "sigma", "x0", "p0"), ()),
    "partition": (("hbar", "mass", "omega", "sigma", "kbt"), ()),
}

FIG1_DEFAULT_PAIRS = [(0.45, 2.0), (0.45, 5.0), (0.65, 2.0)]

# trajectory writes its path at this many uniform times in [0, tmax].
TRAJECTORY_SAMPLES = 101

# The uniform bath's shape flags and their defaults.  A --bath-file lists its
# oscillators itself, so it takes none of them.
BATH_SHAPE = {"n": 1, "m0": 1.0, "omega_max": 1.0, "coupling": 1.0}


class Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on bad flags, per the exit-code contract,
    and accepts no flag prefixes, which would let --kb stand for --kbt."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def read_key_values(path: str):
    """Yield (lineno, key, value) from flat key = value text.

    '#' starts a comment and blank lines are skipped; any other line
    without '=' is a ValueError.
    """
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, key, value


def resolve_config(args, defaults: dict | None = None) -> dict:
    """Defaults < config file < flags, over the keys the subcommand reads.

    The config file is flat key = value text ('#' starts a comment); a key
    the subcommand does not read, or a value that is not a number, is a
    ValueError, as is a non-finite value.  A list key (fig1's sigma and kbt)
    resolves to a list where its repeatable flag or the file gives it, the
    file as one value or a list `[a, b, ...]`, and to its scalar default
    otherwise.  `defaults` replaces some CONFIG_KEYS defaults for this call.
    """
    flags, lists = READS[args.command]
    cfg = {key: CONFIG_KEYS[key] for key in flags + lists}
    cfg.update(defaults or {})
    for lineno, key, value in (read_key_values(args.config)
                               if args.config else ()):
        where = f"{args.config}:{lineno}"
        if key not in cfg:
            raise ValueError(f"{where}: unknown config key "
                             f"{key!r} for {args.command}")
        if key not in lists:
            cfg[key] = config_number(where, key, value)
            continue
        items = (value[1:-1].split(",")
                 if value.startswith("[") and value.endswith("]") else [value])
        cfg[key] = [config_number(where, key, item) for item in items]
    for key in flags + lists:
        val = getattr(args, f"cfg_{key}")
        if val is not None:
            cfg[key] = val
    bad = [key for key, val in cfg.items() if not all(
        map(math.isfinite, val if isinstance(val, list) else [val]))]
    if bad:
        raise ValueError(f"non-finite value for {', '.join(bad)}")
    return cfg


def config_number(where: str, key: str, text: str) -> float:
    """The float a config-file value spells, or a ValueError naming its key."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{where}: {key} needs a number, not "
                         f"{text.strip()!r}") from None


def linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) as a list of floats, bit for bit, for
    num >= 1, so that a grid costs no numpy import.

    As in numpy, point i is i * step + start with step = (stop - start) /
    (num - 1), or i / (num - 1) * (stop - start) + start where that step
    underflows to 0, and the last of two or more points is stop itself.
    """
    delta = stop - start
    if num == 1:
        return [0.0 * delta + start]
    div = num - 1
    step = delta / div
    if step == 0:
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def time_grid(flag: str, tmax: float, num: int, omega: float) -> list[float]:
    """linspace(0, tmax, num), or a ValueError naming `flag` unless omega *
    tmax is a finite double, without which cos(omega t) is undefined."""
    if not math.isfinite(omega * tmax):
        raise ValueError(f"{flag} {tmax!r} times omega = {omega!r} is not a "
                         "finite double, so cos(omega t) is undefined")
    return linspace(0.0, tmax, num)


def system_of(cfg: dict, kind: str = "harmonic") -> SystemParams:
    if kind == "harmonic":
        return harmonic_system(cfg["mass"], cfg["omega"], cfg["hbar"])
    return free_system(cfg["mass"], cfg["hbar"])


def csv_payload(header: list[str], rows: list[list]) -> bytes:
    def cell_str(cell) -> str:
        if isinstance(cell, str):
            return cell
        if isinstance(cell, int):
            return str(cell)
        return repr(float(cell))  # shortest round-trip decimal

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell_str(cell) for cell in row))
    return ("\n".join(lines) + "\n").encode()


def json_cell(cell):
    """A table cell as JSON: strings and integers as they are, any other
    number as a float, or None (JSON null) where divergent or undefined."""
    if isinstance(cell, (str, int)):
        return cell
    x = float(cell)
    return x if math.isfinite(x) else None


def json_records(header: list[str], rows: list[list]) -> list[dict]:
    """Table rows as JSON objects keyed by the column names without units."""
    keys = [name.split("[")[0] for name in header]
    return [dict(zip(keys, map(json_cell, row))) for row in rows]


def json_payload(obj) -> bytes:
    import json
    return (json.dumps(obj, indent=1, sort_keys=True, allow_nan=False)
            + "\n").encode()


def emit(args, command: str, config: dict, payload: bytes,
         extra_files: dict[str, bytes] | None = None) -> None:
    """Write the payload (and companions), plus a manifest with the digest.

    The digest hashes only the numeric payload bytes, so identical resolved
    configs yield identical digests while the timestamp stays informational.
    """
    if args.out:
        out = Path(args.out)
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_bytes(payload)
            written = [str(out)]
            for name, blob in (extra_files or {}).items():
                side = out.with_name(out.stem + "_" + name + out.suffix)
                side.write_bytes(blob)
                written.append(str(side))
            import hashlib  # only the manifest reads the digest
            hasher = hashlib.sha256(payload)
            for name in sorted(extra_files or {}):
                hasher.update(extra_files[name])
            manifest = {
                "command": command, "config": config, "version": __version__,
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "digest": hasher.hexdigest(), "outputs": written}
            out.with_suffix(out.suffix + ".manifest.json").write_bytes(
                json_payload(manifest))
        except OSError as exc:  # name the path asked for, not only the OS's
            raise OSError(f"cannot write --out {args.out}: {exc}") from exc
    else:
        sys.stdout.write(payload.decode())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def marginal_rows(args, cfg: dict, pairs) -> list[list]:
    """Rows (sigma, kbt, t, z) of the marginal-Z curves, one curve per
    (sigma, kbt) pair; every pair is validated before any curve runs."""
    from .partition import marginal_curve
    from .wavepacket import WavepacketInit
    if args.samples < 2:
        raise ValueError("--samples must be at least 2")
    params = system_of(cfg)
    times = time_grid("--tmax", args.tmax, args.samples, params.omega)
    runs = [(sigma, kbt, WavepacketInit(cfg["x0"], cfg["p0"], sigma),
             ThermalSpec.from_kbt(kbt)) for sigma, kbt in pairs]
    return [[sigma, kbt, t, z] for sigma, kbt, init, thermal in runs
            for t, z in zip(times, marginal_curve(params, init, thermal, times,
                                                  normalized=not args.raw))]


def cmd_fig1(args) -> tuple[dict, dict]:
    cfg = resolve_config(args)
    sigmas, kbts = (val if isinstance(val, list) else [val]
                    for val in (cfg["sigma"], cfg["kbt"]))
    if not any(isinstance(cfg[key], list) for key in ("sigma", "kbt")):
        pairs = FIG1_DEFAULT_PAIRS
    elif args.cfg_sigma or args.cfg_kbt or 1 in (len(sigmas), len(kbts)):
        pairs = [(s, k) for s in sigmas for k in kbts]
    elif len(sigmas) == len(kbts):  # the file's lists, one value per curve
        pairs = list(zip(sigmas, kbts))
    else:
        raise ValueError(f"the config file's sigma and kbt lists give one "
                         f"value per curve, so their lengths must agree, "
                         f"not {len(sigmas)} and {len(kbts)}")
    cfg["sigma"], cfg["kbt"] = [s for s, _ in pairs], [k for _, k in pairs]
    header = ["sigma[length]", "kbt[energy]", "t[time]", "z[dimensionless]"]
    return cfg, {"rows": (header, marginal_rows(args, cfg, pairs))}


def cmd_marginal(args) -> tuple[dict, dict]:
    cfg = resolve_config(args)
    rows = marginal_rows(args, cfg, [(cfg["sigma"], cfg["kbt"])])
    return cfg, {"rows": (["t[time]", "z[dimensionless]"],
                          [row[2:] for row in rows])}


def cmd_limits(args) -> tuple[dict, dict]:
    from .partition import classical_Z, quantum_ratio, unified_Z_gaussian
    cfg = resolve_config(args)
    if args.num < 2:
        raise ValueError("--num must be at least 2")
    if args.fixed_msigma2 and args.var != "sigma":
        raise ValueError("--fixed-msigma2 needs --var sigma")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise ValueError("--start and --stop must be finite")
    if args.fixed_msigma2:
        check_scale("sigma", cfg["sigma"])
        check_scale("mass", cfg["mass"])
        msigma2 = cfg["mass"] * cfg["sigma"] ** 2

    rows = []
    for v in linspace(args.start, args.stop, args.num):
        local = dict(cfg)
        local[args.var] = v
        if args.fixed_msigma2:
            check_scale("sigma", v)
            local["mass"] = msigma2 / v**2
        params = system_of(local)
        thermal = ThermalSpec.from_kbt(local["kbt"])
        ratio = quantum_ratio(local["mass"], local["sigma"], thermal,
                              local["hbar"])
        z_cl = classical_Z(params, thermal)
        try:
            z_u = unified_Z_gaussian(params, local["sigma"], thermal)
        except DivergentIntegral:
            rows.append([v, math.nan, z_cl, math.nan, ratio, "divergent"])
        else:
            rows.append([v, z_u, z_cl, z_u / z_cl, ratio, "ok"])

    header = [f"{args.var}[swept]", "z_u[dimensionless]", "z_cl[dimensionless]",
              "ratio[dimensionless]", "criterion_ratio[dimensionless]", "status"]
    return cfg, {"rows": (header, rows)}


def parse_bath_file(path: str, **flags: float) -> BathSpec:
    """Bath file: 'sigma = ..', 'q0 = ..', and one 'osc = m, omega, c' per line.
    `flags` (sigma, q0) override the file, as flags override --config."""
    from .bath import BathSpec, Oscillator
    well = {"sigma": 1.0, "q0": 0.0}
    oscillators = []
    for lineno, key, value in read_key_values(path):
        where = f"{path}:{lineno}"
        if key in well:
            well[key] = config_number(where, key, value)
        elif key == "osc":
            parts = [config_number(where, key, part)
                     for part in value.replace(",", " ").split()]
            if len(parts) != 3:
                raise ValueError(f"{where}: osc needs 'm, omega, c'")
            oscillators.append(Oscillator(*parts))
        else:
            raise ValueError(f"{where}: unknown bath key {key!r}")
    if not oscillators:
        raise ValueError(f"{path}: no oscillators defined")
    return BathSpec(tuple(oscillators), **{**well, **flags})


def cmd_bath(args) -> tuple[dict, dict]:
    from .bath import (classical_bath_Z, large_N_ratio, memory_kernel,
                       unified_bath_Z, uniform_bath)
    from .partition import classicality_criterion
    cfg = resolve_config(args)
    if args.kernel_samples < 1:
        raise ValueError("--kernel-samples must be at least 1")
    shape = {key: getattr(args, key) for key in BATH_SHAPE}
    well = {key: val for key, val in (("sigma", args.bath_sigma),
                                      ("q0", args.q0)) if val is not None}
    if args.bath_file:
        given = [f"--{key.replace('_', '-')}" for key, val in shape.items()
                 if val is not None]
        if given:
            raise ValueError(f"--bath-file defines the oscillators; drop "
                             f"{', '.join(given)}")
        bath = parse_bath_file(args.bath_file, **well)
    else:
        n, m0, omega_max, coupling = (BATH_SHAPE[key] if val is None else val
                                      for key, val in shape.items())
        if n < 1:
            raise ValueError("--n must be at least 1")
        bath = uniform_bath(n, m0, omega_max, coupling, **well)
    kernel_t = time_grid("--kernel-tmax", args.kernel_tmax, args.kernel_samples,
                         max(o.omega for o in bath.oscillators))
    thermal = ThermalSpec(args.beta)
    hbar = cfg["hbar"]

    reports = [classicality_criterion(o.mass, bath.sigma, thermal, hbar)
               for o in bath.oscillators]
    osc_rows = [[i, o.mass, o.omega, o.coupling, rep.dimensionless_ratio,
                 "pass" if rep.classical_ok else "fail"]
                for i, (o, rep) in enumerate(zip(bath.oscillators, reports))]
    osc_header = ["index", "mass[mass]", "omega[1/time]", "coupling[coupling]",
                  "ratio[dimensionless]", "criterion"]

    try:
        exact, printed = unified_bath_Z(bath, thermal, hbar=hbar)
    except DivergentIntegral:
        if not args.allow_divergent:
            raise DivergentIntegral(
                "criterion ratio >= 1 for at least one oscillator; rerun "
                "with --allow-divergent for the criterion table") from None
        return cfg, {"rows": (osc_header, osc_rows)}

    kernel_nu = [memory_kernel(bath, t) for t in kernel_t]
    z_b = classical_bath_Z(bath, thermal)
    masses = {o.mass for o in bath.oscillators}
    large_n = (large_N_ratio(bath.size, masses.pop(), bath.sigma, thermal, hbar)
               if len(masses) == 1 else (math.nan,) * 3)
    summary = [
        ["z_b", z_b],
        ["z_b_unified_exact", exact],
        ["z_b_unified_with_2pi", printed],
        ["correction_factor", exact / z_b],
        *zip(("large_n_factor_approx", "large_n_factor_exact",
              "large_n_rel_err"), large_n),
    ]
    return cfg, {"rows": (["quantity", "value"], summary),
                 "oscillators": (osc_header, osc_rows),
                 "kernel": (["t[time]", "nu[coupling^2*time^2]"],
                            list(zip(kernel_t, kernel_nu)))}


def cmd_trajectory(args) -> tuple[dict, dict]:
    from .trajectories import bohmian_velocity, scaling_solution
    from .wavepacket import WavepacketInit, evolve
    free = args.system == "free"
    cfg = resolve_config(args, defaults={"omega": 0.0} if free else None)
    if free and cfg["omega"] != 0.0:
        raise ValueError(f"a free path has omega = 0, not {cfg['omega']:g}; "
                         "drop --omega or the config-file omega")
    if not 0 < args.tmax < math.inf:
        raise ValueError("--tmax must be finite and positive")
    params = system_of(cfg, args.system)
    init = WavepacketInit(cfg["x0"], cfg["p0"], cfg["sigma"])
    rows = []
    for t in time_grid("--tmax", args.tmax, TRAJECTORY_SAMPLES, params.omega):
        x = scaling_solution(params, init, args.x_start, t)
        rows.append([t, x, bohmian_velocity(evolve(params, init, t), x)])
    if not all(math.isfinite(c) for row in rows for c in row):
        raise ValueError(f"the path up to --tmax {args.tmax!r} leaves the "
                         "range of a double (some x or v is not finite)")
    return cfg, {"rows": (["t[time]", "x[length]", "v[length/time]"], rows)}


def cmd_partition(args) -> tuple[dict, dict]:
    from .partition import (classical_Z, classicality_criterion,
                            gaussian_correction, phase_space_integral,
                            quantum_Z, quantum_Z_closed_form,
                            unified_Z_gaussian, unified_integral)
    cfg = resolve_config(args)
    params = system_of(cfg)
    thermal = ThermalSpec.from_kbt(cfg["kbt"])
    crit = classicality_criterion(cfg["mass"], cfg["sigma"], thermal,
                                  cfg["hbar"])
    rows = [["z_classical", "closed_form", classical_Z(params, thermal), 0.0],
            ["z_quantum", "eigen_sum", *quantum_Z(params, thermal)],
            ["z_quantum", "closed_form",
             quantum_Z_closed_form(params, thermal), 0.0]]
    try:
        c = gaussian_correction(cfg["mass"], cfg["sigma"], thermal, cfg["hbar"])
        z_u = unified_Z_gaussian(params, cfg["sigma"], thermal)
    except DivergentIntegral:
        rows.append(["gaussian_correction", "divergent", math.nan, math.nan])
        rows.append(["z_unified", "divergent", math.nan, math.nan])
    else:
        rows.append(["gaussian_correction", "closed_form", c, 0.0])
        rows.append(["z_unified", "closed_form", z_u, 0.0])
        if args.oracle:
            m, w, hbar = params.mass, params.omega, params.hbar
            norm = 2.0 * math.pi * hbar
            for name, (val, err) in (
                    ("z_classical", phase_space_integral(m, w, thermal)),
                    ("z_unified",
                     unified_integral(m, w, cfg["sigma"], thermal, hbar))):
                rows.append([name, "quadrature", val / norm, err / norm])
    rows.append(["criterion_ratio", "closed_form", crit.dimensionless_ratio, 0.0])
    rows.append(["t_min", "closed_form", crit.t_min, 0.0])
    rows.append(["thermal_de_broglie", "closed_form", crit.thermal_de_broglie, 0.0])

    return cfg, {"rows": (["quantity", "method", "value", "est_error"], rows)}


def cmd_verify(args) -> int:
    """Print (and with --out also write) the text report; return the exit code."""
    from .verify import run_verification
    report = run_verification()
    text = report.render() + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise OSError(f"cannot write --out {args.out}: {exc}") from exc
    sys.stdout.write(text)
    return EXIT_OK if report.passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> Parser:
    parser = Parser(prog="bohmpart",
                    description="Phase-space partition functions for Gaussian "
                                "wavepackets: curves, sweeps, trajectories, "
                                "and oracle verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(command: str, func, help: str) -> argparse.ArgumentParser:
        """Subparser with --config, --out, --format and a --<key> override
        for each config key READS gives the subcommand a flag for."""
        p = sub.add_parser(command, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output file path (stdout if omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        for key in READS[command][0]:
            p.add_argument(f"--{key}", dest=f"cfg_{key}", type=float,
                           help=f"override config key {key}")
        return p

    fig1 = add("fig1", cmd_fig1,
               "normalized marginal-Z curves for (sigma, kbt) pairs")
    fig1.add_argument("--sigma", dest="cfg_sigma", action="append",
                      type=float, help="packet width; repeatable")
    fig1.add_argument("--kbt", dest="cfg_kbt", action="append", type=float,
                      help="thermal energy k_B T; repeatable")
    marginal = add("marginal", cmd_marginal,
                   "single marginal-Z curve from the resolved config")
    for p in (fig1, marginal):  # the flags marginal_rows reads
        p.add_argument("--tmax", type=float, default=4 * math.pi)
        p.add_argument("--samples", type=int, default=400)
        p.add_argument("--raw", action="store_true",
                       help="emit unnormalized values")

    p = add("limits", cmd_limits,
            "sweep sigma/kbt/hbar and emit Z_u, Z_cl, and their ratio")
    p.add_argument("--var", choices=("sigma", "kbt", "hbar"), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--num", type=int, default=20)
    p.add_argument("--fixed-msigma2", action="store_true",
                   help="hold m*sigma^2 fixed while sweeping sigma "
                        "(only with --var sigma)")

    p = add("bath", cmd_bath, "harmonic-bath partition functions, "
                              "criterion table, kernel samples")
    p.add_argument("--bath-file", help="bath spec file (osc = m, omega, c)")
    for key, kind, what in (("n", int, "uniform bath size"),
                            ("m0", float, "oscillator mass"),
                            ("omega_max", float, "highest frequency"),
                            ("coupling", float, "highest coupling")):
        p.add_argument(f"--{key.replace('_', '-')}", type=kind,
                       help=f"{what} (default {BATH_SHAPE[key]:g}; "
                            f"not with --bath-file)")
    p.add_argument("--sigma", dest="bath_sigma", type=float,
                   help="shared packet width (default 1)")
    p.add_argument("--q0", type=float, help="tagged position q(0) (default 0)")
    p.add_argument("--beta", type=float, default=1.0,
                   help="inverse temperature")
    p.add_argument("--kernel-tmax", type=float, default=10.0)
    p.add_argument("--kernel-samples", type=int, default=101)
    p.add_argument("--allow-divergent", action="store_true",
                   help="emit only the criterion table when the bound fails")

    p = add("trajectory", cmd_trajectory,
            "one Bohmian trajectory from the exact flow, as (t, x, v)")
    p.add_argument("--system", choices=("harmonic", "free"), default="harmonic")
    p.add_argument("--x-start", type=float, required=True)
    p.add_argument("--tmax", type=float, default=5.0)

    p = add("partition", cmd_partition,
            "table of partition-function values for the resolved config")
    p.add_argument("--oracle", action="store_true",
                   help="include the Gauss-Legendre quadrature cross-checks")

    p = sub.add_parser("verify", help="run all oracle checks and the "
                                      "discrepancy report")
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":  # it prints its own text report
            return args.func(args)
        config, tables = args.func(args)
        if args.format == "json":
            payload = json_payload({
                "command": args.command, "config": config,
                **{name: json_records(*table)
                   for name, table in tables.items()}})
            extra_files = None
        else:
            payload = csv_payload(*tables.pop("rows"))
            extra_files = {name: csv_payload(*table)
                           for name, table in tables.items()}
        emit(args, args.command, config, payload, extra_files)
        return EXIT_OK
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"bohmpart: {exc}\n")
        return EXIT_USAGE
    except DivergentIntegral as exc:
        sys.stderr.write(f"bohmpart: divergent integral: {exc}\n")
        return EXIT_DOMAIN
    except QuadratureFailure as exc:
        sys.stderr.write(f"bohmpart: numerical failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
