"""Command-line front end.

Subcommands: fig1, marginal, limits, bath, trajectory, partition, verify.
All numeric work happens in the library modules; this layer resolves the
configuration (defaults < config file < flags), runs the requested sweep,
and emits CSV or JSON with a manifest carrying a stable digest of the
numeric payload.

Exit codes: 0 ok, 1 usage error, 2 domain error (divergent integral),
3 verification failure, 4 numerical failure (quadrature did not converge).
JSON output holds numbers as JSON numbers and divergent cells as null.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bath import (BathSpec, Oscillator, bath_classicality,
                   classical_bath_Z, large_N_ratio, memory_kernel,
                   unified_bath_Z, uniform_bath)
from .core import (Constants, DivergentIntegral, QuadratureConfig,
                   QuadratureFailure, SystemParams, ThermalSpec, free_system,
                   harmonic_system)
from .partition import (classical_Z, classicality_criterion,
                        gaussian_correction, marginal_convergent,
                        marginal_curve, phase_space_integral, quantum_Z,
                        quantum_Z_closed_form, unified_Z_gaussian,
                        unified_integral)
from .trajectories import RK45Adaptive, TrajectoryConfig, integrate
from .verify import ToleranceProfile, run_verification
from .wavepacket import WavepacketInit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3
EXIT_NUMERIC = 4

CONFIG_KEYS = {
    "mass": 1.0, "omega": 1.0, "hbar": 1.0, "kb": 1.0,
    "sigma": 0.45, "x0": 1.0, "p0": 0.0, "kbt": 2.0,
    "window_sigmas": 12.0, "rel_tol": 1e-10, "abs_tol": 1e-13,
}

FIG1_DEFAULT_PAIRS = [(0.45, 2.0), (0.45, 5.0), (0.65, 2.0)]


class UsageError(Exception):
    pass


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
    without '=' is a UsageError.
    """
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, key, value


def load_config_file(path: str) -> dict:
    """Flat key = value text; '#' starts a comment; keys must be known."""
    out = {}
    for lineno, key, value in read_key_values(path):
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = float(value)
    return out


def resolve_config(args) -> dict:
    cfg = dict(CONFIG_KEYS)
    if args.config:
        cfg.update(load_config_file(args.config))
    for key in CONFIG_KEYS:
        val = getattr(args, f"cfg_{key}", None)
        if val is not None:
            cfg[key] = val
    bad = [key for key, val in cfg.items() if not math.isfinite(val)]
    if bad:
        raise UsageError(f"non-finite value for {', '.join(bad)}")
    return cfg


def quad_of(cfg: dict) -> QuadratureConfig:
    return QuadratureConfig(cfg["window_sigmas"], cfg["rel_tol"],
                            cfg["abs_tol"])


def system_of(cfg: dict, kind: str = "harmonic") -> SystemParams:
    constants = Constants(cfg["hbar"], cfg["kb"])
    if kind == "harmonic":
        return harmonic_system(cfg["mass"], cfg["omega"], constants)
    return free_system(cfg["mass"], constants)


def fmt(x) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(x))


def csv_payload(header: list[str], rows: list[list]) -> bytes:
    def cell_str(cell) -> str:
        if isinstance(cell, str):
            return cell
        if isinstance(cell, (int, np.integer)):
            return str(int(cell))
        return fmt(cell)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell_str(cell) for cell in row))
    return ("\n".join(lines) + "\n").encode()


def json_number(x) -> float | None:
    """x as a float, or None (JSON null) where it is divergent or undefined."""
    x = float(x)
    return x if math.isfinite(x) else None


def json_payload(obj) -> bytes:
    return (json.dumps(obj, indent=1, sort_keys=True, allow_nan=False)
            + "\n").encode()


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to every output file.

    The digest hashes only the numeric payload bytes, so identical resolved
    configs yield identical digests while the timestamp stays informational.
    """

    command: str
    config: dict
    version: str
    timestamp: str
    digest: str
    outputs: list[str] = field(default_factory=list)


def emit(args, command: str, config: dict, payload: bytes,
         extra_files: dict[str, bytes] | None = None) -> str:
    """Write the payload (and companions), plus a manifest with the digest."""
    hasher = hashlib.sha256(payload)
    for name in sorted(extra_files or {}):
        hasher.update(extra_files[name])
    digest = hasher.hexdigest()
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(payload)
        written = [str(out)]
        for name, blob in (extra_files or {}).items():
            side = out.with_name(out.stem + "_" + name + out.suffix)
            side.write_bytes(blob)
            written.append(str(side))
        manifest = RunManifest(
            command=command, config=config, version=__version__,
            timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            digest=digest, outputs=written)
        out.with_suffix(out.suffix + ".manifest.json").write_bytes(
            json_payload(asdict(manifest)))
    else:
        sys.stdout.write(payload.decode())
    return digest


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_fig1(args) -> int:
    cfg = resolve_config(args)
    if args.samples < 2:
        raise UsageError("--samples must be at least 2")
    if args.sigma or args.kbt:
        sigmas = args.sigma or [cfg["sigma"]]
        kbts = args.kbt or [cfg["kbt"]]
        pairs = [(s, k) for s in sigmas for k in kbts]
    else:
        pairs = list(FIG1_DEFAULT_PAIRS)

    params = system_of(cfg)
    quad = quad_of(cfg)
    times = np.linspace(0.0, args.tmax, args.samples)

    for sigma, kbt in pairs:
        init = WavepacketInit(cfg["x0"], cfg["p0"], sigma)
        thermal = ThermalSpec.from_kbt(kbt)
        if not marginal_convergent(params, init, thermal, 0.0):
            crit = classicality_criterion(cfg["mass"], sigma, thermal,
                                          cfg["hbar"], cfg["kb"])
            sys.stderr.write(
                f"fig1: divergent t=0 integral at sigma={sigma:g}, kbt={kbt:g} "
                f"(criterion ratio {crit.dimensionless_ratio:g})\n")
            return EXIT_DOMAIN

    series = []
    for sigma, kbt in pairs:
        init = WavepacketInit(cfg["x0"], cfg["p0"], sigma)
        curve = marginal_curve(params, init, ThermalSpec.from_kbt(kbt), times,
                               quad, normalized=not args.raw)
        series.append(curve)

    if args.format == "csv":
        rows = [[c.sigma, c.kbt, t, z]
                for c in series for t, z in zip(c.times, c.values)]
        payload = csv_payload(
            ["sigma[length]", "kbt[energy]", "t[time]", "z[dimensionless]"], rows)
    else:
        payload = json_payload({
            "command": "fig1", "config": cfg,
            "series": [{
                "params": {"sigma": c.sigma, "kbt": c.kbt,
                           "x0": c.x0, "p0": c.p0,
                           "normalized": c.normalized},
                "times": list(c.times), "values": list(c.values),
            } for c in series]})
    emit(args, "fig1", cfg, payload)
    return EXIT_OK


def cmd_marginal(args) -> int:
    cfg = resolve_config(args)
    if args.samples < 2:
        raise UsageError("--samples must be at least 2")
    params = system_of(cfg)
    quad = quad_of(cfg)
    init = WavepacketInit(cfg["x0"], cfg["p0"], cfg["sigma"])
    thermal = ThermalSpec.from_kbt(cfg["kbt"])
    times = np.linspace(0.0, args.tmax, args.samples)
    curve = marginal_curve(params, init, thermal, times, quad,
                           normalized=not args.raw)
    if args.format == "csv":
        rows = [[t, z] for t, z in zip(curve.times, curve.values)]
        payload = csv_payload(["t[time]", "z[dimensionless]"], rows)
    else:
        payload = json_payload({
            "command": "marginal", "config": cfg,
            "series": [{
                "params": {"sigma": curve.sigma, "kbt": curve.kbt,
                           "x0": curve.x0, "p0": curve.p0,
                           "normalized": curve.normalized},
                "times": list(curve.times), "values": list(curve.values)}]})
    emit(args, "marginal", cfg, payload)
    return EXIT_OK


def cmd_limits(args) -> int:
    cfg = resolve_config(args)
    if args.num < 2:
        raise UsageError("--num must be at least 2")
    values = np.linspace(args.start, args.stop, args.num)
    msigma2 = cfg["mass"] * cfg["sigma"] ** 2

    rows = []
    for v in values:
        local = dict(cfg)
        local[args.var] = float(v)
        if args.var == "sigma" and args.fixed_msigma2:
            local["mass"] = msigma2 / v**2
        params = system_of(local)
        thermal = ThermalSpec.from_kbt(local["kbt"])
        crit = classicality_criterion(local["mass"], local["sigma"], thermal,
                                      local["hbar"], local["kb"])
        z_cl = classical_Z(params, thermal).value
        if crit.dimensionless_ratio >= 1.0:
            rows.append([v, math.nan, z_cl, math.nan,
                         crit.dimensionless_ratio, "divergent"])
            continue
        z_u = unified_Z_gaussian(params, local["sigma"], thermal).value
        rows.append([v, z_u, z_cl, z_u / z_cl, crit.dimensionless_ratio, "ok"])

    header = [f"{args.var}[swept]", "z_u[dimensionless]", "z_cl[dimensionless]",
              "ratio[dimensionless]", "criterion_ratio[dimensionless]", "status"]
    if args.format == "csv":
        payload = csv_payload(header, rows)
    else:
        payload = json_payload({
            "command": "limits", "config": cfg,
            "columns": header, "rows": [
                [c if isinstance(c, str) else json_number(c) for c in r]
                for r in rows]})
    emit(args, "limits", cfg, payload)
    return EXIT_OK


def parse_bath_file(path: str, sigma_default: float, q0_default: float) -> BathSpec:
    """Bath file: 'sigma = ..', 'q0 = ..', and one 'osc = m, omega, c' per line."""
    sigma, q0 = sigma_default, q0_default
    oscillators = []
    for lineno, key, value in read_key_values(path):
        if key == "sigma":
            sigma = float(value)
        elif key == "q0":
            q0 = float(value)
        elif key == "osc":
            parts = [float(p) for p in value.replace(",", " ").split()]
            if len(parts) != 3:
                raise UsageError(f"{path}:{lineno}: osc needs 'm, omega, c'")
            oscillators.append(Oscillator(*parts))
        else:
            raise UsageError(f"{path}:{lineno}: unknown bath key {key!r}")
    if not oscillators:
        raise UsageError(f"{path}: no oscillators defined")
    return BathSpec(tuple(oscillators), sigma, q0)


def cmd_bath(args) -> int:
    cfg = resolve_config(args)
    sigma = args.bath_sigma if args.bath_sigma is not None else 1.0
    if args.bath_file:
        bath = parse_bath_file(args.bath_file, sigma, args.q0)
    elif args.n:
        bath = uniform_bath(args.n, args.m0, args.omega_max, args.coupling,
                            sigma, args.q0)
    else:
        bath = BathSpec((Oscillator(args.m0, args.omega_max, args.coupling),),
                        sigma, args.q0)
    thermal = ThermalSpec(args.beta)
    hbar = cfg["hbar"]

    reports = bath_classicality(bath, thermal, hbar, cfg["kb"])
    osc_rows = [[i, o.mass, o.omega, o.coupling, rep.dimensionless_ratio,
                 "pass" if rep.classical_ok else "fail"]
                for i, (o, rep) in enumerate(zip(bath.oscillators, reports))]
    osc_payload = csv_payload(
        ["index", "mass[mass]", "omega[1/time]", "coupling[coupling]",
         "ratio[dimensionless]", "criterion"], osc_rows)

    divergent = not all(rep.classical_ok for rep in reports)
    if divergent and not args.allow_divergent:
        sys.stderr.write("bath: criterion ratio >= 1 for at least one "
                         "oscillator; rerun with --allow-divergent for the "
                         "criterion table\n")
        return EXIT_DOMAIN
    if divergent:
        emit(args, "bath", cfg, osc_payload)
        return EXIT_OK

    kernel_t = np.linspace(0.0, args.kernel_tmax, args.kernel_samples)
    kernel_nu = memory_kernel(bath, kernel_t)
    kernel_payload = csv_payload(
        ["t[time]", "nu[coupling^2*time^2]"], list(zip(kernel_t, kernel_nu)))

    z_b = classical_bath_Z(bath, thermal)
    exact, printed = unified_bath_Z(bath, thermal, hbar=hbar)
    masses = {o.mass for o in bath.oscillators}
    large_n = (large_N_ratio(bath.size, masses.pop(), bath.sigma, thermal, hbar)
               if len(masses) == 1 else (math.nan,) * 3)
    summary = [
        ["z_b", z_b.value],
        ["z_b_unified_exact", exact.value],
        ["z_b_unified_with_2pi", printed.value],
        ["correction_factor", exact.value / z_b.value],
        *zip(("large_n_factor_approx", "large_n_factor_exact",
              "large_n_rel_err"), large_n),
    ]
    summary_payload = csv_payload(["quantity", "value[dimensionless]"], summary)

    if args.format == "json":
        payload = json_payload({
            "command": "bath", "config": cfg,
            "summary": {key: json_number(val) for key, val in summary},
            "oscillators": [{"index": r[0], "mass": r[1], "omega": r[2],
                             "coupling": r[3], "ratio": r[4], "criterion": r[5]}
                            for r in osc_rows],
            "kernel": {"times": list(kernel_t), "values": list(kernel_nu)}})
        emit(args, "bath", cfg, payload)
    else:
        emit(args, "bath", cfg, summary_payload,
             {"oscillators": osc_payload, "kernel": kernel_payload})
    return EXIT_OK


def cmd_trajectory(args) -> int:
    cfg = resolve_config(args)
    params = system_of(cfg, args.system)
    init = WavepacketInit(cfg["x0"], cfg["p0"], cfg["sigma"])
    traj_cfg = TrajectoryConfig(
        stepper=RK45Adaptive(args.rel_tol, args.abs_tol),
        t_max=args.tmax, record_every=args.record_every)
    path = integrate(params, init, args.x_start, traj_cfg)
    rows = [[t, x, v] for t, x, v in
            zip(path.times, path.positions, path.velocities)]
    if args.format == "csv":
        payload = csv_payload(["t[time]", "x[length]", "v[length/time]"], rows)
    else:
        payload = json_payload({
            "command": "trajectory", "config": cfg,
            "series": [{
                "params": {"x_start": args.x_start, "system": args.system},
                "times": list(path.times),
                "values": list(path.positions),
                "velocities": list(path.velocities)}]})
    emit(args, "trajectory", cfg, payload)
    return EXIT_OK


def cmd_partition(args) -> int:
    cfg = resolve_config(args)
    params = system_of(cfg)
    thermal = ThermalSpec.from_kbt(cfg["kbt"])
    crit = classicality_criterion(cfg["mass"], cfg["sigma"], thermal,
                                  cfg["hbar"], cfg["kb"])
    rows = []
    z_cl = classical_Z(params, thermal)
    rows.append(["z_classical", "closed_form", z_cl.value, z_cl.est_error])
    z_q = quantum_Z(params, thermal)
    rows.append(["z_quantum", "eigen_sum", z_q.value, z_q.est_error])
    rows.append(["z_quantum", "closed_form",
                 quantum_Z_closed_form(params, thermal), 0.0])
    if crit.dimensionless_ratio < 1.0:
        c = gaussian_correction(cfg["mass"], cfg["sigma"], thermal, cfg["hbar"])
        z_u = unified_Z_gaussian(params, cfg["sigma"], thermal)
        rows.append(["gaussian_correction", "closed_form", c, 0.0])
        rows.append(["z_unified", "closed_form", z_u.value, z_u.est_error])
        if args.oracle:
            quad = quad_of(cfg)
            m, w, hbar = params.mass, params.omega, params.constants.hbar
            norm = 2.0 * math.pi * hbar
            for name, (val, err) in (
                    ("z_classical", phase_space_integral(m, w, thermal, quad)),
                    ("z_unified", unified_integral(m, w, cfg["sigma"], thermal,
                                                   hbar, quad))):
                rows.append([name, "quadrature", val / norm, err / norm])
    else:
        rows.append(["gaussian_correction", "divergent", math.nan, math.nan])
        rows.append(["z_unified", "divergent", math.nan, math.nan])
    rows.append(["criterion_ratio", "closed_form", crit.dimensionless_ratio, 0.0])
    rows.append(["t_min", "closed_form", crit.t_min, 0.0])
    rows.append(["thermal_de_broglie", "closed_form", crit.thermal_de_broglie, 0.0])

    header = ["quantity", "method", "value[dimensionless]", "est_error[dimensionless]"]
    if args.format == "csv":
        payload = csv_payload(header, rows)
    else:
        payload = json_payload({
            "command": "partition", "config": cfg,
            "rows": [{"quantity": r[0], "method": r[1],
                      "value": json_number(r[2]),
                      "est_error": json_number(r[3])}
                     for r in rows]})
    emit(args, "partition", cfg, payload)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = resolve_config(args)
    profile = ToleranceProfile.named(args.profile)
    report = run_verification(profile, quad_of(cfg), q_scale=args.inject_q_scale)
    text = report.render() + "\n"
    if args.out:
        Path(args.out).write_text(text)
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

    def common(p: argparse.ArgumentParser, keys: tuple[str, ...]):
        # keys: exactly the config keys the subcommand reads
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output file path (stdout if omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        for key in keys:
            p.add_argument(f"--{key}", dest=f"cfg_{key}", type=float,
                           help=f"override config key {key}")

    p = sub.add_parser("fig1", help="normalized marginal-Z curves for "
                                    "(sigma, kbt) pairs")
    common(p, ("hbar", "mass", "omega", "x0", "p0"))
    p.add_argument("--sigma", action="append", type=float, default=None,
                   help="packet width; repeatable")
    p.add_argument("--kbt", action="append", type=float, default=None,
                   help="thermal energy k_B T; repeatable")
    p.add_argument("--tmax", type=float, default=4 * math.pi)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--raw", action="store_true",
                   help="emit unnormalized values")
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("marginal", help="single marginal-Z curve from the "
                                        "resolved config")
    common(p, ("hbar", "mass", "omega", "sigma", "x0", "p0", "kbt"))
    p.add_argument("--tmax", type=float, default=4 * math.pi)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--raw", action="store_true")
    p.set_defaults(func=cmd_marginal)

    p = sub.add_parser("limits", help="sweep sigma/kbt/hbar and emit "
                                      "Z_u, Z_cl, and their ratio")
    common(p, ("hbar", "mass", "omega", "sigma", "kbt"))
    p.add_argument("--var", choices=("sigma", "kbt", "hbar"), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--num", type=int, default=20)
    p.add_argument("--fixed-msigma2", action="store_true",
                   help="hold m*sigma^2 fixed while sweeping sigma")
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("bath", help="harmonic-bath partition functions, "
                                    "criterion table, kernel samples")
    common(p, ("hbar",))
    p.add_argument("--bath-file", help="bath spec file (osc = m, omega, c)")
    p.add_argument("--n", type=int, help="uniform bath size")
    p.add_argument("--m0", type=float, default=1.0)
    p.add_argument("--omega-max", type=float, default=1.0)
    p.add_argument("--coupling", type=float, default=1.0)
    p.add_argument("--sigma", dest="bath_sigma", type=float, default=1.0,
                   help="shared packet width")
    p.add_argument("--q0", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=1.0,
                   help="inverse temperature")
    p.add_argument("--kernel-tmax", type=float, default=10.0)
    p.add_argument("--kernel-samples", type=int, default=101)
    p.add_argument("--allow-divergent", action="store_true",
                   help="emit only the criterion table when the bound fails")
    p.set_defaults(func=cmd_bath)

    p = sub.add_parser("trajectory", help="integrate one Bohmian trajectory "
                                          "and export (t, x, v)")
    common(p, ("hbar", "mass", "omega", "sigma", "x0", "p0"))
    p.add_argument("--system", choices=("harmonic", "free"), default="harmonic")
    p.add_argument("--x-start", type=float, required=True)
    p.add_argument("--tmax", type=float, default=5.0)
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.add_argument("--abs-tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("partition", help="table of partition-function values "
                                         "for the resolved config")
    common(p, ("hbar", "kb", "mass", "omega", "sigma", "kbt"))
    p.add_argument("--oracle", action="store_true",
                   help="include the Gauss-Legendre quadrature cross-checks")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("verify", help="run all oracle checks and the "
                                      "discrepancy report")
    p.add_argument("--config", help="flat key = value config file; only "
                                    "the quadrature keys are read")
    p.add_argument("--out", help="also write the report to this file")
    p.add_argument("--profile", choices=("default", "strict"),
                   default="default", help="tolerance profile")
    p.add_argument("--inject-q-scale", type=float, default=1.0,
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
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
