"""Seeded operation lists for the three workloads, and how each operation runs.

A workload is an endless sequence of rounds drawn from one seed.  Every
round has the same mix of operations (kinds, sample counts, grid sizes and
strata), so rounds cost about the same while their physical parameters
differ.  All parameters are drawn from the criterion domain r < 1 with
sigma in [0.3, 1.5] and k_B T in [0.25, 5] (natural units, m = hbar = 1);
nothing that makes the program fail is filtered out.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

import oracle

SIGMA_RANGE = (0.3, 1.5)
KBT_RANGE = (0.25, 5.0)
TMAX_FIG1 = 4.0 * math.pi
FIG1_PAPER_PAIRS = [(0.45, 2.0), (0.45, 5.0), (0.65, 2.0)]  # x0 = 1, p0 = 0
QUANTILES = [0.1 * k for k in range(1, 10)]
SMALL_GRID = 1 << 15  # 256 KiB per float64 array: fits in L2
LARGE_GRID = 1 << 21  # 16 MiB per float64 array: several times L2
CHILD_TIMEOUT_S = 150
CHILD = Path(__file__).resolve().parent / "child.py"


def _num(x: float) -> str:
    return f"{x:.6g}"


def draw_sigma_kbt(rng: random.Random, sigma_range=SIGMA_RANGE,
                   mass: float = 1.0) -> tuple[float, float]:
    """Uniform draw from the criterion domain r = 1/(4 m sigma^2 kbt) < 1."""
    while True:
        sigma = float(_num(rng.uniform(*sigma_range)))
        kbt = float(_num(rng.uniform(*KBT_RANGE)))
        if oracle.criterion_ratio(sigma, kbt, mass) < 1.0:
            return sigma, kbt


def draw_kbt(rng: random.Random, sigma: float) -> float:
    while True:
        kbt = float(_num(rng.uniform(*KBT_RANGE)))
        if oracle.criterion_ratio(sigma, kbt) < 1.0:
            return kbt


def _packet(rng: random.Random) -> tuple[float, float]:
    return float(_num(rng.uniform(0.5, 2.0))), float(_num(rng.uniform(-0.5, 0.5)))


# ---------------------------------------------------------------------------
# cli-sweep and oracle-battery: argv lists for `python -m bohmpart`
# ---------------------------------------------------------------------------

def _marginal_op(rng, sigma_range, samples):
    sigma, kbt = draw_sigma_kbt(rng, sigma_range)
    x0, p0 = _packet(rng)
    return {"kind": "marginal", "params": {
        "sigma": sigma, "kbt": kbt, "x0": x0, "p0": p0, "samples": samples},
        "argv": ["marginal", "--sigma", _num(sigma), "--kbt", _num(kbt),
                 "--x0", _num(x0), "--p0", _num(p0), "--tmax", repr(TMAX_FIG1),
                 "--samples", str(samples)]}


def _trajectory_op(rng, system):
    sigma = float(_num(rng.uniform(*SIGMA_RANGE)))
    x0, p0 = _packet(rng)
    x_start = float(_num(x0 + rng.uniform(-2.0, 2.0) * sigma))
    tmax = float(_num(rng.uniform(2.0, 8.0)))
    return {"kind": "trajectory", "params": {
        "system": system, "sigma": sigma, "x0": x0, "p0": p0,
        "x_start": x_start, "tmax": tmax},
        "argv": ["trajectory", "--system", system, "--sigma", _num(sigma),
                 "--x0", _num(x0), "--p0", _num(p0), "--x-start", _num(x_start),
                 "--tmax", _num(tmax)]}


def cli_sweep_round(rng: random.Random) -> list[dict]:
    """Ten closed-form subcommands; marginal widths are stratified in sigma."""
    ops = [{"kind": "fig1", "params": {"pairs": FIG1_PAPER_PAIRS, "x0": 1.0,
                                       "p0": 0.0, "samples": 100},
            "argv": ["fig1", "--tmax", repr(TMAX_FIG1), "--samples", "100"]}]

    sigma = float(_num(rng.uniform(*SIGMA_RANGE)))
    kbts = [draw_kbt(rng, sigma) for _ in range(3)]
    x0, p0 = _packet(rng)
    argv = ["fig1", "--sigma", _num(sigma)]
    for kbt in kbts:
        argv += ["--kbt", _num(kbt)]
    argv += ["--x0", _num(x0), "--p0", _num(p0), "--tmax", repr(TMAX_FIG1),
             "--samples", "50"]
    ops.append({"kind": "fig1", "params": {
        "pairs": [(sigma, kbt) for kbt in kbts], "x0": x0, "p0": p0,
        "samples": 50}, "argv": argv})

    lo, hi = SIGMA_RANGE
    third = (hi - lo) / 3.0
    strata = [(lo + i * third, lo + (i + 1) * third) for i in range(3)]
    rng.shuffle(strata)
    for stratum, samples in zip(strata, (50, 150, 400)):
        ops.append(_marginal_op(rng, stratum, samples))

    var = rng.choice(["sigma", "kbt"])
    sigma, kbt = draw_sigma_kbt(rng)
    if var == "sigma":
        floor = max(SIGMA_RANGE[0], 1.0 / (2.0 * math.sqrt(kbt)))
        ends = sorted(rng.uniform(floor, SIGMA_RANGE[1]) for _ in range(2))
    else:
        floor = max(KBT_RANGE[0], 1.0 / (4.0 * sigma**2))
        ends = sorted(rng.uniform(floor, KBT_RANGE[1]) for _ in range(2))
    start, stop = (float(_num(e)) for e in ends)
    ops.append({"kind": "limits", "params": {"var": var, "sigma": sigma, "kbt": kbt},
                "argv": ["limits", "--var", var, "--start", _num(start),
                         "--stop", _num(stop), "--num", "20",
                         "--sigma", _num(sigma), "--kbt", _num(kbt)]})

    sigma, kbt = draw_sigma_kbt(rng)
    omega = float(_num(rng.uniform(0.5, 2.0)))
    ops.append({"kind": "partition", "params": {
        "sigma": sigma, "kbt": kbt, "omega": omega, "oracle": False},
        "argv": ["partition", "--sigma", _num(sigma), "--kbt", _num(kbt),
                 "--omega", _num(omega)]})

    m0 = float(_num(rng.uniform(0.5, 2.0)))
    sigma, kbt = draw_sigma_kbt(rng, mass=m0)
    n = rng.randint(1, 8)
    omega_max = float(_num(rng.uniform(0.5, 2.0)))
    coupling = float(_num(rng.uniform(0.1, 2.0)))
    q0 = float(_num(rng.uniform(-1.0, 1.0)))
    beta = float(_num(1.0 / kbt))
    ops.append({"kind": "bath", "params": {
        "n": n, "m0": m0, "omega_max": omega_max, "sigma": sigma, "beta": beta},
        "argv": ["bath", "--n", str(n), "--m0", _num(m0), "--omega-max",
                 _num(omega_max), "--coupling", _num(coupling), "--sigma",
                 _num(sigma), "--q0", _num(q0), "--beta", _num(beta)]})

    ops.append(_trajectory_op(rng, "harmonic"))
    ops.append(_trajectory_op(rng, "free"))
    return ops


def oracle_battery_round(rng: random.Random) -> list[dict]:
    """The full verification run plus one nested-quadrature partition table."""
    sigma, kbt = draw_sigma_kbt(rng)
    omega = float(_num(rng.uniform(0.5, 2.0)))
    return [
        {"kind": "verify", "params": {}, "argv": ["verify"]},
        {"kind": "partition", "params": {
            "sigma": sigma, "kbt": kbt, "omega": omega, "oracle": True},
         "argv": ["partition", "--oracle", "--sigma", _num(sigma),
                  "--kbt", _num(kbt), "--omega", _num(omega)]},
    ]


def check_cli(lib, op: dict, rc: int, stdout: str) -> str | None:
    p = op["params"]
    kind = op["kind"]
    if kind == "fig1":
        times = np.linspace(0.0, TMAX_FIG1, p["samples"])
        curves = [(p["x0"], p["p0"], s, k, times) for s, k in p["pairs"]]
        return oracle.check_curves(lib, curves, rc, stdout, z_column=3)
    if kind == "marginal":
        times = np.linspace(0.0, TMAX_FIG1, p["samples"])
        curves = [(p["x0"], p["p0"], p["sigma"], p["kbt"], times)]
        return oracle.check_curves(lib, curves, rc, stdout, z_column=1)
    if kind == "limits":
        return oracle.check_limits(p["var"], p["sigma"], p["kbt"], rc, stdout)
    if kind == "partition":
        return oracle.check_partition(p["sigma"], p["kbt"], p["omega"],
                                      p["oracle"], rc, stdout)
    if kind == "bath":
        return oracle.check_bath(p["n"], p["m0"], p["omega_max"], p["sigma"],
                                 p["beta"], rc, stdout)
    if kind == "trajectory":
        return oracle.check_trajectory_cli(p["system"], p["x0"], p["p0"],
                                           p["sigma"], p["x_start"], rc, stdout)
    if kind == "verify":
        return oracle.check_verify(rc, stdout)
    raise ValueError(f"unknown operation kind {kind!r}")


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def run_cli_subprocess(op: dict, env: dict,
                       speed_samples: list | None = None) -> tuple[int, str, str]:
    """One `python -m bohmpart` child, through bench/child.py.

    The speed samples the child takes are appended to speed_samples.  A
    timeout kills the child and counts as a failure.
    """
    read_fd, write_fd = os.pipe()
    with os.fdopen(read_fd) as samples:
        try:
            proc = subprocess.Popen([sys.executable, str(CHILD), *op["argv"]],
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True, pass_fds=(write_fd,),
                                    env={**env, "BENCH_SPEED_FD": str(write_fd)})
        finally:
            os.close(write_fd)
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return -1, "", f"timed out after {CHILD_TIMEOUT_S} s"
        text = samples.read()
    if speed_samples is not None and text:
        speed_samples += json.loads(text)
    return proc.returncode, stdout, stderr


def run_cli_in_process(cli, op: dict) -> tuple[int, str, str]:
    """bohmpart.cli.main(argv) with the interpreter's exit-code conventions."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(op["argv"]))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# trajectory-ensemble: in-process library calls
# ---------------------------------------------------------------------------

def _library_packet(rng, system, sigma_range=SIGMA_RANGE):
    sigma = float(_num(rng.uniform(*sigma_range)))
    x0, p0 = _packet(rng)
    return {"system": system, "sigma": sigma, "x0": x0, "p0": p0}


def trajectory_round(rng: random.Random) -> list[dict]:
    """RK45, RK4, quantile transport, scaling solution, spectral sums, grids."""
    systems = ["harmonic", "free"]
    rng.shuffle(systems)
    ops = []
    for system, (lo, hi) in zip(systems, [(5.0, 27.5), (27.5, 50.0)]):
        p = _library_packet(rng, system)
        p.update(x_start=float(_num(p["x0"] + rng.uniform(-2.0, 2.0) * p["sigma"])),
                 tmax=float(_num(rng.uniform(lo, hi))))
        ops.append({"kind": "rk45", "params": p})
    p = _library_packet(rng, rng.choice(["harmonic", "free"]))
    p.update(x_start=float(_num(p["x0"] + rng.uniform(-2.0, 2.0) * p["sigma"])),
             tmax=5.0, dt=1e-3)
    ops.append({"kind": "rk4", "params": p})
    p = _library_packet(rng, rng.choice(["harmonic", "free"]))
    p.update(t=float(_num(rng.uniform(1.0, 5.0))))
    ops.append({"kind": "equivariance", "params": p})
    p = _library_packet(rng, rng.choice(["harmonic", "free"]))
    p.update(x_start=float(_num(p["x0"] + rng.uniform(-2.0, 2.0) * p["sigma"])),
             tmax=float(_num(rng.uniform(5.0, 50.0))), points=10_000)
    ops.append({"kind": "scaling", "params": p})
    # 41 states hold all but 1e-8 of the norm only for widths near the coherent
    # 1/sqrt(2); beyond that spectral_project raises TruncationInsufficient by
    # design, so K = 40 gets packets it can represent.
    for basis, sigma_range in ((40, (0.4, 1.1)), (160, SIGMA_RANGE)):
        p = _library_packet(rng, "harmonic", sigma_range)
        p.update(basis=basis)
        ops.append({"kind": "spectral", "params": p})
    for points in (SMALL_GRID, LARGE_GRID):
        p = _library_packet(rng, "harmonic")
        p.update(t=float(_num(rng.uniform(0.0, 10.0))), points=points)
        ops.append({"kind": "grid", "params": p})
    return ops


def warmup_round(mode: str) -> list[dict]:
    """Small fixed operations of every kind, run untimed before measuring."""
    if mode == "library":
        p = {"system": "harmonic", "sigma": 0.6, "x0": 1.0, "p0": 0.2}
        return [
            {"kind": "rk45", "params": {**p, "x_start": 1.1, "tmax": 1.0}},
            {"kind": "rk4", "params": {**p, "x_start": 1.1, "tmax": 0.05, "dt": 1e-3}},
            {"kind": "equivariance", "params": {**p, "t": 0.5}},
            {"kind": "scaling", "params": {**p, "x_start": 1.1, "tmax": 1.0, "points": 100}},
            {"kind": "spectral", "params": {**p, "basis": 40}},
            {"kind": "grid", "params": {**p, "t": 0.5, "points": 1000}},
        ]
    return [
        {"kind": "fig1", "params": {"pairs": [(0.6, 2.0)], "x0": 1.0, "p0": 0.0,
                                    "samples": 3},
         "argv": ["fig1", "--sigma", "0.6", "--kbt", "2", "--tmax", repr(TMAX_FIG1),
                  "--samples", "3"]},
        {"kind": "partition", "params": {"sigma": 0.6, "kbt": 2.0, "omega": 1.0,
                                         "oracle": False},
         "argv": ["partition", "--sigma", "0.6", "--kbt", "2", "--omega", "1"]},
        {"kind": "trajectory", "params": {"system": "free", "sigma": 0.6, "x0": 1.0,
                                          "p0": 0.0, "x_start": 1.2, "tmax": 0.5},
         "argv": ["trajectory", "--system", "free", "--sigma", "0.6", "--x0", "1",
                  "--p0", "0", "--x-start", "1.2", "--tmax", "0.5"]},
    ]


class Library:
    """Calls into bohmpart through module attributes, so tracing wrappers apply."""

    def __init__(self):
        import bohmpart
        import bohmpart.trajectories
        import bohmpart.wavepacket
        self.pkg = bohmpart
        self.traj = bohmpart.trajectories
        self.wave = bohmpart.wavepacket

    def system(self, name):
        return (self.pkg.harmonic_system(oracle.MASS, 1.0) if name == "harmonic"
                else self.pkg.free_system(oracle.MASS))

    def prepare(self, op: dict):
        """Inputs built before timing starts: parameter records and grids."""
        p = op["params"]
        params = self.system(p["system"])
        init = self.pkg.WavepacketInit(p["x0"], p["p0"], p["sigma"])
        extra = None
        if op["kind"] == "scaling":
            extra = np.linspace(0.0, p["tmax"], p["points"])
        elif op["kind"] == "spectral":
            extra = self.wave.default_spectral_grid(params, init, p["basis"])
        elif op["kind"] == "grid":
            center, width = oracle.center_width(p["system"], p["x0"], p["p0"],
                                                p["sigma"], p["t"])
            extra = np.linspace(center - 12 * width, center + 12 * width, p["points"])
        return params, init, extra

    def run(self, op: dict, params, init, extra):
        p = op["params"]
        kind = op["kind"]
        if kind in ("rk45", "rk4"):
            stepper = (self.traj.RK4Fixed(p["dt"]) if kind == "rk4"
                       else self.traj.RK45Adaptive())
            cfg = self.traj.TrajectoryConfig(stepper=stepper, t_max=p["tmax"])
            return self.traj.integrate(params, init, p["x_start"], cfg)
        if kind == "equivariance":
            return self.traj.equivariance_check(params, init, QUANTILES, p["t"])
        if kind == "scaling":
            return self.traj.scaling_solution(params, init, p["x_start"], extra)
        if kind == "spectral":
            state = self.wave.evolve(params, init, 0.0)
            return self.wave.spectral_project(state, p["basis"], extra)
        if kind == "grid":
            state = self.wave.evolve(params, init, p["t"])
            return self.wave.density(state, extra), self.wave.energy_pointwise(state, extra)
        raise ValueError(f"unknown operation kind {kind!r}")

    def check(self, op: dict, params, init, extra, result) -> str | None:
        p = op["params"]
        kind = op["kind"]
        packet = (p["system"], p["x0"], p["p0"], p["sigma"])
        if kind in ("rk45", "rk4"):
            tol = oracle.RK4_TOL if kind == "rk4" else oracle.RK45_TOL
            return oracle.check_positions(*packet, p["x_start"], result.times,
                                          result.positions, tol)
        if kind == "equivariance":
            if not result <= oracle.EQUIVARIANCE_TOL:
                return f"quantile transport error {result!r}"
            return None
        if kind == "scaling":
            return oracle.check_positions(*packet, p["x_start"], extra, result,
                                          oracle.SCALING_TOL)
        exact = self.wave.packet_mean_energy_exact(params, init)
        if kind == "spectral":
            return oracle.check_spectral(result.mean_energy(), exact)
        if kind == "grid":
            return oracle.check_grid_moments(extra, *result, exact)
        raise ValueError(f"unknown operation kind {kind!r}")


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------

WORKLOADS = {
    "cli-sweep": {
        "round": cli_sweep_round, "mode": "cli",
        "why": "every closed-form subcommand as a fresh process: each call pays "
               "the import, and fig1/marginal pay one scalar quadrature per sample",
    },
    "oracle-battery": {
        "round": oracle_battery_round, "mode": "cli",
        "why": "verify and partition --oracle: nested scalar-callback quadrature "
               "dominates, import is under a tenth of the time",
    },
    "trajectory-ensemble": {
        "round": trajectory_round, "mode": "library",
        "why": "in-process trajectories, scaling solution, spectral sums and grid "
               "kernels: scalar and array evolve, no CLI and no quadrature",
    },
}


def rounds(workload: str, seed: int):
    """Endless, reproducible sequence of rounds for (workload, seed)."""
    rng = random.Random(f"{workload}/{seed}")
    make = WORKLOADS[workload]["round"]
    index = 0
    while True:
        ops = make(rng)
        for op in ops:
            op["round"] = index
        yield ops
        index += 1
