"""bohmpart benchmark: seeded workloads, oracle checks, end-to-end and per-layer metrics.

    python3 bench/run.py --workload cli-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1 \
        --out bench/results/BENCH_1.json

Each workload is a closed loop with one client and one operation in flight.
It runs whole rounds of its seeded operation list for about --seconds (at
least one round), checks every output against bench/oracle.py, and prints
one JSON line with the full record (provenance, every operation with its
outcome, every metric) followed by the summary line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`correct` is false when some output disagrees with its oracle; `failed`
also counts operations that crashed.  --trace 0 reports the end-to-end
metrics, in seconds at reference speed (see speed.py); --trace 1 replays a
fixed list (the first round) in-process, each operation once untraced and
once traced, and reports the per-layer metrics.  README.md has the details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import summary
import workloads
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
TRACE_ROUNDS = 1

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]

# README.md says which end-to-end metric each should move, on which workload.
PER_LAYER = [
    ("core.import_s", "s"), ("core.import_scipy_s", "s"),
    ("core.integrate_window.calls", "count"), ("core.integrate_window.s", "s"),
    ("core.integrate_window.errors", "count"),
    ("wavepacket.evolve.calls", "count"), ("wavepacket.evolve.s", "s"),
    ("wavepacket.density.calls", "count"), ("wavepacket.energy_pointwise.calls", "count"),
    ("wavepacket.kernel.points_per_s", "1/s"), ("wavepacket.kernel.bytes_computed", "B"),
    ("wavepacket.spectral_project.k40_s", "s"), ("wavepacket.spectral_project.k160_s", "s"),
    ("trajectories.integrate.rk45_s", "s"), ("trajectories.integrate.rk4_s", "s"),
    ("trajectories.integrate.rhs_evals", "count"),
    ("trajectories.equivariance_check.s", "s"), ("trajectories.scaling_solution.s", "s"),
    ("trajectories.errors", "count"),
    ("partition.marginal_curve.s", "s"), ("partition.marginal_Z.calls", "count"),
    ("partition.marginal_Z.s_per_point", "s"), ("partition.marginal_Z.evals_per_call", "count"),
    ("partition.errors", "count"),
    ("partition.unified_Z_gaussian.quadrature_s", "s"),
    ("partition.unified_Z_gaussian.quad_calls", "count"),
    ("partition.classical_Z.quadrature_s", "s"), ("partition.marginal_Z_derivative.s", "s"),
    ("bath.unified_bath_Z.quadrature_s", "s"), ("bath.unified_bath_Z.quad_calls", "count"),
    ("bath.closed_form_s", "s"),
    ("verify.check_quantum_potential_fd.s", "s"), ("verify.check_energy_fd.s", "s"),
    ("verify.check_qhj_residual.s", "s"), ("verify.check_quantum_force_fd.s", "s"),
    ("verify.check_marginal_rate_fd.s", "s"), ("verify.check_bath_factor.s", "s"),
    ("verify.measure_energy_variant.s", "s"), ("verify.measure_dzdt_bracket.s", "s"),
    ("verify.measure_bath_2pi.s", "s"), ("verify.numdiff.calls", "count"),
    ("cli.fig1.s", "s"), ("cli.marginal.s", "s"), ("cli.limits.s", "s"),
    ("cli.partition.s", "s"), ("cli.bath.s", "s"), ("cli.trajectory.s", "s"),
    ("cli.emit.s", "s"), ("cli.emit.bytes", "B"), ("cli.verify.s", "s"),
    ("cli.partition_oracle.s", "s"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("bench.outside_ops_s", "s"), ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
]

CONTRACT_OMITS = {
    "latency_p50_s": "reported only with at least 20 operations; oracle-battery runs "
                     "2 per round",
    "latency_tail_s": "needs at least 10 operations beyond the percentile; "
                      "oracle-battery runs 2 per round",
    "fail_rate": "0 on workloads where nothing fails, and a metric that can be 0 has "
                 "no relative bound; the summary line carries attempted and failed",
}


# ---------------------------------------------------------------------------
# Start-up cost, measured in fresh interpreters
# ---------------------------------------------------------------------------

def fresh_import(env: dict):
    subprocess.run([sys.executable, "-c", "import bohmpart"], env=env, check=True,
                   timeout=workloads.CHILD_TIMEOUT_S)


def bracketed(fn) -> tuple[float, float]:
    """(raw seconds, seconds at reference speed) of fn()."""
    before = speed.calibration_s()
    t0 = perf_counter()
    fn()
    raw = perf_counter() - t0
    return raw, raw * speed.REF_S / (0.5 * (before + speed.calibration_s()))


IMPORTTIME_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(bohmpart cumulative s, summed cumulative s of outermost scipy.* imports).

    -X importtime prints children before parents, indented two spaces per
    level; reading it backwards visits each parent before its children.
    """
    entries = [(len(m.group(3)) // 2, m.group(4), int(m.group(2)) * 1e-6)
               for m in map(IMPORTTIME_LINE.match, stderr.splitlines()) if m]
    total, scipy_s, stack = None, 0.0, []
    for level, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        in_scipy = any(n == "scipy" or n.startswith("scipy.") for _, n in stack)
        if (name == "scipy" or name.startswith("scipy.")) and not in_scipy:
            scipy_s += cumulative
        if name == "bohmpart" and level == 0:
            total = cumulative
        stack.append((level, name))
    if total is None:
        raise RuntimeError("-X importtime output has no bohmpart entry")
    return total, scipy_s


def importtime(env: dict) -> tuple[float, float]:
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bohmpart"],
                              env=env, capture_output=True, text=True, check=True,
                              timeout=workloads.CHILD_TIMEOUT_S)
        runs.append(parse_importtime(proc.stderr))
    return (statistics.median(r[0] for r in runs),
            statistics.median(r[1] for r in runs))


def provenance(nproc: int) -> dict:
    import numpy
    import scipy
    info = {"host": platform.node(), "nproc": nproc,
            "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "kernel": f"{platform.system()} {platform.release()}",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": None, "git_dirty": None,
            "git_src_dirty": None}
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=60).stdout.strip()
        info["git_commit"] = git("rev-parse", "HEAD") or None
        info["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
        info["git_src_dirty"] = bool(git("status", "--porcelain", "--", "src"))
    return info


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------

class Runner:
    """Runs operations of one workload and judges each against its oracle."""

    def __init__(self, workload: str, in_process: bool):
        import bohmpart
        import bohmpart.cli
        self.pkg = bohmpart
        self.cli = bohmpart.cli
        self.mode = workloads.WORKLOADS[workload]["mode"]
        self.in_process = in_process or self.mode == "library"
        self.env = workloads.child_env(str(SRC))
        self.library = workloads.Library() if self.mode == "library" else None

    def prepare(self, op: dict):
        return self.library.prepare(op) if self.library else None

    def execute(self, op: dict, prepared, samples: list | None = None):
        """Run the operation; returns (raw result, seconds).

        A child process appends the speed samples it took to `samples`.
        """
        t0 = perf_counter()
        if self.library:
            try:
                result = ("ok", self.library.run(op, *prepared))
            except Exception as exc:
                result = ("exception", f"{type(exc).__name__}: {exc}")
        elif self.in_process:
            result = workloads.run_cli_in_process(self.cli, op)
        else:
            result = workloads.run_cli_subprocess(op, self.env, samples)
        return result, perf_counter() - t0

    def judge(self, op: dict, prepared, result) -> dict:
        """Outcome record; 'crash' is an unhandled exception, 'wrong' an output
        (or documented exit code) that disagrees with the oracle."""
        if self.library:
            status, value = result
            if status == "exception":
                return {"failure": "crash", "reason": value}
            reason = self.library.check(op, *prepared, value)
            return {"failure": "wrong" if reason else None, "reason": reason}
        rc, stdout, stderr = result
        reason = workloads.check_cli(self.pkg, op, rc, stdout)
        outcome = {"exit": rc, "failure": None, "reason": reason}
        if reason:
            crashed = rc == -1 or "Traceback" in stderr
            outcome["failure"] = "crash" if crashed else "wrong"
            last = stderr.strip().splitlines()[-1:] or [""]
            outcome["reason"] = f"{reason}; stderr: {last[0]}"
        return outcome

    def run_round(self, ops: list[dict], tracer: Tracer | None = None,
                  first_id: int = 0, calibrate: bool = False) -> tuple[float, list[dict]]:
        """Time the round's operations, then check them outside the timing.

        With calibrate, the machine speed is sampled between operations (and
        inside each child), and each record gets the factor to reference speed
        from the samples around and during its run.
        """
        prepared = [self.prepare(op) for op in ops]
        results, factors = [], []
        samples = [speed.calibration_s()] if calibrate else None
        t0 = perf_counter()
        for i, (op, prep) in enumerate(zip(ops, prepared)):
            if tracer is None:
                first = len(samples) - 1 if calibrate else 0
                results.append(self.execute(op, prep, samples))
                if calibrate:
                    samples.append(speed.calibration_s())
                    factors.append((speed.REF_S / statistics.mean(samples[first:]),
                                    len(samples) - first))
            else:
                with tracer.operation(first_id + i):
                    results.append(self.execute(op, prep))
        elapsed = perf_counter() - t0
        records = []
        for i, (op, prep, (result, seconds)) in enumerate(zip(ops, prepared, results)):
            record = {"id": first_id + i, **op, "seconds": seconds}
            if calibrate:
                record["speed"], record["speed_samples"] = factors[i]
            record.update(self.judge(op, prep, result))
            records.append(record)
        return elapsed, records

    def warm_up(self) -> tuple[float, float]:
        """Fill caches and finish lazy imports before timing; (raw, reference) s."""
        if self.in_process:
            return bracketed(lambda: self.run_round(workloads.warmup_round(self.mode)))
        return bracketed(lambda: fresh_import(self.env))


def tally(records: list[dict]) -> dict:
    failed = [r for r in records if r["failure"]]
    return {"correct": not any(r["failure"] == "wrong" for r in failed),
            "attempted": len(records), "failed": len(failed)}


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float) -> dict:
    runner = Runner(workload, in_process=False)
    warm = runner.warm_up()
    # A CLI user pays no warm-up: the fresh imports below are its whole set-up.
    warmup = warm if runner.in_process else (0.0, 0.0)
    gen = workloads.rounds(workload, seed)
    records, round_raw, round_ref, round_elapsed = [], [], [], []
    t0 = perf_counter()
    while True:
        elapsed, done = runner.run_round(next(gen), first_id=len(records), calibrate=True)
        round_elapsed.append(elapsed)
        round_raw.append(sum(r["seconds"] for r in done))
        round_ref.append(sum(r["seconds"] * r["speed"] for r in done))
        records += done
        # Start another round only if it should end within --seconds.
        if perf_counter() - t0 + statistics.mean(round_elapsed) > seconds:
            break
    usage = resource.getrusage(resource.RUSAGE_SELF if runner.in_process
                               else resource.RUSAGE_CHILDREN)
    peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    imports = [bracketed(lambda: fresh_import(runner.env)) for _ in range(SETUP_REPEATS)]

    latencies = [r["seconds"] * r["speed"] for r in records]
    p50 = summary.median_or_none(latencies)
    tail = summary.tail(latencies)
    counts = tally(records)
    end_to_end = {
        "setup_s": {"value": statistics.median(i[1] for i in imports) + warmup[1],
                    "unit": "s"},
        "wall_s": {"value": statistics.median(round_ref), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "latency_p50_s": ({"value": p50, "unit": "s", "samples": len(latencies)}
                          if p50 is not None else
                          {"value": None, "reason": f"{len(latencies)} operations < "
                                                    f"{summary.MIN_FOR_MEDIAN}"}),
        "latency_tail_s": ({**tail, "unit": "s"} if tail else
                           {"value": None, "reason": f"{len(latencies)} operations: no "
                            f"percentile has {summary.MIN_BEYOND} beyond it"}),
        "fail_rate": {"value": counts["failed"] / counts["attempted"], "unit": "ratio",
                      "failed": counts["failed"], "attempted": counts["attempted"]},
        "setup_raw_s": {"value": statistics.median(i[0] for i in imports) + warmup[0],
                        "unit": "s"},
        "wall_raw_s": {"value": statistics.median(round_raw), "unit": "s"},
    }
    return {"rounds": len(round_raw), "round_raw_s": round_raw, "round_s": round_ref,
            "setup": {"fresh_import_s": imports, "warmup_s": warmup},
            "operations": records, "end_to_end": end_to_end, **counts,
            "metrics": {name: end_to_end[name] for name, _ in END_TO_END}}


def traced(workload: str, seed: int) -> dict:
    runner = Runner(workload, in_process=True)
    import_s, scipy_s = importtime(runner.env)
    runner.warm_up()
    gen = workloads.rounds(workload, seed)
    ops = [op for _ in range(TRACE_ROUNDS) for op in next(gen)]

    # Each operation runs untraced and then traced, back to back, so that the
    # machine's drifting speed (see speed.py) barely enters trace.overhead_s.
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    records = []
    for i, op in enumerate(ops):
        t0 = perf_counter()
        runner.run_round([op], first_id=i)
        untraced_s += perf_counter() - t0
        tracer.install()
        try:
            t0 = perf_counter()
            records += runner.run_round([op], tracer, first_id=i)[1]
            traced_s += perf_counter() - t0
        finally:
            tracer.uninstall()

    red = tracer.reduce()
    c, calls, outer = tracer.counts, red["calls"], red["outermost"]
    kernel_points = c["wavepacket.density.points"] + c["wavepacket.energy_pointwise.points"]
    kernel_s = c["wavepacket.density.s"] + c["wavepacket.energy_pointwise.s"]
    marginal_calls = calls["partition.marginal_Z"]
    values = {
        "core.import_s": import_s, "core.import_scipy_s": scipy_s,
        "core.integrate_window.calls": calls["core.integrate_window"],
        "core.integrate_window.s": outer["core.integrate_window"],
        "core.integrate_window.errors": c["core.errors"],
        "wavepacket.evolve.calls": c["wavepacket.evolve.calls"],
        "wavepacket.evolve.s": c["wavepacket.evolve.s"],
        "wavepacket.density.calls": c["wavepacket.density.calls"],
        "wavepacket.energy_pointwise.calls": c["wavepacket.energy_pointwise.calls"],
        "wavepacket.kernel.points_per_s": kernel_points / kernel_s if kernel_s else 0.0,
        # computed from array sizes (8 B read + 8 B written per point), not measured
        "wavepacket.kernel.bytes_computed": 16 * kernel_points,
        "wavepacket.spectral_project.k40_s": outer["wavepacket.spectral_project.k40"],
        "wavepacket.spectral_project.k160_s": outer["wavepacket.spectral_project.k160"],
        "trajectories.integrate.rk45_s": outer["trajectories.integrate.rk45"],
        "trajectories.integrate.rk4_s": outer["trajectories.integrate.rk4"],
        "trajectories.integrate.rhs_evals": c["trajectories.integrate.rhs_evals"],
        "trajectories.equivariance_check.s": outer["trajectories.equivariance_check"],
        "trajectories.scaling_solution.s": outer["trajectories.scaling_solution"],
        "trajectories.errors": c["trajectories.errors"],
        "partition.marginal_curve.s": outer["partition.marginal_curve"],
        "partition.marginal_Z.calls": marginal_calls,
        "partition.marginal_Z.s_per_point":
            outer["partition.marginal_Z"] / marginal_calls if marginal_calls else 0.0,
        "partition.marginal_Z.evals_per_call":
            c["partition.marginal_Z.evals"] / marginal_calls if marginal_calls else 0.0,
        "partition.errors": c["partition.errors"],
        "partition.unified_Z_gaussian.quadrature_s":
            outer["partition.unified_Z_gaussian.quadrature"],
        "partition.unified_Z_gaussian.quad_calls": c["partition.unified_Z_gaussian.quad_calls"],
        "partition.classical_Z.quadrature_s": outer["partition.classical_Z.quadrature"],
        "partition.marginal_Z_derivative.s": outer["partition.marginal_Z_derivative"],
        "bath.unified_bath_Z.quadrature_s": outer["bath.unified_bath_Z.quadrature"],
        "bath.unified_bath_Z.quad_calls": c["bath.unified_bath_Z.quad_calls"],
        "bath.closed_form_s": red["bath_closed_s"],
        "verify.numdiff.calls": c["verify.numdiff.calls"],
        "cli.emit.bytes": c["cli.emit.bytes"],
        "bench.outside_ops_s": traced_s - red["ops_s"],
        "trace.wall_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    for name, unit in PER_LAYER:
        if name not in values and name.startswith(("verify.", "cli.")):
            values[name] = outer[name.removesuffix(".s")]
    for layer, self_s in red["layer_self"].items():
        values[f"{layer}.self_s"] = self_s
    metrics = {name: {"value": float(values[name]) if unit == "s" else values[name],
                      "unit": unit} for name, unit in PER_LAYER}

    layer_sum = sum(red["layer_self"].values())
    counts = tally(records)
    return {"rounds": TRACE_ROUNDS, "operations": records, **counts,
            "spans": red["spans"],
            "self_time_check": {
                "sum_layer_self_s": layer_sum,
                "outside_ops_s": values["bench.outside_ops_s"],
                "traced_wall_s": traced_s, "untraced_wall_s": untraced_s,
                "overhead_s": traced_s - untraced_s,
                "residual_s": traced_s - layer_sum - values["bench.outside_ops_s"]},
            "metrics": metrics}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also merge the full records into this JSON file")
    return parser.parse_args(argv)


def merge_out(path: Path, records: list[dict]):
    existing = json.loads(path.read_text()) if path.exists() else {}
    for record in records:
        existing[f"{record['workload']}/trace{record['trace']}"] = record
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(existing, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bohmpart" / "__init__.py").is_file():
        print(f"bench: no bohmpart sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bohmpart
    if Path(bohmpart.__file__).resolve().parent != SRC / "bohmpart":
        print(f"bench: imported bohmpart from {bohmpart.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    # One client, one operation in flight: the benchmark and every child it
    # starts share one core, the core its speed samples are taken on.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        body = (traced(name, args.seed) if args.trace
                else measure(name, args.seed, args.seconds))
        record = {"workload": name, "why": workloads.WORKLOADS[name]["why"],
                  "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "provenance": provenance(nproc), **body}
        if not args.trace:
            record["contract_omits"] = CONTRACT_OMITS
        records.append(record)
        print(json.dumps(record, sort_keys=True))
        print(json.dumps({key: record[key] for key in
                          ("correct", "attempted", "failed", "metrics")}), flush=True)
    if args.out:
        merge_out(Path(args.out), records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
