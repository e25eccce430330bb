"""Fast checks of the benchmark itself; the workloads are not run here."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice

import pytest

import run
import summary
import workloads
from tracer import Tracer

sys.path.insert(0, str(run.SRC))


def first_rounds(workload: str, seed: int, n: int = 3) -> list[dict]:
    return list(islice(workloads.rounds(workload, seed), n))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_operation_list(workload):
    assert first_rounds(workload, 11) == first_rounds(workload, 11)
    assert first_rounds(workload, 11) != first_rounds(workload, 12)


def test_every_argv_parses_and_stays_in_the_criterion_domain():
    from bohmpart.cli import build_parser
    parser = build_parser()
    for ops in first_rounds("cli-sweep", 3, 10) + first_rounds("oracle-battery", 3, 10):
        for op in ops:
            args = parser.parse_args(op["argv"])
            for sigma, kbt in op["params"].get("pairs", []):
                assert sigma * sigma * kbt > 0.25
            if op["kind"] in ("partition", "marginal"):
                assert args.cfg_sigma ** 2 * args.cfg_kbt > 0.25


@pytest.mark.parametrize("n, percentile, rank", [
    (20, 50.0, 10), (39, 50.0, 20), (40, 75.0, 30), (100, 90.0, 90),
    (199, 90.0, 180), (200, 95.0, 190), (1000, 99.0, 990), (10000, 99.9, 9990)])
def test_tail_picks_highest_percentile_with_ten_beyond(n, percentile, rank):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted on purpose
    got = summary.tail(values)
    assert (got["percentile"], got["rank"], got["samples"]) == (percentile, rank, n)
    assert got["value"] == float(rank)  # the rank-th smallest of 1..n
    assert n - got["rank"] >= summary.MIN_BEYOND


def test_too_few_operations_report_no_latency():
    assert summary.tail([1.0] * 19) is None
    assert summary.median_or_none([1.0] * 19) is None
    assert summary.median_or_none([3.0, 1.0] * 10) == 2.0


def test_importtime_sums_outermost_scipy_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:       200 |        200 |       scipy._lib",
        "import time:       300 |        500 |     scipy",
        "import time:        50 |         50 |       scipy.special._ufuncs",
        "import time:       150 |        200 |     scipy.special",
        "import time:        10 |        810 |   bohmpart.core",
        "import time:        20 |       1000 | bohmpart",
    ])
    total, scipy_s = run.parse_importtime(stderr)
    assert total == pytest.approx(1000e-6)
    assert scipy_s == pytest.approx(700e-6)


def _runner(workload="cli-sweep"):
    return run.Runner(workload, in_process=True)


def test_warmup_operations_pass_their_oracles():
    for workload in ("cli-sweep", "trajectory-ensemble"):
        runner = _runner(workload)
        _, records = runner.run_round(workloads.warmup_round(runner.mode))
        assert [r["reason"] for r in records] == [None] * len(records)


def test_perturbed_results_count_as_failed():
    runner = _runner()
    verify = {"kind": "verify", "params": {}, "argv": ["verify", "--inject-q-scale", "1.01"]}
    perturbed = (3, "[FAIL] quantum potential\n\nverification FAILED\n", "")
    outcome = runner.judge(verify, None, perturbed)
    assert outcome["failure"] == "wrong"

    op = workloads.warmup_round("cli")[0]  # fig1, 3 samples
    rc, stdout, stderr = workloads.run_cli_in_process(runner.cli, op)
    lines = stdout.splitlines()
    cells = lines[-1].split(",")
    cells[3] = repr(float(cells[3]) * 1.01)
    scaled = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
    assert runner.judge(op, None, (rc, stdout, stderr))["failure"] is None
    records = [{**op, **runner.judge(op, None, (rc, scaled, stderr))}]
    assert run.tally(records) == {"correct": False, "attempted": 1, "failed": 1}


def test_child_runs_the_cli_and_reports_speed_samples():
    runner = _runner()
    op = workloads.warmup_round("cli")[1]  # partition
    samples = []
    rc, stdout, stderr = workloads.run_cli_subprocess(op, runner.env, samples)
    assert runner.judge(op, None, (rc, stdout, stderr))["failure"] is None, stderr
    assert len(samples) >= 2 and all(s > 0 for s in samples)


def test_crash_is_failed_but_not_incorrect():
    runner = _runner()
    op = workloads.warmup_round("cli")[0]
    outcome = runner.judge(op, None, (1, "", "Traceback ...\nOverflowError: math range error"))
    assert outcome["failure"] == "crash"
    assert run.tally([outcome]) == {"correct": True, "attempted": 1, "failed": 1}


def test_tracer_self_times_add_up_and_uninstall_restores():
    import bohmpart.core
    import bohmpart.partition
    original = bohmpart.partition.integrate_window
    runner = _runner()
    ops = workloads.warmup_round("cli")
    tracer = Tracer()
    tracer.install()
    try:
        assert bohmpart.partition.integrate_window is not original
        _, records = runner.run_round(ops, tracer)
    finally:
        tracer.uninstall()
    assert bohmpart.partition.integrate_window is original
    assert bohmpart.core.integrate_window is original
    red = tracer.reduce()
    assert sum(red["layer_self"].values()) == pytest.approx(red["ops_s"], rel=1e-9)
    assert red["calls"]["bench.op"] == len(ops)
    assert red["calls"]["core.integrate_window"] > 0
    assert red["calls"]["cli.fig1"] == 1
    assert tracer.counts["partition.marginal_Z.evals"] == tracer.counts["wavepacket.density.calls"]


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
