"""fblsec benchmark: runs one workload and prints its metrics as JSON.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cipc-trials --seed 1 --seconds 35 --trace 0

Workloads: cipc-trials, lob-an-grid, metrics-queries (see BENCHMARK.json and
perfbench/README.md for what each exercises and why).

``--trace 0`` measures the end-to-end metrics: the set-up time of fresh
interpreters, then one workload process running passes for ``--seconds``.
Every timing is scaled by the machine-speed probe of perfbench/speed.py.
``--trace 1`` measures the per-layer metrics: a fixed number of passes run
untraced, then the same passes again in a new process with every public
fblsec function wrapped by perfbench/tracer.py.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the environment,
each metric with its unit, the failed-op ratio and, when traced, the
per-function trace. The exit code is 0 only when every output check
passed; it is 2 when the checkout holds no fblsec sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl
from speed import PROBE_REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cipc-trials", "lob-an-grid", "metrics-queries")
#: Each run must end well inside 180 seconds.
RUN_BUDGET_S = 170.0
#: Fresh interpreters timed for setup_s, after one untimed warm-up that
#: leaves compiled bytecode behind as any second use would find it.
SETUP_RUNS = 6
#: Passes run untraced and then traced for the per-layer metrics.
TRACE_PASSES = 8
#: Functions whose calls and self time are per-layer metrics.
LAYER_FUNCTIONS = (
    "numerics.SubstreamSource.stream",
    "numerics.binomial_cdf",
    "numerics.q_func_inv",
    "fb_coding.max_rate",
    "fb_coding.error_probability",
    "secrecy.rate_interval",
    "secrecy.security_gap",
    "secrecy.min_blocklength",
    "ber.post_decoding_ber",
    "ber.ber_security_gap",
    "channels.sample_rayleigh",
    "channels.sample_rician",
    "channels.apply_reciprocity_error",
    "cipc.run_cipc",
    "lob.run_lob",
    "lob.an_basis",
    "cli.main",
)
SETUP_CODE = """\
import contextlib, io, sys, time
t0 = time.perf_counter()
import fblsec.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = fblsec.cli.main(["--version"])
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[1])
from speed import probe
print(setup, sorted(probe() for _ in range(3))[1])
sys.exit(code)
"""


class RunFailed(Exception):
    """A process of the benchmark did not complete."""


def pinned_environment() -> dict:
    """This environment with BLAS/OpenMP at one thread and the checkout's src first."""
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunFailed("the run used up its time budget")
    return left


def measure_setup(env: dict, runs: int, warm_up: bool, deadline: float) -> list[tuple[float, float]]:
    """(seconds to import fblsec.cli and build its parser, median of 3 probes right after), per fresh interpreter."""
    times = []
    for k in range(runs + warm_up):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(HERE)], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=_remaining(deadline),
        )
        if proc.returncode != 0:
            raise RunFailed(f"set-up interpreter exited with {proc.returncode}: {proc.stderr[-2000:]}")
        if k >= warm_up:
            setup, probe = proc.stdout.split()
            times.append((float(setup), float(probe)))
    return times


def run_worker(args, env: dict, workdir: str, name: str, extra: list[str], deadline: float) -> dict:
    result_path = os.path.join(workdir, f"{name}.json")
    log_path = os.path.join(workdir, f"{name}.log")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", workdir, "--result", result_path,
    ] + extra + (["--quick"] if args.quick else [])
    with open(log_path, "w") as log:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                              timeout=_remaining(deadline))
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(log_path) as log:
            tail = log.read()[-3000:]
        raise RunFailed(f"workload process exited with {proc.returncode}:\n{tail}")
    with open(result_path) as f:
        return json.load(f)


def statistical_problems(workload: str, facts: list[dict]) -> list[str]:
    if workload == "cipc-trials":
        return wl.suspension_law_problems(facts)
    if workload == "lob-an-grid":
        return wl.lob_feasibility_problems(facts, wl.lob_reference())
    return []


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def scaled(pass_: dict, value: float) -> float:
    """A timing of a pass in seconds of the reference machine (see speed.py)."""
    return value * PROBE_REFERENCE_S / pass_["probe_s"]


def scaled_wall(res: dict) -> float:
    return statistics.median(scaled(p, p["wall_s"]) for p in res["passes"])


def latency_groups(res: dict) -> list[list[float]]:
    """Scaled op latencies, one group per pass when every pass has a tail of its own.

    A pass of more than 10 ops (metrics-queries) has a percentile with 10
    samples beyond it; the median over passes of per-pass statistics then
    leaves out the bursts of other tenants that the pass's probe missed.
    Passes of a few CLI invocations are pooled into one group.
    """
    groups = [[scaled(p, x) for x in p["latencies"]] for p in res["passes"]]
    if min(len(g) for g in groups) > 10:
        return groups
    return [[x for g in groups for x in g]]


def end_to_end_metrics(res: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The metrics, and the unscaled medians and run facts behind them."""
    passes = res["passes"]
    groups = latency_groups(res)
    tails = [tail(g) for g in groups]
    metrics = {
        "setup_s": statistics.median(s * PROBE_REFERENCE_S / probe for s, probe in setup),
        "wall_s": scaled_wall(res),
        "cpu_s": statistics.median(scaled(p, p["cpu_s"]) for p in passes),
        "ops_per_s": statistics.median(p["ops"] / scaled(p, p["wall_s"]) for p in passes),
        "op_latency_p50_s": statistics.median(statistics.median(g) for g in groups),
        "op_latency_tail_s": statistics.median(value for _, value in tails),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    unscaled = {
        "setup_s": statistics.median(s for s, _ in setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "probe_s": statistics.median(p["probe_s"] for p in passes),
        "setup_probe_s": statistics.median(probe for _, probe in setup),
    }
    return metrics, {
        "unscaled": unscaled,
        "op_latency_tail_percentile": statistics.median(pct for pct, _ in tails),
        "latency_groups": len(groups),
        "passes": len(passes),
    }


def reference_draws(workload: str, facts: list[dict]) -> int:
    """Channel coefficients the scheme needs when every trial point draws its own."""
    if workload == "cipc-trials":
        # downlink channel on every trial; uplink error and Eve's channel when transmitted
        return sum(f["antennas"] * (f["trials"] + 2 * (f["trials"] - f["suspended"])) for f in facts)
    if workload == "lob-an-grid":
        return sum(2 * wl.LOB_CONFIGS[f["config"]]["antennas"] * f["trials"] * len(wl.PHI_GRID) for f in facts)
    return 0


def per_layer_metrics(workload: str, base: dict, traced: dict) -> dict:
    table = traced["trace"]
    metrics = {}
    for key in LAYER_FUNCTIONS:
        entry = table.get(key, {"calls": 0, "self_s": 0.0})
        metrics[f"{key}.calls"] = entry["calls"]
        metrics[f"{key}.self_s"] = entry["self_s"]
    hits, misses = traced["q_cache"]["hits"], traced["q_cache"]["misses"]
    metrics["numerics.q_func_inv.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["secrecy.rate_interval.calls_per_op"] = metrics["secrecy.rate_interval.calls"] / traced["attempted"]
    needed = reference_draws(workload, traced["facts"])
    metrics["channels.draws"] = traced["draws"]
    metrics["channels.draws_per_trial_point"] = traced["draws"] / needed if needed else 0.0
    metrics["cli.output_bytes"] = traced["output_bytes"]
    cli_self = metrics["cli.main.self_s"]
    metrics["cli.rows_per_s"] = traced["rows"] / cli_self if cli_self > 0 else 0.0
    metrics["trace.overhead_s"] = scaled_wall(traced) - scaled_wall(base)
    return metrics


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fblsec").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def measure(args, workdir: str) -> tuple[dict, list[dict], dict]:
    """Run the workload; return (metrics, worker results, facts for the printout)."""
    env = pinned_environment()
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        passes = ["--passes", str(1 if args.quick else TRACE_PASSES)]
        base = run_worker(args, env, workdir, "untraced", passes, deadline)
        traced = run_worker(args, env, workdir, "traced", passes + ["--trace"], deadline)
        return per_layer_metrics(args.workload, base, traced), [base, traced], {"trace": traced["trace"]}
    setup = measure_setup(env, 1 if args.quick else SETUP_RUNS, not args.quick, deadline)
    length = ["--passes", "1"] if args.quick else ["--seconds", str(args.seconds)]
    res = run_worker(args, env, workdir, "run", length, deadline)
    metrics, extra = end_to_end_metrics(res, setup)
    return metrics, [res], extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smallest inputs, one set-up run, one pass: for the benchmark's own tests")
    args = parser.parse_args()

    if not (SRC / "fblsec" / "__init__.py").is_file():
        print(f"error: no fblsec sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        metrics, results, extra = measure(args, workdir)
    except (RunFailed, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    for r in results:
        problems = statistical_problems(args.workload, r["facts"])
        if problems:
            failed += r["attempted"] - r["failed"]
            errors += problems
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1

    environment = dict(results[0]["environment"], workload=args.workload, seed=args.seed,
                       git_commit=git_commit(), fblsec_source_sha256=source_digest())
    print("environment " + json.dumps(environment, sort_keys=True))
    for key, value in extra.items():
        print(f"{key} {json.dumps(value, sort_keys=True)}")
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]!r} {m['unit']}")
    print(f"failed_ratio = {failed / attempted if attempted else 1.0!r} ratio")
    for message in errors:
        print(f"failure: {message}")
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
