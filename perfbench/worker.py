"""Runs one workload inside this process and writes its measurements as JSON.

run.py starts this script in a fresh interpreter, with the checkout's
``src`` first on PYTHONPATH and BLAS/OpenMP pinned to one thread. One
client issues ops in a closed loop: the next op starts when the previous
one has returned and its output has been checked. Only the program's
calls are timed; checks run between them, with the tracer paused. Peak
memory is read right after each call, and the checks read CSVs line by
line, so the checker does not set the peak.

A run is a sequence of passes. Pass k of a workload always gets the same
inputs for the same seed, so a faster program just completes more passes.
The machine-speed probe (speed.py) runs before and after every pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads as wl
from speed import probe
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
MAX_ERRORS_KEPT = 5


class WorkloadRun:
    """Measurements and check results of one workload run."""

    def __init__(self, fblsec, args, tracer: Tracer | None):
        self.fblsec = fblsec
        self.seed = args.seed
        self.quick = args.quick
        self.tracer = tracer
        self.out = os.path.join(args.workdir, "out.csv")
        self.passes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.facts: list[dict] = []
        self.rows = 0
        self.output_bytes = 0
        self.q_cache = [0, 0]
        self.peak_rss_kb = 0
        self._q_cached = getattr(getattr(fblsec, "numerics", None), "_q_func_inv", None)
        self._pass = None

    # -- timing ----------------------------------------------------------

    def _q_cache_counts(self) -> tuple[int, int]:
        info = getattr(self._q_cached, "cache_info", None)
        if info is None:
            return 0, 0
        counts = info()
        return counts.hits, counts.misses

    def timed(self, call, ops: int):
        """Run one op (or one CLI invocation of ``ops`` ops); return (result, error)."""
        hits, misses = self._q_cache_counts()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result, error = call(), None
        except Exception as e:  # an op that raises is a failed op, the run goes on
            result, error = None, e
        elapsed = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        self.peak_rss_kb = max(self.peak_rss_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        hits2, misses2 = self._q_cache_counts()
        self.q_cache[0] += hits2 - hits
        self.q_cache[1] += misses2 - misses
        self._pass["latencies"].append(elapsed)
        self._pass["ops"] += ops
        self._pass["wall_s"] += elapsed
        self._pass["cpu_s"] += cpu
        self.attempted += ops
        if error is not None:
            self.fail(ops, "".join(traceback.format_exception_only(type(error), error)).strip())
        return result, error

    def cli(self, argv: list[str], ops: int) -> str | None:
        """Invoke fblsec.cli.main in-process; return its stdout, or None on failure.

        The CSV is left at ``self.out`` for the checks to read.
        """
        for path in (self.out, self.out + ".manifest"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        stdout = io.StringIO()

        def call():
            with contextlib.redirect_stdout(stdout):
                return self.fblsec.cli.main(argv)

        code, error = self.timed(call, ops)
        if error is not None:
            return None
        if code != 0:
            self.fail(ops, f"fblsec {argv[0]} exited with {code}")
            return None
        self.output_bytes += os.path.getsize(self.out)
        return stdout.getvalue()

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(message)

    @contextlib.contextmanager
    def checking(self, ops: int):
        """Run output checks untraced; a failed check fails the op."""
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            yield
        except (wl.CheckError, ValueError, IndexError, OSError) as e:
            self.fail(ops, f"check failed: {e}")
        finally:
            if self.tracer is not None:
                self.tracer.paused = False

    def run_pass(self, run_one, index: int) -> None:
        self._pass = {"ops": 0, "wall_s": 0.0, "cpu_s": 0.0, "latencies": []}
        before = probe()
        run_one(self, index)
        self._pass["probe_s"] = 0.5 * (before + probe())
        self.passes.append(self._pass)


# ----------------------------------------------------------------------
# one pass per workload
# ----------------------------------------------------------------------

def cipc_pass(s: WorkloadRun, index: int) -> None:
    check_rng = random.Random(f"cipc-check:{s.seed}:{index}")
    for run in wl.cipc_invocations(s.seed, index, s.quick):
        stdout = s.cli(wl.cipc_argv(run, s.out), run["trials"])
        if stdout is None:
            continue
        with s.checking(run["trials"]), open(s.out) as lines:
            fact = wl.check_cipc(s.fblsec, run, lines, stdout, check_rng)
            s.facts.append(fact)
            s.rows += fact["rows"]


def lob_pass(s: WorkloadRun, index: int) -> None:
    for run in wl.lob_invocations(s.seed, index, s.quick):
        ops = run["trials"] * len(wl.PHI_GRID)
        stdout = s.cli(wl.lob_argv(run, s.out), ops)
        if stdout is None:
            continue
        with s.checking(ops), open(s.out) as lines:
            fact = wl.check_lob(run, lines, stdout)
            s.facts.append(fact)
            s.rows += fact["rows"]


def metrics_pass(s: WorkloadRun, index: int) -> None:
    per_pass = wl.BLOCK if s.quick else wl.QUERIES_PER_PASS
    for i in range(per_pass):
        j = (s.start + index * per_pass + i) % wl.POOL_SIZE
        query = s.pool[j]
        result, error = s.timed(wl.query_call(s.fblsec, query), 1)
        if error is None:
            with s.checking(1):
                wl.check_query(query[0], result, s.reference[j])


PASSES = {"cipc-trials": cipc_pass, "lob-an-grid": lob_pass, "metrics-queries": metrics_pass}


def environment(fblsec) -> dict:
    return {
        "fblsec": getattr(fblsec, "__version__", "unknown"),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
        "scipy": sys.modules["scipy"].__version__ if "scipy" in sys.modules else None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0, help="run passes until this much time has gone")
    parser.add_argument("--passes", type=int, default=0, help="run exactly this many passes instead")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    import fblsec
    import fblsec.cli

    src = ROOT / "src"
    if Path(fblsec.__file__).resolve().parent.parent != src.resolve():
        print(f"fblsec imported from {fblsec.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(fblsec)

    run = WorkloadRun(fblsec, args, tracer)
    if args.workload == "metrics-queries":
        run.pool = wl.query_pool()
        run.reference = wl.metrics_reference(run.pool)
        run.start = wl.query_start(args.seed)
    run_one = PASSES[args.workload]
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        run.run_pass(run_one, index)
        index += 1
        if args.passes:
            if index >= args.passes:
                break
        elif time.perf_counter() >= deadline:
            break
    result = {
        "environment": environment(fblsec),
        "passes": run.passes,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "facts": run.facts,
        "rows": run.rows,
        "output_bytes": run.output_bytes,
        "q_cache": {"hits": run.q_cache[0], "misses": run.q_cache[1]},
        "peak_rss_mb": run.peak_rss_kb / 1024.0,
        "trace": tracer.table() if tracer else None,
        "draws": tracer.draws if tracer else None,
    }
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
