"""Rebuilds the reference tables that the output checks compare against.

Run from the root of a checkout, at the commit whose results are the
reference (it takes a few minutes on one core):

    PYTHONPATH=src python3 perfbench/make_reference.py

reference/metrics_queries.txt holds the answer of every query in the
metrics-queries pool. reference/lob_feasibility.json holds, for every
lob-an-grid scenario and AN share, the feasible-trial count of one long
``fblsec optimize-an`` run.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import fblsec
import fblsec.cli

import workloads as wl

#: fblsec --seed of the reference run of scenario c is REFERENCE_SEED + c;
#: workload seeds are drawn from [0, 2**63), so they never coincide.
REFERENCE_SEED = 2**63
#: Trials of the reference run of each lob-an-grid scenario.
LOB_TRIALS = 40000


def metrics_table() -> str:
    pool = wl.query_pool()
    lines = [
        f"# fblsec {fblsec.__version__} answers to the metrics-queries pool, made by make_reference.py",
        f"# pool_seed = {wl.POOL_SEED}; pool_size = {wl.POOL_SIZE}; params_sha256 = {wl.pool_digest(pool)}",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, query in enumerate(pool):
            answer = wl.query_answer(query[0], wl.query_call(fblsec, query)())
            lines.append(f"{i} {query[0]} {wl.format_answer(answer)}")
    return "\n".join(lines) + "\n"


def lob_table(workdir: str) -> dict:
    successes = []
    out = str(Path(workdir) / "lob.csv")
    for c in range(len(wl.LOB_CONFIGS)):
        run = {"config": c, "trials": LOB_TRIALS, "seed": REFERENCE_SEED + c}
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = fblsec.cli.main(wl.lob_argv(run, out))
        if code != 0:
            raise SystemExit(f"fblsec optimize-an exited with {code} for scenario {c}")
        with open(out) as lines:
            successes.append(wl.check_lob(run, lines, stdout.getvalue())["successes"])
        print(f"scenario {c}: feasible shares {[round(k / LOB_TRIALS, 4) for k in successes[-1]]}")
    return {
        "fblsec": fblsec.__version__,
        "trials": LOB_TRIALS,
        "seeds": [REFERENCE_SEED + c for c in range(len(wl.LOB_CONFIGS))],
        "phi_grid": list(wl.PHI_GRID),
        "configs": [dict(c) for c in wl.LOB_CONFIGS],
        "successes": successes,
    }


def main() -> None:
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    wl.METRICS_REFERENCE.write_text(metrics_table())
    print(f"wrote {wl.METRICS_REFERENCE}")
    with tempfile.TemporaryDirectory() as workdir:
        table = lob_table(workdir)
    wl.LOB_REFERENCE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {wl.LOB_REFERENCE}")


if __name__ == "__main__":
    main()
