"""Compare the start-up cost of the CLI of two fblsec source trees.

usage: python tools/startup.py OLD_SRC NEW_SRC [N]

Each row runs in a fresh interpreter, N times per tree (default 10), the
trees alternating which goes first, as tools/cli_diff.py runs its cases.
The first two rows time ``import fblsec.cli`` plus ``main(["--version"])``
or ``main(["-h"])``; the others time the same import plus one small run of
a command, in an empty directory. The data commands and the simulators
write ``--out o.csv``, so the simulator rows also load and run the CSV
kernel. Timings are taken inside the interpreter with
``perf_counter``, so interpreter start-up is left out. Each row prints the
median of both trees in ms, the change, both trees' quartiles and in how
many of the N alternations NEW_SRC was faster.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile

TIMED = r"""
import contextlib, io, os, sys, time
t0 = time.perf_counter()
import fblsec.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = fblsec.cli.main(sys.argv[2:])
elapsed = time.perf_counter() - t0
if not fblsec.__file__.startswith(os.path.join(sys.argv[1], "")):
    sys.exit(f"fblsec imported from {fblsec.__file__}")
print(elapsed)
sys.exit(code)
"""
ROWS = {
    "--version": ["--version"],
    "-h": ["-h"],
    "fig2": ["fig2", "--n-list", "300", "--steps", "10", "--out", "o.csv"],
    "fig3": ["fig3", "--n-count", "5", "--out", "o.csv"],
    "gap": ["gap", "--n", "500", "--rate", "1.0"],
    "interval": ["interval", "--n", "500"],
    "minblock": ["minblock"],
    "cipc": ["cipc", "--trials", "20", "--sigma-delta", "0.1", "--out", "o.csv"],
    "lob": ["lob", "--trials", "20", "--loc-error-deg", "2", "--out", "o.csv"],
    "optimize-q": ["optimize-q", "--q-grid", "0.5", "1.0", "--trials", "20"],
    "optimize-an": ["optimize-an", "--phi-grid", "0.0", "0.3", "--trials", "20"],
}


def timed(src: str, argv: list[str]) -> float:
    """Seconds to import fblsec.cli from src and run main(argv), in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as d:
        p = subprocess.run([sys.executable, "-c", TIMED, src, *argv], cwd=d, env=env,
                           capture_output=True, text=True)
    if p.returncode != 0:
        raise SystemExit(f"{src}: fblsec {' '.join(argv)} failed:\n{p.stderr}")
    return float(p.stdout)


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [os.path.abspath(src) for src in argv[:2]]
    runs = int(argv[2]) if len(argv) == 3 else 10
    times = {(row, tree): [] for row in ROWS for tree in (0, 1)}
    for i in range(runs):
        for row, row_argv in ROWS.items():
            for tree in (i % 2, 1 - i % 2):
                times[row, tree].append(timed(trees[tree], row_argv))
    print(f"{'row':<12} {'old ms':>7} {'new ms':>7} {'change':>7}  {'old q1-q3':>13}  "
          f"{'new q1-q3':>13}  new faster")
    for row in ROWS:
        old, new = times[row, 0], times[row, 1]
        m_old, m_new = statistics.median(old), statistics.median(new)
        q_old, q_new = (statistics.quantiles(t, n=4) if runs > 1 else [t[0]] * 3 for t in (old, new))
        wins = sum(b < a for a, b in zip(old, new))
        print(f"{row:<12} {1e3 * m_old:7.1f} {1e3 * m_new:7.1f} {m_new / m_old - 1:+7.1%}  "
              f"{1e3 * q_old[0]:6.1f}-{1e3 * q_old[2]:<6.1f}  {1e3 * q_new[0]:6.1f}-{1e3 * q_new[2]:<6.1f}  "
              f"{wins}/{runs}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
