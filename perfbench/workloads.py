"""The three benchmark workloads: seeded inputs, the calls that run them, checks.

Inputs depend only on the workload seed and the pass index. The program
sees only the generated CLI argv (``cipc-trials``, ``lob-an-grid``) or
library arguments (``metrics-queries``). Checks never use byte digests of
Monte Carlo output, so they keep passing when the random-number scheme
changes: CSV rows are checked for internal consistency and recomputed
through the scalar library, and Monte Carlo frequencies are compared with
an analytic law or a reference table within 4 standard errors.

This module imports no third-party package at top level, so the worker
process holds only what fblsec itself imports.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections.abc import Iterable, Iterator
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
METRICS_REFERENCE = REFERENCE_DIR / "metrics_queries.txt"
LOB_REFERENCE = REFERENCE_DIR / "lob_feasibility.json"

#: Statistical checks fail beyond this many standard errors.
Z_LIMIT = 4.0


class CheckError(Exception):
    """An output of the program is wrong."""


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    """|a - b| at most ``rel`` times the largest of 1, |a| and |b|.

    For CSV values printed to a fixed number of digits and sums of them.
    Answers are compared with the reference by a purely relative test.
    """
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    # String seeds are hashed with SHA-512, stable across Python versions.
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _stdout_value(stdout: str, key: str) -> str:
    prefix = f"{key} = "
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    raise CheckError(f"stdout has no {key!r} line")


def _csv_rows(lines: Iterable[str], header: list[str], rows: int) -> Iterator[list[str]]:
    """Yield the fields of each row of a CSV read line by line, checking its shape.

    ``lines`` keep their newlines, as a text file yields them. The row
    count is checked when the last row has been taken, so a caller must
    exhaust the iterator. Only one row is held at a time, so a check adds
    little to the peak memory of the process that runs it.
    """
    lines = iter(lines)
    first = next(lines, "")
    if first.rstrip("\n").split(",") != header:
        raise CheckError(f"CSV header {first.rstrip()!r} differs from {','.join(header)!r}")
    count = 0
    for line in lines:
        if not line.endswith("\n"):
            raise CheckError("CSV does not end with a newline")
        fields = line[:-1].split(",")
        if len(fields) != len(header):
            raise CheckError(f"row {count} has {len(fields)} fields, expected {len(header)}")
        yield fields
        count += 1
    if count != rows:
        raise CheckError(f"CSV has {count} rows, expected {rows}")


# ----------------------------------------------------------------------
# cipc-trials: `fblsec cipc --out`, one op per trial
# ----------------------------------------------------------------------

CIPC_HEADER = ["trial_id", "p_t", "gamma_b_db", "gamma_e_db", "r_sup", "r_inf", "delta_r", "feasible"]
CIPC_ANTENNAS = 4
#: Rows per invocation recomputed through the scalar rate_interval.
CIPC_SAMPLE_ROWS = 48


def cipc_invocations(seed: int, pass_index: int, quick: bool) -> list[dict]:
    """One pass: two CLI runs with drawn Q, p_max and reciprocity error.

    p_max is drawn so that Q/p_max lies in [2.4, 2.6], which suspends 22%
    to 26% of trials with 4 antennas; the narrow range keeps the cost of
    every pass about the same. 5000 trials per run make the records and
    rows that the CLI holds about 5% of the process's peak memory.
    """
    rng = _rng("cipc-trials", seed, pass_index)
    runs = []
    for _ in range(2):
        q = rng.uniform(0.8, 1.25)
        runs.append({
            "trials": 200 if quick else 5000,
            "antennas": CIPC_ANTENNAS,
            "q_target": q,
            "p_max": q / rng.uniform(2.4, 2.6),
            "sigma_delta": rng.uniform(0.05, 0.2),
            "seed": rng.getrandbits(63),
        })
    return runs


def cipc_argv(run: dict, out: str) -> list[str]:
    return [
        "cipc", "--out", out,
        "--trials", str(run["trials"]),
        "--antennas", str(run["antennas"]),
        "--q-target", repr(run["q_target"]),
        "--p-max", repr(run["p_max"]),
        "--sigma-delta", repr(run["sigma_delta"]),
        "--seed", str(run["seed"]),
    ]


def check_cipc(fblsec, run: dict, lines: Iterable[str], stdout: str, rng: random.Random) -> dict:
    """Check one CIPC CSV, read line by line; return the facts the suspension-law check needs.

    Every row: trial ids in order, suspended rows empty and infeasible,
    0 < p_t <= p_max, delta_r = r_sup - r_inf and feasible = (delta_r >= 0).
    A random sample of transmitted rows, drawn by reservoir sampling:
    r_sup, r_inf, delta_r and feasible recomputed from the row's SNRs
    through the scalar rate_interval.
    """
    transmitted = 0
    sample: list[list[str]] = []
    for i, f in enumerate(_csv_rows(lines, CIPC_HEADER, run["trials"])):
        if f[0] != str(i):
            raise CheckError(f"row {i} has trial_id {f[0]!r}")
        if f[1] == "suspended":
            if f[2:7] != [""] * 5 or f[7] != "false":
                raise CheckError(f"suspended row {i} carries values: {f}")
            continue
        p_t, _, _, r_sup, r_inf, delta_r = (float(x) for x in f[1:7])
        if not 0.0 < p_t <= run["p_max"] * (1.0 + 1e-12):
            raise CheckError(f"row {i}: p_t={p_t} outside (0, p_max={run['p_max']}]")
        if not _close(delta_r, r_sup - r_inf):
            raise CheckError(f"row {i}: delta_r={delta_r} but r_sup - r_inf={r_sup - r_inf}")
        if f[7] != ("true" if delta_r >= 0.0 else "false"):
            raise CheckError(f"row {i}: feasible={f[7]} with delta_r={delta_r}")
        if len(sample) < CIPC_SAMPLE_ROWS:
            sample.append(f)
        else:
            j = rng.randrange(transmitted + 1)
            if j < CIPC_SAMPLE_ROWS:
                sample[j] = f
        transmitted += 1

    constraints = fblsec.ConstraintPair(beta_b=1e-6, beta_e=0.5)
    for f in sample:
        gamma_b = 10.0 ** (float(f[2]) / 10.0)
        gamma_e = 10.0 ** (float(f[3]) / 10.0)
        a = fblsec.rate_interval(500, gamma_b, gamma_e, constraints)
        for name, want, got in (("r_sup", a.r_sup, f[4]), ("r_inf", a.r_inf, f[5]), ("delta_r", a.delta_r, f[6])):
            if not _close(want, float(got)):
                raise CheckError(f"trial {f[0]}: {name}={got}, rate_interval gives {want!r}")
        if abs(a.delta_r) > 1e-9 and (f[7] == "true") != a.feasible:
            raise CheckError(f"trial {f[0]}: feasible={f[7]}, rate_interval gives {a.feasible}")

    suspended = run["trials"] - transmitted
    printed = float(_stdout_value(stdout, "suspension_prob"))
    if abs(printed - suspended / run["trials"]) > 1e-6:
        raise CheckError(f"printed suspension_prob {printed} != CSV share {suspended / run['trials']}")
    return {
        "trials": run["trials"],
        "suspended": suspended,
        "antennas": run["antennas"],
        "threshold": run["q_target"] / run["p_max"],
        "rows": run["trials"],
    }


def suspension_law_problems(facts: list[dict]) -> list[str]:
    """Compare suspension counts with P(||h||^2 < Q/p_max), ||h||^2 ~ Erlang(N).

    Uses scipy.stats, not fblsec. Each invocation must lie within 6
    standard errors, and the count pooled over the run within Z_LIMIT.
    """
    from scipy.stats import gamma

    problems = []
    observed = expected = variance = 0.0
    for k, fact in enumerate(facts):
        p = float(gamma.cdf(fact["threshold"], a=fact["antennas"]))
        n = fact["trials"]
        var = max(n * p * (1.0 - p), 1e-12)
        z = (fact["suspended"] - n * p) / math.sqrt(var)
        if abs(z) > 6.0:
            problems.append(f"cipc invocation {k}: {fact['suspended']}/{n} suspended, law gives {p:.5f} (z={z:.2f})")
        observed += fact["suspended"]
        expected += n * p
        variance += var
    if facts:
        z = (observed - expected) / math.sqrt(variance)
        if abs(z) > Z_LIMIT:
            problems.append(f"cipc pooled suspension count {observed:.0f} vs law {expected:.1f} (z={z:.2f})")
    return problems


# ----------------------------------------------------------------------
# lob-an-grid: `fblsec optimize-an`, one op per trial and grid point
# ----------------------------------------------------------------------

#: Scenarios with feasibility well inside (0, 1), bearing error and finite
#: Rician K, so an_basis and the Rician scatter draw run on every trial.
LOB_CONFIGS = (
    {"antennas": 4, "theta_eve_deg": 15.0, "loc_error_deg": 5.0, "k_bob": 5.0, "k_eve": 1.0, "noise_b": 0.1, "noise_e": 0.01},
    {"antennas": 4, "theta_eve_deg": 12.0, "loc_error_deg": 6.0, "k_bob": 4.0, "k_eve": 1.0, "noise_b": 0.1, "noise_e": 0.02},
    {"antennas": 6, "theta_eve_deg": 10.0, "loc_error_deg": 4.0, "k_bob": 5.0, "k_eve": 1.0, "noise_b": 0.1, "noise_e": 0.01},
    {"antennas": 8, "theta_eve_deg": 8.0, "loc_error_deg": 3.0, "k_bob": 6.0, "k_eve": 2.0, "noise_b": 0.1, "noise_e": 0.01},
)
#: Artificial-noise shares; all positive, so every trial builds the AN basis.
PHI_GRID = (0.05, 0.15, 0.25, 0.35, 0.5, 0.65)


def lob_invocations(seed: int, pass_index: int, quick: bool) -> list[dict]:
    """One pass: every scenario once, in seeded order."""
    rng = _rng("lob-an-grid", seed, pass_index)
    order = list(range(len(LOB_CONFIGS)))
    rng.shuffle(order)
    return [
        {"config": c, "trials": 20 if quick else 100, "seed": rng.getrandbits(63)}
        for c in order
    ]


def lob_argv(run: dict, out: str) -> list[str]:
    cfg = LOB_CONFIGS[run["config"]]
    argv = ["optimize-an", "--out", out, "--trials", str(run["trials"]), "--seed", str(run["seed"])]
    argv += ["--phi-grid"] + [repr(phi) for phi in PHI_GRID]
    for key, value in cfg.items():
        argv += ["--" + key.replace("_", "-"), repr(value) if isinstance(value, float) else str(value)]
    return argv


def check_lob(run: dict, lines: Iterable[str], stdout: str) -> dict:
    """Check one optimize-an CSV, read line by line; return feasible-trial counts per grid point."""
    rows = list(_csv_rows(lines, ["phi", "objective"], len(PHI_GRID)))
    trials = run["trials"]
    successes = []
    for phi, (phi_text, objective_text) in zip(PHI_GRID, rows):
        if not _close(float(phi_text), phi, 1e-12):
            raise CheckError(f"grid point {phi_text} differs from {phi}")
        scaled = float(objective_text) * trials
        k = round(scaled)
        if abs(scaled - k) > 1e-6 or not 0 <= k <= trials:
            raise CheckError(f"objective {objective_text} is not a share of {trials} trials")
        successes.append(k)
    best = max(range(len(PHI_GRID)), key=lambda j: (successes[j], -PHI_GRID[j]))
    printed = float(_stdout_value(stdout, "phi_star"))
    if not _close(printed, PHI_GRID[best], 1e-8):
        raise CheckError(f"printed phi_star {printed} but the CSV's best share is at {PHI_GRID[best]}")
    return {"config": run["config"], "trials": trials, "successes": successes, "rows": len(PHI_GRID)}


def lob_reference() -> dict:
    ref = json.loads(LOB_REFERENCE.read_text())
    if ref["configs"] != [dict(c) for c in LOB_CONFIGS] or ref["phi_grid"] != list(PHI_GRID):
        raise CheckError(f"{LOB_REFERENCE.name} was made for other scenarios; rerun make_reference.py")
    return ref


def lob_feasibility_problems(facts: list[dict], ref: dict) -> list[str]:
    """Pooled feasible counts per grid point against the reference, within Z_LIMIT.

    The variance adds the binomial variance of this run to that of the
    reference estimate, which is shared by every invocation of a scenario.
    """
    problems = []
    n_ref = ref["trials"]
    for j, phi in enumerate(PHI_GRID):
        observed = expected = variance = 0.0
        for c in range(len(LOB_CONFIGS)):
            n = sum(f["trials"] for f in facts if f["config"] == c)
            if n == 0:
                continue
            observed += sum(f["successes"][j] for f in facts if f["config"] == c)
            k_ref = ref["successes"][c][j]
            p = k_ref / n_ref
            p_var = (k_ref + 2.0) / (n_ref + 4.0)  # keeps the variance positive at 0 or 1
            expected += n * p
            variance += n * p_var * (1.0 - p_var) * (1.0 + n / n_ref)
        if variance > 0.0:
            z = (observed - expected) / math.sqrt(variance)
            if abs(z) > Z_LIMIT:
                problems.append(f"lob phi={phi}: {observed:.0f} feasible trials vs reference {expected:.1f} (z={z:.2f})")
    return problems


# ----------------------------------------------------------------------
# metrics-queries: library calls, one op per query
# ----------------------------------------------------------------------

QUERY_KINDS = ("rate_interval", "security_gap", "ber_security_gap", "min_blocklength")
POOL_SEED = "fblsec-metrics-queries-pool-v2"
#: Larger than the q_func_inv cache (4096 entries) divided by the two
#: constraint values per rate_interval/min_blocklength query, so walking
#: the pool in order keeps missing that cache.
POOL_SIZE = 6144
#: (n_bits, correction capabilities) of BCH-like codes from n=63 to 2047.
BER_CODES = (
    (63, (1, 3, 6)),
    (127, (2, 5, 10)),
    (255, (3, 8, 18)),
    (511, (5, 12, 30)),
    (1023, (10, 25, 50)),
    (2047, (20, 50, 100)),
)
#: Queries in one round of every kind and every BER code; the pool and a
#: pass are whole numbers of blocks, so every pass has the same mix.
BLOCK = len(QUERY_KINDS) * len(BER_CODES)
QUERIES_PER_PASS = 20 * BLOCK


def _constraint_values(rng: random.Random) -> tuple[float, float]:
    # beta_e on both sides of 0.5, so r_inf's warning path runs too.
    return 10.0 ** rng.uniform(-9.0, -2.0), rng.uniform(0.3, 0.7)


def query_pool() -> list[tuple]:
    """The fixed query pool: QUERY_KINDS round robin, BER codes in turn."""
    rng = random.Random(POOL_SEED)
    pool = []
    for i in range(POOL_SIZE):
        kind = QUERY_KINDS[i % len(QUERY_KINDS)]
        if kind == "rate_interval":
            n = round(10.0 ** rng.uniform(1.7, 3.7))
            gamma_b = 10.0 ** (rng.uniform(0.0, 20.0) / 10.0)
            gamma_e = 10.0 ** (rng.uniform(-10.0, 10.0) / 10.0)
            pool.append((kind, n, gamma_b, gamma_e, *_constraint_values(rng)))
        elif kind == "security_gap":
            n = round(10.0 ** rng.uniform(1.7, 3.7))
            pool.append((kind, n, rng.uniform(0.1, 3.0), *_constraint_values(rng)))
        elif kind == "ber_security_gap":
            n_bits, ts = BER_CODES[i // len(QUERY_KINDS) % len(BER_CODES)]
            pool.append((kind, n_bits, rng.choice(ts), 10.0 ** rng.uniform(-7.0, -3.0), rng.uniform(0.3, 0.5)))
        else:
            gamma_b = 10.0 ** (rng.uniform(0.0, 20.0) / 10.0)
            gamma_e = 10.0 ** (rng.uniform(-10.0, 10.0) / 10.0)
            pool.append((kind, gamma_b, gamma_e, *_constraint_values(rng)))
    return pool


def pool_digest(pool: list[tuple]) -> str:
    return hashlib.sha256(repr(pool).encode()).hexdigest()


def query_start(seed: int) -> int:
    return BLOCK * random.Random(f"metrics-queries:{seed}").randrange(POOL_SIZE // BLOCK)


def query_call(fblsec, query: tuple):
    """Bind one query to a zero-argument call of the library."""
    kind = query[0]
    if kind == "rate_interval":
        _, n, gamma_b, gamma_e, beta_b, beta_e = query
        return lambda: fblsec.rate_interval(n, gamma_b, gamma_e, fblsec.ConstraintPair(beta_b, beta_e))
    if kind == "security_gap":
        _, n, rate, beta_b, beta_e = query
        return lambda: fblsec.security_gap(n, rate, fblsec.ConstraintPair(beta_b, beta_e))
    if kind == "ber_security_gap":
        _, n_bits, t, ber_b, ber_e = query
        return lambda: fblsec.ber_security_gap(fblsec.CodeSpec(n_bits, t), fblsec.BerThresholds(ber_b, ber_e))
    _, gamma_b, gamma_e, beta_b, beta_e = query
    return lambda: fblsec.min_blocklength(gamma_b, gamma_e, fblsec.ConstraintPair(beta_b, beta_e))


def query_answer(kind: str, result) -> tuple:
    """The values of a query result that the reference table records."""
    if kind == "rate_interval":
        return (result.r_sup, result.r_inf)
    if kind in ("security_gap", "ber_security_gap"):
        answer = (result.snr_b_min, result.snr_e_max)
        if kind == "ber_security_gap":
            answer += (int(result.bob_at_bracket_edge), int(result.eve_at_bracket_edge))
        return answer
    return (result,)


def check_query(kind: str, result, want: tuple) -> None:
    """Compare with the reference to 1e-9 relative, with no absolute floor; min_blocklength exactly."""
    got = query_answer(kind, result)
    if kind == "min_blocklength":
        if got != want:
            raise CheckError(f"min_blocklength {got[0]}, reference {want[0]}")
        return
    for g, w in zip(got, want):
        mismatch = (not math.isclose(g, w, rel_tol=1e-9, abs_tol=0.0)) if isinstance(w, float) else g != w
        if mismatch:
            raise CheckError(f"{kind} gives {got}, reference {want}")
    if kind == "rate_interval":
        if not _close(result.delta_r, result.r_sup - result.r_inf) or result.feasible != (result.delta_r >= 0.0):
            raise CheckError(f"rate_interval inconsistent: {result}")
    else:
        if not _close(result.gap_linear, result.snr_b_min / result.snr_e_max):
            raise CheckError(f"{kind} gap inconsistent: {result}")


def format_answer(answer: tuple) -> str:
    return " ".join("none" if v is None else (f"{v:.15e}" if isinstance(v, float) else str(v)) for v in answer)


def parse_answer(fields: list[str]) -> tuple:
    return tuple(None if v == "none" else (float(v) if "e" in v else int(v)) for v in fields)


def metrics_reference(pool: list[tuple]) -> list[tuple]:
    """Reference answers for the pool, checked to belong to this very pool."""
    lines = METRICS_REFERENCE.read_text().splitlines()
    header = dict(
        part.strip().split(" = ", 1) for part in lines[1].lstrip("# ").split(";")
    )
    if header.get("params_sha256") != pool_digest(pool):
        raise CheckError(f"{METRICS_REFERENCE.name} was made for another query pool; rerun make_reference.py")
    answers = []
    for i, line in enumerate(lines[2:]):
        index, kind, *fields = line.split()
        if int(index) != i or kind != pool[i][0]:
            raise CheckError(f"{METRICS_REFERENCE.name} line {i + 3} does not match the pool")
        answers.append(parse_answer(fields))
    if len(answers) != len(pool):
        raise CheckError(f"{METRICS_REFERENCE.name} has {len(answers)} answers for {len(pool)} queries")
    return answers
