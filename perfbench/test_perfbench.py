"""Tests of the benchmark itself.

Every workload, at its smallest size, emits every metric BENCHMARK.json
names with no failed op; the output checks reject a corrupted CSV; and
the traced counts repeat exactly for the same seed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    """Run the benchmark at its smallest size; return stdout lines and the result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout[-3000:]
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_named_metric(workload, trace):
    lines, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_ratio = 0.0 ratio" in lines
    assert any(line.startswith("environment {") for line in lines)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        assert trace or entry["value"] > 0, m["name"]


def test_layers_that_a_workload_bypasses_read_zero():
    _, cipc = bench("cipc-trials", 1)
    _, queries = bench("metrics-queries", 1)
    assert cipc["metrics"]["lob.an_basis.calls"]["value"] == 0
    assert cipc["metrics"]["channels.draws_per_trial_point"]["value"] == 1.0
    assert queries["metrics"]["channels.draws"]["value"] == 0
    assert queries["metrics"]["cli.main.calls"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_the_same_seed(workload, tmp_path):
    """A second traced process, started as run.py starts it, counts the same."""
    import run

    lines, first = bench(workload, 1)
    first_calls = {k: v["calls"] for k, v in json.loads(_line(lines, "trace ")).items()}
    result = tmp_path / "traced.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "3",
         "--workdir", str(tmp_path), "--result", str(result), "--passes", "1", "--trace", "--quick"],
        cwd=ROOT, env=run.pinned_environment(), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    second = json.loads(result.read_text())
    assert {k: v["calls"] for k, v in second["trace"].items()} == first_calls
    assert second["draws"] == first["metrics"]["channels.draws"]["value"]
    assert second["output_bytes"] == first["metrics"]["cli.output_bytes"]["value"]


def _line(lines: list[str], prefix: str) -> str:
    (line,) = [line for line in lines if line.startswith(prefix)]
    return line[len(prefix):]


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def cipc_output(tmp_path_factory):
    import fblsec
    import fblsec.cli

    run = wl.cipc_invocations(seed=5, pass_index=0, quick=True)[0]
    out = tmp_path_factory.mktemp("cipc") / "cipc.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert fblsec.cli.main(wl.cipc_argv(run, str(out))) == 0
    return fblsec, run, out.read_text(), stdout.getvalue()


def _check(cipc_output, text):
    fblsec, run, _, stdout = cipc_output
    return wl.check_cipc(fblsec, run, io.StringIO(text), stdout, random.Random(0))


def _edit_row(text: str, want_suspended: bool, edit) -> str:
    lines = text.split("\n")
    for i in range(1, len(lines) - 1):
        fields = lines[i].split(",")
        if (fields[1] == "suspended") == want_suspended:
            lines[i] = ",".join(edit(fields))
            return "\n".join(lines)
    raise AssertionError("no row of the requested kind")


def test_cipc_check_accepts_program_output(cipc_output):
    fact = _check(cipc_output, cipc_output[2])
    assert 0 < fact["suspended"] < fact["trials"]


@pytest.mark.parametrize("suspended", [False, True])
def test_cipc_check_catches_a_flipped_feasible_cell(cipc_output, suspended):
    def flip(fields):
        fields[7] = "false" if fields[7] == "true" else "true"
        return fields

    with pytest.raises(wl.CheckError):
        _check(cipc_output, _edit_row(cipc_output[2], suspended, flip))


def test_cipc_check_catches_a_shifted_delta_r(cipc_output):
    def shift(fields):
        fields[6] = f"{float(fields[6]) + 1e-6:.12e}"
        return fields

    with pytest.raises(wl.CheckError):
        _check(cipc_output, _edit_row(cipc_output[2], False, shift))


def test_suspension_law_flags_a_biased_count():
    fact = {"trials": 4000, "antennas": 4, "threshold": 2.5}  # law: 24.2% suspended
    assert wl.suspension_law_problems([dict(fact, suspended=968)]) == []
    assert wl.suspension_law_problems([dict(fact, suspended=1100)]) != []


def test_query_check_catches_a_perturbed_answer():
    import fblsec

    pool = wl.query_pool()
    reference = wl.metrics_reference(pool)
    for i in range(len(wl.QUERY_KINDS)):
        kind = pool[i][0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # beta_e > 0.5 warns by design
            result = wl.query_call(fblsec, pool[i])()
        wl.check_query(kind, result, reference[i])
        wrong = tuple(v * (1 + 1e-7) if isinstance(v, float) else (v or 0) + 1 for v in reference[i])
        with pytest.raises(wl.CheckError):
            wl.check_query(kind, result, wrong)


def test_query_check_is_relative_below_one():
    """A 1e-7 relative error in an answer below 1e-2 is caught."""
    import fblsec

    pool = wl.query_pool()
    reference = wl.metrics_reference(pool)
    i, k = next((i, k) for i, want in enumerate(reference) for k, v in enumerate(want)
                if isinstance(v, float) and abs(v) < 1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = wl.query_call(fblsec, pool[i])()
    wl.check_query(pool[i][0], result, reference[i])
    wrong = list(reference[i])
    wrong[k] *= 1 + 1e-7
    with pytest.raises(wl.CheckError):
        wl.check_query(pool[i][0], result, tuple(wrong))
