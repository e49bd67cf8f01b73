import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import math

import fblsec
from fblsec import __version__, _rows, cli
from fblsec.cipc import run_cipc
from fblsec.cli import _COMMANDS, main
from fblsec.lob import run_lob
from fblsec.fb_coding import capacity, db_to_linear, linear_to_db


def fresh_python(cwd, code: str, *argv: str) -> subprocess.CompletedProcess:
    """code run with argv in a fresh interpreter that imports this fblsec."""
    src = str(Path(fblsec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True)


def read(path):
    return path.read_bytes()


def rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestFig2Command:
    def test_row_count_and_grid(self, tmp_path):
        out = tmp_path / "f.csv"
        code = main(
            ["fig2", "--out", str(out), "--n-list", "100", "200", "500", "--steps", "100"]
        )
        assert code == 0
        header, body = rows(out)
        assert header == ["n", "rate", "epsilon"]
        assert len(body) == 300

    def test_epsilon_half_at_capacity(self, tmp_path):
        cap = capacity(db_to_linear(10.0))
        out = tmp_path / "f.csv"
        main(
            [
                "fig2", "--out", str(out), "--n-list", "128", "--steps", "2",
                "--rate-min", repr(cap), "--rate-max", repr(2 * cap),
            ]
        )
        _, body = rows(out)
        assert body[0][2] == "5.000000000000e-01"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["fig2", "--n-list", "100", "200", "--steps", "25"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_manifest_replay(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["fig2", "--out", str(a), "--n-list", "300", "--steps", "10"])
        manifest = tmp_path / "a.csv.manifest"
        assert manifest.exists()
        assert main(["fig2", "--config", str(manifest), "--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_wrong_command_config_rejected(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        main(["fig2", "--out", str(out), "--n-list", "50", "--steps", "5"])
        code = main(["fig3", "--config", str(out) + ".manifest", "--out", str(tmp_path / "b.csv")])
        assert code == 2
        assert "fig3" in capsys.readouterr().err

    def test_bad_rate_range(self, tmp_path):
        code = main(
            [
                "fig2", "--out", str(tmp_path / "x.csv"),
                "--rate-min", "2.0", "--rate-max", "1.0",
            ]
        )
        assert code == 2


class TestFig3Command:
    def test_columns_and_shape(self, tmp_path):
        out = tmp_path / "f3.csv"
        assert main(["fig3", "--out", str(out), "--n-count", "25"]) == 0
        header, body = rows(out)
        assert header == ["n", "r_b_eps", "r_e_eps", "delta_r", "feasible"]
        floor = {row[2] for row in body}
        assert len(floor) == 1  # horizontal floor at beta_e = 0.5
        ceilings = [float(row[1]) for row in body]
        assert all(b > a for a, b in zip(ceilings, ceilings[1:]))
        flips = sum(a != b for a, b in zip(
            [row[4] for row in body], [row[4] for row in body][1:]
        ))
        assert flips <= 1

    def test_feasibility_flip_visible(self, tmp_path):
        out = tmp_path / "f3.csv"
        main(
            [
                "fig3", "--out", str(out), "--n-min", "1", "--n-max", "100",
                "--n-count", "60", "--snr-b-db", "10", "--snr-e-db", "0",
            ]
        )
        _, body = rows(out)
        feasible = [row[4] == "true" for row in body]
        assert feasible[0] is False and feasible[-1] is True
        first_true = feasible.index(True)
        assert all(feasible[first_true:])
        assert int(body[first_true][0]) == 8  # crossover blocklength


class TestMetricCommands:
    def test_interval_equal_snrs_infeasible(self, capsys):
        assert main(["interval", "--n", "500", "--snr-b-db", "3", "--snr-e-db", "3"]) == 0
        out = capsys.readouterr().out
        assert "feasible = false" in out
        assert "delta_r = -" in out

    def test_snrs_where_one_plus_gamma_rounds_to_one(self, capsys):
        # At -160 dB both rate bounds are slightly negative: Bob's ceiling is
        # clamped to 0 and Eve's floor is positive, so no rate is secure.
        assert main(["interval", "--n", "500", "--snr-b-db", "-160", "--snr-e-db", "-160"]) == 0
        assert "feasible = false" in capsys.readouterr().out
        assert main(["lob", "--trials", "200", "--noise-b", "1e20", "--noise-e", "1e20"]) == 0
        assert "feasibility_prob = 0.000000" in capsys.readouterr().out

    def test_gap_eve_threshold_anchor(self, capsys):
        assert main(["gap", "--n", "500", "--rate", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "snr_e_max_db = 0.000000" in out  # 2^1 - 1 = 1 -> 0 dB

    def test_gap_csv(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["gap", "--n", "500", "--rate", "1.0", "--out", str(out)]) == 0
        header, body = rows(out)
        assert header == ["snr_b_min_db", "snr_e_max_db", "gap_db", "gap_linear"]
        assert len(body) == 1

    def test_minblock_trivial_scenario(self, capsys):
        assert (
            main(
                [
                    "minblock", "--snr-b-db", "10", "--snr-e-db", "0",
                    "--beta-b", "0.4999999", "--beta-e", "0.5",
                ]
            )
            == 0
        )
        assert "n_star = 1" in capsys.readouterr().out

    def test_minblock_infeasible_exit_code(self, capsys):
        code = main(["minblock", "--snr-b-db", "0", "--snr-e-db", "10", "--n-max", "1000"])
        assert code == 3
        captured = capsys.readouterr()
        assert "n_star = infeasible" in captured.out

    def test_gap_unsatisfiable_exit_code(self, capsys):
        assert main(["gap", "--n", "500", "--rate", "99"]) == 3
        assert "reliability" in capsys.readouterr().err


class TestSimulatorCommands:
    def test_cipc_rows_and_constant_bob_snr(self, tmp_path):
        out = tmp_path / "c.csv"
        assert (
            main(["cipc", "--trials", "50", "--sigma-delta", "0", "--out", str(out)]) == 0
        )
        header, body = rows(out)
        assert header == [
            "trial_id", "p_t", "gamma_b_db", "gamma_e_db",
            "r_sup", "r_inf", "delta_r", "feasible",
        ]
        assert len(body) == 50
        active_db = {row[2] for row in body if row[1] != "suspended"}
        assert len(active_db) == 1
        for row in body:
            if row[1] == "suspended":
                assert row[2:7] == ["", "", "", "", ""] and row[7] == "false"

    def test_cipc_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["cipc", "--trials", "40", "--seed", "777", "--sigma-delta", "0.1"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert read(a) == read(b)

    def test_lob_full_an_all_infeasible(self, tmp_path):
        out = tmp_path / "l.csv"
        assert main(["lob", "--trials", "25", "--an-fraction", "1.0", "--out", str(out)]) == 0
        _, body = rows(out)
        assert len(body) == 25
        assert all(row[7] == "false" for row in body)
        assert all(row[2] == "-inf" for row in body)

    def test_lob_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["lob", "--trials", "30", "--seed", "31415", "--loc-error-deg", "2.5"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert read(a) == read(b)

    def test_optimize_q_curve(self, tmp_path):
        out = tmp_path / "q.csv"
        code = main(
            [
                "optimize-q", "--q-grid", "0.5", "1.0", "2.0",
                "--trials", "60", "--out", str(out),
            ]
        )
        assert code == 0
        header, body = rows(out)
        assert header == ["q", "objective"]
        assert len(body) == 3

    def test_optimize_an_rejects_phi_one(self):
        assert main(["optimize-an", "--phi-grid", "0.0", "1.0", "--trials", "10"]) == 2


class TestErrorPaths:
    def test_unknown_command(self):
        assert main(["never-heard-of-it"]) == 2

    def test_invalid_flag_value(self):
        assert main(["fig2", "--out", "x.csv", "--steps", "ten"]) == 2

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["lob", "--trials", "3", "--power", "inf", "--an-fraction", "0"], "total_power"),
            (["lob", "--trials", "3", "--noise-e", "inf"], "noise_power_eve"),
            (["cipc", "--trials", "3", "--noise-b", "inf"], "noise_power_bob"),
            (["cipc", "--trials", "3", "--q-target", "inf"], "q_target"),
        ],
    )
    def test_non_finite_power_or_noise_rejected(self, argv, name, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{name} must be positive and finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["lob", "--trials", "3", "--loc-error-deg", "inf"], "location_error_std"),
            (["cipc", "--trials", "3", "--sigma-delta", "inf"], "sigma_delta"),
        ],
    )
    def test_non_finite_bearing_or_reciprocity_error_rejected(self, argv, name, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{name} must be finite and >= 0, got inf" in captured.err
        assert "RuntimeWarning" not in captured.err
        assert captured.out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["cipc", "--trials", "200", "--noise-e", "5e-324"], "noise_power_eve=5e-324"),
            (["lob", "--trials", "200", "--noise-b", "1e-320", "--an-fraction", "0"],
             "noise_power_bob=1e-320"),
        ],
    )
    def test_snr_overflow_names_the_noise_power(self, argv, name, capsys):
        # Every flag passes its own check; the SNR over the tiny noise power overflows.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{name} exceeds the largest double" in captured.err
        assert "RuntimeWarning" not in captured.err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["cipc", "--trials", "200", "--q-target", "1e308", "--p-max", "inf"],
             "the transmit power overflows to inf: at q_target=1e+308 and p_max=inf"),
            (["cipc", "--trials", "20", "--antennas", "4", "--q-target", "1e308", "--p-max", "1e308",
              "--sigma-delta", "0.5", "--seed", "0"],
             "Bob's received power overflows to inf: at q_target=1e+308"),
            # LOB names its power input the same way.
            (["lob", "--trials", "50", "--power", "1e308", "--an-fraction", "0.5"],
             "Bob's received power overflows to inf: at total_power=1e+308"),
            # An artificial-noise power that overflows, which would read as an SINR of 0.
            *((flags + ["--trials", "2000", "--power", "1.7976931348623157e308", "--noise-b",
                        "1.7976931348623157e306", "--noise-e", "1.7976931348623157e306"],
               "Eve's interference-plus-noise power overflows to inf: "
               "at total_power=1.7976931348623157e+308")
              for flags in (["lob", "--an-fraction", "0.9"], ["optimize-an", "--phi-grid", "0.9"])),
        ],
    )
    def test_power_overflow_names_q_target(self, flags, message, tmp_path):
        # A fresh interpreter, so a numpy warning would print to stderr.
        proc = fresh_python(
            tmp_path, "import sys; from fblsec.cli import main; sys.exit(main(sys.argv[1:]))", *flags
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: invalid arguments: {message} it exceeds the largest double\n"

    @pytest.mark.parametrize("argv", [
        ["interval", "--n", "10", "--snr-b-db", "3090"],
        ["fig2", "--out", "f.csv", "--snr-db", "3090"],
        ["fig3", "--out", "f.csv", "--snr-e-db", "3090"],
        ["minblock", "--snr-b-db", "3090"],
    ], ids=["interval", "fig2", "fig3", "minblock"])
    def test_db_overflow_names_the_db_value(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: invalid arguments: 3090.0 dB overflows a linear power ratio\n"
        assert list(tmp_path.iterdir()) == []

    def test_rate_far_above_capacity_is_unsatisfiable(self, capsys):
        # At 1e307 Q's argument reads -inf, an error probability of 1, as at --rate 100.
        assert main(["gap", "--n", "10", "--rate", "1e307"]) == 3
        err = capsys.readouterr().err
        assert main(["gap", "--n", "10", "--rate", "100"]) == 3
        assert err == capsys.readouterr().err
        assert "stays above 1e-06 even at the 60.0 dB end" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag, value", [("--rate-max", "inf"), ("--rate-min", "-inf"),
                                             ("--rate-min", "nan")])
    def test_fig2_non_finite_rate_names_the_flag(self, flag, value, tmp_path, capsys):
        assert main(["fig2", "--out", str(tmp_path / "f.csv"), f"{flag}={value}"]) == 2
        assert capsys.readouterr().err == f"error: invalid arguments: {flag} must be finite, got {float(value)!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_io_failure(self, tmp_path):
        missing_dir = tmp_path / "not" / "there" / "f.csv"
        assert main(["fig2", "--out", str(missing_dir)]) == 4

    @pytest.mark.parametrize(
        "flags", [["--conf", "a.csv.manifest"], ["--c", "a.csv.manifest"], ["--conf=a.csv.manifest"]]
    )
    def test_abbreviated_config_refused(self, flags, tmp_path, capsys, monkeypatch):
        # An abbreviation would be parsed as --config but never read, so the
        # run would silently use the defaults instead of the manifest.
        monkeypatch.chdir(tmp_path)
        assert main(["cipc", "--trials", "30", "--seed", "7", "--out", "a.csv"]) == 0
        capsys.readouterr()
        assert main(["cipc", *flags, "--out", "b.csv"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.csv.manifest"]

    def test_abbreviated_flag_refused(self, tmp_path, capsys):
        assert main(["cipc", "--tri", "5", "--out", str(tmp_path / "c.csv")]) == 2
        assert "unrecognized arguments: --tri" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_parse_error_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("# fine\nnot a pair\n")
        assert main(["fig2", "--out", str(tmp_path / "o.csv"), "--config", str(bad)]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("steps = 10\nn_list = 50\n")
        out = tmp_path / "o.csv"
        assert (
            main(
                ["fig2", "--config", str(cfg), "--steps", "4", "--out", str(out)]
            )
            == 0
        )
        _, body = rows(out)
        assert len(body) == 4  # explicit flag beats the file


class TestNegativeValues:
    """argparse takes a token such as -1e1 or -inf for an option, not a value."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["interval", "--n", "500", "--snr-e-db=-0.00001"],
            ["lob", "--trials", "20", "--theta-eve-deg=-1e-5"],
        ],
    )
    def test_manifest_with_exponent_form_replays(self, argv, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*argv, "--out", str(a)]) == 0
        assert "= -1e-05\n" in (tmp_path / "a.csv.manifest").read_text()
        assert main([argv[0], "--config", str(a) + ".manifest", "--out", str(b)]) == 0
        assert read(a) == read(b)

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["interval", "--n", "500"], "--snr-e-db", "-1e1"),
            (["lob", "--trials", "20"], "--theta-eve-deg", "-1e-5"),
        ],
    )
    def test_separate_token_equals_joined(self, argv, flag, value, capsys):
        def stdout(*flags):
            assert main([*argv, *flags]) == 0
            lines = capsys.readouterr().out.splitlines()
            return [line for line in lines if not line.startswith("timestamp = ")]

        assert stdout(flag, value) == stdout(f"{flag}={value}")

    def test_negative_infinity_reaches_validation(self, capsys):
        assert main(["cipc", "--trials", "3", "--p-max", "-inf"]) == 2
        assert "p_max must be positive" in capsys.readouterr().err


def _sci(x):
    return f"{x:.12e}"


def _db(x):
    return _sci(linear_to_db(x)) if x > 0.0 else "-inf"


def _assessment(a, k):
    return [_sci(a.r_sup[k]), _sci(a.r_inf[k]), _sci(a.delta_r[k]), "true" if a.feasible[k] else "false"]


def _cipc_lines(result):
    lines = [f"{t},suspended,,,,,,false" for t in range(len(result.sent))]
    for k, t in enumerate(np.flatnonzero(result.sent).tolist()):
        lines[t] = ",".join(
            [str(t), _sci(result.p_t[k]), _db(result.gamma_b[k]), _db(result.gamma_e[k]),
             *_assessment(result.assessment, k)]
        )
    return lines


def _lob_lines(result):
    return [
        ",".join(
            [str(t), _sci(result.theta_hat[t]), _db(result.sinr_bob[t]), _db(result.sinr_eve[t]),
             *_assessment(result.assessment, t)]
        )
        for t in range(len(result.theta_hat))
    ]


class TestSimulatorCsvFromColumns:
    """Block-formatted CSVs against one f-string per cell of the columns."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["cipc", "--trials", "2500", "--antennas", "4", "--p-max", "0.4", "--sigma-delta", "0.1"],
            ["cipc", "--trials", "1000", "--p-max", "1e-9"],
            pytest.param(
                ["cipc", "--trials", "1001", "--beta-e", "1.0"],
                marks=pytest.mark.filterwarnings("ignore:beta_e=1.0"),
            ),
        ],
    )
    def test_cipc(self, argv, tmp_path):
        out = tmp_path / "c.csv"
        assert main([*argv, "--out", str(out)]) == 0
        args = cli._build_parser().parse_args(argv)
        result = run_cipc(cli._cipc_config(args, args.q_target))
        assert read(out).decode().splitlines()[1:] == _cipc_lines(result)

    @pytest.mark.parametrize(
        "argv",
        [
            ["lob", "--trials", "2500", "--loc-error-deg", "3", "--k-bob", "5", "--an-fraction", "0.4"],
            ["lob", "--trials", "1200", "--an-fraction", "1.0"],
        ],
    )
    def test_lob(self, argv, tmp_path):
        out = tmp_path / "l.csv"
        assert main([*argv, "--out", str(out)]) == 0
        args = cli._build_parser().parse_args(argv)
        result = run_lob(cli._lob_config(args, args.an_fraction))
        assert read(out).decode().splitlines()[1:] == _lob_lines(result)

    def test_db_cells_equal_linear_to_db_bit_for_bit(self):
        # The CSV prints 13 digits, which would hide a last-bit difference.
        rng = np.random.default_rng(20191)
        linear = np.concatenate(
            [np.exp(rng.uniform(-700.0, 700.0, 20_000)), [0.0, 5e-324, 1.0, 10.0, math.inf]]
        )
        expected = [linear_to_db(x) if x > 0.0 else -math.inf for x in linear.tolist()]
        assert _rows._db_cells(linear).tolist() == expected


def cell_texts(cells):
    """The text of each cell the kernel wrote, with its trailing comma."""
    return [c.tobytes().replace(b"\0", b"").decode() for c in cells.reshape(-1, 3)]


def kernel_cells(x):
    x = np.asarray(x, dtype=float)
    cells = np.zeros((*x.shape, 3), np.uint64)
    _rows._SciCells(x.shape)(x, cells)
    return cell_texts(cells)


def reference_cells(x):
    return [f"{v:.12e}," for v in np.asarray(x, dtype=float).ravel().tolist()]


@pytest.fixture
def sci_calls(monkeypatch):
    """The values that reach _rows._sci, the kernel's fallback, while the test runs."""
    calls = []

    def sci(x):
        calls.append(float(x))
        return f"{float(x):.12e}"

    monkeypatch.setattr(_rows, "_sci", sci)
    return calls


def _midpoints(rng, count):
    # d.dddddddddddd5e±k: exactly halfway between two 13-digit decimals
    mantissas = rng.integers(10**12, 10**13, count).tolist()
    exponents = rng.integers(-320, 309, count).tolist()
    values = np.array([float(f"{m}5e{k - 12}") for m, k in zip(mantissas, exponents)])
    return values[np.isfinite(values) & (values != 0.0)]


class TestSciKernel:
    """The array kernel's cells equal '%.12e' % x, string for string."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261)
        x = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
        x = x[np.isfinite(x)]
        assert kernel_cells(x) == reference_cells(x)

    def test_subnormals_and_the_ends_of_the_range(self):
        rng = np.random.default_rng(20262)
        subnormals = rng.integers(1, 2**52, 5000, dtype=np.uint64).view(np.float64)
        tiny, huge = 5e-324, sys.float_info.max
        x = np.concatenate([subnormals, -subnormals, [tiny, -tiny, huge, -huge, sys.float_info.min,
                                                     np.nextafter(sys.float_info.min, 0.0)]])
        assert kernel_cells(x) == reference_cells(x)

    def test_decimal_midpoints_and_their_neighbours(self, sci_calls):
        mids = _midpoints(np.random.default_rng(20263), 20_000)
        x = np.concatenate([mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf)])
        x = np.concatenate([x, -x])
        assert kernel_cells(x) == reference_cells(x)
        # the midpoints that lie within the tie margin take the fallback
        assert 0 < len(sci_calls) < len(x) / 2

    def test_exact_ties_round_to_even(self, sci_calls):
        # 14-digit integers ending in 5, and 13-digit ones plus one half, are
        # exact doubles halfway between two 13-digit decimals
        m = np.random.default_rng(20266).integers(10**12, 10**13, 2000)
        x = np.concatenate([m * 10.0 + 5.0, m + 0.5])
        x = np.concatenate([x, -x])
        assert kernel_cells(x) == reference_cells(x)
        assert len(sci_calls) >= 4 * len(m)

    def test_powers_of_ten_and_the_carry(self):
        k = np.arange(-323, 309)
        powers = np.array([float(f"1e{j}") for j in k])
        carries = np.array([float(f"9.9999999999995e{j}") for j in k[:-1]])
        x = np.concatenate([powers, 10.0 ** k[k > -300], np.nextafter(powers, 0.0),
                            np.nextafter(powers, np.inf), carries, np.nextafter(carries, 0.0),
                            np.nextafter(carries, np.inf)])
        x = np.concatenate([x, -x])
        assert kernel_cells(x) == reference_cells(x)

    def test_three_digit_exponents_and_literals(self, sci_calls):
        x = np.array([1e100, -2.5e-100, 1.234567890123e250, 9.87654321e-250, 1e-278, 9.9e278,
                      0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
        assert kernel_cells(x) == reference_cells(x)
        literal = {"0.000000000000e+00,", "-0.000000000000e+00,", "inf,", "-inf,", "nan,"}
        assert set(kernel_cells(x[6:])) == literal
        assert sci_calls == []

    def test_a_block_shape_and_reused_buffers(self):
        rng = np.random.default_rng(20264)
        kernel = _rows._SciCells((64, 6))
        for rows in (64, 17, 1):
            x = rng.normal(0.0, 10.0, (rows, 6)) * 10.0 ** rng.integers(-20, 20, (rows, 6))
            cells = np.zeros((rows, 6, 3), np.uint64)
            kernel(x, cells)
            assert cell_texts(cells) == reference_cells(x)

    @pytest.mark.filterwarnings("ignore:beta_e=1.0")
    @pytest.mark.parametrize(
        "argv, literals",
        [
            (["lob", "--an-fraction", "1.0"], {"-inf", "0.000000000000e+00"}),
            (["cipc", "--beta-e", "1.0"], {"inf", "-inf"}),
        ],
    )
    def test_simulator_literals_take_no_fallback(self, argv, literals, sci_calls, tmp_path):
        out = tmp_path / "s.csv"
        assert main([*argv, "--trials", "5000", "--out", str(out)]) == 0
        cells = {cell for line in out.read_text().splitlines()[1:] for cell in line.split(",")}
        assert literals <= cells
        assert sci_calls == []


def _fake_cipc_result(rng, sent):
    count = int(np.count_nonzero(sent))
    gamma = rng.exponential(3.0, (2, count))
    gamma[:, ::7] = 0.0
    a = SimpleNamespace(**{name: rng.normal(size=count) for name in ("r_sup", "r_inf", "delta_r")},
                        feasible=rng.random(count) < 0.5)
    return SimpleNamespace(sent=sent, p_t=rng.exponential(size=count), gamma_b=gamma[0],
                           gamma_e=gamma[1], assessment=a)


def _csv_lines(blocks):
    return b"".join(block for block, _ in blocks).decode().splitlines()


class TestSimulatorRowAssembly:
    """Rows built a block at a time against the per-cell reference above."""

    def test_trial_ids_at_every_decimal_width(self):
        ids = sorted({0, 1, 2**32 - 2, 2**32 - 1} | {10**k + d for k in range(1, 10) for d in (-1, 0)})
        chars = np.zeros((len(ids), 12), np.uint8)
        _rows._id_cells(np.array(ids), chars)
        assert [row.tobytes().replace(b"\0", b"").decode() for row in chars] == [str(i) for i in ids]

    @pytest.mark.parametrize("offset, last_blocks", [(-1, [-1]), (0, [0]), (1, [0, 1 - _rows._BLOCK_TRIALS])])
    def test_trial_counts_around_a_block(self, offset, last_blocks, tmp_path):
        argv = ["cipc", "--trials", str(2 * _rows._BLOCK_TRIALS + offset), "--antennas", "4",
                "--p-max", "0.4", "--sigma-delta", "0.1"]
        out = tmp_path / "c.csv"
        assert main([*argv, "--out", str(out)]) == 0
        args = cli._build_parser().parse_args(argv)
        result = run_cipc(cli._cipc_config(args, args.q_target))
        assert read(out).decode().splitlines()[1:] == _cipc_lines(result)
        # rows per block, less the block size
        rows = [count - _rows._BLOCK_TRIALS for _, count in cli._cipc_rows(result)]
        assert rows == [0, *last_blocks]

    def test_a_block_of_suspended_trials_between_mixed_ones(self):
        rng = np.random.default_rng(20265)
        b = _rows._BLOCK_TRIALS
        sent = rng.random(3 * b + 5) < 0.7
        sent[b:2 * b] = False
        sent[-3:] = True
        result = _fake_cipc_result(rng, sent)
        assert _csv_lines(cli._cipc_rows(result)) == _cipc_lines(result)
        sent[:] = False
        result = _fake_cipc_result(rng, sent)
        assert _csv_lines(cli._cipc_rows(result)) == _cipc_lines(result)

    def test_memory_is_set_by_the_block_not_the_trial_count(self):
        def peak(trials):
            cfg = cli._cipc_config(cli._build_parser().parse_args(
                ["cipc", "--trials", str(trials), "--antennas", "4", "--p-max", "0.4",
                 "--sigma-delta", "0.05"]), 1.0)
            result = run_cipc(cfg)
            tracemalloc.start()
            try:
                for _ in cli._cipc_rows(result):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # builds the kernel's tables, which are kept
        small, large = peak(20_000), peak(200_000)
        assert large - small < 64 * 1024


@pytest.fixture
def kernel_rows(monkeypatch):
    """The rows of each array that reaches the cell kernel while the test runs."""
    rows = []
    call = _rows._SciCells.__call__

    def counted(self, x, cells):
        rows.append(len(x))
        call(self, x, cells)

    monkeypatch.setattr(_rows._SciCells, "__call__", counted)
    return rows


class TestOnlyPrintedRowsAreFormatted:
    """Suspended trials print as fixed text and never reach the cell kernel."""

    def test_cipc_formats_the_transmitted_trials(self, kernel_rows, tmp_path):
        argv = ["cipc", "--trials", "5000", "--antennas", "4", "--p-max", "0.4", "--sigma-delta", "0.1"]
        assert main([*argv, "--out", str(tmp_path / "c.csv")]) == 0
        args = cli._build_parser().parse_args(argv)
        sent = np.count_nonzero(run_cipc(cli._cipc_config(args, args.q_target)).sent)
        assert 0 < sent < 5000
        assert sum(kernel_rows) == sent

    def test_lob_formats_every_trial(self, kernel_rows, tmp_path):
        assert main(["lob", "--trials", "3000", "--out", str(tmp_path / "l.csv")]) == 0
        assert sum(kernel_rows) == 3000

    def test_every_trial_suspended(self, kernel_rows, tmp_path):
        argv = ["cipc", "--trials", "3000", "--antennas", "4", "--p-max", "1e-3"]
        out = tmp_path / "c.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert sum(kernel_rows) == 0
        args = cli._build_parser().parse_args(argv)
        result = run_cipc(cli._cipc_config(args, args.q_target))
        assert not result.sent.any()
        assert read(out).decode().splitlines()[1:] == _cipc_lines(result)


def test_parser_is_built_once_per_process(tmp_path):
    parser = cli._build_parser()
    misses = cli._build_parser.cache_info().misses
    assert main(["interval", "--n", "500"]) == 0
    assert main(["cipc", "--trials", "5", "--out", str(tmp_path / "c.csv")]) == 0
    assert cli._build_parser.cache_info().misses == misses
    assert cli._build_parser() is parser


# A small run of every command, for the checks that hold across the table.
SMALL_ARGV = {
    "fig2": ["--n-list", "300", "--steps", "10"],
    "fig3": ["--n-count", "5"],
    "gap": ["--n", "500", "--rate", "1.0"],
    "interval": ["--n", "500"],
    "minblock": [],
    "cipc": ["--trials", "20", "--sigma-delta", "0.1"],
    "lob": ["--trials", "20", "--loc-error-deg", "2"],
    "optimize-q": ["--q-grid", "0.5", "1.0", "--trials", "20"],
    "optimize-an": ["--phi-grid", "0.0", "0.3", "--trials", "20"],
}


class TestEveryCommand:
    def test_table_and_cases_agree(self):
        assert set(SMALL_ARGV) == set(_COMMANDS)

    @pytest.mark.parametrize("command", list(SMALL_ARGV))
    def test_manifest_replay(self, command, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([command, *SMALL_ARGV[command], "--out", str(a)]) == 0
        echoed = capsys.readouterr().out.startswith("# fblsec run manifest")
        assert echoed == (command not in ("fig2", "fig3"))
        assert main([command, "--config", str(a) + ".manifest", "--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_manifest_of_another_version_refused(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        assert main(["gap", *SMALL_ARGV["gap"], "--out", str(a)]) == 0
        manifest = tmp_path / "a.csv.manifest"
        text = manifest.read_text()
        assert f"version = {__version__}\n" in text
        manifest.write_text(text.replace(f"version = {__version__}\n", "version = 0.0.0\n"))
        capsys.readouterr()
        code = main(["gap", "--config", str(manifest), "--out", str(tmp_path / "b.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "0.0.0" in err and __version__ in err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("command", ["fig2", "fig3"])
    def test_manifest_with_the_removed_svg_flag_refused(self, command, tmp_path, capsys):
        # 0.3.0 recorded svg = PATH in a fig2/fig3 manifest; that flag is
        # gone, so such a manifest is refused, never replayed without it.
        a = tmp_path / "a.csv"
        assert main([command, *SMALL_ARGV[command], "--out", str(a)]) == 0
        manifest = tmp_path / "a.csv.manifest"
        manifest.write_text(manifest.read_text() + "svg = f.svg\n")
        capsys.readouterr()
        code = main([command, "--config", str(manifest), "--out", str(tmp_path / "b.csv")])
        assert code == 2
        assert "unrecognized arguments: --svg f.svg" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.csv.manifest"]

    def test_one_row_is_reported_in_the_singular(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["cipc", "--trials", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out.endswith(f"wrote 1 row to {out}\n")

    @pytest.mark.parametrize("command", list(SMALL_ARGV))
    def test_empty_out_path_is_an_io_error(self, command, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([command, *SMALL_ARGV[command], "--out", ""]) == 4
        assert list(tmp_path.iterdir()) == []


# Run in a fresh interpreter whose importer refuses scipy and records every
# attempt, so an import that a try/except would swallow still shows.
_NO_SCIPY = r"""
import contextlib, dataclasses, io, json, sys

refused = []

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            refused.append(name)
            raise ImportError(f"scipy is refused here: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())

import fblsec.cli
for command, argv in SMALL_ARGV.items():
    with contextlib.redirect_stdout(io.StringIO()):
        assert fblsec.cli.main([command, *argv, "--out", command + ".csv"]) == 0, command

import numpy as np
import fblsec as f

def again(result):
    # The result's own type, called on the result's fields.
    if dataclasses.is_dataclass(result):
        return type(result)(*(getattr(result, x.name) for x in dataclasses.fields(result)))
    return type(result)(*result)

pair, approx, code = f.ConstraintPair(1e-6, 0.5), f.ApproximationConfig(True), f.CodeSpec(127, 10)
err, seed, rician = f.ReciprocityError(0.1), f.RngSeed(7), f.RicianSpec(1.0, 0.2, 4)
cipc = f.CipcConfig(1.0, 10.0, 2, 0.01, 0.1, 500, pair, err, 20, seed, approx)
lob = f.LobConfig(4, 0.0, 0.35, 0.03, 10.0, 1.0, 1.0, 0.3, 0.01, 0.01, 500, pair, 20, seed, approx)
thresholds = f.BerThresholds(1e-5, 0.45)
h = f.sample_rayleigh(2, seed, 3)
an, q = f.optimize_an_fraction(lob, [0.0, 0.3]), f.optimize_q(cipc, [0.5, 1.0])
cipc_run, lob_run = f.run_cipc(cipc), f.run_lob(lob)
ber_gap, gap = f.ber_security_gap(code, thresholds), f.security_gap(500, 1.0, pair)
bound, one = f.max_rate(500, 1e-6, 10.0), f.rate_interval(500, 10.0, 1.0, pair)
batch = f.rate_interval_batch(500, np.array([10.0, 0.0]), np.ones(2), pair)
# What each public callable returned; the types of results are called on
# the fields of one.
called = {
    "AnOptimum": again(an),
    "ApproximationConfig": approx,
    "BerSecurityGap": again(ber_gap),
    "BerThresholds": thresholds,
    "CipcConfig": cipc,
    "CipcResult": again(cipc_run),
    "CipcSummary": again(cipc_run.summary),
    "CodeSpec": code,
    "ConstraintPair": pair,
    "LobConfig": lob,
    "LobResult": again(lob_run),
    "LobSummary": again(lob_run.summary),
    "QOptimum": again(q),
    "RateIntervals": again(batch),
    "ReciprocityError": err,
    "RicianSpec": rician,
    "RngSeed": seed,
    "SecrecyAssessment": again(one),
    "SecurityGap": again(gap),
    "UnsatisfiableError": f.UnsatisfiableError("none"),
    "apply_reciprocity_error": f.apply_reciprocity_error(h, err, seed),
    "be_cdf": f.be_cdf(code, 0.01, 10),
    "ber_security_gap": ber_gap,
    "binomial_cdf": f.binomial_cdf(3, 10, 0.2),
    "block_error_prob": f.block_error_prob(code, 0.01),
    "bsc_crossover": f.bsc_crossover(1e308),
    "capacity": f.capacity(10.0),
    "db_to_linear": f.db_to_linear(10.0),
    "dispersion": f.dispersion(10.0),
    "error_probability": f.error_probability(500, 1.0, 10.0),
    "linear_to_db": f.linear_to_db(10.0),
    "max_rate": bound,
    "min_blocklength": f.min_blocklength(10.0, 1.0, pair),
    "optimize_an_fraction": an,
    "optimize_q": q,
    "post_decoding_ber": f.post_decoding_ber(code, 0.01),
    "q_func": f.q_func(1.0),
    "q_func_inv": f.q_func_inv(1e-6),
    "r_inf": f.r_inf(500, 0.5, 1.0),
    "r_sup": f.r_sup(500, 1e-6, 10.0),
    "rate_interval": one,
    "rate_interval_batch": batch,
    "run_cipc": cipc_run,
    "run_lob": lob_run,
    "sample_rayleigh": h,
    "sample_rician": f.sample_rician(rician, seed, 3),
    "security_gap": gap,
    "steering_vector": f.steering_vector(0.2, 4),
}
assert all(type(called[x]) is getattr(f, x) for x in called if x[0].isupper())
assert sorted(called) == sorted(x for x in f.__all__ if callable(getattr(f, x)))
print(json.dumps(refused))
"""


def test_package_cli_and_every_public_callable_run_without_scipy(tmp_path):
    proc = fresh_python(tmp_path, _NO_SCIPY.replace("SMALL_ARGV", repr(SMALL_ARGV)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(c + ".csv" for c in SMALL_ARGV)


# ----------------------------------------------------------------------
# the import path: what each entry point loads, each in a fresh interpreter
# ----------------------------------------------------------------------

# Runs fblsec.cli.main on argv and prints its exit code and the fblsec
# modules then loaded, and numpy and statistics (which numerics imports for
# the normal quantile) if they were loaded.
_LOADS = r"""
import contextlib, io, json, sys
import fblsec.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = fblsec.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("fblsec") or m in ("numpy", "statistics"))]))
"""

_METRICS = {"fb_coding", "numerics", "secrecy"}
# The submodules each command loads besides fblsec, fblsec.cli, numpy and statistics:
# none loads ber, the metric commands load no simulator, each simulator
# command loads its own simulator only, and only the commands that write
# per-trial rows load their kernel, _rows.
COMMAND_MODULES = {
    "fig2": {"fb_coding", "numerics"},
    "fig3": _METRICS,
    "gap": _METRICS,
    "interval": _METRICS,
    "minblock": _METRICS,
    "cipc": _METRICS | {"channels", "cipc", "_rows"},
    "lob": _METRICS | {"channels", "lob", "_rows"},
    "optimize-q": _METRICS | {"channels", "cipc"},
    "optimize-an": _METRICS | {"channels", "lob"},
}


def _loads(tmp_path, *argv: str) -> tuple[int, set[str]]:
    proc = fresh_python(tmp_path, _LOADS, *argv)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


class TestImportPath:
    def test_package_loads_no_submodule_and_no_numpy(self, tmp_path):
        proc = fresh_python(tmp_path, "import json, sys, fblsec; print(json.dumps(sorted(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        modules = json.loads(proc.stdout)
        assert [m for m in modules if m.startswith("fblsec")] == ["fblsec"]
        assert "numpy" not in modules

    def test_version_loads_only_the_cli(self, tmp_path):
        assert _loads(tmp_path, "--version") == (0, {"fblsec", "fblsec.cli"})

    @pytest.mark.parametrize("argv, code", [
        (["-h"], 0),
        (["cipc", "-h"], 0),
        ([], 2),
        (["bogus"], 2),
        (["cipc", "--trials", "0"], 2),
        (["lob", "--config", "missing.conf"], 2),
    ], ids=["help", "command-help", "no-command", "unknown-command", "bad-value", "missing-config"])
    def test_help_and_refused_arguments_load_only_the_cli(self, argv, code, tmp_path):
        assert _loads(tmp_path, *argv) == (code, {"fblsec", "fblsec.cli"})

    def test_table_covers_every_command(self):
        assert set(COMMAND_MODULES) == set(SMALL_ARGV)

    @pytest.mark.parametrize("command", list(SMALL_ARGV))
    def test_command_loads_only_its_modules(self, command, tmp_path):
        code, modules = _loads(tmp_path, command, *SMALL_ARGV[command], "--out", "x.csv")
        assert code == 0
        expected = {"fblsec", "fblsec.cli", "numpy", "statistics"} | {
            f"fblsec.{m}" for m in COMMAND_MODULES[command]}
        assert modules == expected

    def test_public_names_resolve_on_first_use(self, tmp_path):
        proc = fresh_python(tmp_path, r"""
import sys, types
import fblsec

try:
    fblsec.x
except AttributeError as e:
    assert str(e) == "module 'fblsec' has no attribute 'x'", e
else:
    raise AssertionError("fblsec.x resolved")
assert fblsec.cipc is sys.modules["fblsec.cipc"] and isinstance(fblsec.cipc, types.ModuleType)
names = {}
exec("from fblsec import *", names)
assert set(names) - {"__builtins__"} == set(fblsec.__all__)
for name in fblsec.__all__[:-1]:
    value = names[name]
    assert value.__module__.startswith("fblsec."), name
    assert value is getattr(sys.modules[value.__module__], name) is getattr(fblsec, name), name
    assert vars(fblsec)[name] is value, name  # bound: the next lookup is a dict hit
assert fblsec.__all__[-1] == "__version__" and names["__version__"] == fblsec.__version__
""")
        assert proc.returncode == 0, proc.stderr
