import os
import subprocess
import sys
from pathlib import Path

import pytest

import math

import fblsec
from fblsec import __version__, cli
from fblsec.cipc import CipcResult, run_cipc
from fblsec.cli import _COMMANDS, main
from fblsec.lob import LobResult, run_lob
from fblsec.fb_coding import capacity, db_to_linear


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

    def test_io_failure(self, tmp_path):
        missing_dir = tmp_path / "not" / "there" / "f.csv"
        assert main(["fig2", "--out", str(missing_dir)]) == 4

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


def _sci(x):
    return f"{x:.12e}"


def _db(x):
    return _sci(10.0 * math.log10(x)) if x > 0.0 else "-inf"


def _assessment(a):
    return [_sci(a.r_sup), _sci(a.r_inf), _sci(a.delta_r), "true" if a.feasible else "false"]


def _cipc_line(rec):
    if rec.suspended:
        return f"{rec.trial_id},suspended,,,,,,false"
    return ",".join(
        [str(rec.trial_id), _sci(rec.p_t), _db(rec.gamma_b), _db(rec.gamma_e), *_assessment(rec.assessment)]
    )


def _lob_line(rec):
    return ",".join(
        [str(rec.trial_id), _sci(rec.theta_hat), _db(rec.sinr_bob), _db(rec.sinr_eve), *_assessment(rec.assessment)]
    )


class TestSimulatorCsvFromColumns:
    """Block-formatted CSVs against one f-string per cell of the records."""

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
        records = run_cipc(cli._cipc_config(args, args.q_target)).records
        assert read(out).decode().splitlines()[1:] == [_cipc_line(rec) for rec in records]

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
        records = run_lob(cli._lob_config(args, args.an_fraction)).records
        assert read(out).decode().splitlines()[1:] == [_lob_line(rec) for rec in records]

    @pytest.mark.parametrize("command", ["cipc", "lob"])
    def test_cli_never_builds_records(self, command, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("records built")

        for result_type in (CipcResult, LobResult):
            monkeypatch.setattr(result_type, "records", property(refuse))
        assert main([command, "--trials", "50", "--out", str(tmp_path / "x.csv")]) == 0


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

    def test_one_row_is_reported_in_the_singular(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["cipc", "--trials", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out.endswith(f"wrote 1 row to {out}\n")

    @pytest.mark.parametrize("command", list(SMALL_ARGV))
    def test_empty_out_path_is_an_io_error(self, command, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([command, *SMALL_ARGV[command], "--out", ""]) == 4
        assert list(tmp_path.iterdir()) == []


def test_cli_import_leaves_scipy_optimize_and_linalg_unloaded():
    code = "import sys, fblsec.cli; print(sorted({'scipy.optimize', 'scipy.linalg'} & set(sys.modules)))"
    src = str(Path(fblsec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
