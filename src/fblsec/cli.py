"""Command-line front end: metric queries, data sweeps, and both simulators.

Every data file is written next to a ``<file>.manifest`` capturing the
fully resolved parameter set; running the same command with
``--config <manifest>`` reproduces the data file byte for byte. SNRs are
given in dB and angles in degrees on the command line and converted once
at this boundary; all internal math is linear/radians.

Each subcommand is one entry of ``_COMMANDS``: its flags and a function
that computes a ``_Report`` without printing or writing anything.
``_emit`` turns every report into output the same way.

fblsec's own modules, and numpy, are imported inside the functions that
compute with them, so building the parser, ``--version``, ``-h`` and a
refused argument load none of them and each command loads only what it
uses. ``cipc`` and ``lob`` also load ``_rows``, the array kernel that
writes their per-trial CSV rows.

Exit codes: 0 success, 2 invalid arguments or config parse error,
3 unsatisfiable scenario, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import __version__

if TYPE_CHECKING:
    from .cipc import CipcConfig
    from .fb_coding import ApproximationConfig
    from .lob import LobConfig
    from .secrecy import ConstraintPair

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSATISFIABLE = 3
EXIT_IO = 4

# Informational manifest keys that are not flags and are skipped on replay.
_NON_REPLAY_KEYS = {"timestamp", "channel_model"}


class _ConfigError(Exception):
    pass


# ----------------------------------------------------------------------
# flat key = value config files (also the manifest format)
# ----------------------------------------------------------------------

def _parse_kv_file(path: str) -> list[tuple[int, str, str]]:
    try:
        with open(path, "r") as f:
            raw_lines = f.readlines()
    except OSError as e:
        raise _ConfigError(f"cannot read config file {path!r}: {e}") from e
    entries = []
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise _ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        entries.append((lineno, key, value))
    return entries


def _config_to_flags(path: str, command: str, list_flags: set[str]) -> list[str]:
    # A manifest replays byte for byte only under the command and the
    # toolkit version that wrote it, so both are checked, not skipped.
    checked = {"command": command, "version": __version__}
    flags: list[str] = []
    for lineno, key, value in _parse_kv_file(path):
        if key in _NON_REPLAY_KEYS:
            continue
        if key in checked:
            if value != checked[key]:
                raise _ConfigError(
                    f"{path}:{lineno}: config is for {key} {value!r}, "
                    f"not {checked[key]!r}"
                )
            continue
        flags.append("--" + key.replace("_", "-"))
        if flags[-1] in list_flags:
            flags.extend(value.split())
        else:
            flags.append(value)
    return flags


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_numbers(one_value: set[str], tokens: list[str]) -> list[str]:
    """Join ``--flag VALUE`` into ``--flag=VALUE`` for a flag in one_value and
    a numeric VALUE: argparse takes -1e1 or -inf for an option."""
    joined: list[str] = []
    for tok in tokens:
        if joined and joined[-1] in one_value and _is_number(tok):
            joined[-1] += "=" + tok
        else:
            joined.append(tok)
    return joined


def _expand_config(argv: list[str]) -> list[str]:
    """Inject config-file entries as flags ahead of the explicit ones, and
    join the numeric values of both (see _join_numbers)."""
    if not argv or argv[0].startswith("-"):
        return argv
    command, rest = argv[0], argv[1:]
    # Which flags take several values and which one, from the command table.
    specs = _COMMANDS[command].flags if command in _COMMANDS else ()
    list_flags = {flag for flag, kwargs in specs if "nargs" in kwargs}
    one_value = {flag for flag, kwargs in specs if "nargs" not in kwargs}
    paths = []
    i = 0
    while i < len(rest):
        tok = rest[i]
        if tok == "--config" and i + 1 < len(rest):
            paths.append(rest[i + 1])
            i += 2
        elif tok.startswith("--config="):
            paths.append(tok.split("=", 1)[1])
            i += 1
        else:
            i += 1
    injected: list[str] = []
    for path in paths:
        injected.extend(_config_to_flags(path, command, list_flags))
    return [command] + _join_numbers(one_value, injected + rest)


# ----------------------------------------------------------------------
# output helpers
# ----------------------------------------------------------------------

def _sci(x: float) -> str:
    return f"{float(x):.12e}"


def _bool_str(flag: bool) -> str:
    return "true" if flag else "false"


def _fmt_param(value) -> str:
    if isinstance(value, bool):
        return _bool_str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(_fmt_param(v) for v in value)
    return str(value)


def _collect_params(args: argparse.Namespace, overrides: dict | None = None) -> dict:
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("config", "command") and v is not None
    }
    if overrides:
        params.update(overrides)
    return params


def _manifest_lines(command: str, params: dict) -> list[str]:
    from datetime import datetime, timezone

    lines = [
        "# fblsec run manifest; replay with: fblsec "
        f"{command} --config <this file>",
        f"command = {command}",
        f"version = {__version__}",
        f"timestamp = {datetime.now(timezone.utc).isoformat()}",
        "channel_model = complex-awgn-normal-approximation",
    ]
    for key in sorted(params):
        lines.append(f"{key} = {_fmt_param(params[key])}")
    return lines


def _write_manifest(out_path: str, lines: list[str]) -> None:
    with open(out_path + ".manifest", "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def _write_csv(path: str, header: Sequence[str], blocks: Iterable[tuple[bytes, int]]) -> int:
    count = 0
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        for block, rows in blocks:
            f.write(block)
            count += rows
    return count


def _lines(rows: Iterable[tuple[str, ...]]) -> Iterator[tuple[bytes, int]]:
    """CSV text of rows of formatted cells, one line per row."""
    return (((",".join(row) + "\n").encode(), 1) for row in rows)


class _Report(NamedTuple):
    """What one command computed, for _emit to print and write."""

    #: stdout lines, printed after the manifest echo
    summary: Sequence[str] = ()
    header: Sequence[str] = ()
    #: CSV bytes after the header as (whole lines, their count) per item; a
    #: generator, so no second copy of the results is held
    rows: Iterable[tuple[bytes, int]] = ()
    #: resolved parameters the manifest records in place of the flag values
    overrides: dict | None = None
    #: set when the scenario is unsatisfiable: printed to stderr, exit 3,
    #: nothing written
    error: str | None = None


def _emit(name: str, out_required: bool, args: argparse.Namespace, report: _Report) -> int:
    """Print, and write the CSV and its manifest: the same for every command.

    A command whose ``--out`` is optional is a query answered on stdout,
    so it echoes the manifest there too.
    """
    manifest = _manifest_lines(name, _collect_params(args, report.overrides))
    echo = [] if out_required else manifest
    for line in [*echo, *report.summary]:
        print(line)
    if report.error is not None:
        print(f"error: {report.error}", file=sys.stderr)
        return EXIT_UNSATISFIABLE
    if args.out is not None:
        count = _write_csv(args.out, report.header, report.rows)
        _write_manifest(args.out, manifest)
        print(f"wrote {count} {'row' if count == 1 else 'rows'} to {args.out}")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument types
# ----------------------------------------------------------------------

def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"{text!r} is not an unsigned 64-bit integer")
    return value


def _u32(text: str) -> int:
    value = int(text)
    if not 1 <= value < 2**32:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive 32-bit integer")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be >= 1")
    return value


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


# ----------------------------------------------------------------------
# command table: flags and a report function per subcommand
# ----------------------------------------------------------------------

class _Command(NamedTuple):
    help: str
    #: flag specs, after the --config/--out/--log-term flags every command has
    flags: tuple
    run: Callable[[argparse.Namespace], _Report]
    #: a data-file command; the others answer on stdout and write a file on request
    out_required: bool


#: Subcommands in help order, filled by @_command.
_COMMANDS: dict[str, _Command] = {}


def _command(name: str, help_text: str, *flags, out_required: bool = False):
    def register(run):
        _COMMANDS[name] = _Command(help_text, flags, run, out_required)
        return run

    return register


def _flag(name: str, kind, default, text: str, **extra) -> tuple[str, dict]:
    """One flag spec: name, type, default and help of ``add_argument``."""
    return name, dict(type=kind, default=default, help=text, **extra)


_N = _flag("--n", _positive_int, None, "blocklength in channel uses", required=True)
_SNR_B = _flag("--snr-b-db", float, 10.0, "Bob SNR in dB (default 10)")
_SNR_E = _flag("--snr-e-db", float, 0.0, "Eve SNR in dB (default 0)")
_CONSTRAINT_FLAGS = (
    _flag("--beta-b", float, 1e-6, "max decoding-error probability at Bob (default 1e-6)"),
    _flag("--beta-e", float, 0.5, "min decoding-error probability at Eve (default 0.5)"),
)
_SIM_FLAGS = (
    _flag("--seed", _u64, 12345, "master RNG seed (default 12345)"),
    _flag("--trials", _u32, 1000, "Monte Carlo trials (default 1000)"),
    _flag("--blocklength", _positive_int, 500, "blocklength in channel uses (default 500)"),
    *_CONSTRAINT_FLAGS,
)
_CIPC_FLAGS = (
    _flag("--p-max", float, 10.0, "maximum transmit power, linear (default 10.0)"),
    _flag("--antennas", _positive_int, 1, "transmit antennas (default 1)"),
    _flag("--noise-b", float, 0.01, "noise power at Bob, linear (default 0.01)"),
    _flag("--noise-e", float, 0.1, "noise power at Eve, linear (default 0.1)"),
    _flag("--sigma-delta", float, 0.0, "reciprocity error std per coefficient (default 0)"),
    *_SIM_FLAGS,
)
_AN_FRACTION = _flag(
    "--an-fraction", float, 0.3, "power share spent on artificial noise (default 0.3)"
)
_LOB_FLAGS = (
    _flag("--antennas", _positive_int, 4, "transmit antennas (default 4)"),
    _flag("--theta-bob-deg", float, 0.0, "Bob bearing in degrees (default 0)"),
    _flag("--theta-eve-deg", float, 20.0, "Eve bearing in degrees (default 20)"),
    _flag("--loc-error-deg", float, 0.0, "bearing error std in degrees (default 0)"),
    _flag("--k-bob", float, 10.0, "Rician K factor of Bob's channel (default 10, inf = pure LOS)"),
    _flag("--k-eve", float, 1.0, "Rician K factor of Eve's channel (default 1)"),
    _flag("--power", float, 1.0, "total transmit power, linear (default 1.0)"),
    _AN_FRACTION,
    _flag("--noise-b", float, 0.01, "noise power at Bob, linear (default 0.01)"),
    _flag("--noise-e", float, 0.01, "noise power at Eve, linear (default 0.01)"),
    *_SIM_FLAGS,
)


def _approx(args) -> ApproximationConfig:
    from .fb_coding import ApproximationConfig

    return ApproximationConfig(include_log_term=args.log_term)


def _constraints(args) -> ConstraintPair:
    from .secrecy import ConstraintPair

    return ConstraintPair(beta_b=args.beta_b, beta_e=args.beta_e)


_ASSESSMENT_COLUMNS = ["r_sup", "r_inf", "delta_r", "feasible"]


def _assessment_cells(a) -> tuple[str, ...]:
    return (_sci(a.r_sup), _sci(a.r_inf), _sci(a.delta_r), _bool_str(a.feasible))


@_command(
    "fig2",
    "error probability vs coding rate sweep",
    _flag("--n-list", _positive_int, [100, 200, 500, 1000, 2000],
          "blocklengths to sweep (default 100 200 500 1000 2000)", nargs="+"),
    _flag("--snr-db", float, 10.0, "channel SNR in dB (default 10)"),
    _flag("--rate-min", float, None, "lowest rate (default 0.1 x capacity)"),
    _flag("--rate-max", float, None, "highest rate (default 1.2 x capacity)"),
    _flag("--steps", _positive_int, 200, "points in the rate grid (default 200)"),
    out_required=True,
)
def _fig2(args) -> _Report:
    import numpy as np

    from .fb_coding import capacity, db_to_linear, error_probability

    if args.steps < 2:
        raise ValueError("--steps must be >= 2 for a rate grid")
    for flag, rate in (("--rate-min", args.rate_min), ("--rate-max", args.rate_max)):
        if rate is not None and not math.isfinite(rate):
            raise ValueError(f"{flag} must be finite, got {rate!r}")
    gamma = db_to_linear(args.snr_db)
    cap = capacity(gamma)
    rate_min = 0.1 * cap if args.rate_min is None else args.rate_min
    rate_max = 1.2 * cap if args.rate_max is None else args.rate_max
    if not rate_min < rate_max:
        raise ValueError("rate range is empty: rate_min must be below rate_max")
    cfg = _approx(args)
    rates = np.linspace(rate_min, rate_max, args.steps)
    points = [
        (n, float(r), error_probability(n, float(r), gamma, cfg))
        for n in args.n_list
        for r in rates
    ]
    return _Report(
        header=["n", "rate", "epsilon"],
        rows=_lines((str(n), _sci(rate), _sci(eps)) for n, rate, eps in points),
        overrides={"rate_min": rate_min, "rate_max": rate_max},
    )


def _log_spaced_ints(lo: int, hi: int, count: int) -> list[int]:
    import numpy as np

    if lo > hi:
        raise ValueError("--n-min must not exceed --n-max")
    grid = np.unique(np.rint(np.geomspace(lo, hi, count)).astype(int))
    return [int(n) for n in grid if lo <= n <= hi]


@_command(
    "fig3",
    "rate ceiling/floor vs blocklength sweep",
    _flag("--n-min", _positive_int, 10, "smallest blocklength (default 10)"),
    _flag("--n-max", _positive_int, 10000, "largest blocklength (default 10000)"),
    _flag("--n-count", _positive_int, 40,
          "points in the log-spaced blocklength grid (default 40)"),
    _SNR_B,
    _SNR_E,
    *_CONSTRAINT_FLAGS,
    out_required=True,
)
def _fig3(args) -> _Report:
    from .fb_coding import db_to_linear
    from .secrecy import rate_interval

    n_grid = _log_spaced_ints(args.n_min, args.n_max, args.n_count)
    gamma_b = db_to_linear(args.snr_b_db)
    gamma_e = db_to_linear(args.snr_e_db)
    constraints = _constraints(args)
    cfg = _approx(args)
    assessments = [rate_interval(n, gamma_b, gamma_e, constraints, cfg) for n in n_grid]
    return _Report(
        header=["n", "r_b_eps", "r_e_eps", "delta_r", "feasible"],
        rows=_lines((str(n), *_assessment_cells(a)) for n, a in zip(n_grid, assessments)),
    )


@_command(
    "gap",
    "security gap at a fixed rate and blocklength",
    _N,
    _flag("--rate", float, None, "coding rate in bits per channel use", required=True),
    *_CONSTRAINT_FLAGS,
)
def _gap(args) -> _Report:
    from .fb_coding import linear_to_db
    from .secrecy import security_gap

    result = security_gap(args.n, args.rate, _constraints(args), _approx(args))
    snr_b_min_db = linear_to_db(result.snr_b_min)
    snr_e_max_db = linear_to_db(result.snr_e_max)
    return _Report(
        summary=[
            f"snr_b_min_db = {snr_b_min_db:.6f}",
            f"snr_e_max_db = {snr_e_max_db:.6f}",
            f"gap_db = {result.gap_db:.6f}",
            f"gap_linear = {result.gap_linear:.9g}",
        ],
        header=["snr_b_min_db", "snr_e_max_db", "gap_db", "gap_linear"],
        rows=_lines(((
            _sci(snr_b_min_db),
            _sci(snr_e_max_db),
            _sci(result.gap_db),
            _sci(result.gap_linear),
        ),)),
    )


@_command("interval", "rate interval of one scenario", _N, _SNR_B, _SNR_E, *_CONSTRAINT_FLAGS)
def _interval(args) -> _Report:
    from .fb_coding import db_to_linear
    from .secrecy import rate_interval

    a = rate_interval(
        args.n,
        db_to_linear(args.snr_b_db),
        db_to_linear(args.snr_e_db),
        _constraints(args),
        _approx(args),
    )
    return _Report(
        summary=[
            f"r_sup = {a.r_sup:.9g}",
            f"r_inf = {a.r_inf:.9g}",
            f"delta_r = {a.delta_r:.9g}",
            f"feasible = {_bool_str(a.feasible)}",
        ],
        header=["n", *_ASSESSMENT_COLUMNS],
        rows=_lines(((str(args.n), *_assessment_cells(a)),)),
    )


@_command(
    "minblock",
    "smallest feasible blocklength",
    _SNR_B,
    _SNR_E,
    _flag("--n-max", _positive_int, 10**6, "largest blocklength to consider (default 1e6)"),
    *_CONSTRAINT_FLAGS,
)
def _minblock(args) -> _Report:
    from .fb_coding import db_to_linear
    from .secrecy import min_blocklength

    n_star = min_blocklength(
        db_to_linear(args.snr_b_db),
        db_to_linear(args.snr_e_db),
        _constraints(args),
        _approx(args),
        n_max=args.n_max,
    )
    if n_star is None:
        return _Report(
            summary=["n_star = infeasible"],
            error=f"no blocklength up to {args.n_max} satisfies both constraints",
        )
    return _Report(summary=[f"n_star = {n_star}"], header=["n_star"], rows=_lines(((str(n_star),),)))


def _cipc_config(args, q_target: float) -> CipcConfig:
    from .channels import ReciprocityError
    from .cipc import CipcConfig
    from .numerics import RngSeed

    return CipcConfig(
        q_target=q_target,
        p_max=args.p_max,
        n_antennas_tx=args.antennas,
        noise_power_bob=args.noise_b,
        noise_power_eve=args.noise_e,
        blocklength=args.blocklength,
        constraints=_constraints(args),
        reciprocity=ReciprocityError(args.sigma_delta),
        trials=args.trials,
        seed=RngSeed(args.seed),
        approx=_approx(args),
    )


def _cipc_rows(result) -> Iterator[tuple[bytearray, int]]:
    from ._rows import _sim_rows

    return _sim_rows(result.p_t, result.gamma_b, result.gamma_e, result.assessment, result.sent)


@_command(
    "cipc",
    "channel-inversion power control Monte Carlo",
    _flag("--q-target", float, 1.0, "received-power constant Q, linear (default 1.0)"),
    *_CIPC_FLAGS,
)
def _cipc(args) -> _Report:
    from .cipc import run_cipc

    result = run_cipc(_cipc_config(args, args.q_target))
    s = result.summary
    return _Report(
        summary=[
            f"trials = {s.trials}",
            f"suspension_prob = {s.suspension_prob:.6f}",
            f"feasibility_prob = {s.feasibility_prob:.6f}",
            f"mean_delta_r = {s.mean_delta_r:.9g}",
            f"mean_gamma_e = {s.mean_gamma_e:.9g}",
        ],
        header=["trial_id", "p_t", "gamma_b_db", "gamma_e_db", *_ASSESSMENT_COLUMNS],
        rows=_cipc_rows(result),
    )


def _lob_config(args, an_fraction: float) -> LobConfig:
    from .lob import LobConfig
    from .numerics import RngSeed

    return LobConfig(
        n_antennas=args.antennas,
        theta_bob=math.radians(args.theta_bob_deg),
        theta_eve=math.radians(args.theta_eve_deg),
        location_error_std=math.radians(args.loc_error_deg),
        k_factor_bob=args.k_bob,
        k_factor_eve=args.k_eve,
        total_power=args.power,
        an_fraction=an_fraction,
        noise_power_bob=args.noise_b,
        noise_power_eve=args.noise_e,
        blocklength=args.blocklength,
        constraints=_constraints(args),
        trials=args.trials,
        seed=RngSeed(args.seed),
        approx=_approx(args),
    )


def _lob_rows(result) -> Iterator[tuple[bytearray, int]]:
    from ._rows import _sim_rows

    return _sim_rows(result.theta_hat, result.sinr_bob, result.sinr_eve, result.assessment)


@_command("lob", "location-based beamforming Monte Carlo", *_LOB_FLAGS)
def _lob(args) -> _Report:
    from .lob import run_lob

    result = run_lob(_lob_config(args, args.an_fraction))
    s = result.summary
    return _Report(
        summary=[
            f"trials = {s.trials}",
            f"mean_sinr_bob = {s.mean_sinr_bob:.9g}",
            f"mean_sinr_eve = {s.mean_sinr_eve:.9g}",
            f"feasibility_prob = {s.feasibility_prob:.6f}",
            f"mean_delta_r = {s.mean_delta_r:.9g}",
        ],
        header=["trial_id", "theta_hat", "sinr_bob_db", "sinr_eve_db", *_ASSESSMENT_COLUMNS],
        rows=_lob_rows(result),
    )


def _grid_report(name: str, best: float, curve: list[tuple[float, float]]) -> _Report:
    return _Report(
        summary=[f"{name}_star = {best:.9g}"]
        + [f"objective[{name}={x:.9g}] = {objective:.6f}" for x, objective in curve],
        header=[name, "objective"],
        rows=_lines((_sci(x), _sci(objective)) for x, objective in curve),
    )


@_command(
    "optimize-q",
    "grid search of the received-power constant",
    _flag("--q-grid", float, None, "Q values to evaluate", nargs="+", required=True),
    *_CIPC_FLAGS,
)
def _optimize_q(args) -> _Report:
    from .cipc import optimize_q

    result = optimize_q(_cipc_config(args, args.q_grid[0]), args.q_grid)
    return _grid_report("q", result.q_star, result.objective_curve)


@_command(
    "optimize-an",
    "grid search of the artificial-noise share",
    _flag("--phi-grid", float, None, "artificial-noise power shares in [0, 1)",
          nargs="+", required=True),
    *(flag for flag in _LOB_FLAGS if flag is not _AN_FRACTION),
)
def _optimize_an(args) -> _Report:
    from .lob import optimize_an_fraction

    result = optimize_an_fraction(_lob_config(args, args.phi_grid[0]), args.phi_grid)
    return _grid_report("phi", result.phi_star, result.objective_curve)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process and never changed."""
    parser = argparse.ArgumentParser(
        prog="fblsec",
        description="Finite-blocklength physical-layer security toolkit",
    )
    parser.add_argument("--version", action="version", version=f"fblsec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        p.add_argument("--config",
                       help="key = value file supplying defaults (a manifest replays a run)")
        p.add_argument("--out", required=command.out_required, help="output CSV path")
        p.add_argument("--log-term", type=_parse_bool, default=False, metavar="BOOL",
                       help="include the (log2 n)/(2n) rate correction (default false)")
        for flag, kwargs in command.flags:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _expand_config(list(argv))
    except _ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    from .numerics import UnsatisfiableError

    command = _COMMANDS[args.command]
    try:
        return _emit(args.command, command.out_required, args, command.run(args))
    except UnsatisfiableError as e:
        print(f"error: unsatisfiable scenario: {e}", file=sys.stderr)
        return EXIT_UNSATISFIABLE
    except ValueError as e:
        print(f"error: invalid arguments: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: I/O failure: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
