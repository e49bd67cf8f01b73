"""Compare the CLI of two fblsec source trees on a fixed set of command lines.

usage: python tools/cli_diff.py OLD_SRC NEW_SRC

Each case runs every command line of its list, in order, in a fresh
interpreter inside one empty directory, and records the exit code, stdout,
stderr and every file left behind. The manifest ``timestamp`` line, the
``file.py:line:`` prefix of Python warnings and the source line printed
under such a warning are masked, since none of them is output of the
program. The argparse spec of every subcommand (flags, dests, types, defaults,
required-ness, nargs, metavar, help) is compared too, and so is the
digest that tools/query_digest.py prints for each tree, which covers the
library's answers to every query of the metrics-queries pool.

A case passes only when both trees give identical results, byte for
byte; the exit code is 1 when any case or the two digests differ.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile

RUN = "import sys; from fblsec.cli import main; sys.exit(main(sys.argv[1:]))"
QUERY_DIGEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "query_digest.py")
SPEC = r"""
import argparse, json
from fblsec import cli

def dump(parser):
    return [(a.option_strings, a.dest, getattr(a.type, "__name__", repr(a.type)), repr(a.default),
             a.required, a.nargs, a.metavar, a.help) for a in parser._actions
            if not isinstance(a, argparse._SubParsersAction)]

parser = cli._build_parser()
spec = {"": dump(parser)}
for action in parser._actions:
    if isinstance(action, argparse._SubParsersAction):
        spec.update((name, dump(sub)) for name, sub in action.choices.items())
print(json.dumps(spec))
"""
COMMANDS = ("fig2", "fig3", "gap", "interval", "minblock", "cipc", "lob", "optimize-q", "optimize-an")
FILES = {"bad.cfg": "# fine\nnot a pair\n", "c.cfg": "steps = 10\nn_list = 50\n", "q.cfg": "q_grid = 1 2\n"}


def _one(*argv: str) -> list[list[str]]:
    return [list(argv)]


CASES = [
    _one("fig2", "--out", "f.csv", "--n-list", "100", "200", "--steps", "20"),
    _one("fig2", "--out", "f.csv", "--n-list", "128", "--steps", "2", "--rate-min", "0.5",
         "--rate-max", "4", "--log-term", "true"),
    _one("fig3", "--out", "f.csv", "--n-count", "15"),
    _one("fig3", "--out", "f.csv", "--n-min", "50", "--n-max", "50"),
    _one("gap", "--n", "500", "--rate", "1.0"),
    _one("gap", "--n", "500", "--rate", "1.0", "--out", "g.csv"),
    _one("gap", "--n", "1", "--rate", "0.5"),
    _one("gap", "--n", "500", "--rate", "1.0", "--log-term", "true"),
    _one("interval", "--n", "500"),
    _one("interval", "--n", "300", "--snr-b-db", "3", "--snr-e-db", "3", "--out", "i.csv"),
    _one("interval", "--n", "500", "--beta-b", "0.6", "--beta-e", "0.7"),
    # targets at which the normal quantile of 0.4.0 and that of 0.4.1 differ
    _one("interval", "--n", "50", "--snr-b-db", "0", "--snr-e-db", "-4", "--beta-b", "1e-4",
         "--beta-e", "0.05", "--out", "f.csv"),
    _one("fig3", "--out", "f.csv", "--beta-b", "1e-5", "--beta-e", "0.3"),
    _one("minblock"),
    _one("minblock", "--out", "m.csv", "--log-term", "true"),
    _one("cipc", "--trials", "50", "--sigma-delta", "0.05", "--seed", "7"),
    _one("cipc", "--trials", "200", "--antennas", "4", "--p-max", "3", "--sigma-delta", "0.05",
         "--out", "c.csv"),
    _one("cipc", "--trials", "1", "--out", "c.csv"),
    _one("cipc", "--trials", "5000", "--antennas", "4", "--p-max", "0.4", "--sigma-delta", "0.1",
         "--out", "c.csv"),
    _one("cipc", "--trials", "200", "--beta-e", "0.7", "--out", "c.csv"),
    _one("cipc", "--trials", "200", "--beta-e", "1.0", "--log-term", "true", "--out", "c.csv"),
    # SNRs that underflow to exactly zero, or at which 1 + SNR rounds to 1
    _one("cipc", "--trials", "5", "--q-target", "5e-324", "--out", "c.csv"),
    _one("interval", "--n", "500", "--snr-b-db", "-160", "--snr-e-db", "-160"),
    _one("lob", "--trials", "200", "--noise-b", "1e20", "--noise-e", "1e20"),
    # SNR columns whose sum passes the largest double
    _one("lob", "--trials", "200", "--noise-b", "1e-306", "--an-fraction", "0"),
    _one("cipc", "--trials", "20", "--out=c.csv", "--config=c.cfg"),
    # each draw branch: every trial suspended, no reciprocity error, no random draw at all
    _one("cipc", "--trials", "50", "--p-max", "1e-9", "--out", "c.csv"),
    _one("cipc", "--trials", "200", "--antennas", "4", "--sigma-delta", "0", "--out", "c.csv"),
    _one("lob", "--trials", "30", "--k-bob", "inf", "--k-eve", "inf", "--loc-error-deg", "0",
         "--out", "l.csv"),
    _one("lob", "--trials", "30", "--loc-error-deg", "2"),
    _one("lob", "--trials", "200", "--loc-error-deg", "3", "--k-bob", "5", "--an-fraction", "0.4",
         "--out", "l.csv"),
    _one("lob", "--trials", "25", "--an-fraction", "1.0", "--out", "l.csv"),
    _one("lob", "--trials", "3000", "--loc-error-deg", "3", "--k-bob", "5", "--an-fraction", "0.4",
         "--out", "l.csv"),
    _one("lob", "--trials", "25", "--an-fraction", "1.0", "--beta-e", "0.7", "--out", "l.csv"),
    _one("lob", "--trials", "50", "--an-fraction", "1.0", "--beta-e", "1.0", "--out", "l.csv"),
    _one("lob", "--trials", "50", "--out", "l.csv"),
    _one("lob", "--trials", "40", "--antennas", "8", "--k-bob", "inf", "--loc-error-deg", "1",
         "--out", "l.csv"),
    # edges of the CSV cell kernel: huge and tiny magnitudes, three-digit
    # exponents, trial counts at a multiple of the 1024-trial block and
    # either side of it, and a large run
    _one("lob", "--trials", "300", "--noise-e", "1e200", "--out", "l.csv"),
    _one("lob", "--trials", "300", "--loc-error-deg", "1e-200", "--out", "l.csv"),
    _one("cipc", "--trials", "300", "--q-target", "1e-200", "--p-max", "1e-199", "--out", "c.csv"),
    _one("cipc", "--trials", "1023", "--antennas", "4", "--p-max", "0.4", "--out", "c.csv"),
    _one("cipc", "--trials", "2048", "--antennas", "4", "--p-max", "0.4", "--out", "c.csv"),
    _one("cipc", "--trials", "2049", "--antennas", "4", "--p-max", "0.4", "--out", "c.csv"),
    _one("cipc", "--trials", "200000", "--antennas", "4", "--sigma-delta", "0.05", "--out", "c.csv"),
    # suspended rows, which print as fixed text: about a quarter of the
    # rows over 196 blocks, then every row over 3 blocks
    _one("cipc", "--trials", "200000", "--antennas", "4", "--sigma-delta", "0.05", "--p-max", "0.4",
         "--out", "c.csv"),
    _one("cipc", "--trials", "3000", "--antennas", "4", "--p-max", "1e-3", "--out", "c.csv"),
    _one("optimize-q", "--q-grid", "0.5", "1", "2", "--trials", "60"),
    _one("optimize-q", "--q-grid", "0.5", "1", "2", "--trials", "60", "--out", "q.csv"),
    _one("optimize-q", "--q-grid", "1", "--trials", "10", "--out", "q.csv"),
    _one("optimize-an", "--phi-grid", "0", "0.3", "0.6", "--trials", "40", "--loc-error-deg", "2"),
    _one("optimize-an", "--phi-grid", "0", "0.3", "0.6", "--trials", "40", "--loc-error-deg", "2",
         "--out", "a.csv"),
    # one draw scored at every grid point
    _one("optimize-an", "--phi-grid", "0.05", "0.15", "0.25", "0.35", "0.5", "0.65", "--antennas", "6",
         "--k-bob", "5", "--k-eve", "1", "--loc-error-deg", "4", "--trials", "100", "--out", "a.csv"),
    _one("optimize-an", "--phi-grid", "0", "0.2", "0.5", "--k-bob", "inf", "--k-eve", "inf",
         "--loc-error-deg", "0", "--trials", "30", "--out", "a.csv"),
    # error paths
    _one("gap", "--n", "500", "--rate", "99"),
    # a rate at which Q's argument reads -inf, a dB value past the largest
    # double, and an infinite end of the fig2 rate grid
    _one("gap", "--n", "10", "--rate", "1e307"),
    _one("interval", "--n", "10", "--snr-b-db", "3090"),
    _one("fig2", "--out", "f.csv", "--rate-max", "inf"),
    # a subnormal SNR, at which Q's argument reads +inf below capacity; a
    # negative end of the rate grid; a bad K factor of either receiver
    _one("fig2", "--out", "f.csv", "--snr-db", "-3236", "--rate-min", "0", "--rate-max", "1",
         "--steps", "2", "--n-list", "10"),
    _one("fig2", "--out", "f.csv", "--rate-min", "-1"),
    _one("lob", "--trials", "3", "--k-bob", "-1"),
    _one("lob", "--trials", "3", "--k-eve", "nan"),
    # both sides unsatisfiable: Bob's low bracket end is checked first
    _one("gap", "--n", "1", "--rate", "1e-9", "--beta-b", "0.6", "--beta-e", "1e-50"),
    _one("minblock", "--snr-b-db", "0", "--snr-e-db", "10", "--n-max", "1000", "--out", "m.csv"),
    _one("minblock", "--beta-e", "1.0"),
    _one("optimize-an", "--phi-grid", "0", "1.0", "--trials", "10"),
    _one("fig2", "--out", "f.csv", "--steps", "ten"),
    _one("cipc", "--no-such-flag"),
    _one("lob", "--antennas"),
    _one("optimize-an", "--trials", "5"),
    _one("never-heard-of-it"),
    _one(),
    _one("--version"),
    _one("fig2"),
    _one("gap", "--n", "500"),
    _one("fig2", "--out", "nodir/f.csv"),
    _one("gap", "--n", "500", "--rate", "1.0", "--out", "nodir/g.csv"),
    _one("fig2", "--out", "", "--steps", "5"),
    _one("gap", "--n", "500", "--rate", "1.0", "--out", ""),
    _one("fig2", "--out", "f.csv", "--steps", "1"),
    _one("fig2", "--out", "f.csv", "--rate-min", "2", "--rate-max", "1"),
    _one("fig3", "--out", "f.csv", "--n-min", "20", "--n-max", "10"),
    _one("cipc", "--trials", "0"),
    _one("lob", "--antennas", "1"),
    _one("lob", "--power", "inf", "--an-fraction", "0"),
    _one("cipc", "--noise-b", "inf"),
    _one("lob", "--trials", "3", "--loc-error-deg", "inf"),
    _one("cipc", "--trials", "3", "--sigma-delta", "inf"),
    # valid noise powers so small that an SNR overflows
    _one("cipc", "--trials", "200", "--noise-e", "5e-324"),
    _one("lob", "--trials", "200", "--noise-b", "1e-320", "--an-fraction", "0"),
    # a transmit power, or a received power, that overflows
    _one("cipc", "--trials", "200", "--q-target", "1e308", "--p-max", "inf"),
    _one("cipc", "--trials", "20", "--antennas", "4", "--q-target", "1e308", "--p-max", "1e308",
         "--sigma-delta", "0.5", "--seed", "0"),
    _one("lob", "--trials", "50", "--power", "1e308", "--an-fraction", "0.5"),
    _one("optimize-an", "--trials", "50", "--power", "1e308", "--phi-grid", "0", "0.5"),
    # an artificial-noise power that overflows
    *(_one(*flags, "--trials", "2000", "--power", "1.7976931348623157e308", "--noise-b",
           "1.7976931348623157e306", "--noise-e", "1.7976931348623157e306")
      for flags in (("lob", "--an-fraction", "0.9"), ("optimize-an", "--phi-grid", "0.9"))),
    # config files and manifest replay
    [["fig2", "--out", "a.csv", "--n-list", "300", "--steps", "10"],
     ["fig2", "--config", "a.csv.manifest", "--out", "b.csv"]],
    [["fig2", "--out", "a.csv", "--n-list", "50", "--steps", "5"],
     ["fig3", "--config", "a.csv.manifest", "--out", "b.csv"]],
    [["cipc", "--trials", "30", "--sigma-delta", "0.1", "--out", "a.csv"],
     ["cipc", "--config", "a.csv.manifest", "--out", "b.csv"]],
    [["lob", "--trials", "30", "--loc-error-deg", "2", "--out", "a.csv"],
     ["lob", "--config", "a.csv.manifest", "--out", "b.csv"]],
    [["optimize-an", "--phi-grid", "0.1", "0.2", "--trials", "20", "--out", "a.csv"],
     ["optimize-an", "--config", "a.csv.manifest", "--trials", "25", "--out", "b.csv"]],
    _one("fig2", "--out", "o.csv", "--config", "bad.cfg"),
    _one("fig2", "--config", "c.cfg", "--steps", "4", "--out", "o.csv"),
    _one("fig2", "--config", "missing.cfg", "--out", "o.csv"),
    _one("cipc", "--config", "q.cfg", "--trials", "5"),
    # abbreviated flags are refused, so a config is never silently dropped
    [["cipc", "--trials", "30", "--seed", "7", "--out", "a.csv"],
     ["cipc", "--conf", "a.csv.manifest", "--out", "b.csv"]],
    _one("lob", "--conf=missing.cfg", "--out", "o.csv"),
    # negative values in exponent form or infinite, joined by "=" or not
    [["interval", "--n", "500", "--snr-e-db=-0.00001", "--out", "a.csv"],
     ["interval", "--config", "a.csv.manifest", "--out", "b.csv"]],
    _one("interval", "--n", "500", "--snr-e-db", "-1e1"),
    _one("lob", "--trials", "20", "--theta-eve-deg", "-1e-5", "--out", "l.csv"),
    _one("cipc", "--trials", "3", "--p-max", "-inf"),
    _one("-h"),
] + [_one(name, "-h") for name in COMMANDS]


def _mask(text: str) -> str:
    text = re.sub(r"^timestamp = .*$", "timestamp = <masked>", text, flags=re.M)
    text = re.sub(r"^\S+\.py:\d+: (.*)\n  .*$", r"<source>: \1\n  <source line>", text, flags=re.M)
    return re.sub(r"^\S+\.py:\d+: ", "<source>: ", text, flags=re.M)


def _env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.abspath(src), COLUMNS="100")


def query_digest(src: str) -> str:
    """The SHA-256 that tools/query_digest.py prints for the tree at src."""
    p = subprocess.run([sys.executable, QUERY_DIGEST, src], env=_env(src), capture_output=True,
                       text=True, check=True)
    return p.stdout.split()[0]


def collect(src: str) -> dict:
    env = _env(src)
    spec = subprocess.run([sys.executable, "-c", SPEC], env=env, capture_output=True,
                          text=True, check=True)
    result = {"<parser spec>": json.loads(spec.stdout)}
    for steps in CASES:
        with tempfile.TemporaryDirectory() as d:
            for name, text in FILES.items():
                with open(os.path.join(d, name), "w") as f:
                    f.write(text)
            runs = []
            for argv in steps:
                p = subprocess.run([sys.executable, "-c", RUN, *argv], cwd=d, env=env,
                                   capture_output=True, text=True)
                runs.append({"code": p.returncode, "stdout": _mask(p.stdout),
                             "stderr": _mask(p.stderr)})
            files = {}
            for name in sorted(os.listdir(d)):
                if name not in FILES:
                    with open(os.path.join(d, name)) as f:
                        files[name] = _mask(f.read())
        result[" ; ".join(" ".join(argv) for argv in steps)] = {"runs": runs, "files": files}
    return result


def differences(old: dict, new: dict) -> list[str]:
    """What differs between the results of one case on the two trees."""
    bad = []
    for r_old, r_new in zip(old["runs"], new["runs"]):
        for stream in ("code", "stdout", "stderr"):
            if r_old[stream] != r_new[stream]:
                bad.append(f"{stream}: {r_old[stream]!r} vs {r_new[stream]!r}"[:300])
    if sorted(old["files"]) != sorted(new["files"]):
        bad.append(f"files {sorted(old['files'])} vs {sorted(new['files'])}")
    bad += [f"file {name} differs" for name, text in old["files"].items()
            if new["files"].get(name, text) != text]
    return bad


def main() -> int:
    old, new = collect(sys.argv[1]), collect(sys.argv[2])
    differing = [key for key in old if old[key] != new[key]]
    for key in differing:
        detail = "" if key == "<parser spec>" else " :: " + "; ".join(differences(old[key], new[key]))
        print("DIFFERS " + key + detail)
    print(f"identical={len(old) - len(differing)} differing={len(differing)} total={len(old)}")
    digests = [query_digest(src) for src in sys.argv[1:3]]
    print(("query digest " if digests[0] == digests[1] else "DIFFERS query digest ") + " vs ".join(digests))
    return 1 if differing or digests[0] != digests[1] else 0


if __name__ == "__main__":
    sys.exit(main())
