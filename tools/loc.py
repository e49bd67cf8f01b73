"""Count the lines of code of the fblsec package in one or more source trees.

usage: python tools/loc.py [SRC ...]

SRC is a source tree holding the ``fblsec`` package (default: the ``src``
directory next to this script). A line counts unless it is blank or its
first non-blank character is ``#``, the same rule as
``grep -v '^\\s*$' | grep -v '^\\s*#'``; docstrings count. One row per
module of any tree and a total, one column per tree; a module absent from
a tree reads ``-``.
"""

from __future__ import annotations

import os
import sys

SRC = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))


def count(path: str) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if line.strip() and not line.lstrip().startswith("#"))


def module_counts(src: str) -> dict[str, int]:
    package = os.path.join(src, "fblsec")
    return {name: count(os.path.join(package, name))
            for name in sorted(os.listdir(package)) if name.endswith(".py")}


def main(argv: list[str]) -> int:
    trees = argv or [SRC]
    counts = [module_counts(src) for src in trees]
    modules = sorted(set().union(*counts))
    width = max(len(name) for name in [*modules, "module"])
    cols = [max(8, len(src)) for src in trees]
    print("module".ljust(width), *(src.rjust(w) for src, w in zip(trees, cols)))
    for name in modules:
        print(name.ljust(width), *(str(c.get(name, "-")).rjust(w) for c, w in zip(counts, cols)))
    print("total".ljust(width), *(str(sum(c.values())).rjust(w) for c, w in zip(counts, cols)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
