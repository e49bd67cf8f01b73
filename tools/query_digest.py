"""Print the SHA-256 of the answers to every query of the metrics-queries pool.

usage: python tools/query_digest.py [SRC]

SRC is a source tree holding the ``fblsec`` package (default: the ``src``
directory next to this script). The pool and the answer fields come from
``perfbench/workloads.py`` of this checkout, which is imported and never
written. Each answer is hashed exactly, floats as ``float.hex``, so two
trees print the same digest only when every answer is bit-identical.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
import warnings

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
WORKLOADS = os.path.join(ROOT, "perfbench", "workloads.py")


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv: list[str]) -> int:
    src = os.path.abspath(argv[0] if argv else os.path.join(ROOT, "src"))
    sys.path.insert(0, src)
    import fblsec

    if not os.path.abspath(fblsec.__file__).startswith(os.path.join(src, "")):
        print(f"fblsec imported from {fblsec.__file__}, not from {src}", file=sys.stderr)
        return 1
    wl = _workloads()
    pool = wl.query_pool()
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # beta_e > 0.5 queries warn by design
        for i, query in enumerate(pool):
            answer = wl.query_answer(query[0], wl.query_call(fblsec, query)())
            fields = (v.hex() if isinstance(v, float) else str(v) for v in answer)
            digest.update(f"{i} {query[0]} {' '.join(fields)}\n".encode())
    print(f"{digest.hexdigest()}  {len(pool)} queries, fblsec {fblsec.__version__} from {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
