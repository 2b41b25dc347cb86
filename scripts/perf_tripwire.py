#!/usr/bin/env python
"""DEPRECATED shim — use ``python -m repro bench tripwire --check``.

The native-build wall-budget canary now lives in the benchmark registry
as the ``tripwire`` suite (same n=256 G0 + level-1 workload, same 4.6 s
budget, gated uniformly with every other suite).  This shim keeps the
old invocation working for one release and will then be removed.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.bench import TRIPWIRE_BUDGET_S, tripwire_measurement


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--budget", type=float, default=TRIPWIRE_BUDGET_S)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    print(
        "perf_tripwire.py is deprecated; use "
        "`python -m repro bench tripwire --check`",
        file=sys.stderr,
    )
    row = tripwire_measurement(seed=args.seed, n=args.n)
    print(
        f"native_build n={row['n']}: wall={row['wall_s']:.3f}s "
        f"(budget {args.budget:.1f}s), rounds={row['rounds']}"
    )
    if row["wall_s"] > args.budget:
        print(
            f"PERF TRIPWIRE: native_build n={row['n']} took "
            f"{row['wall_s']:.3f}s, over the {args.budget:.1f}s budget "
            "— the array-native walk engine has regressed",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
