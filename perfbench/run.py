"""Host-time benchmark of the repro package: one workload, one seed.

    python3 perfbench/run.py --workload route-serve --seed 1 \
        --seconds 25 --trace 0

Runs the named workload (``route-serve``, ``churn-serve`` or ``native``,
see ``perfbench/README.md``) in its own process with BLAS and OpenMP
pinned to one thread, checks every output, and prints each metric with
its unit.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then traced (spans around each layer's
public functions, see ``tracing.py``), and reports the per-layer
metrics plus the tracing overhead.  The exit code is 0 when every
output was correct, 1 when any check failed, 2 on a usage error or when
the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTDIR = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))

from tracing import BOUNDARIES  # noqa: E402

WORKLOADS = ("route-serve", "churn-serve", "native")

#: Default workload seed, and the held-out seed no tuning may look at.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: Cold set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Every run, both processes of a traced run included, ends within this.
TIME_LIMIT_S = 170.0

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: name -> (unit, better).  Reported with ``--trace 0``.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "route_ms_p50": ("ms", "lower"),
    "route_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_ROUND_LAYERS = ("g0", "partition", "hierarchy", "route", "mst", "serve",
                 "native")
_EXTRA_UNITS = {
    "packets": ("count", "higher"),
    "phases": ("count", "lower"),
    "rounds": ("rounds", "lower"),
}


def _per_layer() -> dict[str, tuple[str, str]]:
    metrics: dict[str, tuple[str, str]] = {}
    for boundary in BOUNDARIES:
        metrics[f"{boundary.name}.calls"] = ("count", "lower")
        if boundary.timed:
            metrics[f"{boundary.name}.self_s"] = ("s", "lower")
        for extra, _ in boundary.extras:
            metrics[f"{boundary.name}.{extra}"] = _EXTRA_UNITS[extra]
    for layer in _ROUND_LAYERS + ("total",):
        metrics[f"rounds.{layer}"] = ("rounds", "lower")
    metrics.update({
        "ratio.portal_builds_per_mst": ("ratio", "lower"),
        "ratio.portal_builds_per_mst.base": ("count", "higher"),
        "ratio.update_rebuilds": ("ratio", "lower"),
        "ratio.update_rebuilds.base": ("count", "higher"),
        "ratio.packets_delivered": ("ratio", "higher"),
        "ratio.packets_delivered.base": ("count", "higher"),
        "trace.overhead": ("ratio", "lower"),
        "trace.overhead.base": ("1/s", "higher"),
        "op.mst_ms_p50": ("ms", "lower"),
        "op.update_ms_p50": ("ms", "lower"),
        "op.build_ms_p50": ("ms", "lower"),
        "op.error_rate": ("ratio", "lower"),
        "samples.route": ("count", "higher"),
        "samples.mst": ("count", "higher"),
        "samples.update": ("count", "higher"),
        "samples.build": ("count", "higher"),
    })
    return metrics


#: name -> (unit, better).  Reported with ``--trace 1``.
PER_LAYER = _per_layer()


# -- statistics --------------------------------------------------------------


def p50(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def p90(values: list[float]) -> float:
    """The 90th percentile (inclusive method); callers keep at least
    100 samples so ten lie beyond it."""
    if len(values) < 2:
        return p50(values)
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- the child processes ------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(
    args: argparse.Namespace, *, traced: bool, setups: int, deadline: float
) -> dict[str, Any]:
    """Run one workload process; return its JSON record."""
    command = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setups", str(setups),
        "--traced", "1" if traced else "0",
        "--scale", args.scale,
        "--outdir", str(OUTDIR),
    ]
    completed = subprocess.run(
        command,
        env=child_env(),
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"workload process exited with {completed.returncode}"
        )
    return json.loads(lines[-1])


# -- metrics -----------------------------------------------------------------


def ops_per_s(record: dict[str, Any]) -> float:
    return _ratio(record["ops"], record["measured_s"])


def end_to_end(record: dict[str, Any]) -> dict[str, float]:
    routes = record["latency_ms"].get("route", [])
    return {
        "setup_s": p50(record["setup_s"]),
        "ops_per_s": ops_per_s(record),
        "route_ms_p50": p50(routes),
        "route_ms_p90": p90(routes),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def per_layer(
    plain: dict[str, Any], traced: dict[str, Any]
) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for boundary in BOUNDARIES:
        counters = traced["layers"][boundary.name]
        metrics[f"{boundary.name}.calls"] = counters["calls"]
        if boundary.timed:
            metrics[f"{boundary.name}.self_s"] = counters["self_s"]
        for extra, _ in boundary.extras:
            metrics[f"{boundary.name}.{extra}"] = counters.get(extra, 0)
    rounds = traced["rounds"]
    for layer in _ROUND_LAYERS:
        metrics[f"rounds.{layer}"] = rounds.get(layer, 0.0)
    metrics["rounds.total"] = sum(rounds.values())
    msts = traced["msts"]
    metrics["ratio.portal_builds_per_mst"] = _ratio(
        traced["loop_portal_builds"], msts
    )
    metrics["ratio.portal_builds_per_mst.base"] = msts
    metrics["ratio.update_rebuilds"] = _ratio(
        traced["rebuilds"], traced["updates"]
    )
    metrics["ratio.update_rebuilds.base"] = traced["updates"]
    metrics["ratio.packets_delivered"] = _ratio(
        traced["delivered_packets"], traced["offered_packets"]
    )
    metrics["ratio.packets_delivered.base"] = traced["offered_packets"]
    plain_rate = ops_per_s(plain)
    metrics["trace.overhead"] = 1.0 - _ratio(ops_per_s(traced), plain_rate)
    metrics["trace.overhead.base"] = plain_rate
    latency = plain["latency_ms"]
    metrics["op.mst_ms_p50"] = p50(latency.get("mst", []))
    metrics["op.update_ms_p50"] = p50(latency.get("update", []))
    metrics["op.build_ms_p50"] = p50(latency.get("build", []))
    metrics["op.error_rate"] = _ratio(
        plain["failed"] + traced["failed"], plain["ops"] + traced["ops"]
    )
    for kind in ("route", "mst", "update", "build"):
        metrics[f"samples.{kind}"] = len(latency.get(kind, []))
    return metrics


# -- environment --------------------------------------------------------------


def git_commit() -> str:
    """The checkout's commit from ``.git`` (no git process needed)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict[str, Any]:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": {name: "1" for name in THREAD_VARS},
        "commit": git_commit(),
    }


# -- main ---------------------------------------------------------------------


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload and print its metrics."
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is "
        "the held-out seed for re-checking a claim)",
    )
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="'tiny' is the smoke-test size of the benchmark's own tests",
    )
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    OUTDIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    env = environment()
    try:
        if args.trace:
            plain = run_child(args, traced=False, setups=1, deadline=deadline)
            traced = run_child(args, traced=True, setups=1, deadline=deadline)
            records = [plain, traced]
            metrics = per_layer(plain, traced)
            declared = PER_LAYER
        else:
            plain = run_child(
                args, traced=False, setups=SETUPS, deadline=deadline
            )
            records = [plain]
            metrics = end_to_end(plain)
            declared = END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    attempted = sum(record["attempted"] for record in records)
    failed = sum(record["failed"] for record in records)
    failures = [line for record in records for line in record["failures"]]
    if args.trace and min(r["ops"] for r in records) >= plain["prefix"]:
        if plain["digest"] != traced["digest"]:
            failed += 1
            failures.append("per-op rounds differ between the two runs")
    correct = failed == 0 and attempted > 0

    for line in failures:
        print(f"FAILED {line}")
    print(json.dumps({"environment": env}))
    print(
        f"# {args.workload} seed={args.seed} ops={attempted} "
        f"failed={failed} error_rate={_ratio(failed, attempted):.6g} "
        f"rounds_digest={plain['digest'][:16]} "
        f"route_samples={len(plain['latency_ms'].get('route', []))}"
    )
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {declared[name][0]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": declared[name][0]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
