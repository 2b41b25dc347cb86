"""One benchmark workload, run in its own process.

``run.py`` starts this script once per run (twice for a traced run) with
BLAS/OpenMP pinned to one thread.  The script sets the workload up
``--setups`` times (the first request can be served after each); the
first of several sessions replays the deterministic prefix of the
record stream, and every session but the last is closed before the
loop.  The last serves the seeded stream for ``--seconds`` in a closed
loop with one client.  The script checks every output, compares the
loop's prefix digest with the replay's, and prints one JSON record as
its last line of standard output.

It drives the program only through its public API: the ``graphs``
generators, ``runtime.Session`` / ``runtime.serve_jsonl`` and
``congest.build_native_g0`` / ``build_native_level1``.  Functions are
looked up on their module at call time, so the traced run's wrappers
(see ``tracing.py``) see every call.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import math
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

import numpy as np

from repro import congest, graphs, runtime, walks
from repro.baselines import centralized_mst

from tracing import Tracer

WORKLOADS = ("route-serve", "churn-serve", "native")

#: Sizes per scale.  ``prefix`` is the deterministic head of the stream
#: whose per-op rounds are digested and replayed; ``min_routes`` keeps
#: the loop going past ``--seconds`` until the route p90 has at least
#: ten samples beyond it.
SCALES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "route-serve": {"n": 512, "degree": 6, "pairs": 32, "prefix": 24,
                        "min_routes": 100},
        "churn-serve": {"n": 256, "p": 0.03, "pairs": 32, "prefix": 30,
                        "min_routes": 100},
        "native": {"build_n": 256, "session_n": 64, "routes": 16,
                   "prefix": 17, "min_routes": 100},
    },
    "tiny": {
        "route-serve": {"n": 48, "degree": 4, "pairs": 8, "prefix": 8,
                        "min_routes": 10},
        "churn-serve": {"n": 40, "p": 0.2, "pairs": 8, "prefix": 10,
                        "min_routes": 10},
        "native": {"build_n": 32, "session_n": 16, "routes": 4,
                   "prefix": 5, "min_routes": 8},
    },
}

#: Hard stop, as a multiple of ``--seconds``, for a program too slow to
#: reach ``min_routes`` (keeps every run well inside its time limit).
HARD_STOP_FACTOR = 2.5

#: Seed of the native workload's two graphs (fixed, see setup_native).
NATIVE_GRAPH_SEED = 0

ZIPF_EXPONENT = 1.3
MST_REL_TOL = 1e-9

Item = tuple  # (kind, record, meta)


def _rng(seed: int, workload: str, stream: int) -> np.random.Generator:
    """A generator for one named input stream of one workload."""
    return np.random.default_rng([seed, WORKLOADS.index(workload), stream])


# -- record streams (the benchmark's own code; no program calls) ------------


def route_serve_source(n: int, pairs: int, seed: int) -> Iterator[Item]:
    """Blocks of four route requests: one full permutation (Theorem
    1.2's instance) and three ``pairs``-pair requests whose sources are
    Zipf-skewed over a seeded ranking of the nodes."""
    rng = _rng(seed, "route-serve", 1)
    pmf = np.arange(1, n + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    pmf /= pmf.sum()
    ranking = rng.permutation(n)
    index = 0
    while True:
        permutation_slot = int(rng.integers(4))
        for slot in range(4):
            if slot == permutation_slot:
                sources = list(range(n))
                destinations = rng.permutation(n).tolist()
            else:
                sources = ranking[rng.choice(n, size=pairs, p=pmf)].tolist()
                destinations = rng.integers(0, n, size=pairs).tolist()
            yield "route", {
                "op": "route",
                "args": {"sources": sources, "destinations": destinations},
                "id": f"r{index}",
            }, {"packets": len(sources)}
            index += 1


def _connected(n: int, adjacency: list[set[int]]) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for other in adjacency[node]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return len(seen) == n


def churn_serve_source(
    n: int, edges: list[tuple[int, int]], pairs: int, seed: int
) -> Iterator[Item]:
    """Blocks of ten ops in seeded order: seven ``pairs``-pair routes,
    two MSTs with fresh uniform weights, one topology update.

    The update removes a live edge whose loss keeps the graph connected
    or re-adds a removed one, 50/50.  ``live`` mirrors the session
    graph's edge order (removals pop, additions append), so MST weights
    line up with the served graph's edges.
    """
    rng = _rng(seed, "churn-serve", 1)
    live = list(edges)
    removed: list[tuple[int, int]] = []
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for u, v in live:
        adjacency[u].add(v)
        adjacency[v].add(u)
    block = ["route"] * 7 + ["mst"] * 2 + ["update"]
    index = 0
    while True:
        for position in rng.permutation(len(block)).tolist():
            kind = block[position]
            ident = f"c{index}"
            index += 1
            if kind == "route":
                sources = rng.integers(0, n, size=pairs).tolist()
                destinations = rng.integers(0, n, size=pairs).tolist()
                yield kind, {
                    "op": "route",
                    "args": {"sources": sources, "destinations": destinations},
                    "id": ident,
                }, {"packets": pairs}
            elif kind == "mst":
                weights = rng.random(len(live)).tolist()
                yield kind, {
                    "op": "mst", "args": {"weights": weights}, "id": ident,
                }, {"edges": tuple(live), "weights": weights}
            elif removed and rng.random() < 0.5:
                u, v = removed.pop(int(rng.integers(len(removed))))
                live.append((u, v))
                adjacency[u].add(v)
                adjacency[v].add(u)
                yield kind, {"update": {"edges_added": [[u, v]]}}, {}
            else:
                while True:
                    position = int(rng.integers(len(live)))
                    u, v = live[position]
                    adjacency[u].discard(v)
                    adjacency[v].discard(u)
                    if _connected(n, adjacency):
                        break
                    adjacency[u].add(v)
                    adjacency[v].add(u)
                live.pop(position)
                removed.append((u, v))
                yield kind, {"update": {"edges_removed": [[u, v]]}}, {}


def native_source(session_n: int, routes: int, seed: int) -> Iterator[Item]:
    """Cycles: a construction seed, then ``routes`` full permutations."""
    rng = _rng(seed, "native", 1)
    cycle = 0
    while True:
        build_seed = int(rng.integers(1 << 30))
        records = [
            ("route", {
                "op": "route",
                "args": {
                    "sources": list(range(session_n)),
                    "destinations": rng.permutation(session_n).tolist(),
                },
                "id": f"n{cycle}.{k}",
            }, {"packets": session_n})
            for k in range(routes)
        ]
        yield "cycle", build_seed, records
        cycle += 1


# -- set-up -------------------------------------------------------------------


@dataclass
class Served:
    """What one set-up produced: the warm session and its inputs."""

    session: Any
    graph: Any
    build_graph: Any = None
    tau: int = 0


def _random_regular(
    n: int, degree: int, seed: int, workload: str, stream: int
):
    return graphs.random_regular(n, degree, _rng(seed, workload, stream))


def setup_route_serve(cfg, seed, workdir, sink) -> Served:
    graph = _random_regular(cfg["n"], cfg["degree"], seed, "route-serve", 0)
    config = runtime.RunConfig(seed=seed, trace=sink)
    return Served(runtime.Session.open(graph, config), graph)


def setup_churn_serve(cfg, seed, workdir, sink) -> Served:
    graph = graphs.erdos_renyi(
        cfg["n"], cfg["p"], _rng(seed, "churn-serve", 0)
    )
    os.makedirs(workdir, exist_ok=True)
    config = runtime.RunConfig(seed=seed, trace=sink)
    session = runtime.Session.open(
        graph,
        config,
        store=runtime.HierarchyStore(os.path.join(workdir, "store")),
        journal=os.path.join(workdir, "journal.jsonl"),
    )
    return Served(session, graph)


def setup_native(cfg, seed, workdir, sink) -> Served:
    # Both graphs are the same for every seed, like the tripwire's
    # instance: at n=64 the hierarchy's randomness alone moves a
    # permutation's rounds by up to 1.6x between seeds, and the n=256
    # graph's tau sets the walk length and with it the construction's
    # time and peak memory.  The seed picks every construction seed and
    # every permutation.
    build_graph = _random_regular(
        cfg["build_n"], 6, NATIVE_GRAPH_SEED, "native", 0
    )
    tau = walks.estimate_mixing_time(build_graph)
    graph = _random_regular(
        cfg["session_n"], 6, NATIVE_GRAPH_SEED, "native", 2
    )
    config = runtime.RunConfig(
        seed=NATIVE_GRAPH_SEED, backend="native", trace=sink
    )
    session = runtime.Session.open(graph, config)
    return Served(session, graph, build_graph=build_graph, tau=tau)


SETUPS = {
    "route-serve": setup_route_serve,
    "churn-serve": setup_churn_serve,
    "native": setup_native,
}


def make_source(workload: str, cfg, seed: int, served: Served) -> Iterator:
    if workload == "route-serve":
        return route_serve_source(cfg["n"], cfg["pairs"], seed)
    if workload == "churn-serve":
        edges = [(int(u), int(v)) for u, v in served.graph.edge_array]
        return churn_serve_source(cfg["n"], edges, cfg["pairs"], seed)
    return native_source(cfg["session_n"], cfg["routes"], seed)


# -- serving ------------------------------------------------------------------


@dataclass
class Outcome:
    """Everything one pass over a stream produced."""

    sink: Any = None
    prefix: int = 0
    ops: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    excluded_s: float = 0.0
    latency_ms: dict[str, list[float]] = field(
        default_factory=lambda: collections.defaultdict(list)
    )
    rounds: list[tuple[str, float]] = field(default_factory=list)
    offered_packets: int = 0
    delivered_packets: int = 0
    updates: int = 0
    rebuilds: int = 0
    msts: list[tuple] = field(default_factory=list)
    prefix_events: Optional[int] = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def exclude(self, seconds: float) -> None:
        """Take benchmark-side work (record generation, checks) out of
        the measured time."""
        self.excluded_s += seconds

    def _done(self, kind: str, ms: float, rounds: float) -> None:
        self.latency_ms[kind].append(ms)
        self.rounds.append((kind, rounds))
        self.ops += 1
        if self.ops == self.prefix and self.sink is not None:
            self.prefix_events = len(self.sink.events)

    def record(self, kind: str, ms: float, response: dict, meta: dict) -> None:
        index = self.ops
        if "error" in response:
            self.fail(f"op {index} ({kind}): error record {response['error']}")
            self._done(kind, ms, -1.0)
            return
        if kind == "update":
            report = response["update"]
            self.updates += 1
            self.rebuilds += bool(report["rebuilt"])
            self._done(kind, ms, float(report["rounds"]))
            return
        result = response["result"]
        if kind == "route":
            self.offered_packets += meta["packets"]
            if result["delivered"]:
                self.delivered_packets += int(result["packets"])
            else:
                self.fail(f"op {index} (route): not delivered")
        elif kind == "mst":
            self.msts.append(
                (index, meta["edges"], meta["weights"], result["total_weight"])
            )
        self._done(kind, ms, float(response["rounds"]))

    def record_build(self, ms: float, rounds: int, problem: Optional[str]):
        if problem is not None:
            self.fail(f"op {self.ops} (build): {problem}")
        self._done("build", ms, float(rounds))

    def digest(self) -> str:
        head = self.rounds[: self.prefix]
        return hashlib.sha256(json.dumps(head).encode()).hexdigest()


def serve_records(
    session, source: Iterator[Item], outcome: Outcome, tracer, should_stop
) -> None:
    """Hand records to ``runtime.serve_jsonl`` one at a time (closed
    loop) and time each from hand-off until its response is yielded.
    Record generation is excluded from the measured time."""
    pending: collections.deque = collections.deque()
    clock = time.perf_counter

    def feed() -> Iterator[dict]:
        while not should_stop():
            began = clock()
            frame = tracer.begin() if tracer else None
            item = next(source, None)
            if tracer:
                tracer.end(frame, "bench.stream", None)
            outcome.exclude(clock() - began)
            if item is None:
                return
            kind, record, meta = item
            if tracer:
                tracer.op = outcome.ops
            pending.append((kind, meta, clock()))
            yield record

    for response in runtime.serve_jsonl(session, feed()):
        done = clock()
        kind, meta, handed = pending.popleft()
        outcome.record(kind, (done - handed) * 1e3, response, meta)


def native_problem(g0, level1) -> Optional[str]:
    """Why a native construction is wrong, or ``None``.

    Every overlay edge's embedded path must run from the tail's host to
    the head's host over base-graph edges; level-1 edges must join
    virtual nodes of the same part; both builds must take rounds.
    """
    base = g0.graph
    n = base.num_nodes
    arc_keys = np.sort(base.arc_tails * n + base.indices)

    def path_problem(paths, edge_array, label) -> Optional[str]:
        if len(paths) != edge_array.shape[0]:
            return f"{label}: {len(paths)} paths, {len(edge_array)} edges"
        if not paths:
            return None
        lengths = np.fromiter(map(len, paths), np.int64, len(paths))
        if (lengths < 1).any():
            return f"{label}: empty embedded path"
        flat = np.fromiter(
            itertools.chain.from_iterable(paths), np.int64, int(lengths.sum())
        )
        ends = np.cumsum(lengths)
        starts = ends - lengths
        hosts = g0.vnode_host[edge_array]
        if (flat[starts] != hosts[:, 0]).any() or (
            flat[ends - 1] != hosts[:, 1]
        ).any():
            return f"{label}: path endpoints are not the edge's hosts"
        step = np.ones(flat.size - 1, dtype=bool)
        step[starts[1:] - 1] = False
        tails, heads = flat[:-1][step], flat[1:][step]
        moves = tails != heads
        keys = tails[moves] * n + heads[moves]
        found = np.searchsorted(arc_keys, keys)
        found = np.minimum(found, arc_keys.size - 1)
        if (arc_keys[found] != keys).any():
            return f"{label}: path steps over a non-edge"
        return None

    problem = path_problem(g0.edge_paths, g0.overlay.edge_array, "G0")
    if problem is None:
        problem = path_problem(
            level1.edge_paths, level1.overlay.edge_array, "level 1"
        )
    if problem is None:
        pairs = level1.overlay.edge_array
        if (level1.parts[pairs[:, 0]] != level1.parts[pairs[:, 1]]).any():
            problem = "level 1: edge joins two parts"
    if problem is None and min(g0.build_rounds, level1.build_rounds) <= 0:
        problem = "construction took no rounds"
    return problem


def serve_native(
    served: Served, source, outcome: Outcome, tracer, should_stop
) -> None:
    """Cycles of one native construction plus a burst of routes."""
    clock = time.perf_counter
    while not should_stop():
        began = clock()
        _, build_seed, records = next(source)
        outcome.exclude(clock() - began)
        if tracer:
            tracer.op = outcome.ops
        began = clock()
        g0 = congest.build_native_g0(
            served.build_graph,
            walks_per_vnode=12,
            degree=6,
            length=2 * served.tau,
            seed=build_seed,
        )
        level1 = congest.build_native_level1(
            g0, beta=3, degree=4, length=8, seed=build_seed + 1
        )
        ms = (clock() - began) * 1e3
        began = clock()
        problem = native_problem(g0, level1)
        outcome.exclude(clock() - began)
        outcome.record_build(
            ms, g0.build_rounds + level1.build_rounds, problem
        )
        serve_records(
            served.session, iter(records), outcome, tracer, lambda: False
        )


def serve(workload, served, source, outcome, tracer, should_stop) -> None:
    if workload == "native":
        serve_native(served, source, outcome, tracer, should_stop)
    else:
        serve_records(served.session, source, outcome, tracer, should_stop)


def check_msts(n: int, outcome: Outcome) -> None:
    """Every MST's weight must equal Kruskal's on the same weights."""
    for index, edges, weights, reported in outcome.msts:
        weighted = graphs.WeightedGraph(n, list(edges), np.asarray(weights))
        chosen = centralized_mst.kruskal(weighted)
        expected = math.fsum(weights[eid] for eid in chosen)
        if not math.isclose(reported, expected, rel_tol=MST_REL_TOL):
            outcome.fail(
                f"op {index} (mst): weight {reported!r} != "
                f"Kruskal {expected!r}"
            )


def rounds_by_layer(events) -> dict[str, float]:
    """Ledger charges grouped by the first label component."""
    totals: dict[str, float] = collections.defaultdict(float)
    for event in events:
        if event.kind == "ledger_charge":
            totals[event.name.split("/", 1)[0]] += float(
                event.payload.get("rounds", 0.0)
            )
    return dict(totals)


# -- one run ------------------------------------------------------------------


def run(
    workload: str,
    seed: int,
    seconds: float,
    setups: int,
    traced: bool,
    scale: str,
    outdir: str,
) -> dict[str, Any]:
    cfg = SCALES[scale][workload]
    workdir = os.path.join(outdir, f"work-{os.getpid()}")
    tracer = Tracer() if traced else None
    sink = runtime.MemorySink() if traced else None
    opened: list[Served] = []
    started = time.perf_counter()
    try:
        if tracer:
            tracer.install()
        setup_s = []
        replay: Optional[Outcome] = None
        for attempt in range(setups):
            last = attempt == setups - 1
            began = time.perf_counter()
            served = SETUPS[workload](
                cfg, seed, os.path.join(workdir, f"setup{attempt}"),
                sink if last else None,
            )
            setup_s.append(time.perf_counter() - began)
            opened.append(served)
            if last:
                break
            if attempt == 0:
                # The first extra session replays the stream's prefix
                # before the loop; the loop's digest must match it.
                replay = Outcome(prefix=cfg["prefix"])
                try:
                    serve(
                        workload,
                        served,
                        make_source(workload, cfg, seed, served),
                        replay,
                        None,
                        lambda: replay.ops >= replay.prefix,
                    )
                except Exception as error:
                    replay.fail(f"prefix replay raised {error!r}")
            # Only the serving session is alive during the loop.
            opened.pop().session.close()
        serving = opened[-1]

        outcome = Outcome(sink=sink, prefix=cfg["prefix"])
        portal_builds = (
            tracer.stats["core.build_portals"].calls if tracer else 0
        )
        loop_start = time.perf_counter()
        deadline = loop_start + seconds
        hard_stop = loop_start + HARD_STOP_FACTOR * seconds

        def should_stop() -> bool:
            now = time.perf_counter()
            if now >= hard_stop:
                return True
            return (
                now >= deadline
                and outcome.ops >= outcome.prefix
                and len(outcome.latency_ms["route"]) >= cfg["min_routes"]
            )

        try:
            serve(
                workload,
                serving,
                make_source(workload, cfg, seed, serving),
                outcome,
                tracer,
                should_stop,
            )
        except Exception as error:  # the run must report, not crash
            outcome.fail(f"op {outcome.ops}: raised {error!r}")
        loop_s = time.perf_counter() - loop_start
        traced_s = time.perf_counter() - started
        if tracer:
            tracer.uninstall()

        check_msts(serving.graph.num_nodes, outcome)
        replay_digest = None
        if replay is not None:
            if replay.failed:
                outcome.fail(
                    f"prefix replay: {replay.failed} failed, first: "
                    f"{replay.failures[0]}"
                )
            replay_digest = replay.digest()
            reached = outcome.ops >= outcome.prefix
            if reached and replay_digest != outcome.digest():
                outcome.fail("per-op rounds of the prefix differ on replay")

        record: dict[str, Any] = {
            "workload": workload,
            "seed": seed,
            "scale": scale,
            "traced": traced,
            "setup_s": setup_s,
            "ops": outcome.ops,
            "loop_s": loop_s,
            "measured_s": loop_s - outcome.excluded_s,
            "latency_ms": dict(outcome.latency_ms),
            "attempted": outcome.ops,
            "failed": outcome.failed,
            "failures": outcome.failures,
            "digest": outcome.digest(),
            "replay_digest": replay_digest,
            "prefix": outcome.prefix,
            "offered_packets": outcome.offered_packets,
            "delivered_packets": outcome.delivered_packets,
            "updates": outcome.updates,
            "rebuilds": outcome.rebuilds,
            "msts": len(outcome.msts),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        if tracer:
            record["traced_s"] = traced_s
            record["self_s_total"] = tracer.self_time_total()
            record["layers"] = {
                name: {
                    "calls": stat.calls,
                    "self_s": stat.self_s,
                    **stat.extra,
                }
                for name, stat in tracer.stats.items()
            }
            record["loop_portal_builds"] = (
                tracer.stats["core.build_portals"].calls - portal_builds
            )
            head = sink.events[: outcome.prefix_events]
            rounds = rounds_by_layer(head)
            rounds["native"] = math.fsum(
                value
                for kind, value in outcome.rounds[: outcome.prefix]
                if kind == "build"
            )
            record["rounds"] = rounds
            spans_path = os.path.join(
                outdir, f"spans-{workload}-seed{seed}.jsonl"
            )
            tracer.write_spans(spans_path)
            record["spans"] = {
                "path": spans_path,
                "kept": len(tracer.spans),
                "dropped": tracer.dropped_spans,
            }
        return record
    finally:
        if tracer:
            tracer.uninstall()
        for served in opened:
            served.session.close()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--outdir", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)
    record = run(
        args.workload,
        args.seed,
        args.seconds,
        max(1, args.setups),
        bool(args.traced),
        args.scale,
        args.outdir,
    )
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
