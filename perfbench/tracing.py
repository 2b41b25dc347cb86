"""In-memory spans around the public functions of each layer.

The benchmark's traced run wraps every boundary listed in
:data:`BOUNDARIES` from the outside: the program itself is not edited.
A module-level function is rebound in *every* loaded ``repro`` module
that holds it under some name (``core.hierarchy`` imports
``run_regular_walks``, ``runtime.backends`` imports ``build_hierarchy``,
``congest.native`` imports ``schedule_paths_csr``, ...), so calls through
any import path are seen.  Methods are replaced on their class.

Each wrapped call is one span ``(id, parent, name, op, start, end)``;
``op`` is the index of the served operation the span belongs to (-1
during set-up).  A boundary's self time is its duration minus the time
covered by nested wrapped calls.  Spans stay in memory until
:meth:`Tracer.write_spans` at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Spans kept in memory; past this, calls are still counted and timed
#: but their span records are dropped (and the drop is counted).
MAX_SPANS = 400_000


@dataclass(frozen=True)
class Boundary:
    """One wrapped public function.

    Attributes:
        layer: the repro subpackage (``graphs``, ``walks``, ...).
        module: the module that defines the function.
        qualname: ``func`` or ``Class.method``.
        timed: ``False`` records ``.calls`` only (for functions called
            so often that a span would cost more than the call).
        extras: ``(counter, result attribute)`` pairs: each call adds
            the attribute of its result to the counter.
    """

    layer: str
    module: str
    qualname: str
    timed: bool = True
    extras: tuple[tuple[str, str], ...] = ()

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.qualname}"


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("graphs", "repro.graphs.graph", "Graph.__init__"),
    Boundary("walks", "repro.walks.mixing", "estimate_mixing_time"),
    Boundary("walks", "repro.walks.engine", "run_lazy_walks"),
    Boundary("walks", "repro.walks.engine", "run_regular_walks"),
    Boundary(
        "params", "repro.params", "Params.packets_per_node", timed=False
    ),
    Boundary("core", "repro.core.hierarchy", "build_hierarchy"),
    Boundary("core", "repro.core.embedding", "build_g0"),
    Boundary("core", "repro.core.partition", "build_partition"),
    Boundary("core", "repro.core.portals", "build_portals"),
    Boundary("core", "repro.core.hierarchy", "repair_overlay"),
    Boundary("core", "repro.core.mst", "MstRunner.run"),
    Boundary(
        "core",
        "repro.core.router",
        "Router.route",
        extras=(("packets", "num_packets"), ("phases", "num_phases")),
    ),
    Boundary(
        "baselines", "repro.baselines.routing_baselines", "schedule_paths"
    ),
    Boundary(
        "baselines",
        "repro.baselines.routing_baselines",
        "schedule_paths_csr",
        extras=(("rounds", "rounds"),),
    ),
    Boundary("congest", "repro.congest.native", "build_native_g0"),
    Boundary("congest", "repro.congest.native", "build_native_level1"),
    Boundary("congest", "repro.congest.native", "replay_walk_run"),
    Boundary("congest", "repro.congest.forwarding", "forward_demands"),
    Boundary("congest", "repro.congest.network", "Network.run"),
    Boundary("runtime", "repro.runtime.session", "Session.open"),
    Boundary("runtime", "repro.runtime.session", "serve_jsonl"),
    Boundary("runtime", "repro.runtime.session", "Session.submit"),
    Boundary("runtime", "repro.runtime.session", "Session.apply_update"),
    Boundary("runtime", "repro.runtime.store", "HierarchyStore.save"),
    Boundary("runtime", "repro.runtime.journal", "Journal.append_update"),
    Boundary("runtime", "repro.runtime.journal", "Journal.mark_served"),
)


class Stat:
    """Counters of one boundary."""

    __slots__ = ("calls", "self_s", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.extra: dict[str, int] = {}

    def add(self, extras: tuple[tuple[str, str], ...], result: Any) -> None:
        for counter, attribute in extras:
            self.extra[counter] = self.extra.get(counter, 0) + int(
                getattr(result, attribute)
            )


class Tracer:
    """Wraps the boundaries, keeps spans and per-boundary counters.

    Use :meth:`install` before the program runs and :meth:`uninstall`
    after; between them every call through a boundary is counted.
    """

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {b.name: Stat() for b in BOUNDARIES}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.op = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self) -> list:
        """Open a span; returns its frame ``[id, parent, start, child_s]``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, parent, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def end(self, frame: list, name: str, stat: Optional[Stat]) -> None:
        """Close ``frame`` (the innermost open span) under ``name``."""
        stop = time.perf_counter()
        self._stack.pop()
        duration = stop - frame[2]
        if self._stack:
            self._stack[-1][3] += duration
        if stat is not None:
            stat.self_s += duration - frame[3]
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (frame[0], frame[1], name, self.op, frame[2], stop)
            )
        else:
            self.dropped_spans += 1

    # -- wrapping ------------------------------------------------------------

    def _wrap_function(self, boundary: Boundary, fn: Callable) -> Callable:
        stat = self.stats[boundary.name]
        name = boundary.name
        extras = boundary.extras

        if not boundary.timed:

            def counted(*args: Any, **kwargs: Any) -> Any:
                stat.calls += 1
                return fn(*args, **kwargs)

            return counted

        if inspect.isgeneratorfunction(fn):
            # A generator's work happens while it is resumed, so each
            # resumption is one span; the call itself counts once.
            def generator(*args: Any, **kwargs: Any) -> Any:
                stat.calls += 1
                inner = fn(*args, **kwargs)
                while True:
                    frame = self.begin()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.end(frame, name, stat)
                    yield item

            return generator

        def timed(*args: Any, **kwargs: Any) -> Any:
            stat.calls += 1
            frame = self.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(frame, name, stat)
            stat.add(extras, result)
            return result

        return timed

    def install(self) -> None:
        """Wrap every boundary (imports the defining modules)."""
        for boundary in BOUNDARIES:
            module = importlib.import_module(boundary.module)
            if "." in boundary.qualname:
                class_name, attr = boundary.qualname.split(".")
                cls = getattr(module, class_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(
                        self._wrap_function(boundary, raw.__func__)
                    )
                else:
                    wrapped = self._wrap_function(boundary, raw)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(module, boundary.qualname)
            wrapper = self._wrap_function(boundary, original)
            for module_name, loaded in list(sys.modules.items()):
                if not module_name.startswith("repro") or loaded is None:
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._undo.append((loaded, attr, original))
                        setattr(loaded, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every rebound name (reverse order)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------------

    def self_time_total(self) -> float:
        """Sum of every boundary's self time."""
        return sum(stat.self_s for stat in self.stats.values())

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines (one span per line)."""
        with open(path, "w") as handle:
            for span_id, parent, name, op, start, stop in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "op": op,
                            "start": start,
                            "end": stop,
                        }
                    )
                    + "\n"
                )
