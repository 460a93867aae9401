"""Timing shims for the benchmark's traced run.

:class:`Tracer` wraps the public entry points of each layer (see
``TARGETS``) in place, in the workload process only. Every call becomes a
span with a name, start, end and parent span (the innermost traced call
still open on the same thread); spans stay in memory and are written out
once, at the end. Per-layer self time is a span's duration minus the
durations of its child spans.

Nothing here changes what the program computes: each shim calls the
original and returns its result unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from pathlib import Path

# (module, class or None for a module function, attribute, span name)
TARGETS = [
    ("repro.core.planner", "RapPlanner", "plan", "planner.plan"),
    ("repro.core.planner", "RapPlanner", "replan", "planner.replan"),
    ("repro.core.planner", "RapPlanner", "evaluate", "planner.evaluate"),
    ("repro.milp.branch_and_bound", "BranchAndBoundSolver", "solve", "milp.solve"),
    ("repro.dlrm.training", "TrainingWorkload", "simulate", "gpusim.simulate"),
    ("repro.ingest.sources", "SyntheticSource", "batch", "ingest.produce"),
    ("repro.core.codegen", None, "compile_plan", "engine.compile"),
    ("repro.preprocessing.engine", "CompiledProgram", "execute", "engine.execute"),
    ("repro.runtime.executor", "FaultTolerantRuntime", "run_iteration", "runtime.iteration"),
    ("repro.runtime.executor", "FaultTolerantRuntime", "save_checkpoint", "checkpoint.save"),
    ("repro.runtime.journal", "RunJournal", "append", "journal.append"),
    ("repro.telemetry.session", "TelemetrySession", "record_iteration",
     "telemetry.record_iteration"),
    ("repro.telemetry.session", "TelemetrySession", "record_kernel_sample",
     "telemetry.record_kernel_sample"),
    ("repro.telemetry.session", "TelemetrySession", "check_drift", "telemetry.check_drift"),
    ("repro.telemetry.session", "TelemetrySession", "flush", "telemetry.flush"),
    ("repro.telemetry.session", "TelemetrySession", "write_artifacts",
     "telemetry.write_artifacts"),
    ("repro.service.service", "PreprocessingService", "run", "service.run"),
]


class Tracer:
    """In-memory span recorder that installs itself around layer entry points."""

    def __init__(self) -> None:
        # A span is [name, start, end, parent span or None, thread id].
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.journal_sizes: dict[str, int] = {}
        self.planners: dict[int, object] = {}
        self.paused = False
        # Converts a (start, end) wall interval to the duration reported;
        # the workload process sets it to HostSpeed.nominal once the loop ends.
        self.measure = lambda start, end: end - start
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, call, *args, **kwargs):
        """Run ``call(*args, **kwargs)`` inside a span called ``name``."""
        if self.paused:
            return call(*args, **kwargs)
        stack = self._stack()
        span = [name, time.perf_counter(), None, stack[-1] if stack else None,
                threading.get_ident()]
        self.spans.append(span)
        stack.append(span)
        try:
            return call(*args, **kwargs)
        finally:
            stack.pop()
            span[2] = time.perf_counter()

    def pause(self) -> None:
        """Stop recording (the benchmark's own checks are not traced)."""
        self.paused = True

    def install(self) -> None:
        for module_name, owner_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapper = self._wrapper(name, original)
            setattr(owner, attr, wrapper)
        self._install_feeder()

    def _wrapper(self, name: str, original):
        tracer = self
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = tracer.span(name, original, *args, **kwargs)
            if hook is not None and not tracer.paused:
                hook(args, result)
            return result

        return traced

    def _after_planner_plan(self, args, result) -> None:
        self.planners[id(args[0])] = args[0]

    def _after_milp_solve(self, args, result) -> None:
        self.counters["milp_nodes"] = (
            self.counters.get("milp_nodes", 0) + result.nodes_explored
        )

    def _after_checkpoint_save(self, args, result) -> None:
        path = Path(result)
        self.counters["checkpoint_last_bytes"] = sum(
            p.stat().st_size for p in path.rglob("*") if p.is_file()
        )

    def _after_journal_append(self, args, result) -> None:
        path = args[0].path
        if path.exists():
            self.journal_sizes[str(path)] = path.stat().st_size

    def _install_feeder(self) -> None:
        """Time every ``__next__`` of a ``PipelinedFeeder`` iterator."""
        from repro.ingest import feeder as feeder_module

        tracer = self
        original = feeder_module.PipelinedFeeder.__iter__

        @functools.wraps(original)
        def traced_iter(feeder):
            inner = original(feeder)
            try:
                while True:
                    try:
                        item = tracer.span("ingest.wait", next, inner)
                    except StopIteration:
                        return
                    yield item
            finally:
                inner.close()

        feeder_module.PipelinedFeeder.__iter__ = traced_iter

    # ------------------------------------------------------------------

    def _durations(self, name: str, self_time: bool = False) -> list[float]:
        """Durations (seconds) of the finished spans called ``name``."""
        measure = self.measure
        if not self_time:
            return [
                measure(s[1], s[2]) for s in self.spans if s[0] == name and s[2] is not None
            ]
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s[3] is not None and s[2] is not None:
                key = id(s[3])
                child_time[key] = child_time.get(key, 0.0) + measure(s[1], s[2])
        return [
            measure(s[1], s[2]) - child_time.get(id(s), 0.0)
            for s in self.spans
            if s[0] == name and s[2] is not None
        ]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics computed from the recorded spans."""

        def p50(name, scale, self_time=False):
            values = self._durations(name, self_time)
            return statistics.median(values) * scale if values else 0.0

        def pct(name, q, scale):
            values = self._durations(name)
            if len(values) < 2:
                return values[0] * scale if values else 0.0
            return statistics.quantiles(values, n=100)[q - 1] * scale

        def total(name, scale):
            return sum(self._durations(name)) * scale

        def count(name):
            return len(self._durations(name))

        def span_max(name, scale):
            values = self._durations(name)
            return max(values) * scale if values else 0.0

        hits = sum(p.stats.cache_hits for p in self.planners.values())
        lookups = hits + sum(p.stats.cache_misses for p in self.planners.values())
        return {
            "planner.plan_ms": total("planner.plan", 1e3),
            "planner.replan.count": count("planner.replan"),
            "planner.replan_ms_p50": p50("planner.replan", 1e3),
            "planner.evaluate.count": count("planner.evaluate"),
            "planner.evaluate_us_p50": p50("planner.evaluate", 1e6),
            "planner.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "milp.solve.count": count("milp.solve"),
            "milp.solve_ms_total": total("milp.solve", 1e3),
            "milp.nodes_explored": self.counters.get("milp_nodes", 0),
            "gpusim.simulate.count": count("gpusim.simulate"),
            "gpusim.simulate_us_p50": p50("gpusim.simulate", 1e6),
            "ingest.wait_ms_p50": p50("ingest.wait", 1e3),
            "ingest.wait_ms_p95": pct("ingest.wait", 95, 1e3),
            "ingest.produce_ms_p50": p50("ingest.produce", 1e3),
            "engine.compile_ms": total("engine.compile", 1e3),
            "engine.execute_ms_p50": p50("engine.execute", 1e3),
            "engine.execute_ms_p95": pct("engine.execute", 95, 1e3),
            "runtime.iteration_self_ms_p50": p50("runtime.iteration", 1e3, self_time=True),
            "checkpoint.save.count": count("checkpoint.save"),
            "checkpoint.save_ms_p50": p50("checkpoint.save", 1e3),
            "checkpoint.save_ms_max": span_max("checkpoint.save", 1e3),
            "checkpoint.last_bytes": self.counters.get("checkpoint_last_bytes", 0),
            "journal.append.count": count("journal.append"),
            "journal.append_us_p50": p50("journal.append", 1e6),
            "journal.bytes": sum(self.journal_sizes.values()),
            "telemetry.record_iteration_us_p50": p50("telemetry.record_iteration", 1e6),
            "telemetry.record_kernel_sample.count": count("telemetry.record_kernel_sample"),
            "telemetry.check_drift_us_p50": p50("telemetry.check_drift", 1e6),
        }

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, parents as line indices."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with path.open("w", encoding="utf-8") as handle:
            for s in self.spans:
                parent = index.get(id(s[3])) if s[3] is not None else None
                handle.write(
                    json.dumps(
                        {"name": s[0], "start": s[1], "end": s[2], "parent": parent,
                         "thread": s[4]}
                    )
                    + "\n"
                )
