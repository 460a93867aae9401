"""One workload process of the repository benchmark.

``perfbench/run.py`` starts this script in a fresh interpreter for every
measured process, so each one pays the real cold start (``import repro``,
building the workload, cold plan search, ``compile_plan``, starting the
feeder). The script drives the package through its public API only, then
writes one JSON result file that ``run.py`` aggregates::

    PYTHONPATH=src python3 perfbench/workload.py --workload data-plane \
        --seed 1 --trace 0 --workdir .perfbench_out/w \
        --out .perfbench_out/r.json --spawn-time <perf_counter at spawn>

``--trace 1`` installs the timing shims of ``shims.py`` around each layer's
public entry points and adds the per-layer metrics to the result.

Timestamps use ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), which
``run.py`` and this process share, so set-up and run time are measured from
the moment ``run.py`` spawned the interpreter. From its first line to the
end of the loop the process samples its core's speed (``hostspeed.py``);
set-up, run and step times are reported at nominal core speed, with the
wall-clock times beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed  # perfbench/ is sys.path[0] when run as a script

# Per-process loop sizes. run.py starts several processes per run and
# pools their steps, so each run still has >= 200 loop iterations.
STEADY_ITERATIONS = 1500
DATA_PLANE_ITERATIONS = 100
DATA_PLANE_VERIFY_EVERY = 35
FAULTED_ITERATIONS = 200
FAULTED_CHECKPOINT_EVERY = 20
FAULTED_SHADOW_EVERY = 10
FAULTED_OP_DRIFT_AT = 16
# One upward plan_drift step (the fault's default magnitude) at a fixed
# iteration: from then on every iteration takes the degraded path. Repeated
# downward steps crash the runtime on this plan (see FaultedShadow.check),
# so they are checked once per run, not drawn at random in the loop.
FAULTED_PLAN_DRIFT = (40, 2.0)
# Random plan 5 cold-plans in ~2 s, almost all of it in the fusion MILP:
# a visible share of set-up next to the ~2.3 s import, without dominating
# it (seeds 0-4, 7, 9 and 10 plan in ~20 ms; seeds 8 and 11 take over 30 s).
FAULTED_PLAN_SEED = 5
# Table-3 plans whose compile_plan raises CompileError at GPUS x BATCH today
# (plan 3: "group order violates dependency: 'p3s3_h1' (group 20) must
# execute after 'p3s3_f1' (group 151)"). The sweep still compiles them on
# every run and reports the error as a known defect.
SWEEP_KNOWN_COMPILE_ERRORS = frozenset({3})
SERVE_CYCLES = 5
GPUS = 2
BATCH = 4096


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Checks:
    """Outcomes of the benchmark's output checks and attempted operations.

    ``wrong`` counts outputs that were produced but failed verification;
    ``failed`` counts every operation or check that did not succeed
    (wrong outputs included).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.known_defects = 0
        self.notes: list[str] = []

    def operations(self, count: int) -> None:
        self.attempted += count

    def check(self, name: str, ok: bool, detail: str = "", wrong: bool = True) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += int(wrong)
            self.notes.append(f"FAIL {name}: {detail}" if detail else f"FAIL {name}")
        return ok

    def known_defect(self, name: str, ok: bool, detail: str) -> None:
        """Probe a defect of the program that is known and not yet fixed.

        The probe produces no output of the workload, so it stays out of
        ``attempted`` and ``failed``: those count the workload's own
        operations, and a run of the benchmark must be able to finish with
        none failed. A probe that still fails is counted in
        ``known_defects`` and printed with every run until a fix makes it
        pass.
        """
        if not ok:
            self.known_defects += 1
            self.notes.append(f"KNOWN DEFECT {name}: {detail}")

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "known_defects": self.known_defects,
            "notes": self.notes,
        }


class StepClock:
    """A re-iterable batch stream that timestamps every pull of the runtime.

    ``FaultTolerantRuntime.run`` pulls one item per iteration before
    calling ``run_iteration``, so consecutive pull times delimit iterations
    from outside the runtime. ``batches`` supplies the items (``None``
    forever when omitted, for loops that carry no data).
    """

    def __init__(self, batches=None) -> None:
        self.batches = batches
        self.stamps: list[float] = []

    def __iter__(self):
        source = iter(self.batches) if self.batches is not None else None
        while True:
            self.stamps.append(time.perf_counter())
            if source is None:
                yield None
                continue
            try:
                item = next(source)
            except StopIteration:
                return
            yield item

    def steps(self, end: float) -> list[tuple[float, float]]:
        edges = self.stamps + [end]
        return list(zip(edges, edges[1:]))


class Workload:
    """Set-up, closed loop, export, and output checks of one workload."""

    name = ""
    # Kind of host-speed probe (hostspeed.REFERENCES) for the loop: the
    # work that dominates it. Set-up (import, plan search) is pure Python.
    reference = "python"

    def __init__(self, seed: int, workdir: Path, once_checks: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        # Checks that cost seconds and give the same answer in every
        # process run only in the first process of a benchmark run.
        self.once_checks = once_checks
        # (start, end) wall times of the closed loop's steps.
        self.steps: list[tuple[float, float]] = []
        self.extra: dict[str, float] = {}
        # (start, end) wall times of the telemetry artifact export, if any.
        self.export: tuple[float, float] | None = None
        # Artifact bytes already measured and deleted during the run.
        self.artifact_bytes = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def check(self, checks: Checks) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def layer_counts(self) -> dict[str, float]:
        """Per-layer counts read from the program's own public objects."""
        return {}


def _runtime_counts(runtime, report) -> dict[str, float]:
    counts = {
        "runtime.degraded_iterations": report.degraded_iterations,
        "runtime.retries": report.retries,
        "runtime.ladder_demotions": sum(report.rungs_reached().values()),
    }
    if runtime.shadow is not None:
        shadow = runtime.shadow.counters()
        counts["shadow.candidates"] = shadow["candidates_evaluated"]
        counts["shadow.promotions"] = shadow["promotions"]
        counts["shadow.rollbacks"] = shadow["rollbacks"]
    return counts


def _sim_samples_per_s(report, workload) -> float:
    mean_us = statistics.fmean(r.iteration_us for r in report.iterations)
    return workload.num_gpus * workload.local_batch / mean_us * 1e6


class SteadyTelemetry(Workload):
    """Plan 1, fault-free, telemetry on: the runtime's transparent path."""

    name = "steady-telemetry"

    def setup(self) -> None:
        from repro import RapPlanner, TrainingWorkload, build_plan, model_for_plan
        from repro.runtime import FaultInjector, FaultTolerantRuntime
        from repro.telemetry import TelemetrySession

        graphs, schema = build_plan(1, rows=BATCH)
        self.workload = TrainingWorkload(
            model_for_plan(graphs, schema), num_gpus=GPUS, local_batch=BATCH
        )
        self.telemetry = TelemetrySession(metrics_dir=self.workdir / "metrics")
        self.clock = StepClock()
        self.runtime = FaultTolerantRuntime(
            RapPlanner(self.workload),
            graphs,
            injector=FaultInjector(seed=self.seed),
            telemetry=self.telemetry,
            feeder=self.clock,
        )

    def run(self) -> None:
        self.report = self.runtime.run(STEADY_ITERATIONS)
        loop_end = time.perf_counter()
        self.telemetry.write_artifacts(step=STEADY_ITERATIONS)
        self.export = (loop_end, time.perf_counter())
        self.steps = self.clock.steps(loop_end)
        self.extra["sim_samples_per_s"] = _sim_samples_per_s(self.report, self.workload)

    def check(self, checks: Checks) -> None:
        from repro.telemetry import parse_prometheus_text, validate_chrome_trace

        checks.operations(len(self.report.iterations))
        metrics = self.workdir / "metrics"
        try:
            validate_chrome_trace((metrics / "trace.json").read_text())
            ok, detail = True, ""
        except (OSError, ValueError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.check("trace.json passes validate_chrome_trace", ok, detail)
        try:
            parse_prometheus_text((metrics / "metrics.prom").read_text())
            ok, detail = True, ""
        except (OSError, ValueError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.check("metrics.prom passes parse_prometheus_text", ok, detail)
        checks.check(
            "loop ran every iteration",
            len(self.report.iterations) == STEADY_ITERATIONS,
            f"{len(self.report.iterations)} of {STEADY_ITERATIONS}",
        )

    def layer_counts(self) -> dict[str, float]:
        return _runtime_counts(self.runtime, self.report)


class DataPlane(Workload):
    """Plan 2 with real batches: feeder -> compiled engine -> run_iteration."""

    name = "data-plane"
    reference = "numpy"  # the compiled engine's vector kernels

    def setup(self) -> None:
        from repro import RapPlanner, TrainingWorkload, build_plan, model_for_plan
        from repro.core import codegen
        from repro.ingest import IngestMetrics, PipelinedFeeder, QueueConfig
        from repro.ingest.sources import SyntheticSource
        from repro.preprocessing import BufferArena
        from repro.runtime import FaultInjector, FaultTolerantRuntime

        graphs, self.schema = build_plan(2, rows=BATCH)
        self.workload = TrainingWorkload(
            model_for_plan(graphs, self.schema), num_gpus=GPUS, local_batch=BATCH
        )
        planner = RapPlanner(self.workload)
        plan = planner.plan(graphs)
        self.arena = BufferArena()
        self.programs = codegen.compile_plan(plan, arena=self.arena, rows=BATCH)
        self.ingest_metrics = IngestMetrics()
        self.feeder = PipelinedFeeder(
            SyntheticSource(
                self.schema,
                batch_size=BATCH,
                num_batches=DATA_PLANE_ITERATIONS,
                seed=self.seed,
            ),
            depth=2,
            workers=1,
            queue=QueueConfig(capacity=4, policy="block"),
            metrics=self.ingest_metrics,
        )
        self.wait_ms: list[float] = []
        self.engine_ms: list[float] = []
        self.sampled: list = []
        self.clock = StepClock(self._execute(iter(self.feeder)))
        self.runtime = FaultTolerantRuntime(
            planner,
            graphs,
            plan=plan,
            injector=FaultInjector(seed=self.seed),
            feeder=self.clock,
        )

    def _execute(self, batches):
        """Pull each ingested batch and run it through the compiled plan."""
        index = 0
        while True:
            start = time.perf_counter()
            try:
                batch = next(batches)
            except StopIteration:
                return
            pulled = time.perf_counter()
            for program in self.programs.values():
                program.execute(batch)
            done = time.perf_counter()
            self.wait_ms.append((pulled - start) * 1e3)
            self.engine_ms.append((done - pulled) * 1e3)
            if index % DATA_PLANE_VERIFY_EVERY == 0:
                self.sampled.append(batch)
            index += 1
            yield batch

    def run(self) -> None:
        self.report = self.runtime.run(DATA_PLANE_ITERATIONS)
        loop_end = time.perf_counter()
        # Releasing the lease folds the queue's stall and depth statistics
        # into the ingest metrics.
        self.feeder.close()
        self.steps = self.clock.steps(loop_end)
        loop_s = (loop_end - self.clock.stamps[0])
        sim_ms = statistics.fmean(r.iteration_us for r in self.report.iterations) / 1e3
        host_ms = statistics.median(
            w + e for w, e in zip(self.wait_ms, self.engine_ms)
        )
        self.extra["rows_per_s"] = BATCH * len(self.engine_ms) / loop_s
        self.extra["prep_pace_ratio"] = host_ms / sim_ms
        self.extra["sim_samples_per_s"] = _sim_samples_per_s(self.report, self.workload)

    def check(self, checks: Checks) -> None:
        from repro import RapPlanner, TrainingWorkload, build_plan, model_for_plan
        from repro.runtime import DataPathVerifier

        checks.operations(len(self.report.iterations))
        checks.check(
            "every ingested batch ran through the engine",
            len(self.engine_ms) == DATA_PLANE_ITERATIONS,
            f"{len(self.engine_ms)} of {DATA_PLANE_ITERATIONS}",
        )
        # DataPathVerifier lowers the plan through compile_plan and compares
        # every produced column bit for bit with execute_graph_set.
        verifier = DataPathVerifier(self.schema, seed=self.seed, strict=False)
        self.verify_mismatches = 0
        for i, batch in enumerate(self.sampled):
            iteration = i * DATA_PLANE_VERIFY_EVERY
            result = verifier.verify(self.runtime.plan, 0, iteration, batch=batch)
            self.verify_mismatches += len(result.mismatched)
            checks.check(
                f"sampled batch {iteration} bit-identical to execute_graph_set",
                result.ok,
                f"columns differ: {result.mismatched[:3]}",
            )
        if not self.once_checks:
            return
        # Table-3 compile sweep at this workload's fleet and batch.
        for plan_id in range(4):
            name = f"table-3 plan {plan_id} compiles and matches the naive executor"
            graphs, schema = build_plan(plan_id, rows=BATCH)
            workload = TrainingWorkload(
                model_for_plan(graphs, schema), num_gpus=GPUS, local_batch=BATCH
            )
            sweep = DataPathVerifier(schema, seed=self.seed, strict=False)
            try:
                result = sweep.verify(RapPlanner(workload).plan(graphs), 0, 0)
            except ValueError as exc:  # CompileError is a ValueError
                detail = f"{type(exc).__name__}: {exc}"
                if plan_id in SWEEP_KNOWN_COMPILE_ERRORS:
                    checks.known_defect(name, False, detail)
                else:
                    checks.check(name, False, detail, wrong=False)
                continue
            checks.check(name, result.ok, f"columns differ: {result.mismatched[:3]}")

    def close(self) -> None:
        self.feeder.close()

    def layer_counts(self) -> dict[str, float]:
        arena = self.arena.stats()
        ingest = self.ingest_metrics
        counts = _runtime_counts(self.runtime, self.report)
        counts.update(
            {
                "ingest.consumer_stall_ratio": ingest.consumer_stall_ratio.value,
                "ingest.producer_stall_ratio": ingest.producer_stall_ratio.value,
                "ingest.queue_peak_depth": ingest.queue_peak_depth.value,
                "ingest.drops": ingest.drops_total.value,
                "ingest.spills": ingest.spills_total.value,
                "engine.fused_steps": sum(p.num_steps for p in self.programs.values()),
                "engine.ops": sum(p.num_ops for p in self.programs.values()),
                "engine.arena_hit_rate": arena["hit_rate"],
                "engine.arena_pooled_mb": arena["pooled_bytes"] / 2**20,
                "engine.rows_per_s": self.extra["rows_per_s"],
                "engine.prep_pace_ratio": self.extra["prep_pace_ratio"],
            }
        )
        return counts


class FaultedShadow(Workload):
    """Random plan under faults and drift, with shadow planning and checkpoints."""

    name = "faulted-shadow"

    def setup(self) -> None:
        from repro import RapPlanner, TrainingWorkload, model_for_plan
        from repro.preprocessing.random_plans import RandomPlanConfig, generate_random_plan
        from repro.runtime import (
            CheckpointManager,
            FaultEvent,
            FaultInjector,
            FaultSpec,
            FaultTolerantRuntime,
            RunJournal,
            ShadowConfig,
            ShadowPlanner,
        )
        from repro.telemetry import LatencyDrift, TelemetrySession

        self.graphs, schema = generate_random_plan(
            RandomPlanConfig(seed=FAULTED_PLAN_SEED), rows=BATCH
        )
        self.workload = TrainingWorkload(
            model_for_plan(self.graphs, schema), num_gpus=GPUS, local_batch=BATCH
        )
        state = self.workdir / "state"
        self.checkpoints = CheckpointManager(state)
        self.journal = RunJournal(state / "journal.jsonl")
        self.telemetry = TelemetrySession(metrics_dir=self.workdir / "metrics")
        self.clock = StepClock()
        planner = RapPlanner(self.workload)
        self.initial_plan = planner.plan(self.graphs)
        drift_at, drift_step = FAULTED_PLAN_DRIFT
        self.runtime = FaultTolerantRuntime(
            planner,
            self.graphs,
            plan=self.initial_plan,
            injector=FaultInjector(
                [FaultSpec("kernel_failure", rate=0.05)],
                seed=self.seed,
                schedule=[FaultEvent("plan_drift", drift_at, magnitude=drift_step)],
            ),
            journal=self.journal,
            telemetry=self.telemetry,
            drift_schedule=[
                LatencyDrift("SigridHash", 4.0, start_iteration=FAULTED_OP_DRIFT_AT)
            ],
            feeder=self.clock,
            shadow=ShadowPlanner(config=ShadowConfig(eval_every=FAULTED_SHADOW_EVERY)),
        )

    def run(self) -> None:
        self.report = self.runtime.run(
            FAULTED_ITERATIONS,
            checkpoints=self.checkpoints,
            checkpoint_every=FAULTED_CHECKPOINT_EVERY,
        )
        loop_end = time.perf_counter()
        self.telemetry.write_artifacts(step=FAULTED_ITERATIONS)
        self.journal.close()
        self.export = (loop_end, time.perf_counter())
        self.steps = self.clock.steps(loop_end)
        self.extra["sim_samples_per_s"] = _sim_samples_per_s(self.report, self.workload)

    def check(self, checks: Checks) -> None:
        from repro.runtime import RunJournal, validate_records

        checks.operations(len(self.report.iterations))
        records = RunJournal.read(self.workdir / "state" / "journal.jsonl")
        errors, _ = validate_records(records)
        checks.check(
            "journal passes validate_records",
            bool(records) and not errors,
            "; ".join(errors[:3]) or "empty journal",
        )
        try:
            snapshot = self.checkpoints.latest()
            ok = snapshot is not None and snapshot.iteration == FAULTED_ITERATIONS
            detail = f"latest is {snapshot.iteration if snapshot else None}"
        except (OSError, ValueError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.check("CheckpointManager.latest() loads the final checkpoint", ok, detail)
        if not self.once_checks:
            return
        # The plan_drift fault steps down as often as up. Three down-steps
        # scale kernel durations below their launch overhead on this plan
        # and the iteration raises instead of degrading (seeds 3 and 4 of
        # a rate-drawn plan_drift hit it mid-loop); probe it on every run
        # rather than crash some of the seeds.
        from repro import RapPlanner
        from repro.runtime import FaultEvent, FaultInjector, FaultTolerantRuntime

        _, step = FAULTED_PLAN_DRIFT
        runtime = FaultTolerantRuntime(
            RapPlanner(self.workload),
            self.graphs,
            plan=self.initial_plan,
            injector=FaultInjector(
                schedule=[FaultEvent("plan_drift", i, magnitude=1 / step) for i in range(3)]
            ),
        )
        try:
            for i in range(3):
                runtime.run_iteration(i)
            ok, detail = True, ""
        except ValueError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.known_defect(
            f"iterations survive three plan_drift down-steps (x{1 / step:.2f} each)",
            ok, detail,
        )

    def close(self) -> None:
        self.journal.close()

    def layer_counts(self) -> dict[str, float]:
        return _runtime_counts(self.runtime, self.report)


class ServeFourTenant(Workload):
    """The four-tenant service cycle of ``examples/service_run.py``, repeated."""

    name = "serve-4tenant"

    def setup(self) -> None:
        from repro.service import PreprocessingService, TenantSpec

        self.service_cls = PreprocessingService
        self.spec_cls = TenantSpec
        self.summaries: list[dict] = []
        self.admissions: list[tuple[str, str, float]] = []

    def _tenants(self) -> list:
        spec = self.spec_cls
        return [
            spec(name="alice", plan_id=2, local_batch=2048, num_iterations=10,
                 priority="prod", deadline="relaxed", seed=self.seed),
            spec(name="bob", plan_id=0, local_batch=1024, num_iterations=12,
                 priority="best_effort", seed=self.seed),
            spec(name="dave", plan_id=0, local_batch=1024, num_iterations=12,
                 priority="best_effort", arrive_iteration=2, seed=self.seed),
            spec(name="carol", plan_id=2, local_batch=2048, num_iterations=6,
                 priority="standard", deadline="strict", arrive_iteration=4,
                 seed=self.seed),
        ]

    def _serve(self, root: Path, tenants: list, cache_dir: Path | None = None) -> dict:
        service = self.service_cls(root, num_gpus=GPUS, cache_dir=cache_dir)
        for tenant in tenants:
            service.submit(tenant)
        summary = service.run().to_dict()
        for job in summary["jobs"]:
            # History starts "admitted@TICK:SOURCE"; later carves and resumes
            # may price from other sources, so plan_source is not the
            # admission's. admission_us is the admitting attempt's latency.
            source = job["history"][0].rpartition(":")[2]
            self.admissions.append((job["tenant"], source, job["admission_us"] / 1e3))
        return summary

    def run(self) -> None:
        spec = self.spec_cls
        for cycle in range(SERVE_CYCLES):
            root = self.workdir / f"cycle{cycle}"
            start = time.perf_counter()
            main = self._serve(root, self._tenants())
            exact = self._serve(
                root / "rerun",
                [spec(name="alice", plan_id=2, local_batch=2048, num_iterations=2,
                      priority="prod", deadline="relaxed", seed=self.seed)],
                cache_dir=root / "cache",
            )
            twin = self._serve(
                root / "twin",
                [spec(name="alice2", plan_id=2, local_batch=2048, num_iterations=2,
                      priority="prod", deadline="relaxed", rename=True,
                      seed=self.seed)],
                cache_dir=root / "cache",
            )
            # One step per cycle: the four-tenant run and both re-admissions.
            self.steps.append((start, time.perf_counter()))
            self.summaries.append({"main": main, "exact": exact, "twin": twin})
            self.artifact_bytes += tree_bytes(root)
            shutil.rmtree(root)
        cold = [ms for _, source, ms in self.admissions if source == "cold"]
        warm = [ms for _, source, ms in self.admissions if source.startswith("warm")]
        self.extra["admit_ms_p50"] = statistics.median(cold)
        self.extra["admit_count"] = len(cold)
        self.extra["warm_admit_ms_p50"] = statistics.median(warm)
        self.extra["warm_admit_count"] = len(warm)

    def check(self, checks: Checks) -> None:
        checks.operations(len(self.admissions))
        for cycle, runs in enumerate(self.summaries):
            jobs = {job["tenant"]: job for job in runs["main"]["jobs"]}
            checks.check(
                f"cycle {cycle}: every tenant completes",
                all(job["state"] == "completed" for job in jobs.values()),
                str({name: job["state"] for name, job in jobs.items()}),
            )
            checks.check(
                f"cycle {cycle}: dave is preempted exactly once",
                jobs.get("dave", {}).get("preemptions") == 1,
                f"preemptions={jobs.get('dave', {}).get('preemptions')}",
            )
            checks.check(
                f"cycle {cycle}: first admissions are cold searches",
                all(job["history"][0].endswith(":cold") for job in jobs.values()),
                str({name: job["history"][0] for name, job in jobs.items()}),
            )
            for run, source in (("exact", "warm-exact"), ("twin", "warm-invariant")):
                (job,) = runs[run]["jobs"]
                checks.check(
                    f"cycle {cycle}: {job['tenant']} re-admitted via {source}",
                    job["history"][0].endswith(":" + source)
                    and job["state"] == "completed",
                    f"history={job['history']} state={job['state']}",
                )

    def layer_counts(self) -> dict[str, float]:
        sources = [source for _, source, _ in self.admissions]
        main_jobs = [job for runs in self.summaries for job in runs["main"]["jobs"]]
        return {
            "service.admissions.cold": sources.count("cold"),
            "service.admissions.warm_exact": sources.count("warm-exact"),
            "service.admissions.warm_invariant": sources.count("warm-invariant"),
            "service.preemptions": sum(job["preemptions"] for job in main_jobs),
            "service.resumes": sum(
                1 for job in main_jobs for event in job["history"]
                if event.startswith("resumed@")
            ),
            "service.reuse_hits": sum(
                runs[run]["reuse"]["hits"] for runs in self.summaries
                for run in ("main", "exact", "twin")
            ),
            "service.admit_ms_p50": self.extra["admit_ms_p50"],
            "service.warm_admit_ms_p50": self.extra["warm_admit_ms_p50"],
        }


WORKLOADS = {
    cls.name: cls for cls in (SteadyTelemetry, DataPlane, FaultedShadow, ServeFourTenant)
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--once-checks", action="store_true",
                        help="also run the once-per-run checks (data-plane's "
                             "Table-3 compile sweep, faulted-shadow's plan_drift "
                             "down-steps)")
    args = parser.parse_args(argv)

    shutil.rmtree(args.workdir, ignore_errors=True)
    args.workdir.mkdir(parents=True)
    tracer = None
    if args.trace:
        from shims import Tracer  # perfbench/ is sys.path[0] when run as a script

        tracer = Tracer()
    start = time.perf_counter()
    speed = HostSpeed()
    speed.start("python")
    import repro  # noqa: F401  -- the import every entry point pays
    import repro.cli  # noqa: F401

    imported = time.perf_counter()
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.workdir, args.once_checks)
    result: dict = {"workload": args.workload, "seed": args.seed}
    try:
        workload.setup()
        ready = time.perf_counter()
        speed.use(workload.reference)
        workload.run()
        done = time.perf_counter()
        speed.stop()
        # Gated times are nominal (see hostspeed.py); wall times ride along.
        result["setup_s"] = speed.nominal(args.spawn_time, ready)
        result["run_s"] = speed.nominal(args.spawn_time, done)
        result["steps_ms"] = [speed.nominal(a, b) * 1e3 for a, b in workload.steps]
        result["setup_wall_s"] = ready - args.spawn_time
        result["run_wall_s"] = done - args.spawn_time
        result["steps_wall_ms"] = [(b - a) * 1e3 for a, b in workload.steps]
        result["slowdown"] = speed.slowdown()
        import_s = speed.nominal(start, imported)
        result["import_s"] = import_s
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["artifact_mb"] = (
            workload.artifact_bytes + tree_bytes(args.workdir)
        ) / 2**20
        result["extra"] = workload.extra
        checks = Checks()
        if tracer is not None:
            tracer.pause()
            tracer.measure = speed.nominal
        workload.check(checks)
        result["checks"] = checks.to_dict()
        if tracer is not None:
            result["layers"] = {
                **tracer.layer_metrics(),
                **workload.layer_counts(),
                "import.s": import_s,
                "telemetry.export_s": (
                    speed.nominal(*workload.export) if workload.export else 0.0
                ),
                "engine.verify_mismatches": getattr(workload, "verify_mismatches", 0),
            }
            metrics_dir = args.workdir / "metrics"
            if (metrics_dir / "trace.json").exists():
                result["layers"]["telemetry.trace_mb"] = (
                    (metrics_dir / "trace.json").stat().st_size / 2**20
                )
                result["layers"]["telemetry.prom_kb"] = (
                    (metrics_dir / "metrics.prom").stat().st_size / 1024
                )
            tracer.write(args.out.with_suffix(".spans.jsonl"))
    finally:
        speed.stop()
        workload.close()
        shutil.rmtree(args.workdir, ignore_errors=True)
    return _write(args.out, result)


def _write(path: Path, result: dict) -> int:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
