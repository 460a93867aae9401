"""Repository benchmark: end-to-end and per-layer host time.

Usage (from the repository root)::

    python3 perfbench/run.py --workload data-plane --seed 1 --seconds 20 --trace 0

Each measured process is a fresh interpreter running ``perfbench/workload.py``
against the package in ``src/``. With ``--trace 0`` the run starts workload
processes one after another (at least ``MIN_PROCESSES``, more while
``--seconds`` allows) and reports the end-to-end metrics of
``BENCHMARK.json``: medians over the processes, and step percentiles over
their pooled steps. With ``--trace 1`` it runs one traced process between
two untraced ones and reports the per-layer metrics, including
``trace.overhead_ratio`` (traced over mean untraced ``run_s``).

Times are nominal: each workload process samples its core's speed on a
timer and rescales wall time to a fixed core speed (``hostspeed.py``), so a
neighbour's load on the shared host does not read as a change of the
program. The wall-clock figures are printed next to them.

Standard output carries a human-readable report (host, every metric with its
unit, output checks) followed, on the last line, by one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_SCRIPT = Path(__file__).resolve().parent / "workload.py"
OUT_DIR = ROOT / ".perfbench_out"
MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 120


class BenchmarkError(RuntimeError):
    pass


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def host_block() -> dict:
    """Host and provenance fields that make two runs comparable (or not)."""

    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None  # exported, non-git trees are identified by src_sha256 alone
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "importable": {
            name: importlib.util.find_spec(name) is not None
            for name in ("numba", "numexpr", "pyarrow")
        },
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def spawn(workload: str, seed: int, trace: int, tag: str, once_checks: bool) -> dict:
    """Run one workload process to completion and return its result."""
    out = OUT_DIR / f"{tag}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    # Fixed string hashing: set iteration order, and so the work done, stays
    # the same from process to process.
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, str(WORKLOAD_SCRIPT),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--workdir", str(OUT_DIR / f"{tag}.work"), "--out", str(out),
    ] + (["--once-checks"] if once_checks else [])
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        command + ["--spawn-time", repr(spawned)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        output, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"{workload} process timed out") from None
    if proc.returncode != 0 or not out.exists():
        raise BenchmarkError(
            f"{workload} process exited {proc.returncode}:\n{output[-4000:]}"
        )
    result = json.loads(out.read_text())
    result["wall_s"] = time.perf_counter() - spawned
    return result


def end_to_end(full: list[dict], steps: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(r["setup_s"] for r in full),
        "run_s": statistics.median(r["run_s"] for r in full),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
        "step_ms_p50": statistics.median(steps),
    }


def workload_figures(
    workload: str, full: list[dict], steps: list[float], extra: dict, failed: int,
    attempted: int,
) -> list:
    """Every end-to-end figure that applies to ``workload``: (name, value, unit, note)."""
    step = "iter" if workload != "serve-4tenant" else "cycle"
    rows = [(f"{step}_ms_p50", statistics.median(steps), "ms", f"n={len(steps)}")]
    if len(steps) >= 20:
        # The highest percentile with at least ten steps beyond it (p95 at n >= 200).
        tail = min(95, int(100 * (1 - 10 / len(steps))))
        rows.append((f"{step}_ms_p{tail}", percentile(steps, tail), "ms", f"n={len(steps)}"))
    else:
        rows.append((f"{step}_ms_max", max(steps), "ms", f"n={len(steps)}"))
    if workload != "serve-4tenant":
        rows.append(("sim_samples_per_s", extra["sim_samples_per_s"], "samples/s", ""))
    if workload == "data-plane":
        rows += [
            ("rows_per_s", extra["rows_per_s"], "rows/s", "batch 4096"),
            ("prep_pace_ratio", extra["prep_pace_ratio"], "ratio", ">1: prep cannot keep pace"),
        ]
    else:
        rows.append(
            ("artifact_mb", statistics.median(r["artifact_mb"] for r in full), "MB", "")
        )
    if workload == "serve-4tenant":
        cold = sum(r["extra"]["admit_count"] for r in full)
        warm = sum(r["extra"]["warm_admit_count"] for r in full)
        rows += [
            ("admit_ms_p50", extra["admit_ms_p50"], "ms", f"cold searches, n={cold}"),
            ("warm_admit_ms_p50", extra["warm_admit_ms_p50"], "ms", f"plan reuse, n={warm}"),
        ]
    rows.append(("fail_ratio", failed / attempted, "ratio", f"{failed}/{attempted}"))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: no src/repro package or BENCHMARK.json next to the benchmark; "
              "run it from a full checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(OUT_DIR / tag, ignore_errors=True)
    (OUT_DIR / tag).mkdir(parents=True)
    prefix = f"{tag}/p"
    started = time.perf_counter()
    full: list[dict] = []
    try:
        if args.trace:
            # Untraced processes on both sides of the traced one, so a drift
            # in host speed during the run cancels out of the overhead ratio.
            full.append(spawn(args.workload, args.seed, 0, prefix + "0", False))
            traced = spawn(args.workload, args.seed, 1, prefix + "traced", True)
            full.append(spawn(args.workload, args.seed, 0, prefix + "1", False))
        else:
            while len(full) < MIN_PROCESSES or (
                time.perf_counter() - started
                + statistics.median(r["wall_s"] for r in full)
                <= args.seconds
            ):
                full.append(
                    spawn(args.workload, args.seed, 0, f"{prefix}{len(full)}", not full)
                )
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    checked = [traced] if args.trace else full
    attempted = sum(r["checks"]["attempted"] for r in checked)
    failed = sum(r["checks"]["failed"] for r in checked)
    wrong = sum(r["checks"]["wrong"] for r in checked)
    known = sum(r["checks"]["known_defects"] for r in checked)
    host = host_block()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": host, "processes": len(full) + args.trace}
    steps = [ms for r in full for ms in r["steps_ms"]]
    extra = {k: statistics.median(r["extra"][k] for r in full) for k in full[0]["extra"]}

    print(f"perfbench: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{record['processes']} process(es), {time.perf_counter() - started:.1f} s")
    print(f"host: {host['cores']} cores, Python {host['python']}, numpy {host['numpy']}, "
          f"scipy {host['scipy']}, "
          + ", ".join(f"{k} {'yes' if v else 'no'}" for k, v in host["importable"].items()))
    print(f"source: git {host['git_commit'] or 'n/a'}, src sha256 {host['src_sha256'][:16]}")
    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = traced["run_s"] / statistics.fmean(
            r["run_s"] for r in full
        )
        # Whole-loop figures come from the untraced processes, free of shim cost.
        layers["loop.artifact_mb"] = statistics.median(r["artifact_mb"] for r in full)
        for key in ("rows_per_s", "prep_pace_ratio"):
            if key in extra:
                layers["engine." + key] = extra[key]
        for key in ("admit_ms_p50", "warm_admit_ms_p50"):
            if key in extra:
                layers["service." + key] = extra[key]
        if args.workload != "serve-4tenant":
            layers["loop.iter_ms_p50"] = statistics.median(steps)
            layers["loop.iter_ms_p95"] = percentile(steps, 95)
            layers["loop.sim_samples_per_s"] = extra["sim_samples_per_s"]
        layers["checks.fail_ratio"] = failed / attempted
        layers["checks.known_defects"] = known
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in names}
        print("per-layer metrics (traced run; 0 where the layer is not called):")
    else:
        e2e = end_to_end(full, steps)
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in names}
        print("end-to-end metrics (tracing off; times at nominal core speed, "
              "see perfbench/hostspeed.py):")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    if not args.trace:
        wall_steps = [ms for r in full for ms in r["steps_wall_ms"]]
        print("wall-clock equivalents (not gated):")
        for name, value, unit in (
            ("setup_wall_s", statistics.median(r["setup_wall_s"] for r in full), "s"),
            ("run_wall_s", statistics.median(r["run_wall_s"] for r in full), "s"),
            ("step_wall_ms_p50", statistics.median(wall_steps), "ms"),
            ("host_slowdown", statistics.median(r["slowdown"] for r in full), "x"),
        ):
            print(f"  {name:40s} {value:14.4f} {unit}")
        print(f"workload figures ({args.workload}; nominal times):")
        for name, value, unit, note in workload_figures(
            args.workload, full, steps, extra, failed, attempted
        ):
            print(f"  {name:40s} {value:14.4f} {unit:10s} {note}")
    print(f"checks: {attempted} operations and checks attempted, {failed} failed, "
          f"{wrong} wrong output(s); {known} known defect(s) still present")
    for r in checked:
        for note in r["checks"]["notes"]:
            print(f"  {note}")
    record["metrics"] = metrics
    (OUT_DIR / tag / "run.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
