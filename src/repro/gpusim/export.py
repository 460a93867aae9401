"""Trace export: Chrome trace-event JSON and ASCII Gantt rendering.

Simulated iterations produce :class:`repro.gpusim.trace.UtilizationTrace`
objects plus stage/kernel spans. This module turns them into artifacts a
human can inspect:

- :func:`to_chrome_trace` -- the Trace Event Format consumed by
  ``chrome://tracing`` / Perfetto, one row per GPU with training stages
  and co-running preprocessing kernels as duration events;
- :func:`render_gantt` -- a terminal Gantt chart of one GPU's iteration,
  which the examples print.
"""

from __future__ import annotations

from ..telemetry.chrome import process_metadata_events, trace_json
from ..telemetry.spans import iteration_span_events
from .cluster import ClusterIterationResult
from .device import IterationResult

__all__ = ["to_chrome_trace", "render_gantt"]


def to_chrome_trace(results: IterationResult | ClusterIterationResult) -> str:
    """Serialize one simulated iteration as Chrome trace-event JSON.

    Accepts either a single-GPU :class:`IterationResult` or a whole
    cluster's :class:`ClusterIterationResult` (one ``pid`` per GPU; the
    training stream is ``tid 0``, the preprocessing stream ``tid 1``).
    All events are built by :mod:`repro.telemetry.chrome` -- the same
    constructors the runtime span tracer uses -- so one viewer profile
    reads both artifacts.
    """
    if isinstance(results, ClusterIterationResult):
        per_gpu = results.per_gpu
    else:
        per_gpu = [results]
    events: list[dict] = []
    for pid, result in enumerate(per_gpu):
        events.extend(
            process_metadata_events(
                pid, f"GPU {pid}", threads={0: "training", 1: "preprocessing"}
            )
        )
        events.extend(iteration_span_events(result, pid))
    return trace_json(events)


def render_gantt(
    result: IterationResult,
    width: int = 80,
    max_rows: int = 40,
) -> str:
    """Render one GPU's iteration as an ASCII Gantt chart.

    Training stages use ``=`` bars; preprocessing kernels use ``#`` bars;
    everything shares one time axis scaled to ``width`` characters.
    """
    if width < 20:
        raise ValueError("width must be at least 20 characters")
    total = result.total_time_us
    if total <= 0:
        return "(empty iteration)"

    def bar(t0: float, t1: float, fill: str) -> str:
        start = int(round(t0 / total * width))
        end = max(start + 1, int(round(t1 / total * width)))
        return " " * start + fill * (end - start)

    rows: list[tuple[str, str]] = []
    for span in result.stage_spans:
        rows.append((span.name, bar(span.t_start, span.t_end, "=")))
    for span in result.kernel_spans[: max(0, max_rows - len(rows))]:
        rows.append((span.name, bar(span.t_start, span.t_end, "#")))
    hidden = len(result.stage_spans) + len(result.kernel_spans) - len(rows)

    label_width = min(28, max((len(name) for name, _ in rows), default=4))
    lines = [
        f"0{' ' * (label_width + width - len(f'{total:,.0f} us') - 1)}{total:,.0f} us",
        f"{'-' * label_width}+{'-' * width}",
    ]
    for name, plot in rows:
        label = name if len(name) <= label_width else name[: label_width - 1] + "~"
        lines.append(f"{label.ljust(label_width)}|{plot}")
    if hidden > 0:
        lines.append(f"... ({hidden} more kernels not shown)")
    return "\n".join(lines)
