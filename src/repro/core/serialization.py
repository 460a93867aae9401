"""Plan serialization: persist searched co-running plans as JSON.

A production deployment searches a plan once (offline, §4) and reuses it
across many training runs; the artifact must survive process restarts.
This module round-trips a :class:`repro.core.planner.RapPlan`'s decision
content -- the graph mapping, per-stage kernel assignments, trailing
kernels, and communication metadata -- through plain JSON.

Kernel descriptors serialize flat (fused-member descriptors are rebuilt as
plain kernels on load); the deserialized plan simulates identically
because the device model only consumes each kernel's own fields.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from ..dlrm.training import TrainingWorkload
from ..gpusim.kernel import KernelDesc
from ..gpusim.resources import ResourceVector
from ..ioutil import atomic_write_text
from ..preprocessing.executor import DataPreparation
from ..preprocessing.graph import GraphSet
from .mapping import GraphMapping, MappingEvaluation
from .planner import RapPlan

__all__ = [
    "PlanLoadError",
    "plan_payload",
    "encode_plan",
    "plan_to_json",
    "plan_from_json",
    "load_plan",
    "save_plan",
    "kernel_to_dict",
    "kernel_from_dict",
    "resilience_from_json",
    "FORMAT_VERSION",
]

FORMAT_VERSION = 1


class PlanLoadError(ValueError):
    """A plan artifact could not be loaded (missing, truncated, or corrupt).

    Subclasses :class:`ValueError` so pre-existing callers that caught the
    raw decode errors' common base keep working; ``path`` names the
    offending file when the plan came from disk (``None`` for in-memory
    strings).
    """

    def __init__(self, message: str, path: str | Path | None = None) -> None:
        self.path = str(path) if path is not None else None
        prefix = f"{self.path}: " if self.path else ""
        super().__init__(f"{prefix}{message}")


def kernel_to_dict(kernel: KernelDesc) -> dict[str, Any]:
    meta = {k: v for k, v in kernel.meta.items() if k != "member_kernels"}
    if "params" in meta:
        meta["params"] = list(meta["params"])
    # Fused kernels carry their member descriptors so a restored plan can
    # still de-fuse on a fused-OOM fault; without them the recovery ladder
    # takes the re-shard path instead and a checkpoint resume diverges
    # from the uninterrupted run. Members are original unfused kernels, so
    # the recursion is one level deep.
    members = kernel.meta.get("member_kernels")
    if members:
        meta["member_kernels"] = [kernel_to_dict(m) for m in members]
    return {
        "name": kernel.name,
        "duration_us": kernel.duration_us,
        "sm": kernel.demand.sm,
        "dram": kernel.demand.dram,
        "num_warps": kernel.num_warps,
        "tag": kernel.tag,
        "launch_us": kernel.launch_us,
        "warp_slots": kernel.warp_slots,
        "meta": meta,
    }


def kernel_from_dict(data: dict[str, Any]) -> KernelDesc:
    meta = dict(data.get("meta", {}))
    if "params" in meta:
        meta["params"] = tuple(meta["params"])
    if "member_kernels" in meta:
        meta["member_kernels"] = tuple(
            kernel_from_dict(m) for m in meta["member_kernels"]
        )
    return KernelDesc(
        name=data["name"],
        duration_us=data["duration_us"],
        demand=ResourceVector(sm=data["sm"], dram=data["dram"]),
        num_warps=data["num_warps"],
        tag=data["tag"],
        launch_us=data["launch_us"],
        warp_slots=data["warp_slots"],
        meta=meta,
    )


def plan_payload(
    plan: RapPlan,
    resilience: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """The decision content of a plan as a JSON-ready dict.

    ``resilience`` optionally embeds a fault-tolerant runtime's
    :meth:`repro.runtime.ResilienceReport.to_dict` alongside the plan, so a
    deployment can persist what the plan survived next to the plan itself.
    """
    payload = {
        "format_version": FORMAT_VERSION,
        "workload": {
            "model": plan.workload.config.name,
            "num_gpus": plan.workload.num_gpus,
            "local_batch": plan.workload.local_batch,
        },
        "mapping": {
            "strategy": plan.mapping.strategy,
            "num_gpus": plan.mapping.num_gpus,
            "placements": {k: [list(p) for p in v] for k, v in plan.mapping.placements.items()},
            "input_comm_bytes": plan.mapping.input_comm_bytes,
            "input_comm_transfers": plan.mapping.input_comm_transfers,
        },
        "assignments_per_gpu": [
            {str(idx): [kernel_to_dict(k) for k in kernels] for idx, kernels in per_gpu.items()}
            for per_gpu in plan.assignments_per_gpu
        ],
        "trailing_per_gpu": [
            [kernel_to_dict(k) for k in kernels] for kernels in plan.trailing_per_gpu
        ],
        "data_prep_per_gpu": [
            {"alloc_us": p.alloc_us, "h2d_copy_us": p.h2d_copy_us, "dispatch_us": p.dispatch_us}
            for p in plan.data_prep_per_gpu
        ],
        "fusion_enabled": plan.fusion_enabled,
        "interleaving_enabled": plan.interleaving_enabled,
        # The search's own cost-model summary. Schedules are not persisted
        # (the assignments above are their product), but the headline
        # numbers must survive so a reloaded plan predicts the same
        # exposure -- the watchdog compares measurements against it.
        "evaluation": {
            "comm_us": plan.mapping_eval.comm_us,
            "exposed_us_per_gpu": plan.mapping_eval.exposed_per_gpu,
        },
    }
    if resilience is not None:
        payload["resilience"] = dict(resilience)
    return payload


def encode_plan(payload: Mapping[str, Any], indent: int | None = None) -> str:
    """The one byte layout of plan text.

    Every machine-read plan text -- the plan cache's tiers, checkpoint
    ``plan.json``, shadow anchors and the service's tenant-invariant
    index -- is this function's compact output (``indent=None`` keeps
    CPython's C encoder), so equal payloads always give equal bytes.
    Only human-facing files written once per run (:func:`save_plan`)
    pass an ``indent``.
    """
    return json.dumps(payload, indent=indent)


def plan_to_json(
    plan: RapPlan,
    indent: int | None = None,
    resilience: Mapping[str, Any] | None = None,
) -> str:
    """Serialize the decision content of a plan (see :func:`plan_payload`)."""
    return encode_plan(plan_payload(plan, resilience), indent)


def plan_from_json(
    source: str,
    workload: TrainingWorkload,
    graph_set: GraphSet,
    path: str | Path | None = None,
) -> RapPlan:
    """Rebuild a plan against a live workload and graph set.

    The workload must match the serialized shape (GPU count and batch
    size); the graph set is re-attached for code generation. A truncated or
    structurally corrupt artifact raises :class:`PlanLoadError` naming
    ``path`` (when given) instead of leaking a raw decode error.
    """
    try:
        data = json.loads(source)
    except json.JSONDecodeError as exc:
        raise PlanLoadError(f"plan file is not valid JSON ({exc})", path) from exc
    if not isinstance(data, dict):
        raise PlanLoadError(f"plan payload must be a JSON object, got {type(data).__name__}", path)
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise PlanLoadError(f"unsupported plan format version {version!r}", path)
    try:
        saved = data["workload"]
        if saved["num_gpus"] != workload.num_gpus or saved["local_batch"] != workload.local_batch:
            raise PlanLoadError(
                "workload shape mismatch: plan was searched for "
                f"{saved['num_gpus']} GPUs x batch {saved['local_batch']}, got "
                f"{workload.num_gpus} x {workload.local_batch}",
                path,
            )
        m = data["mapping"]
        mapping = GraphMapping(
            strategy=m["strategy"],
            num_gpus=m["num_gpus"],
            placements={k: [tuple(p) for p in v] for k, v in m["placements"].items()},
            input_comm_bytes=m["input_comm_bytes"],
            input_comm_transfers=m["input_comm_transfers"],
        )
        assignments = [
            {int(idx): [kernel_from_dict(k) for k in kernels] for idx, kernels in per_gpu.items()}
            for per_gpu in data["assignments_per_gpu"]
        ]
        trailing = [
            [kernel_from_dict(k) for k in kernels] for kernels in data["trailing_per_gpu"]
        ]
        prep = [DataPreparation(**p) for p in data["data_prep_per_gpu"]]
        fusion_enabled = data["fusion_enabled"]
        interleaving_enabled = data["interleaving_enabled"]
        # Optional for backwards compatibility: version-1 artifacts written
        # before the planner fast path carry no evaluation summary and
        # reload with a zero predicted exposure, as before.
        saved_eval = data.get("evaluation") or {}
        comm_us = float(saved_eval.get("comm_us", 0.0))
        exposed = saved_eval.get("exposed_us_per_gpu")
        exposed = [float(v) for v in exposed] if exposed is not None else None
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        if isinstance(exc, PlanLoadError):
            raise
        raise PlanLoadError(f"plan payload is missing or malformed: {exc}", path) from exc
    evaluation = MappingEvaluation(
        mapping=mapping, schedules=[], comm_us=comm_us, exposed_us_per_gpu=exposed
    )
    return RapPlan(
        workload=workload,
        graph_set=graph_set,
        mapping_eval=evaluation,
        assignments_per_gpu=assignments,
        trailing_per_gpu=trailing,
        data_prep_per_gpu=prep,
        fusion_enabled=fusion_enabled,
        interleaving_enabled=interleaving_enabled,
    )


def load_plan(
    path: str | Path,
    workload: TrainingWorkload,
    graph_set: GraphSet,
) -> RapPlan:
    """Load a plan artifact from disk, wrapping I/O failures uniformly."""
    try:
        source = Path(path).read_text()
    except OSError as exc:
        raise PlanLoadError(f"cannot read plan file ({exc.strerror or exc})", path) from exc
    return plan_from_json(source, workload, graph_set, path=path)


def save_plan(
    path: str | Path,
    plan: RapPlan,
    resilience: Mapping[str, Any] | None = None,
) -> None:
    """Write a plan (optionally with its resilience report) to disk.

    The write is atomic (temp file + fsync + rename), so a crash mid-save
    leaves either the previous artifact or the new one -- never a torn
    file. The artifact is meant for people, so it is indented.
    """
    atomic_write_text(path, plan_to_json(plan, indent=2, resilience=resilience))


def resilience_from_json(source: str, path: str | Path | None = None) -> dict[str, Any] | None:
    """The embedded resilience payload of a serialized plan, if any."""
    try:
        data = json.loads(source)
    except json.JSONDecodeError as exc:
        raise PlanLoadError(f"plan file is not valid JSON ({exc})", path) from exc
    if not isinstance(data, dict):
        raise PlanLoadError(f"plan payload must be a JSON object, got {type(data).__name__}", path)
    resilience = data.get("resilience")
    if resilience is not None and not isinstance(resilience, dict):
        raise PlanLoadError("resilience payload must be a JSON object", path)
    return resilience
