"""Cross-tenant plan reuse through a tenant-invariant index.

Two tenants that submit *isomorphic* preprocessing workloads -- identical
op pipelines, list lengths, batch shape, and fleet, differing only in
the names of graphs, columns, and embedding tables -- deserve one plan
search, not two. This module makes the stored plan text itself
tenant-invariant:

- :func:`canonicalize_plan_text` rewrites a tenant's serialized plan into
  canonical names (``g0/g1/...`` graphs, ``c0/c1/...`` columns) using
  :func:`repro.core.plan_cache.canonical_name_maps`, so isomorphic
  workloads produce byte-identical canonical text.
- :func:`specialize_plan_text` inverts the target tenant's own canonical
  maps to rewrite that text back into *its* names, producing exactly the
  bytes :func:`repro.core.serialization.plan_to_json` would emit for the
  renamed plan.
- :class:`SharedPlanIndex` stores canonical text in the ordinary
  :class:`~repro.core.plan_cache.PlanCache` under the salted
  :func:`~repro.core.plan_cache.invariant_plan_key`, so the invariant
  tier shares the cache's thread safety, disk persistence, and stats.

All plan text here is encoded by :func:`repro.core.serialization.encode_plan`,
the one owner of plan text's byte layout.

:func:`renamed_model` is the inverse convenience: it builds a renamed
(but isomorphic) copy of a graph set *and* its DLRM config with a
uniform tenant prefix. Renaming the config's tables alongside the
graphs is load-bearing: rebuilding the model from the schema instead
(``model_for_plan``) would silently assign renamed features the generic
generated-table hash size and break isomorphism.
"""

from __future__ import annotations

import dataclasses
import json

from ..core.plan_cache import PlanCache, canonical_name_maps
from ..core.planner import RapPlan
from ..core.serialization import encode_plan, plan_from_json, plan_payload
from ..dlrm.model import DLRMConfig
from ..dlrm.training import TrainingWorkload
from ..preprocessing.graph import DENSE_CONSUMER, FeatureGraph, GraphSet

__all__ = [
    "renamed_model",
    "canonicalize_plan_text",
    "specialize_plan_text",
    "SharedPlanIndex",
]

#: ``workload.model`` in canonical plan text; restored at specialization.
_CANONICAL_MODEL = "canonical"


def renamed_model(
    graph_set: GraphSet, config: DLRMConfig, tag: str
) -> tuple[GraphSet, DLRMConfig]:
    """An isomorphic copy of ``(graph_set, config)`` under a tenant tag.

    Graph names gain a ``{tag}.`` prefix; column names and ``table:*``
    consumers gain a ``.{tag}`` *suffix* -- the data-preparation
    estimator classifies raw columns by their ``dense``/``sparse`` name
    prefix, so a tenant prefix there would silently reclassify every
    dense column and change the plan's H2D cost. The dense consumer is
    structural and keeps its name. Embedding tables are renamed in place
    (sizes untouched), so greedy placement and every stage cost match
    the original bit for bit.
    """
    tag = tag.rstrip(".")

    def col(name: str) -> str:
        return f"{name}.{tag}"

    def consumer(name: str) -> str:
        if name == DENSE_CONSUMER:
            return name
        return f"table:{name.removeprefix('table:')}.{tag}"

    graphs = []
    for graph in graph_set:
        ops = tuple(
            dataclasses.replace(
                op,
                inputs=tuple(col(i) for i in op.inputs),
                output=col(op.output),
            )
            for op in graph.ops
        )
        graphs.append(
            FeatureGraph(
                name=f"{tag}.{graph.name}",
                ops=ops,
                consumer=consumer(graph.consumer),
                avg_list_length=graph.avg_list_length,
            )
        )
    tables = tuple(
        dataclasses.replace(t, name=consumer(t.name)) for t in config.tables
    )
    return (
        GraphSet(graphs, rows=graph_set.rows),
        dataclasses.replace(config, name=f"{tag}.{config.name}", tables=tables),
    )


# ----------------------------------------------------------------------
# Plan-text renaming


def _rename_kernel_name(name: str, column_map: dict[str, str]) -> str:
    """Map the column identity inside one serialized kernel name.

    Kernel names are ``"<op>:<output_column>"`` with an optional ``#i``
    shard suffix; fused kernels are ``"fused_<tag>_x<N>"`` and carry no
    column identity (their members do, via ``meta``).
    """
    base, sep, shard = name.partition("#")
    if base.startswith("fused_"):
        return name
    op, colon, column = base.partition(":")
    if not colon:
        return name
    renamed = column_map.get(column)
    if renamed is None:
        return name
    return f"{op}:{renamed}{sep}{shard}"


def _rename_kernel_dict(kernel: dict, column_map: dict[str, str]) -> dict:
    out = dict(kernel)
    out["name"] = _rename_kernel_name(kernel["name"], column_map)
    meta = kernel.get("meta")
    if isinstance(meta, dict):
        meta = dict(meta)
        fused = meta.get("fused")
        if isinstance(fused, list):
            meta["fused"] = [_rename_kernel_name(m, column_map) for m in fused]
        members = meta.get("member_kernels")
        if isinstance(members, list):
            meta["member_kernels"] = [
                _rename_kernel_dict(m, column_map) if isinstance(m, dict) else m
                for m in members
            ]
        out["meta"] = meta
    return out


def _rename_plan_payload(
    payload: dict,
    graph_map: dict[str, str],
    column_map: dict[str, str],
    model_name: str,
) -> dict:
    """A copy of a plan payload with every graph/column reference renamed.

    Dict insertion order is preserved throughout, so encoding the result
    with :func:`encode_plan` reproduces ``plan_to_json``'s exact bytes
    for the renamed plan.
    """
    out = dict(payload)
    workload = dict(out.get("workload", {}))
    workload["model"] = model_name
    out["workload"] = workload
    mapping = dict(out.get("mapping", {}))
    placements = mapping.get("placements")
    if isinstance(placements, dict):
        mapping["placements"] = {
            graph_map.get(name, name): gpus for name, gpus in placements.items()
        }
    out["mapping"] = mapping
    out["assignments_per_gpu"] = [
        {
            stage: [_rename_kernel_dict(k, column_map) for k in kernels]
            for stage, kernels in per_gpu.items()
        }
        for per_gpu in out.get("assignments_per_gpu", [])
    ]
    out["trailing_per_gpu"] = [
        [_rename_kernel_dict(k, column_map) for k in kernels]
        for kernels in out.get("trailing_per_gpu", [])
    ]
    return out


def _canonical_text(payload: dict, graph_set: GraphSet) -> str:
    graph_map, column_map, _ = canonical_name_maps(graph_set)
    return encode_plan(
        _rename_plan_payload(payload, graph_map, column_map, _CANONICAL_MODEL)
    )


def canonicalize_plan_text(plan_text: str, graph_set: GraphSet) -> str:
    """``plan_text`` rewritten into the graph set's canonical names."""
    return _canonical_text(json.loads(plan_text), graph_set)


def specialize_plan_text(
    canonical_text: str, graph_set: GraphSet, model_name: str
) -> str:
    """Canonical plan text rewritten into ``graph_set``'s own names.

    Inverts :func:`canonical_name_maps` for the *target* tenant; since
    isomorphic graph sets share one canonical form, the inverse maps of
    any isomorphic tenant line up entry for entry.
    """
    graph_map, column_map, _ = canonical_name_maps(graph_set)
    inverse_graphs = {v: k for k, v in graph_map.items()}
    inverse_columns = {v: k for k, v in column_map.items()}
    return encode_plan(
        _rename_plan_payload(
            json.loads(canonical_text), inverse_graphs, inverse_columns, model_name
        )
    )


class SharedPlanIndex:
    """Tenant-invariant plan sharing layered on the plan cache.

    Entries live in the same :class:`PlanCache` as exact-key plans (same
    memory/disk tiers, same lock), just under the salted invariant key
    and in canonical names. ``lookup`` specializes a hit into the asking
    tenant's names and validates it against the live workload shape.
    """

    def __init__(self, cache: PlanCache) -> None:
        self.cache = cache
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def store(self, invariant_key: str, plan: RapPlan, graph_set: GraphSet) -> None:
        """Store ``plan`` in canonical names, encoding its payload once."""
        self.stores += 1
        self.cache.put_text(invariant_key, _canonical_text(plan_payload(plan), graph_set))

    def lookup(
        self,
        invariant_key: str,
        workload: TrainingWorkload,
        graph_set: GraphSet,
    ) -> tuple[object, str] | None:
        """``(plan, specialized_text)`` for an isomorphic hit, else None."""
        canonical = self.cache.get_text(invariant_key)
        if canonical is None:
            self.misses += 1
            return None
        specialized = specialize_plan_text(canonical, graph_set, workload.config.name)
        try:
            plan = plan_from_json(specialized, workload, graph_set)
        except (ValueError, KeyError):
            self.misses += 1
            return None
        self.hits += 1
        return plan, specialized
