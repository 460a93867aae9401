"""Unit tests for the horizontal-fusion MILP formulation and heuristics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.milp.branch_and_bound import BranchAndBoundSolver
from repro.milp.fusion_problem import (
    FusionAssignment,
    FusionInstance,
    build_fusion_milp,
    solve_fusion,
)


def chain(types):
    """One linear chain of ops with the given types."""
    return FusionInstance(
        op_types=list(types),
        deps=[(i, i + 1) for i in range(len(types) - 1)],
    )


class TestFusionInstance:
    def test_rejects_out_of_range_dep(self):
        with pytest.raises(IndexError):
            FusionInstance(op_types=["A"], deps=[(0, 1)])

    def test_rejects_self_dep(self):
        with pytest.raises(ValueError):
            FusionInstance(op_types=["A", "A"], deps=[(0, 0)])

    def test_asap_levels_chain(self):
        inst = chain("ABC")
        assert inst.asap_levels() == [0, 1, 2]

    def test_asap_levels_diamond(self):
        inst = FusionInstance(op_types=list("ABCD"), deps=[(0, 1), (0, 2), (1, 3), (2, 3)])
        assert inst.asap_levels() == [0, 1, 1, 2]

    def test_cycle_detected(self):
        inst = FusionInstance(op_types=["A", "B"], deps=[(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            inst.asap_levels()

    def test_reachable_pairs_transitive(self):
        inst = chain("ABC")
        assert (0, 2) in inst.reachable_pairs()


class TestFusionAssignment:
    def test_validates_dependencies(self):
        inst = chain("AB")
        with pytest.raises(ValueError):
            FusionAssignment(inst, steps=[1, 0])
        with pytest.raises(ValueError):
            FusionAssignment(inst, steps=[0, 0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            FusionAssignment(chain("AB"), steps=[0])

    def test_groups(self):
        inst = FusionInstance(op_types=["A", "A", "B"])
        a = FusionAssignment(inst, steps=[0, 0, 0])
        groups = a.groups()
        assert groups[("A", 0)] == [0, 1]
        assert a.fused_pair_count() == 1
        assert a.quadratic_objective() == 5  # 2^2 + 1^2
        assert a.max_fusion_degree() == 2

    def test_ordered_groups_by_step(self):
        inst = FusionInstance(op_types=["A", "B"], deps=[(0, 1)])
        a = FusionAssignment(inst, steps=[0, 1])
        ordered = a.ordered_groups()
        assert ordered[0][1] == 0 and ordered[1][1] == 1


class TestSolveFusion:
    def test_empty_instance(self):
        a = solve_fusion(FusionInstance(op_types=[]))
        assert a.steps == []
        assert a.method == "empty"

    def test_independent_same_type_all_fused(self):
        inst = FusionInstance(op_types=["A"] * 6)
        a = solve_fusion(inst, exact=False)
        assert a.max_fusion_degree() == 6
        assert a.num_steps == 1

    def test_dependent_same_type_cannot_fuse(self):
        inst = chain("AA")
        a = solve_fusion(inst, exact=True)
        assert a.max_fusion_degree() == 1
        assert a.steps[0] < a.steps[1]

    def test_paper_conflict_case_exact(self):
        """FirstX->SigridHash vs SigridHash->FirstX (§6.1): the two fusion
        opportunities conflict -- aligning both pairs is impossible because
        it would need steps[0] == steps[3] and steps[1] == steps[2] against
        opposite dependency directions. The optimum delays one chain to
        fuse exactly one pair, which greedy ASAP cannot find."""
        inst = FusionInstance(
            op_types=["FirstX", "SigridHash", "SigridHash", "FirstX"],
            deps=[(0, 1), (2, 3)],
        )
        greedy = solve_fusion(inst, exact=False)
        exact = solve_fusion(inst, exact=True)
        assert greedy.fused_pair_count() == 0
        assert exact.fused_pair_count() == 1
        # One same-type pair shares a step in the exact plan.
        assert exact.steps[1] == exact.steps[2] or exact.steps[0] == exact.steps[3]

    def test_exact_never_worse_than_greedy(self):
        inst = FusionInstance(
            op_types=["A", "B", "B", "A", "A", "B"],
            deps=[(0, 1), (2, 3), (4, 5)],
        )
        greedy = solve_fusion(inst, exact=False)
        exact = solve_fusion(inst, exact=True)
        assert exact.fused_pair_count() >= greedy.fused_pair_count()

    def test_heuristic_on_large_instance(self):
        types = (["A", "B", "C"] * 40)[:120]
        deps = [(i, i + 1) for i in range(0, 117, 3)]
        inst = FusionInstance(op_types=types, deps=deps)
        a = solve_fusion(inst)  # auto: too big for exact
        assert a.method in ("heuristic", "heuristic_fallback")
        a.validate()

    def test_milp_build_shapes(self):
        inst = chain("AB")
        problem, x = build_fusion_milp(inst)
        assert len(x) == 2
        # Depth bound (2) plus one slack step.
        assert len(x[0]) == 3
        assert problem.num_vars >= 6

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_random_dags_produce_valid_assignments(self, data):
        """Property: any random DAG yields a dependency-respecting plan."""
        n = data.draw(st.integers(min_value=1, max_value=12))
        types = data.draw(
            st.lists(st.sampled_from(["A", "B", "C"]), min_size=n, max_size=n)
        )
        deps = []
        for j in range(1, n):
            for i in range(j):
                if data.draw(st.booleans()):
                    deps.append((i, j))
        inst = FusionInstance(op_types=types, deps=deps)
        a = solve_fusion(inst, exact=False)
        a.validate()  # raises on violation
        assert sorted(a.groups().keys()) == sorted(set(a.groups().keys()))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=6))
    def test_exact_matches_quadratic_optimum_on_independent_ops(self, n):
        inst = FusionInstance(op_types=["A"] * n)
        a = solve_fusion(inst, exact=True)
        assert a.quadratic_objective() == n * n


class _Captured(Exception):
    pass


def first_fusion_instance(seed: int, monkeypatch) -> FusionInstance:
    """The first fusion instance the planner builds for random plan ``seed``.

    The planner runs at 2 GPUs and 4096 rows; the search stops as soon as
    the fusion pass asks for its first solve.
    """
    import repro.core.fusion as core_fusion
    from repro import RapPlanner, TrainingWorkload, model_for_plan
    from repro.preprocessing.random_plans import RandomPlanConfig, generate_random_plan

    captured = []

    def capture(instance, **_):
        captured.append(instance)
        raise _Captured

    monkeypatch.setattr(core_fusion, "solve_fusion", capture)
    graphs, schema = generate_random_plan(RandomPlanConfig(seed=seed), rows=4096)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=2, local_batch=4096)
    with pytest.raises(_Captured):
        RapPlanner(workload).plan(graphs)
    return captured[0]


class TestRandomPlanFusionMilps:
    """Regression pins on the fusion MILPs of seeded random plans."""

    def test_seed8_proves_optimality_within_200_nodes(self, monkeypatch):
        # A 20-op, 462-variable instance. Its optimum must be proven well
        # inside the default limits, so the plan does not depend on host speed.
        instance = first_fusion_instance(8, monkeypatch)
        assignment = solve_fusion(
            instance, exact=True, solver=BranchAndBoundSolver(node_limit=200)
        )
        assert assignment.method == "milp"
        assert assignment.milp_status == "optimal"

    def test_seed5_assignment_is_pinned(self, monkeypatch):
        # Random plan 5 drives the faulted-shadow benchmark; its fusion
        # steps must not move when the solver changes.
        instance = first_fusion_instance(5, monkeypatch)
        assignment = solve_fusion(instance, solver=BranchAndBoundSolver())
        assert assignment.method == "milp"
        assert assignment.milp_status == "optimal"
        assert assignment.steps == [0, 2, 4, 0, 1, 2, 3, 0, 2, 3, 4, 5, 6, 0, 3]
