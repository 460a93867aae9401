"""MILP solving with one HiGHS branch-and-cut call (``scipy.optimize.milp``).

The paper solves its fusion MILP with Gurobi; HiGHS, which scipy already
ships, is the stand-in here. Node and time limits let large instances
degrade gracefully to the best feasible solution found (mirroring how
Gurobi would be used with a time limit in the paper's pipeline), and a
feasible warm start stays the fallback incumbent, since ``milp`` cannot
take one as input.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .model import MilpProblem
from .solve_cache import SolveCache, problem_fingerprint

__all__ = ["MilpSolution", "BranchAndBoundSolver"]


@dataclass
class MilpSolution:
    """Outcome of a MILP solve.

    Status/gap contract:

    - ``"optimal"``: the search completed; ``x`` is set and ``gap`` is 0.
    - ``"feasible"``: a limit stopped the search with an incumbent in hand
      (including a warm-start-only incumbent at zero nodes explored);
      ``x`` is set and ``gap`` is a finite bound on the suboptimality.
    - ``"node_limit"`` / ``"time_limit"``: a limit stopped the search with
      *no* incumbent; ``x``, ``objective`` and ``gap`` are ``None``.
    - ``"infeasible"``: the problem has no integral solution; ``x`` and
      ``gap`` are ``None``.
    """

    status: str  # "optimal", "feasible", "infeasible", "node_limit", "time_limit"
    x: np.ndarray | None
    objective: float | None
    nodes_explored: int = 0
    gap: float | None = None

    @property
    def ok(self) -> bool:
        return self.x is not None


class BranchAndBoundSolver:
    """Solve a :class:`MilpProblem` by HiGHS branch and cut under node/time limits."""

    def __init__(
        self,
        node_limit: int = 20_000,
        time_limit_s: float = 30.0,
        integrality_tol: float = 1e-6,
        gap_tol: float = 1e-9,
        cache: SolveCache | None = None,
    ) -> None:
        self.node_limit = node_limit
        self.time_limit_s = time_limit_s
        self.integrality_tol = integrality_tol
        self.gap_tol = gap_tol
        self.cache = cache

    def solve(self, problem: MilpProblem, warm_start: np.ndarray | None = None) -> MilpSolution:
        key = None
        if self.cache is not None:
            key = problem_fingerprint(
                problem,
                self.node_limit,
                self.time_limit_s,
                self.integrality_tol,
                self.gap_tol,
                warm_start,
            )
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        solution = self._solve(problem, warm_start)
        if key is not None:
            self.cache.put(key, solution)
        return solution

    def _solve(self, problem: MilpProblem, warm_start: np.ndarray | None = None) -> MilpSolution:
        # scipy.optimize takes ~0.7 s to import; deferring it here keeps it
        # off every import path that never solves a MILP (the data plane,
        # plan-cache hits, the service's warm admissions).
        from scipy.optimize import Bounds, LinearConstraint, linprog, milp

        deadline = time.monotonic() + self.time_limit_s
        arrays = problem.to_arrays()
        c = arrays["c"]
        integer_mask = arrays["integer_mask"]
        lower, upper = np.array(arrays["bounds"], dtype=float).reshape(-1, 2).T

        incumbent_x: np.ndarray | None = None
        incumbent_obj = np.inf  # minimization form
        if warm_start is not None and problem.is_feasible(warm_start, self.integrality_tol):
            incumbent_x = np.asarray(warm_start, dtype=float)
            incumbent_obj = float(c @ incumbent_x)

        def result(status: str, nodes: int, gap: float | None) -> MilpSolution:
            if incumbent_x is None:
                return MilpSolution(status, None, None, nodes)
            objective = problem.objective_value(incumbent_x)
            return MilpSolution(status, incumbent_x, objective, nodes, gap=gap)

        def failed(nodes: int) -> MilpSolution:
            # Infeasible (or unbounded, or a numerical failure). A feasible
            # warm start proves the failure numerical; with no dual bound it
            # is returned as-is with a zero gap estimate.
            return result("feasible" if incumbent_x is not None else "infeasible", nodes, 0.0)

        remaining = deadline - time.monotonic()
        if self.node_limit <= 0 or remaining <= 0:
            # No node may be explored: the root LP relaxation alone bounds
            # the (warm-start) incumbent.
            status = "node_limit" if self.node_limit <= 0 else "time_limit"
            nodes, bound = 0, None
        else:
            constraints = []
            if arrays["A_ub"] is not None:
                constraints.append(LinearConstraint(arrays["A_ub"], -np.inf, arrays["b_ub"]))
            if arrays["A_eq"] is not None:
                constraints.append(LinearConstraint(arrays["A_eq"], arrays["b_eq"], arrays["b_eq"]))
            res = milp(
                c,
                integrality=integer_mask,
                bounds=Bounds(lower, upper),
                constraints=constraints,
                options={
                    "node_limit": self.node_limit,
                    "time_limit": remaining,
                    "mip_rel_gap": 0.0,
                },
            )
            nodes = int(res.mip_node_count or 0)
            if res.x is not None and res.fun < incumbent_obj - self.gap_tol:
                incumbent_x = res.x.copy()
                incumbent_x[integer_mask] = np.round(incumbent_x[integer_mask])
                incumbent_obj = float(c @ incumbent_x)
            if res.status == 0:
                return result("optimal", nodes, 0.0)
            # HiGHS reports its node limit as a "solution limit" (status 4).
            if res.status == 1:
                status = "time_limit"
            elif res.status == 4 and "Solution limit" in res.message:
                status = "node_limit"
            else:
                return failed(nodes)
            if incumbent_x is None:
                return result(status, nodes, None)
            bound = res.mip_dual_bound
        if bound is None or not np.isfinite(bound):
            root = linprog(
                c,
                A_ub=arrays["A_ub"],
                b_ub=arrays["b_ub"],
                A_eq=arrays["A_eq"],
                b_eq=arrays["b_eq"],
                bounds=np.column_stack([lower, upper]),
                method="highs",
            )
            if not root.success:
                return failed(nodes)
            bound = root.fun
        if incumbent_x is None:
            return result(status, nodes, None)
        # A limit stopped the search with an incumbent in hand (possibly the
        # untouched warm start): "feasible", with a finite gap against the
        # best dual bound.
        return result("feasible", nodes, max(0.0, incumbent_obj - bound))
