"""Branch-and-bound MILP solver over scipy ``linprog`` LP relaxations.

A deliberately transparent implementation of the textbook algorithm:
best-first search on the LP relaxation bound, branching on the most
fractional integer variable, with warm-start incumbents and node/time
limits so large instances degrade gracefully to the best feasible solution
found (mirroring how Gurobi would be used with a time limit in the paper's
pipeline).
"""

from __future__ import annotations

import heapq
import itertools
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


@dataclass
class _Node:
    """One branch-and-bound node: extra variable bounds on the relaxation."""

    bound: float  # LP relaxation objective (minimization form)
    lower: np.ndarray
    upper: np.ndarray
    depth: int = 0


class BranchAndBoundSolver:
    """Solve a :class:`MilpProblem` by LP-based branch and bound."""

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
        from scipy.optimize import linprog

        arrays = problem.to_arrays()
        c = arrays["c"]
        integer_mask = arrays["integer_mask"]
        base_lower = np.array([b[0] for b in arrays["bounds"]], dtype=float)
        base_upper = np.array([b[1] for b in arrays["bounds"]], dtype=float)

        incumbent_x: np.ndarray | None = None
        incumbent_obj = np.inf  # minimization form
        if warm_start is not None and problem.is_feasible(warm_start):
            incumbent_x = np.asarray(warm_start, dtype=float)
            incumbent_obj = float(c @ incumbent_x)

        def relax(lower: np.ndarray, upper: np.ndarray):
            return linprog(
                c,
                A_ub=arrays["A_ub"],
                b_ub=arrays["b_ub"],
                A_eq=arrays["A_eq"],
                b_eq=arrays["b_eq"],
                bounds=list(zip(lower, upper)),
                method="highs",
            )

        root = relax(base_lower, base_upper)
        if not root.success:
            if incumbent_x is not None:
                # The warm start proves feasibility, so the relaxation's
                # failure is numerical; with no dual bound available the
                # incumbent is returned as-is with a zero gap estimate.
                return MilpSolution(
                    "feasible", incumbent_x, problem.objective_value(incumbent_x), 0, gap=0.0
                )
            return MilpSolution("infeasible", None, None)

        counter = itertools.count()
        heap: list[tuple[float, int, _Node]] = []
        heapq.heappush(
            heap, (root.fun, next(counter), _Node(root.fun, base_lower, base_upper))
        )
        nodes = 0
        deadline = time.monotonic() + self.time_limit_s
        status = "optimal"

        while heap:
            if nodes >= self.node_limit:
                status = "node_limit"
                break
            if time.monotonic() > deadline:
                status = "time_limit"
                break
            bound, _, node = heapq.heappop(heap)
            if bound >= incumbent_obj - self.gap_tol:
                continue  # cannot improve on the incumbent
            result = relax(node.lower, node.upper)
            nodes += 1
            if not result.success or result.fun >= incumbent_obj - self.gap_tol:
                continue
            x = result.x
            frac = np.where(
                integer_mask,
                np.abs(x - np.round(x)),
                0.0,
            )
            worst = int(np.argmax(frac))
            if frac[worst] <= self.integrality_tol:
                # Integral solution: new incumbent.
                snapped = x.copy()
                snapped[integer_mask] = np.round(snapped[integer_mask])
                incumbent_x = snapped
                incumbent_obj = float(c @ snapped)
                continue
            # Branch on the most fractional variable.
            floor_val = np.floor(x[worst])
            down_upper = node.upper.copy()
            down_upper[worst] = floor_val
            up_lower = node.lower.copy()
            up_lower[worst] = floor_val + 1.0
            if down_upper[worst] >= node.lower[worst]:
                heapq.heappush(
                    heap,
                    (result.fun, next(counter), _Node(result.fun, node.lower, down_upper, node.depth + 1)),
                )
            if up_lower[worst] <= node.upper[worst]:
                heapq.heappush(
                    heap,
                    (result.fun, next(counter), _Node(result.fun, up_lower, node.upper, node.depth + 1)),
                )

        if incumbent_x is None and status in ("node_limit", "time_limit"):
            # Limits hit before any integral node: try snapping the root
            # relaxation to integers as a last-resort feasible point.
            snapped = root.x.copy()
            snapped[integer_mask] = np.floor(snapped[integer_mask] + self.integrality_tol)
            if problem.is_feasible(snapped):
                incumbent_x = snapped
                incumbent_obj = float(c @ snapped)
        if incumbent_x is None:
            return MilpSolution("infeasible" if status == "optimal" else status, None, None, nodes)
        if status == "optimal":
            # Natural exit: the heap drained, so the incumbent is proven.
            return MilpSolution(
                "optimal", incumbent_x, problem.objective_value(incumbent_x), nodes, gap=0.0
            )
        # A limit stopped the search with an incumbent in hand (possibly the
        # untouched warm start at zero nodes explored): report "feasible"
        # with a finite optimality gap against the best open relaxation
        # bound. The heap is never empty here -- limits break out of the
        # loop before popping -- so a real dual bound always exists.
        best_bound = heap[0][0] if heap else incumbent_obj
        gap = max(0.0, incumbent_obj - best_bound)
        return MilpSolution(
            "feasible",
            incumbent_x,
            problem.objective_value(incumbent_x),
            nodes,
            gap=gap,
        )
