"""``repro.milp`` -- MILP modeling and solving (the Gurobi substitute).

A modeling layer solved by one HiGHS branch-and-cut call
(``scipy.optimize.milp``), binary-product linearization, and the paper's
§6.2 horizontal-fusion formulation with exact and heuristic solution paths.
"""

from .model import Constraint, MilpProblem, Variable
from .branch_and_bound import BranchAndBoundSolver, MilpSolution
from .solve_cache import SolveCache, SolveCacheStats, problem_fingerprint
from .linearize import add_binary_product, add_pairwise_products
from .fusion_problem import (
    FusionAssignment,
    FusionInstance,
    build_fusion_milp,
    solve_fusion,
)

__all__ = [
    "Constraint",
    "MilpProblem",
    "Variable",
    "BranchAndBoundSolver",
    "MilpSolution",
    "SolveCache",
    "SolveCacheStats",
    "problem_fingerprint",
    "add_binary_product",
    "add_pairwise_products",
    "FusionAssignment",
    "FusionInstance",
    "build_fusion_milp",
    "solve_fusion",
]
