"""A small mixed-integer linear programming modeling layer.

The paper formulates horizontal-fusion planning as a MILP (§6.2) and
solves it with Gurobi. Gurobi is unavailable here, so ``repro.milp``
provides a replacement: this module is the modeling surface (variables,
linear constraints, linear objective) and :mod:`repro.milp.branch_and_bound`
is the solver, one HiGHS branch-and-cut call (``scipy.optimize.milp``).
Quadratic binary objectives are lowered to linear form by
:mod:`repro.milp.linearize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = ["Variable", "Constraint", "MilpProblem"]


@dataclass(frozen=True)
class Variable:
    """One decision variable (identified by its column index)."""

    index: int
    name: str
    lb: float = 0.0
    ub: float = 1.0
    integer: bool = True

    def __post_init__(self) -> None:
        if self.lb > self.ub:
            raise ValueError(f"variable {self.name!r}: lb {self.lb} > ub {self.ub}")


@dataclass(frozen=True)
class Constraint:
    """A linear constraint ``sum(coef * var) <sense> rhs``."""

    coeffs: tuple[tuple[int, float], ...]
    sense: str  # "<=", ">=", "=="
    rhs: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError(f"constraint sense must be <=, >= or ==, got {self.sense!r}")


class MilpProblem:
    """A MILP under construction: maximize/minimize a linear objective."""

    def __init__(self, name: str = "milp", maximize: bool = True) -> None:
        self.name = name
        self.maximize = maximize
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self._objective: dict[int, float] = {}
        self._names: set[str] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = 1.0,
        integer: bool = True,
    ) -> Variable:
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        var = Variable(index=len(self.variables), name=name, lb=lb, ub=ub, integer=integer)
        self.variables.append(var)
        self._names.add(name)
        return var

    def add_binary(self, name: str) -> Variable:
        return self.add_var(name, lb=0.0, ub=1.0, integer=True)

    def add_constraint(
        self,
        coeffs: Mapping[Variable, float],
        sense: str,
        rhs: float,
        name: str = "",
    ) -> Constraint:
        packed = tuple((v.index, float(c)) for v, c in coeffs.items() if c != 0.0)
        con = Constraint(coeffs=packed, sense=sense, rhs=float(rhs), name=name)
        self.constraints.append(con)
        return con

    def set_objective(self, coeffs: Mapping[Variable, float]) -> None:
        self._objective = {v.index: float(c) for v, c in coeffs.items()}

    def add_objective_term(self, var: Variable, coef: float) -> None:
        self._objective[var.index] = self._objective.get(var.index, 0.0) + float(coef)

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    # ------------------------------------------------------------------
    # Matrix form (consumed by the solver)
    # ------------------------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray | list]:
        """Lower to the arrays the HiGHS solver consumes (minimization form)."""
        n = self.num_vars
        c = np.zeros(n)
        for idx, coef in self._objective.items():
            c[idx] = coef
        if self.maximize:
            c = -c

        a_ub_rows: list[np.ndarray] = []
        b_ub: list[float] = []
        a_eq_rows: list[np.ndarray] = []
        b_eq: list[float] = []
        for con in self.constraints:
            row = np.zeros(n)
            for idx, coef in con.coeffs:
                row[idx] += coef
            if con.sense == "<=":
                a_ub_rows.append(row)
                b_ub.append(con.rhs)
            elif con.sense == ">=":
                a_ub_rows.append(-row)
                b_ub.append(-con.rhs)
            else:
                a_eq_rows.append(row)
                b_eq.append(con.rhs)

        bounds = [(v.lb, v.ub) for v in self.variables]
        integer_mask = np.array([v.integer for v in self.variables], dtype=bool)
        return {
            "c": c,
            "A_ub": np.array(a_ub_rows) if a_ub_rows else None,
            "b_ub": np.array(b_ub) if b_ub else None,
            "A_eq": np.array(a_eq_rows) if a_eq_rows else None,
            "b_eq": np.array(b_eq) if b_eq else None,
            "bounds": bounds,
            "integer_mask": integer_mask,
        }

    def objective_value(self, x: np.ndarray) -> float:
        """Evaluate the (original, un-negated) objective at ``x``."""
        total = 0.0
        for idx, coef in self._objective.items():
            total += coef * x[idx]
        return total

    def is_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Check all constraints and bounds at the point ``x``."""
        for v in self.variables:
            if x[v.index] < v.lb - tol or x[v.index] > v.ub + tol:
                return False
            if v.integer and abs(x[v.index] - round(x[v.index])) > tol:
                return False
        for con in self.constraints:
            lhs = sum(coef * x[idx] for idx, coef in con.coeffs)
            if con.sense == "<=" and lhs > con.rhs + tol:
                return False
            if con.sense == ">=" and lhs < con.rhs - tol:
                return False
            if con.sense == "==" and abs(lhs - con.rhs) > tol:
                return False
        return True
