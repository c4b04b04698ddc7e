"""Correctness checks computed apart from the program.

Each check recomputes its reference from public data (the constraint list
of an ``lp.Model``, the primal and dual vectors, the samples, the support)
with numpy or scipy, never through the program's own checking helpers.
A failed check raises ``CheckFailed``; callers collect the messages.
"""

from __future__ import annotations

import csv
import itertools

import numpy as np
import scipy.sparse as sp
from scipy.stats import wasserstein_distance

#: Relative tolerance for values the program states as LP optima.
VALUE_RTOL = 1e-6


class CheckFailed(AssertionError):
    pass


def close(a, b, rtol=VALUE_RTOL, atol=1e-9):
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def lp_certificate(model, x, duals, objective, tol=1e-6):
    """Primal feasibility, dual feasibility and strong duality of an LP.

    Rebuilt from ``model.constraints`` (cols, vals, sense, rhs), the bounds
    and the objective. Duals follow the program's d(objective)/d(rhs)
    convention for a minimisation: <= rows carry duals <= 0 and >= rows
    duals >= 0. Returns the relative duality gap.
    """
    cons = model.constraints
    sizes = np.fromiter((len(c.cols) for c in cons), dtype=np.int64,
                        count=len(cons))
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    cols = np.concatenate([c.cols for c in cons]) if cons else np.zeros(0, int)
    vals = np.concatenate([c.vals for c in cons]) if cons else np.zeros(0)
    a = sp.csr_matrix((vals, cols, indptr), shape=(len(cons), model.num_vars))
    rhs = np.array([c.rhs for c in cons])
    sense = np.array([c.sense for c in cons])
    c_obj = np.asarray(model.obj, dtype=float)
    lb = np.asarray(model.lb, dtype=float)
    ub = np.asarray(model.ub, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(duals, dtype=float)

    ax = a @ x
    scale = 1.0 + np.abs(rhs) + abs(a) @ np.abs(x)
    resid = np.where(sense == "<=", ax - rhs,
                     np.where(sense == ">=", rhs - ax, np.abs(ax - rhs)))
    worst = int(np.argmax(resid / scale)) if len(cons) else 0
    require(not len(cons) or resid[worst] <= tol * scale[worst],
            f"row {cons[worst].name if cons else ''} violated by "
            f"{resid[worst] if cons else 0:.3g}")
    require(np.all(x >= lb - tol * (1 + np.abs(lb)))
            and np.all(x <= ub + tol * (1 + np.abs(ub))),
            "a variable lies outside its bounds")

    ysc = tol * (1.0 + np.max(np.abs(y), initial=0.0))
    require(np.all(y[sense == "<="] <= ysc) and np.all(y[sense == ">="] >= -ysc),
            "an inequality dual has the wrong sign")
    red = c_obj - a.T @ y
    rsc = tol * (1.0 + np.abs(c_obj) + abs(a).T @ np.abs(y))
    need_lb = red > rsc
    need_ub = red < -rsc
    require(np.all(np.isfinite(lb[need_lb])) and np.all(np.isfinite(ub[need_ub])),
            "a reduced cost pushes against an infinite bound")
    dual_obj = float(y @ rhs + red[need_lb] @ lb[need_lb]
                     + red[need_ub] @ ub[need_ub])
    primal = float(c_obj @ x)
    require(close(primal, objective), f"c'x = {primal} but objective = {objective}")
    gap = abs(primal - dual_obj) / max(1.0, abs(primal))
    require(gap <= tol, f"duality gap {gap:.3g}")
    return gap


def worst_case_linear(coef, mean, lower, upper, eps):
    """sup E[coef * xi] over a W1 ball of radius eps around samples in a box.

    All samples lie on one side of the worst corner, so moving mass toward
    it gains |coef| per unit of transport until the mean reaches it.
    """
    corner = upper if coef > 0 else lower
    return coef * mean + abs(coef) * min(eps, abs(corner - mean))


def opf_checks(sol, network):
    """Certificate and closed-form activation cost of one OPF solution."""
    require(sol.optimal, f"OPF solve ended {sol.status}")
    lps = sol.lp_solution
    lp_certificate(sol.built.model, lps.x, lps.duals, sol.objective)
    data = sol.built.data
    sup = sol.built.support
    c_a = np.array([g.c_A for g in network.generators])
    coef = -(c_a @ sol.decision.alpha)
    expect = sum(worst_case_linear(coef[j], float(np.mean(data.samples[j])),
                                   sup.lower[j], sup.upper[j], data.epsilons[j])
                 for j in range(data.dimension))
    got = sol.activation_cost_block()
    require(close(got, expect), f"activation cost {got} but closed form {expect}")


def sweep_grid_checks(cells):
    """Objective monotone in every budget; tightening never raises it.

    ``cells`` maps an epsilon tuple to (objective, tightened objective).
    """
    for eps, (obj, tight) in cells.items():
        require(tight <= obj + 1e-9 * max(1.0, abs(obj)),
                f"tightened objective {tight} above base {obj} at {eps}")
        for j in range(len(eps)):
            for other, (obj2, _) in cells.items():
                if (other[j] > eps[j]
                        and all(other[i] == eps[i] for i in range(len(eps)) if i != j)):
                    require(obj2 >= obj - 1e-9 * max(1.0, abs(obj)),
                            f"objective falls from {obj} at {eps} to {obj2} at {other}")


def product_average(cost_a, cost_b, samples):
    """Mean of max_k (a_k . xi + b_k) over the product of the samples."""
    grids = np.meshgrid(*samples, indexing="ij")
    pts = np.stack([g.ravel() for g in grids])
    return float(np.mean(np.max(cost_a @ pts + cost_b[:, None], axis=0)))


def box_maximum(cost_a, cost_b, lower, upper):
    corners = np.array(list(itertools.product(*zip(lower, upper)))).T
    return float(np.max(cost_a @ corners + cost_b[:, None]))


def single_budget_linear(coef, means, lower, upper, eps):
    """Separable cost under one shared budget: fill the steepest first."""
    value = float(np.dot(coef, means))
    left = eps
    for j in np.argsort(-np.abs(coef)):
        corner = upper[j] if coef[j] > 0 else lower[j]
        step = min(left, abs(corner - means[j]))
        value += abs(coef[j]) * step
        left -= step
    return value


def w1_reference(a, b):
    return float(wasserstein_distance(a, b))


def read_quality(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {name: float(eps) for name, eps in rows}
