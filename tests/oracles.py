"""Independent reference implementations used only by the test suite.

Everything here is deliberately written the slow, obvious way (explicit
transport LPs via scipy.optimize.linprog, dense grids, corner enumeration)
so the closed forms and reformulations in the package have something honest
to disagree with. None of this code shares assembly logic with the package
modules it checks.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog


def add_row(model, name, terms, sense, rhs):
    """Add the single row ``sum(coef * x[col]) sense rhs`` named ``name``;
    ``terms`` lists (column, coefficient) pairs. Returns its row number."""
    from msdro_opf.lp import family

    cols = np.array([int(c) for c, _ in terms], dtype=np.int64)
    vals = np.array([float(v) for _, v in terms])
    return int(model.add(family(name, (), [(cols, vals)], sense, rhs)).index[0])


def bits(a) -> bytes:
    """An array's bytes: equal only if every value is the same float, with
    the same sign of zero (the CSVs print -0 and 0 apart)."""
    return np.asarray(a, dtype=float).tobytes()


def row_dual(sol, name):
    """Dual of the row named ``name`` (as ``duals.csv`` names it)."""
    return float(sol.duals[sol.model.row_names().index(name)])


def row_multiplier(sol, name):
    """Nonnegative KKT multiplier of the inequality row named ``name``."""
    from msdro_opf.lp import EQ, LE

    row = sol.model.row_names().index(name)
    sense = next(f.sense for f in sol.model.families.values() if row in f.index)
    if sense == EQ:
        raise ValueError(f"row {name!r} is an equality")
    return -float(sol.duals[row]) if sense == LE else float(sol.duals[row])


def transport_wp(a, b, p=1):
    """W_p^p between two equal-weight empirical samples, as a transport LP.

    Full coupling LP with uniform marginals 1/len(a) and 1/len(b); no
    sorting tricks.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = len(a), len(b)
    cost = np.abs(a[:, None] - b[None, :]) ** p
    # Row marginals then column marginals; one row is redundant but HiGHS
    # copes with that.
    a_eq = np.zeros((na + nb, na * nb))
    for i in range(na):
        a_eq[i, i * nb:(i + 1) * nb] = 1.0
    for j in range(nb):
        a_eq[na + j, j::nb] = 1.0
    b_eq = np.concatenate([np.full(na, 1.0 / na), np.full(nb, 1.0 / nb)])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def grid_sup_affine(a, lam, xhat, lower, upper, n=2001):
    """Brute-force sup over the box of a.xi - sum_j lam_j |xi_j - xhat_j|.

    The objective is separable, so each coordinate is maximized over a dense
    grid that always contains the three analytic candidates (both endpoints
    via linspace, the sample by explicit union).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    xhat = np.atleast_1d(np.asarray(xhat, dtype=float))
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    total = 0.0
    for j in range(len(a)):
        grid = np.union1d(np.linspace(lower[j], upper[j], n), [xhat[j]])
        vals = a[j] * grid - lam[j] * np.abs(grid - xhat[j])
        total += float(vals.max())
    return total


def sup_affine_minus_l1(a, lam, sample, support):
    """Exact value of sup over the box of a.xi - sum_j lam_j |xi_j - sample_j|.

    The objective separates per coordinate. With lam_j >= 0 and the sample
    in [l_j, u_j], each 1-D piece is concave with its breakpoint at the
    sample and rises toward at most one end, so its supremum is the sample
    term plus the distance to that end times the positive part of the slope
    beyond the sample (``dro_core.sample_worst_case``).
    """
    from msdro_opf.dro_core import SUPPORT_TOL, sample_worst_case
    from msdro_opf.errors import InputError

    a = np.atleast_1d(np.asarray(a, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    sample = np.atleast_1d(np.asarray(sample, dtype=float))
    if not (len(a) == len(lam) == len(sample) == support.dimension):
        raise InputError("dimension mismatch")
    if np.any(lam < 0):
        raise InputError("lambda must be >= 0")
    if (np.any(sample < support.lower - SUPPORT_TOL)
            or np.any(sample > support.upper + SUPPORT_TOL)):
        raise InputError("sample lies outside the support")
    return float(np.sum(sample_worst_case(
        a, np.maximum(a - lam, 0.0), np.maximum(-a - lam, 0.0), sample,
        support.lower, support.upper)))


def multi_marginal_value(rows_a, rows_b, samples, epsilons, lower, upper,
                         points_per_axis=21):
    """Discretized worst-case expectation over the multi-source ambiguity set.

    Joint-coupling LP: a free joint measure m on a product grid, plus one
    explicit transport plan T_j per feature coupling the j-th empirical
    distribution to the j-th marginal of m, with transport cost at most
    epsilon_j. The per-axis grids are a uniform mesh (endpoints included)
    united with the sample values, which covers every candidate coordinate
    of an extremal worst-case atom for 1-norm piecewise-affine problems.

    samples: list of per-feature 1-D arrays (lengths may differ).
    """
    rows_a = np.atleast_2d(np.asarray(rows_a, dtype=float))
    rows_b = np.asarray(rows_b, dtype=float)
    d = rows_a.shape[1]
    grids = []
    for j in range(d):
        g = np.union1d(np.linspace(lower[j], upper[j], points_per_axis),
                       np.asarray(samples[j], dtype=float))
        grids.append(g)
    sizes = [len(g) for g in grids]
    points = np.array(list(itertools.product(*grids)))
    m_count = len(points)
    values = (points @ rows_a.T + rows_b[None, :]).max(axis=1)

    # Variable packing: [m (m_count), T_1 (N_1*G_1), T_2, ...].
    offsets = [m_count]
    for j in range(d):
        offsets.append(offsets[-1] + len(samples[j]) * sizes[j])
    nvar = offsets[-1]

    a_eq, b_eq = [], []
    for j in range(d):
        n_j, g_j = len(samples[j]), sizes[j]
        base = offsets[j]
        for i in range(n_j):
            row = np.zeros(nvar)
            row[base + i * g_j: base + (i + 1) * g_j] = 1.0
            a_eq.append(row)
            b_eq.append(1.0 / n_j)
        # Marginal linking: sum_i T_j[i, g] = sum over grid points with
        # coordinate j equal to grids[j][g].
        axis_index = np.searchsorted(grids[j], points[:, j])
        for g in range(g_j):
            row = np.zeros(nvar)
            for i in range(n_j):
                row[base + i * g_j + g] = 1.0
            row[:m_count] -= (axis_index == g).astype(float)
            a_eq.append(row)
            b_eq.append(0.0)

    a_ub, b_ub = [], []
    for j in range(d):
        n_j, g_j = len(samples[j]), sizes[j]
        base = offsets[j]
        row = np.zeros(nvar)
        dist = np.abs(np.asarray(samples[j], dtype=float)[:, None]
                      - grids[j][None, :])
        row[base:base + n_j * g_j] = dist.ravel()
        a_ub.append(row)
        b_ub.append(float(epsilons[j]))

    c = np.zeros(nvar)
    c[:m_count] = -values
    res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(-res.fun)


def anchored_dual_value(rows_a, rows_b, atoms, weights, epsilons, lower, upper):
    """Direct assembly of the finite dual LP for a given anchor measure.

    min sum_j eps_j lam_j + sum_i w_i s_i subject to, for every anchor atom
    i, every affine piece k and every candidate maximizer (per coordinate:
    box ends or the atom coordinate):

        s_i + sum_j lam_j |xi*_j - atom_ij| >= a_k . xi* + b_k.

    With atoms = all product combinations of the per-feature samples this is
    the exponential-size reformulation; with atoms = the shared-index columns
    it is the linear-size one. Candidate enumeration is exhaustive (3^D per
    row), no closed-form inner sup.
    """
    rows_a = np.atleast_2d(np.asarray(rows_a, dtype=float))
    rows_b = np.asarray(rows_b, dtype=float)
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    n_atoms, d = atoms.shape
    nvar = d + n_atoms
    a_ub, b_ub = [], []
    for i in range(n_atoms):
        cands = [(lower[j], atoms[i, j], upper[j]) for j in range(d)]
        for k in range(rows_a.shape[0]):
            for point in itertools.product(*cands):
                xi = np.asarray(point)
                row = np.zeros(nvar)
                row[:d] = -np.abs(xi - atoms[i])
                row[d + i] = -1.0
                a_ub.append(row)
                b_ub.append(-(rows_a[k] @ xi + rows_b[k]))
    c = np.concatenate([np.asarray(epsilons, dtype=float),
                        np.asarray(weights, dtype=float)])
    bounds = [(0, None)] * d + [(None, None)] * n_atoms
    res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub), bounds=bounds,
                  method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def dc_flows_by_angles(network, injections):
    """DC line flows from nodal injections via bus angles.

    Solves the reduced susceptance system B theta = P with the first bus as
    angle reference; valid for balanced injections, where the flow pattern
    does not depend on the reference choice.
    """
    buses = list(network.buses)
    pos = {b: i for i, b in enumerate(buses)}
    nb, nl = len(buses), len(network.lines)
    b_bus = np.zeros((nb, nb))
    for ln in network.lines:
        f, t, y = pos[ln.from_bus], pos[ln.to_bus], 1.0 / ln.reactance
        b_bus[f, f] += y
        b_bus[t, t] += y
        b_bus[f, t] -= y
        b_bus[t, f] -= y
    theta = np.zeros(nb)
    theta[1:] = np.linalg.solve(b_bus[1:, 1:], np.asarray(injections)[1:])
    flows = np.zeros(nl)
    for l, ln in enumerate(network.lines):
        flows[l] = (theta[pos[ln.from_bus]] - theta[pos[ln.to_bus]]) / ln.reactance
    return flows


def _decision_blocks(network):
    from msdro_opf.network import compute_flow_maps

    b_g, b_w, b_b = compute_flow_maps(network)
    n_g = network.num_generators
    n_l = network.num_lines
    d = network.num_resources
    sizes = {"p": n_g, "A": n_g * d, "rp": n_g, "rm": n_g,
             "framp": n_l, "framm": n_l}
    off, cur = {}, 0
    for key, sz in sizes.items():
        off[key] = cur
        cur += sz
    return b_g, b_w, b_b, off, cur


def _stack_deterministic(network, off, nvar, b_g, b_w, b_b):
    """Shared deterministic part: balance, participation, limits, margins."""
    n_g = network.num_generators
    n_l = network.num_lines
    d = network.num_resources
    d_vec = network.load_vector()
    u_vec = network.forecast_vector()
    f_max = np.array([ln.f_max for ln in network.lines])
    flow_const = (b_w @ u_vec if d else 0.0) - b_b @ d_vec

    a_eq, b_eq = [], []
    row = np.zeros(nvar)
    row[off["p"]:off["p"] + n_g] = 1.0
    a_eq.append(row)
    b_eq.append(float(np.sum(d_vec) - np.sum(u_vec)))
    for j in range(d):
        row = np.zeros(nvar)
        row[off["A"] + j:off["A"] + n_g * d:d] = 1.0
        a_eq.append(row)
        b_eq.append(1.0)
    for l in range(n_l):
        row = np.zeros(nvar)
        row[off["p"]:off["p"] + n_g] = b_g[l]
        row[off["framp"] + l] = 1.0
        a_eq.append(row)
        b_eq.append(float(f_max[l] - flow_const[l]))
        row = np.zeros(nvar)
        row[off["p"]:off["p"] + n_g] = -b_g[l]
        row[off["framm"] + l] = 1.0
        a_eq.append(row)
        b_eq.append(float(f_max[l] + flow_const[l]))

    a_ub, b_ub = [], []
    for g in range(n_g):
        row = np.zeros(nvar)
        row[off["p"] + g] = 1.0
        row[off["rp"] + g] = 1.0
        a_ub.append(row)
        b_ub.append(float(network.generators[g].p_max))
        row = np.zeros(nvar)
        row[off["p"] + g] = -1.0
        row[off["rm"] + g] = 1.0
        a_ub.append(row)
        b_ub.append(-float(network.generators[g].p_min))
    return a_eq, b_eq, a_ub, b_ub


def _row_activations(network, off, nvar, b_g, b_w, xi):
    """All K joint-constraint rows evaluated at one error vector xi.

    Returns (rows, consts): each row is the coefficient vector over the
    decision variables of a_k(decision).xi + b_k(decision); consts collects
    the decision-independent parts (from B_W xi in the line rows).
    """
    n_g = network.num_generators
    n_l = network.num_lines
    d = network.num_resources
    rows, consts = [], []
    for g in range(n_g):
        row = np.zeros(nvar)
        row[off["A"] + g * d:off["A"] + (g + 1) * d] = -xi
        row[off["rp"] + g] = -1.0
        rows.append(row)
        consts.append(0.0)
    for g in range(n_g):
        row = np.zeros(nvar)
        row[off["A"] + g * d:off["A"] + (g + 1) * d] = xi
        row[off["rm"] + g] = -1.0
        rows.append(row)
        consts.append(0.0)
    for l in range(n_l):
        row = np.zeros(nvar)
        for g in range(n_g):
            row[off["A"] + g * d:off["A"] + (g + 1) * d] = -b_g[l, g] * xi
        row[off["framp"] + l] = -1.0
        rows.append(row)
        consts.append(float(b_w[l] @ xi))
    for l in range(n_l):
        row = np.zeros(nvar)
        for g in range(n_g):
            row[off["A"] + g * d:off["A"] + (g + 1) * d] = b_g[l, g] * xi
        row[off["framm"] + l] = -1.0
        rows.append(row)
        consts.append(-float(b_w[l] @ xi))
    return rows, consts


def saa_cvar_objective(network, samples, gamma):
    """Direct SAA CVaR-constrained OPF (the epsilon = 0 comparator).

    Rockafellar-Uryasev form: t free, one hinge variable per sample,
    t + (1/(gamma N)) sum z_i <= 0 with z_i >= (row value) - t for every
    joint-constraint row. Objective uses the plain sample average of the
    activation cost.
    """
    b_g, b_w, b_b, off, ndec = _decision_blocks(network)
    n_g = network.num_generators
    d = network.num_resources
    xs = np.asarray(samples, dtype=float)
    n = xs.shape[1]
    nvar = ndec + 1 + n  # + t + z
    t_at, z_at = ndec, ndec + 1

    a_eq, b_eq, a_ub, b_ub = _stack_deterministic(network, off, nvar,
                                                  b_g, b_w, b_b)
    c_a = np.array([g.c_A for g in network.generators])
    xbar = xs.mean(axis=1)
    c = np.zeros(nvar)
    c[off["p"]:off["p"] + n_g] = [g.c_E for g in network.generators]
    c[off["rp"]:off["rp"] + n_g] = [g.c_R for g in network.generators]
    c[off["rm"]:off["rm"] + n_g] = [g.c_R for g in network.generators]
    for g in range(n_g):
        c[off["A"] + g * d:off["A"] + (g + 1) * d] = -c_a[g] * xbar

    for i in range(n):
        rows, consts = _row_activations(network, off, nvar, b_g, b_w, xs[:, i])
        for row, const in zip(rows, consts):
            r = row.copy()
            r[t_at] = -1.0
            r[z_at + i] = -1.0
            a_ub.append(r)
            b_ub.append(-const)
    row = np.zeros(nvar)
    row[t_at] = 1.0
    row[z_at:z_at + n] = 1.0 / (gamma * n)
    a_ub.append(row)
    b_ub.append(0.0)

    bounds = [(0, None)] * ndec + [(None, None)] + [(0, None)] * n
    res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def robust_corner_objective(network):
    """Fully robust OPF: corner-enforced rows, worst-case activation cost.

    Comparator for the saturated-budget cell: every joint-constraint row is
    linear in xi, so enforcing it at the 2^D box corners enforces it over
    the whole support, and the worst-case expected activation cost collapses
    to its per-feature worst corner, modeled with one epigraph variable per
    feature (w_j >= -(c_A A)_j xi_j at both ends).
    """
    from msdro_opf.network import build_joint_support

    b_g, b_w, b_b, off, ndec = _decision_blocks(network)
    n_g = network.num_generators
    d = network.num_resources
    support = build_joint_support(network)
    nvar = ndec + d  # + per-feature activation epigraph
    w_at = ndec

    a_eq, b_eq, a_ub, b_ub = _stack_deterministic(network, off, nvar,
                                                  b_g, b_w, b_b)
    c_a = np.array([g.c_A for g in network.generators])
    c = np.zeros(nvar)
    c[off["p"]:off["p"] + n_g] = [g.c_E for g in network.generators]
    c[off["rp"]:off["rp"] + n_g] = [g.c_R for g in network.generators]
    c[off["rm"]:off["rm"] + n_g] = [g.c_R for g in network.generators]
    c[w_at:w_at + d] = 1.0

    for j in range(d):
        for end in (support.lower[j], support.upper[j]):
            row = np.zeros(nvar)
            for g in range(n_g):
                row[off["A"] + g * d + j] = -c_a[g] * end
            row[w_at + j] = -1.0
            a_ub.append(row)
            b_ub.append(0.0)

    for corner in itertools.product(*zip(support.lower, support.upper)):
        rows, consts = _row_activations(network, off, nvar, b_g, b_w,
                                        np.array(corner))
        for row, const in zip(rows, consts):
            a_ub.append(row)
            b_ub.append(-const)

    bounds = [(0, None)] * ndec + [(None, None)] * d
    res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def _three_cuts(model, name, w, lam, sample, lower, upper, const=None,
                cols=None, coefs=None, where=None):
    """Epigraph cuts w >= sup over [lower, upper] of a*xi - lam |xi - sample|.

    The maximizer is the upper corner, the lower corner or the sample, so
    each entry of ``w`` gets three cuts (families ``{name}_up``, ``_lo``,
    ``_av``). The slope is ``a = const + sum_t coefs[..., t] x[cols[..., t]]``;
    ``where`` keeps the corner cuts only where true.
    """
    from msdro_opf.lp import GE, align_left, family

    w = np.asarray(w)
    nd = w.ndim
    up, lo, xs = (align_left(np.asarray(v, dtype=float), nd)
                  for v in (upper, lower, sample))
    lam = align_left(lam, nd)

    def rows(suffix, point, lam_coef, keep):
        terms = [(w, 1.0)]
        if cols is not None:
            terms.append((cols, -np.asarray(coefs) * point[..., None]))
        if lam_coef is not None:
            terms.append((lam, lam_coef))
        rhs = 0.0 if const is None else align_left(const, nd) * point
        return family(f"{name}_{suffix}", w.shape, terms, GE, rhs, keep)

    model.add(rows("up", up, up - xs, where), rows("lo", lo, -(lo - xs), where),
              rows("av", xs, None, None))


def three_cut_opf(network, data, gamma, fixed_zero_participation=()):
    """The OPF LP with one epigraph column and three cuts per sample.

    The formulation the package used before its compact Wasserstein block:
    an epigraph column s_co[j, i] per (feature, sample) in the activation
    block and s_aux[j, i, k] per (feature, sample, CVaR row), each with its
    three transport cuts. Returns the objective, the decision, both
    multiplier vectors, phi, and the forecast-value terms computed from
    the per-sample cut multipliers. Test-only reference.
    """
    from types import SimpleNamespace

    from msdro_opf.lp import EQ, GE, INFINITY, LE, Model, family
    from msdro_opf.network import build_joint_support, compute_flow_maps

    support = build_joint_support(network)
    b_g, b_w, b_b = compute_flow_maps(network)
    n_g, n_l, d = network.num_generators, network.num_lines, data.dimension
    n = int(data.counts[0])
    eps = data.epsilons
    xi_hat = data.matrix()
    gens = network.generators
    c_a = np.array([g.c_A for g in gens])
    skip = sorted(fixed_zero_participation)
    keep = [g for g in range(n_g) if g not in skip]
    cc_rows = np.array(keep + [n_g + g for g in keep]
                       + list(range(2 * n_g, 2 * n_g + 2 * n_l)), dtype=int)
    k_aug = len(cc_rows)

    m = Model("three-cut-opf")
    p = m.add_vars(n_g, obj=np.array([g.c_E for g in gens]))
    alpha = m.add_vars((n_g, d))
    c_r = np.array([g.c_R for g in gens])
    rp = m.add_vars(n_g, obj=c_r)
    rm = m.add_vars(n_g, obj=c_r)
    framp = m.add_vars(n_l)
    framm = m.add_vars(n_l)
    lam_co = m.add_vars(d, obj=eps)
    s_co = m.add_vars((d, n), lb=-INFINITY, obj=1.0 / n)
    tau = m.add_var(lb=-INFINITY, ub=0.0)
    nu = m.add_var(lb=-INFINITY)
    lam_cc = m.add_vars(d)
    s_cc = m.add_vars(n, lb=-INFINITY)
    s_aux = m.add_vars((d, n, k_aug + 1), lb=-INFINITY)
    for cols in (alpha[skip], rp[skip], rm[skip], lam_co[eps == 0.0],
                 lam_cc[eps == 0.0]):
        m.lb[cols] = m.ub[cols] = 0.0

    d_vec, u_vec = network.load_vector(), network.forecast_vector()
    f_max = np.array([ln.f_max for ln in network.lines])
    flow_const = b_w @ u_vec - b_b @ d_vec
    m.add(family("bal", (), [(p, 1.0)], EQ, float(np.sum(d_vec) - np.sum(u_vec))))
    m.add(family("chi", d, [(alpha.T, 1.0)], EQ, 1.0))
    m.add(family("gmax", n_g, [(p, 1.0), (rp, 1.0)], LE, [g.p_max for g in gens]),
          family("gmin", n_g, [(p, 1.0), (rm, -1.0)], GE, [g.p_min for g in gens]))
    m.add(family("lineup", n_l, [(p[None, :], b_g), (framp, 1.0)], EQ,
                 f_max - flow_const),
          family("linelo", n_l, [(p[None, :], -b_g), (framm, 1.0)], EQ,
                 f_max + flow_const))
    _three_cuts(m, "co", s_co, lam_co, xi_hat, support.lower, support.upper,
                cols=alpha.T[:, None, :], coefs=-c_a[None, None, :],
                where=eps > 0.0)
    m.add(family("cvar_pair", (), [(tau, 1.0), (nu, 1.0)], LE, 0.0))
    m.add(family("cvar_budget", (),
                 [(lam_cc, eps), (s_cc, 1.0 / n), (nu, -gamma)], LE, 0.0))
    physical = np.append(np.ones(k_aug), 0.0)
    b_cols = np.append(np.concatenate([rp, rm, framp, framm])[cc_rows], 0)
    m.add(family("cc_main", (n, k_aug + 1),
                 [(s_cc, 1.0), (b_cols[None, :], physical[None, :]),
                  (tau, physical[None, :]), (s_aux.transpose(1, 2, 0), -1.0)],
                 GE, 0.0))
    coef = np.vstack([-np.eye(n_g), np.eye(n_g), -b_g, b_g,
                      np.zeros((1, n_g))])[np.append(cc_rows, -1)]
    const = np.vstack([np.zeros((2 * n_g, d)), b_w, -b_w,
                       np.zeros((1, d))])[np.append(cc_rows, -1)]
    _three_cuts(m, "cc", s_aux, lam_cc, xi_hat, support.lower, support.upper,
                const=const.T[:, None, :], cols=alpha.T[:, None, None, :],
                coefs=coef[None, None, :, :], where=eps > 0.0)

    sol = m.solve()
    assert sol.optimal, sol.status
    x, mult = sol.x, sol.family_multipliers
    alpha_v, lam_co_v, lam_cc_v = x[alpha], x[lam_co], x[lam_cc]
    phi = float(mult("cvar_budget"))
    kappa = np.array([r.kappa for r in network.resources])
    act_price = c_a @ alpha_v
    balancing = kappa * (mult("co_up").sum(axis=1) * (act_price + lam_co_v)
                         + mult("co_lo").sum(axis=1) * (act_price - lam_co_v))
    m_rows = b_w - b_g @ alpha_v
    a_rows = np.vstack([-alpha_v, alpha_v, m_rows, -m_rows])[cc_rows]
    rho_up = mult("cc_up")[:, :, :k_aug]
    rho_lo = mult("cc_lo")[:, :, :k_aug]
    reserve = kappa * np.array([
        np.sum(rho_up[j] * (lam_cc_v[j] - a_rows[:, j]))
        - np.sum(rho_lo[j] * (lam_cc_v[j] + a_rows[:, j])) for j in range(d)])
    lmp = (sol.family_duals("bal")
           + b_w.T @ (sol.family_duals("lineup") - sol.family_duals("linelo")))
    return SimpleNamespace(
        objective=float(sol.objective), p=x[p], alpha=alpha_v, r_plus=x[rp],
        r_minus=x[rm], lambda_co=lam_co_v, lambda_cc=lam_cc_v, phi=phi,
        marginal_value=lam_co_v + phi * lam_cc_v, balancing=balancing,
        reserve=reserve, pi_f=lmp - balancing - reserve,
        rows=m.num_constraints)


def per_piece_anchored_lp(cost, points, epsilons, support, pooled=None):
    """The anchored epigraph LP with one free s_t and one row per piece.

    min eps . lam + mean_t s_t subject to s_t >= b_k + a_k . x_t +
    sum_j (u_j - x_tj) p_jk + (x_tj - l_j) q_jk for every anchor t (rows
    of ``points``) and piece k, with p, q the positive parts of
    ``dro_core.wasserstein_block``. The formulation ``dro_core`` used before
    it anchored each epigraph at its largest piece. With ``pooled`` set, one
    multiplier with objective ``pooled`` serves every feature (the
    single-budget comparator). Returns the value, lam, s and the LP
    solution. Test-only reference.
    """
    from types import SimpleNamespace

    from msdro_opf.dro_core import transport_room, wasserstein_block
    from msdro_opf.lp import GE, INFINITY, Model, family

    points = np.atleast_2d(np.asarray(points, dtype=float))
    n_t, d = points.shape
    m = Model("per-piece-anchored")
    if pooled is None:
        lam = m.add_vars(d, obj=np.asarray(epsilons, dtype=float))
    else:
        lam = np.full(d, m.add_var(obj=float(pooled)))
    s = m.add_vars(n_t, lb=-INFINITY, obj=1.0 / n_t)
    p, q = wasserstein_block(m, "cut", (d, cost.num_pieces), lam,
                             const=cost.a.T)
    up, lo = transport_room(points, support.lower, support.upper)
    m.add(family("idx", (n_t, cost.num_pieces),
                 [(s, 1.0), (p.T[None], -up[:, None, :]),
                  (q.T[None], -lo[:, None, :])],
                 GE, cost.b[None, :] + points @ cost.a.T))
    sol = m.solve()
    assert sol.optimal, sol.status
    return SimpleNamespace(value=float(sol.objective), lam=sol.x[lam],
                           s=sol.x[s], sol=sol)


def separable_lp(cost, data, support):
    """The separable route as the LP it once solved: lam_j with objective
    eps_j and one ``wasserstein_block`` column pair per feature, weighted by
    the mean distances to the support ends. Returns the value, lam and the
    per-feature epigraph values s. Test-only reference."""
    from types import SimpleNamespace

    from msdro_opf.dro_core import (sample_worst_case, transport_room,
                                    wasserstein_block)
    from msdro_opf.lp import Model

    ends = list(zip(data.samples, support.lower, support.upper))
    mean_room = np.array([[np.mean(r) for r in transport_room(*e)] for e in ends])
    m = Model("separable-lp")
    lam = m.add_vars(data.dimension, obj=data.epsilons)
    p, q = wasserstein_block(m, "cut", data.dimension, lam, const=cost.c,
                             obj=tuple(mean_room.T))
    sol = m.solve()
    assert sol.optimal, sol.status
    x = sol.x
    s = [sample_worst_case(c, pj, qj, *e)
         for c, pj, qj, e in zip(cost.c, x[p], x[q], ends)]
    value = sol.objective + sum(np.mean(c * xs)
                                for c, xs in zip(cost.c, data.samples))
    return SimpleNamespace(value=float(value), lam=x[lam], s=s)


def ring_network(seed, buses, chords, generators, resources, kappa=0.6):
    """A seeded ring of ``buses`` plus up to ``chords`` random cross lines.

    Modelled on the benchmark's synthetic ring: line limits come from a
    reference point (half-capacity dispatch, participation proportional to
    capacity, reserves for the whole support), so every instance is
    feasible at every budget and risk level. The chords are drawn from the
    free bus pairs, so there are at most buses*(buses-1)/2 - buses of them.
    """
    from msdro_opf.network import Generator, Line, Network, Resource

    rng = np.random.default_rng([seed, 0x5EED])
    ids = list(range(1, buses + 1))
    pairs = [(i, i % buses + 1) for i in ids]
    ring = set(map(frozenset, pairs))
    free = [pr for pr in itertools.combinations(ids, 2)
            if frozenset(pr) not in ring]
    pick = rng.choice(len(free), size=min(chords, len(free)), replace=False)
    pairs += [free[k] for k in pick]
    reactance = rng.uniform(0.01, 0.04, len(pairs))

    res_bus = rng.choice(ids, size=resources, replace=False).tolist()
    u = rng.uniform(0.5, 1.5, resources)
    load_bus = rng.choice(ids, size=max(1, buses // 2), replace=False).tolist()
    load = rng.uniform(0.5, 2.0, len(load_bus))
    load *= max(1.0, 2.5 * u.sum() / load.sum())
    net_load = load.sum() - u.sum()
    gen_bus = rng.choice(ids, size=generators).tolist()
    share = rng.uniform(0.5, 1.5, generators)
    p_max = 2.0 * net_load * share / share.sum()
    c_r = rng.uniform(100.0, 800.0, generators)
    c_e = rng.uniform(1000.0, 4000.0, generators)

    def injection(at, amounts):
        out = np.zeros(buses)
        np.add.at(out, np.asarray(at) - 1, amounts)
        return out

    def network(f_max):
        return Network(
            buses=ids,
            lines=[Line(f, t, float(x), float(fm))
                   for (f, t), x, fm in zip(pairs, reactance, f_max)],
            generators=[Generator(b, 0.0, float(p_max[g]), float(c_e[g]),
                                  float(c_r[g]), float(10.0 * c_r[g]))
                        for g, b in enumerate(gen_bus)],
            loads={b: float(d) for b, d in zip(load_bus, load)},
            resources=[Resource(b, float(u[j]), 0.0, float(2.0 * u[j]), kappa)
                       for j, b in enumerate(res_bus)],
            slack_bus=gen_bus[int(np.argmax(p_max))])

    shape = network(np.ones(len(pairs)))
    alpha0 = p_max / p_max.sum()
    flow = dc_flows_by_angles(shape, injection(gen_bus, 0.5 * p_max)
                              + injection(res_bus, u) - injection(load_bus, load))
    balancing = injection(gen_bus, alpha0)
    swing = sum(kappa * u[j] * np.abs(dc_flows_by_angles(
        shape, injection([b], 1.0) - balancing)) for j, b in enumerate(res_bus))
    return network(1.02 * (np.abs(flow) + swing) + 0.05)


def ring_instances(count=30):
    """``count`` seeded OPF instances on ``ring_network``s: 4-9 buses, 0-3
    chords, 2-4 generators, 1-3 features, N' = 3-11 clipped normal
    samples, budgets drawn from {0, 0.001, 0.01, 0.1, 1} (so some are
    zero) and gamma from {0.01, 0.05, 0.2}. Yields (network, data, gamma)."""
    from msdro_opf.dro_core import MultiDataset
    from msdro_opf.network import build_joint_support

    rng = np.random.default_rng(71)
    for k in range(count):
        net = ring_network(k, int(rng.integers(4, 10)), int(rng.integers(0, 4)),
                           int(rng.integers(2, 5)), int(rng.integers(1, 4)))
        box = build_joint_support(net)
        d, n = net.num_resources, int(rng.integers(3, 12))
        xs = np.clip(rng.normal(0.0, 0.15 * net.forecast_vector()[:, None],
                                (d, n)),
                     box.lower[:, None], box.upper[:, None])
        data = MultiDataset.from_matrix(
            xs, rng.choice([0.0, 0.001, 0.01, 0.1, 1.0], size=d))
        yield net, data, float(rng.choice([0.01, 0.05, 0.2]))


def laplace_mechanism(data, sensitivity, theta, seed):
    """Perturb each entry with iid Laplace(sensitivity/theta) noise.

    Returns the obfuscated samples and the matching quality signal
    (p=1, 1-norm), deterministic for a given seed.
    """
    from msdro_opf.data_quality import NoiseModel, additive_noise_bound
    from msdro_opf.errors import InputError

    if sensitivity <= 0 or theta <= 0:
        raise InputError("sensitivity and theta must be > 0")
    values = np.asarray(data, dtype=float)
    scale = sensitivity / theta
    rng = np.random.default_rng(seed)
    noisy = values + rng.laplace(loc=0.0, scale=scale, size=values.shape)
    signal = additive_noise_bound(NoiseModel.laplace(scale), p=1, norm="l1")
    return noisy, signal


@dataclass(frozen=True)
class OfflinePrediction:
    """Offline usefulness prediction from thresholds, one entry per feature."""

    threshold: np.ndarray
    predicted_lambda_co: np.ndarray


def prop3_offline_check(data, support, activation_cost):
    """Predict the lambda_co dichotomy before solving anything.

    activation_cost is the per-feature total activation price sum_g
    c_g^A alpha_gj the prediction should snap to on the informative side.
    The threshold is the sample mean distance to the lower support corner;
    budgets at or above it buy nothing beyond the known support.
    """
    from msdro_opf.errors import InputError
    from msdro_opf.valuation import offline_thresholds

    thresholds = offline_thresholds(data, support)
    cost = np.atleast_1d(np.asarray(activation_cost, dtype=float))
    if len(cost) != data.dimension:
        raise InputError("need one activation cost per feature")
    predicted = np.where(data.epsilons >= thresholds, 0.0, cost)
    return OfflinePrediction(thresholds, predicted)


def read_samples_by_row(path):
    """A sample file read one ``csv`` row and one ``float`` per cell at a
    time: the reader the package had before it parsed plain files with
    numpy, refusing as the package does what ``float`` reads beyond ASCII
    decimals (an underscore, another script's digit, a Unicode space).
    Returns (header, D x N' array) or raises ``InputError``."""
    import csv
    import math

    from msdro_opf.errors import InputError

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if not header or not all(h.startswith("xi_") for h in header):
            raise InputError(
                f"{path}: expected header columns xi_1,...,xi_D, got {header}")
        rows = []
        start = reader.line_num + 1
        for row in reader:
            # The line the row starts on; a quoted cell may span lines.
            lineno, start = start, reader.line_num + 1
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise InputError(f"{path}:{lineno}: expected {len(header)} columns")
            try:
                values = [ascii_float(cell) for cell in row]
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in values):
                raise InputError(f"{path}:{lineno}: non-finite sample value")
            rows.append(values)
    if not rows:
        raise InputError(f"{path}: no sample rows")
    return header, np.asarray(rows, dtype=float).T


def ascii_float(text: str) -> float:
    """``float(text)`` for ASCII text without underscores, else the
    ``ValueError`` ``float`` raises on text it cannot read."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def truncnorm_draws(lo, up, loc, scale, n, rng):
    """``scipy.stats.truncnorm.rvs`` on [lo, up] around ``loc``: the
    reference for the package's own truncated normal draws."""
    from scipy.stats import truncnorm

    a, b = (lo - loc) / scale, (up - loc) / scale
    with np.errstate(divide="ignore"):  # a uniform of 0 takes log(0)
        return truncnorm.rvs(a, b, loc=loc, scale=scale, size=n,
                             random_state=rng)


def coefficient_table(model):
    """(rows, cols, vals, sense, rhs) read off the model's families alone:
    every coefficient's model row, column and value, in family order, and
    each model row's sense and right-hand side."""
    fams = list(model.families.values())
    rows, cols = (np.concatenate([np.zeros(0, np.int64)] + parts) for parts in
                  ([f.index[f.rows] for f in fams], [f.cols for f in fams]))
    vals = np.concatenate([np.zeros(0)] + [f.vals for f in fams])
    sense = np.empty(model.num_constraints, dtype=object)
    rhs = np.empty(model.num_constraints)
    for f in fams:
        sense[f.index[f.present]] = f.sense
        rhs[f.index[f.present]] = f.rhs[f.present]
    return rows, cols, vals, sense, rhs


def gamma(n: int) -> float:
    """Higham's gamma_n: a sum of n floating-point products is within
    gamma(n) times the sum of their magnitudes of the exact sum."""
    unit = np.finfo(float).eps / 2
    return n * unit / (1 - n * unit)


def highs_tolerances(sol) -> tuple:
    """The primal and dual feasibility tolerances HiGHS solved ``sol`` to."""
    return tuple(sol._highs.getOptionValue(name)[1] for name in
                 ("primal_feasibility_tolerance", "dual_feasibility_tolerance"))


def optimum_gap_bound(sol) -> float:
    """How far an optimal solution's objective may lie from its LP's exact
    optimum. HiGHS ends "optimal" at a point (x, y) that is exactly optimal
    for a perturbed LP: each row or bound it holds moved by at most the
    primal feasibility tolerance, and each cost by at most the dual
    feasibility tolerance. To first order the optimum moves by the
    perturbations times the duals: tol_p (|y| + |c - A'y|) for the rows and
    bounds, tol_d |x| for the costs, read at the returned point; plus the
    round-off of c'x."""
    m = sol.model
    rows, cols, vals, _, _ = coefficient_table(m)
    tol_p, tol_d = highs_tolerances(sol)
    reduced = m.obj - np.bincount(cols, vals * sol.duals[rows], m.num_vars)
    return float(tol_d * np.abs(sol.x).sum()
                 + tol_p * (np.abs(sol.duals).sum() + np.abs(reduced).sum())
                 + gamma(m.num_vars) * np.abs(m.obj) @ np.abs(sol.x))


def highs_row_order(sense):
    """The documented row layout HiGHS gets: ``<=`` rows, then ``>=`` rows
    negated, then equalities, each in model order. Returns the model row of
    each HiGHS row and its sign."""
    order = np.concatenate([np.flatnonzero(sense == s)
                            for s in ("<=", ">=", "==")]).astype(np.int64)
    return order, np.where(sense[order] == ">=", -1.0, 1.0)


def scipy_csc(model):
    """The model's matrix in the HiGHS row layout as
    ``scipy.sparse.csc_matrix`` builds it from the coefficient table:
    what the package handed HiGHS before it kept the column structure."""
    import scipy.sparse as sp

    rows, cols, vals, sense, _ = coefficient_table(model)
    order, flip = highs_row_order(sense)
    at = np.empty(model.num_constraints, np.int64)
    at[order] = np.arange(model.num_constraints)
    rows = at[rows]
    return sp.csc_matrix((vals * flip[rows], (rows, cols)),
                         shape=(model.num_constraints, model.num_vars))


def linprog_solve(model, presolve=True):
    """``model`` solved by scipy's ``linprog`` in the row layout
    ``Model.solve`` hands HiGHS (``<=`` rows, negated ``>=`` rows, then
    equalities), from a CSR matrix scipy assembles from the coefficient
    table: the reference for ``Model.solve``. An infeasible or unbounded
    end reads as zeros and a NaN objective; any other end but optimal
    raises ``SolverError``."""
    import scipy.sparse as sp
    from msdro_opf.lp import LpSolution, SolverError

    rows, cols, vals, sense, rhs = coefficient_table(model)
    order, flip = highs_row_order(sense)
    a = sp.csr_matrix((vals, (rows, cols)),
                      shape=(model.num_constraints, model.num_vars))[order]
    a.data *= np.repeat(flip, np.diff(a.indptr))
    upper, eq = flip * rhs[order], sense[order] == "=="
    res = linprog(
        c=model.obj, A_ub=a[~eq], b_ub=upper[~eq], A_eq=a[eq], b_eq=upper[eq],
        bounds=np.column_stack([model.lb, model.ub]), method="highs",
        options={"presolve": presolve},
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status)
    if status is None:
        raise SolverError(f"HiGHS status {res.status} ({res.message}) on "
                          f"{model.summary()}")
    duals = np.zeros(model.num_constraints)
    if status != "optimal":
        return LpSolution(status, float("nan"), np.zeros(model.num_vars),
                          duals, model)
    duals[order] = flip * np.concatenate([res.ineqlin.marginals,
                                          res.eqlin.marginals])
    return LpSolution(status, float(res.fun), np.asarray(res.x, dtype=float),
                      duals, model)


def optimality_faults(sol, tol=1e-7) -> list:
    """The optimality conditions an optimal ``LpSolution`` breaks ([] when
    none), checked with a dense matrix summed from the coefficient table
    and the rows' senses and right-hand sides (``coefficient_table``):
    primal feasibility; the dual signs of the ``lp`` docstring (``<=``
    rows <= 0, ``>=`` rows >= 0); reduced costs c - A'y that push only
    against a finite bound the point sits at; complementary slackness of
    the rows; and strong duality. ``tol`` scales with each quantity."""
    m = sol.model
    rows, cols, vals, sense, rhs = coefficient_table(m)
    a = np.zeros((m.num_constraints, m.num_vars))
    np.add.at(a, (rows, cols), vals)
    x, y = sol.x, sol.duals
    le, ge, eq = sense == "<=", sense == ">=", sense == "=="
    gap = a @ x - rhs  # the row's activity over its right-hand side
    row_tol = tol * (1 + np.abs(a) @ np.abs(x) + np.abs(rhs))
    faults = []
    if ((gap > row_tol) & le).any() or ((gap < -row_tol) & ge).any() \
            or ((np.abs(gap) > row_tol) & eq).any() \
            or (x < m.lb - tol * (1 + np.abs(m.lb))).any() \
            or (x > m.ub + tol * (1 + np.abs(m.ub))).any():
        faults.append("primal infeasible")
    if (y[le] > tol).any() or (y[ge] < -tol).any():
        faults.append("dual sign")
    red = m.obj - a.T @ y
    red_tol = tol * (1 + np.abs(m.obj) + np.abs(a).T @ np.abs(y))
    at_lb, at_ub = red > red_tol, red < -red_tol
    off_lb = np.abs(x - m.lb) > tol * (1 + np.abs(x))
    off_ub = np.abs(m.ub - x) > tol * (1 + np.abs(x))
    if (at_lb & off_lb).any() or (at_ub & off_ub).any():
        faults.append("reduced cost at no bound")
    if (np.abs(y * gap) > (1 + np.abs(y)) * row_tol).any():
        faults.append("complementary slackness")
    dual = y @ rhs + red[at_lb] @ m.lb[at_lb] + red[at_ub] @ m.ub[at_ub]
    if abs(m.obj @ x - dual) > tol * (1 + abs(m.obj @ x) + np.abs(y) @ np.abs(rhs)):
        faults.append("duality gap")
    return faults
