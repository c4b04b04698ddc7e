"""Thin LP layer: model assembly, solve statuses, dual sign conventions."""

import numpy as np
import pytest

from msdro_opf.lp import (EQ, GE, INFINITY, LE, Model, UnknownSolverError,
                          available_solvers, family, register_solver)


def build_cover_model():
    m = Model("cover")
    x = m.add_var("x", obj=2.0)
    y = m.add_var("y", obj=3.0)
    m.add_constr("cover", [(x, 1.0), (y, 1.0)], GE, 4.0)
    m.add_constr("floor", [(y, 1.0)], GE, 0.5)
    m.add_constr("cap", [(x, 1.0)], LE, 10.0)
    return m, x, y


def test_small_lp_primal_and_duals():
    m, x, y = build_cover_model()
    sol = m.solve()
    assert sol.optimal
    assert sol.objective == pytest.approx(8.5)
    assert sol.value(x) == pytest.approx(3.5)
    assert sol.value(y) == pytest.approx(0.5)
    # Shadow prices: d(objective)/d(rhs).
    assert sol.dual("cover") == pytest.approx(2.0)
    assert sol.dual("floor") == pytest.approx(1.0)
    assert sol.dual("cap") == pytest.approx(0.0)


def test_le_dual_is_nonpositive_and_multiplier_flips_it():
    m = Model()
    a = m.add_var("a", obj=1.0)
    b = m.add_var("b", obj=5.0)
    m.add_constr("bal", [(a, 1.0), (b, 1.0)], EQ, 3.0)
    m.add_constr("cap_a", [(a, 1.0)], LE, 2.0)
    sol = m.solve()
    assert sol.optimal
    assert sol.objective == pytest.approx(7.0)
    # Raising the balance rhs costs 5 per unit (goes to the expensive var);
    # raising the cap saves 4 per unit (swap b for a).
    assert sol.dual("bal") == pytest.approx(5.0)
    assert sol.dual("cap_a") == pytest.approx(-4.0)
    assert sol.multiplier("cap_a") == pytest.approx(4.0)
    with pytest.raises(ValueError):
        sol.multiplier("bal")


def test_equality_dual_matches_rhs_perturbation():
    rng = np.random.default_rng(23)
    for _ in range(5):
        c = rng.uniform(1.0, 5.0, size=3)
        m = Model()
        idx = [m.add_var(f"v{i}", obj=c[i]) for i in range(3)]
        m.add_constr("sum", [(i, 1.0) for i in idx], EQ, 2.0)
        base = m.solve()
        m2 = Model()
        idx2 = [m2.add_var(f"v{i}", obj=c[i]) for i in range(3)]
        m2.add_constr("sum", [(i, 1.0) for i in idx2], EQ, 2.0 + 1e-4)
        bumped = m2.solve()
        slope = (bumped.objective - base.objective) / 1e-4
        assert base.dual("sum") == pytest.approx(slope, abs=1e-6)


def test_strong_duality_recomputation():
    m, _, _ = build_cover_model()
    sol = m.solve()
    assert sol.dual_objective() == pytest.approx(sol.objective, abs=1e-9)


def test_infeasible_status():
    m = Model()
    x = m.add_var("x")
    m.add_constr("lo", [(x, 1.0)], GE, 2.0)
    m.add_constr("hi", [(x, 1.0)], LE, 1.0)
    sol = m.solve()
    assert sol.status == "infeasible"
    assert not sol.optimal


def test_unbounded_status():
    m = Model()
    x = m.add_var("x", lb=-INFINITY, obj=1.0)
    m.add_constr("roof", [(x, 1.0)], LE, 5.0)
    sol = m.solve()
    assert sol.status == "unbounded"


def test_duplicate_constraint_name_rejected():
    m = Model()
    x = m.add_var("x")
    m.add_constr("c", [(x, 1.0)], GE, 0.0)
    with pytest.raises(ValueError):
        m.add_constr("c", [(x, 1.0)], LE, 1.0)
    # A single row may also clash with a row of a family.
    m.add(family("d", 1, [(x, 1.0)], GE, 0.0))
    m.add_constr("d[0]", [(x, 1.0)], LE, 1.0)
    with pytest.raises(ValueError):
        m.constraint_index


def test_unknown_solver_raises():
    m = Model()
    m.add_var("x", obj=1.0)
    with pytest.raises(UnknownSolverError):
        m.solve(solver="does-not-exist")


def test_solver_env_var(monkeypatch):
    monkeypatch.setenv("MSDRO_SOLVER", "bogus")
    m = Model()
    m.add_var("x", obj=1.0)
    with pytest.raises(UnknownSolverError):
        m.solve()


def test_register_solver_alias():
    from msdro_opf.lp import _solve_scipy_highs

    register_solver("alias-for-tests", _solve_scipy_highs)
    assert "alias-for-tests" in available_solvers()
    m, _, _ = build_cover_model()
    sol = m.solve(solver="alias-for-tests")
    assert sol.objective == pytest.approx(8.5)


def test_fix_var_pins_value():
    m = Model()
    x = m.add_var("x", obj=1.0)
    y = m.add_var("y", obj=2.0)
    m.add_constr("need", [(x, 1.0), (y, 1.0)], GE, 3.0)
    m.fix_var(x, 1.0)
    sol = m.solve()
    assert sol.value(x) == pytest.approx(1.0)
    assert sol.value(y) == pytest.approx(2.0)
    assert sol.objective == pytest.approx(5.0)


def test_add_vars_shapes_and_objective():
    m = Model()
    grid = m.add_vars("g", (2, 3), obj=1.0)
    assert grid.shape == (2, 3)
    assert m.num_vars == 6
    flat = m.add_vars("f", 4)
    assert flat.shape == (4,)
    assert m.num_vars == 10
    m.add_constr("pin", [(int(grid[1, 2]), 1.0)], GE, 2.5)
    sol = m.solve()
    assert sol.objective == pytest.approx(2.5)


def test_counts_and_lp_text():
    m, _, _ = build_cover_model()
    assert m.num_vars == 2
    assert m.num_constraints == 3
    text = m.lp_text()
    assert "minimize" in text
    assert "cover" in text and "floor" in text and "cap" in text
    assert "x" in text and "y" in text


def test_negative_lower_bound_honored():
    m = Model()
    x = m.add_var("x", lb=-2.0, obj=1.0)
    sol = m.solve()
    assert sol.value(x) == pytest.approx(-2.0)


def test_value_accepts_index_arrays():
    m = Model()
    v = m.add_vars("v", 3, obj=1.0)
    m.add_constr("tot", [(int(i), 1.0) for i in v], GE, 3.0)
    sol = m.solve()
    np.testing.assert_allclose(sol.value(v).sum(), 3.0, atol=1e-9)


def _toy_by_rows():
    m = Model("toy")
    x = m.add_vars("x", 3, obj=[1.0, 2.0, 3.0])
    m.add_constr("bal", [(int(x[0]), 1.0), (int(x[1]), 1.0), (int(x[2]), 1.0)],
                 EQ, 4.0)
    for k in range(3):
        m.add_constr(f"cap[{k}]", [(int(x[k]), 1.0)], LE, 2.0)
        m.add_constr(f"floor[{k}]", [(int(x[k]), 1.0), (int(x[(k + 1) % 3]), 0.0)],
                     GE, 0.5 * k)
    m.add_constr("pair[0,1]", [(int(x[0]), 2.0), (int(x[1]), -1.0)], GE, -1.0)
    return m


def _toy_by_families():
    m = Model("toy")
    x = m.add_vars("x", 3, obj=[1.0, 2.0, 3.0])
    m.add(family("bal", (), [(x, 1.0)], EQ, 4.0))
    m.add(family("cap", 3, [(x, 1.0)], LE, 2.0),
          family("floor", 3, [(x, 1.0), (np.roll(x, -1), 0.0)], GE,
                 0.5 * np.arange(3)))
    m.add(family("pair", (1, 2), [(x[0], 2.0), (x[1], -1.0)], GE, -1.0,
                 where=np.array([[False, True]])))
    return m


def test_families_read_like_rows():
    by_rows, by_fams = _toy_by_rows(), _toy_by_families()
    a, b = by_rows._matrix(), by_fams._matrix()
    assert (a != b).nnz == 0 and a.shape == b.shape
    assert by_rows.lp_text() == by_fams.lp_text()
    assert by_rows.num_constraints == by_fams.num_constraints == 8
    assert by_rows.constraint_index == by_fams.constraint_index
    for r, f in zip(by_rows.constraints, by_fams.constraints):
        assert (r.name, r.sense, r.rhs) == (f.name, f.sense, f.rhs)
        np.testing.assert_array_equal(r.cols, f.cols)
        np.testing.assert_array_equal(r.vals, f.vals)
    sr, sf = by_rows.solve(), by_fams.solve()
    assert sr.objective == sf.objective
    for name in by_rows.constraint_index:
        assert sr.dual(name) == sf.dual(name)
    np.testing.assert_array_equal(sf.family_duals("cap"),
                                  [sr.dual(f"cap[{k}]") for k in range(3)])
    np.testing.assert_array_equal(sf.family_multipliers("floor"),
                                  [sr.multiplier(f"floor[{k}]") for k in range(3)])
    # Absent rows read as zero; the family keeps its shape.
    assert sf.family_multipliers("pair").tolist() == [[0.0, sr.multiplier("pair[0,1]")]]
    with pytest.raises(ValueError):
        sf.family_multipliers("bal")


def test_row_views_and_names_stay_lazy():
    m = _toy_by_families()
    m.solve()
    assert "rows" not in m._cache and "index" not in m._cache
    assert m.constraints[-1].name == "pair[0,1]"
    assert m.constraints[1].cols.tolist() == [0]


def test_interleaved_families_need_equal_shapes():
    m = Model()
    x = m.add_vars("x", 2)
    with pytest.raises(ValueError):
        m.add(family("a", 2, [(x, 1.0)], LE, 1.0),
              family("b", 1, [(x[0], 1.0)], LE, 1.0))
    with pytest.raises(ValueError):
        family("c", 2, [(x, 1.0)], "<", 1.0)
