"""Thin LP layer: model assembly, solve statuses, dual sign conventions."""

import importlib.util
import sys

import numpy as np
import pytest

from msdro_opf import MultiDataset, lp
from msdro_opf.lp import (EQ, GE, INFINITY, LE, Model, SolverError,
                          family)
from msdro_opf.opf_model import build_msdro_opf

from oracles import add_row, bits, row_dual, row_multiplier, scipy_csc


def build_cover_model():
    m = Model("cover")
    x = m.add_var(obj=2.0)
    y = m.add_var(obj=3.0)
    add_row(m, "cover", [(x, 1.0), (y, 1.0)], GE, 4.0)
    add_row(m, "floor", [(y, 1.0)], GE, 0.5)
    add_row(m, "cap", [(x, 1.0)], LE, 10.0)
    return m, x, y


def test_small_lp_primal_and_duals():
    m, x, y = build_cover_model()
    sol = m.solve()
    assert sol.optimal
    assert sol.objective == pytest.approx(8.5)
    assert sol.x[x] == pytest.approx(3.5)
    assert sol.x[y] == pytest.approx(0.5)
    # Shadow prices: d(objective)/d(rhs).
    assert row_dual(sol, "cover") == pytest.approx(2.0)
    assert row_dual(sol, "floor") == pytest.approx(1.0)
    assert row_dual(sol, "cap") == pytest.approx(0.0)


def test_le_dual_is_nonpositive_and_multiplier_flips_it():
    m = Model()
    a = m.add_var(obj=1.0)
    b = m.add_var(obj=5.0)
    add_row(m, "bal", [(a, 1.0), (b, 1.0)], EQ, 3.0)
    add_row(m, "cap_a", [(a, 1.0)], LE, 2.0)
    sol = m.solve()
    assert sol.optimal
    assert sol.objective == pytest.approx(7.0)
    # Raising the balance rhs costs 5 per unit (goes to the expensive var);
    # raising the cap saves 4 per unit (swap b for a).
    assert row_dual(sol, "bal") == pytest.approx(5.0)
    assert row_dual(sol, "cap_a") == pytest.approx(-4.0)
    assert row_multiplier(sol, "cap_a") == pytest.approx(4.0)
    with pytest.raises(ValueError):
        row_multiplier(sol, "bal")


def test_equality_dual_matches_rhs_perturbation():
    rng = np.random.default_rng(23)
    for _ in range(5):
        c = rng.uniform(1.0, 5.0, size=3)
        m = Model()
        idx = [m.add_var(obj=c[i]) for i in range(3)]
        add_row(m, "sum", [(i, 1.0) for i in idx], EQ, 2.0)
        base = m.solve()
        m2 = Model()
        idx2 = [m2.add_var(obj=c[i]) for i in range(3)]
        add_row(m2, "sum", [(i, 1.0) for i in idx2], EQ, 2.0 + 1e-4)
        bumped = m2.solve()
        slope = (bumped.objective - base.objective) / 1e-4
        assert row_dual(base, "sum") == pytest.approx(slope, abs=1e-6)


def test_strong_duality_recomputation():
    m, _, _ = build_cover_model()
    sol = m.solve()
    assert sol.dual_objective() == pytest.approx(sol.objective, abs=1e-9)


def test_infeasible_status():
    m = Model()
    x = m.add_var()
    add_row(m, "lo", [(x, 1.0)], GE, 2.0)
    add_row(m, "hi", [(x, 1.0)], LE, 1.0)
    sol = m.solve()
    assert sol.status == "infeasible"
    assert not sol.optimal


def test_unbounded_status():
    m = Model()
    x = m.add_var(lb=-INFINITY, obj=1.0)
    add_row(m, "roof", [(x, 1.0)], LE, 5.0)
    sol = m.solve()
    assert sol.status == "unbounded"


def test_duplicate_constraint_name_rejected():
    m = Model()
    x = m.add_var()
    add_row(m, "c", [(x, 1.0)], GE, 0.0)
    with pytest.raises(ValueError):
        add_row(m, "c", [(x, 1.0)], LE, 1.0)


def test_fix_var_pins_value():
    m = Model()
    x = m.add_var(obj=1.0)
    y = m.add_var(obj=2.0)
    add_row(m, "need", [(x, 1.0), (y, 1.0)], GE, 3.0)
    m.fix_var(x, 1.0)
    sol = m.solve()
    assert sol.x[x] == pytest.approx(1.0)
    assert sol.x[y] == pytest.approx(2.0)
    assert sol.objective == pytest.approx(5.0)


def test_add_vars_shapes_and_objective():
    m = Model()
    grid = m.add_vars((2, 3), obj=1.0)
    assert grid.shape == (2, 3)
    assert m.num_vars == 6
    flat = m.add_vars(4)
    assert flat.shape == (4,)
    assert m.num_vars == 10
    add_row(m, "pin", [(int(grid[1, 2]), 1.0)], GE, 2.5)
    sol = m.solve()
    assert sol.objective == pytest.approx(2.5)


def test_counts_and_lp_text():
    m, _, _ = build_cover_model()
    assert m.num_vars == 2
    assert m.num_constraints == 3
    assert m.row_names() == ["cover", "floor", "cap"]
    assert m.summary() == ("model 'cover': 3 rows, 2 columns, 4 nonzeros; "
                           "rows in families cover(1), floor(1), cap(1)")


def test_negative_lower_bound_honored():
    m = Model()
    x = m.add_var(lb=-2.0, obj=1.0)
    sol = m.solve()
    assert sol.x[x] == pytest.approx(-2.0)


def test_value_accepts_index_arrays():
    m = Model()
    v = m.add_vars(3, obj=1.0)
    add_row(m, "tot", [(int(i), 1.0) for i in v], GE, 3.0)
    sol = m.solve()
    np.testing.assert_allclose(sol.x[v].sum(), 3.0, atol=1e-9)


def _toy_by_rows():
    m = Model("toy")
    x = m.add_vars(3, obj=[1.0, 2.0, 3.0])
    add_row(m, "bal", [(int(x[0]), 1.0), (int(x[1]), 1.0), (int(x[2]), 1.0)],
            EQ, 4.0)
    for k in range(3):
        add_row(m, f"cap[{k}]", [(int(x[k]), 1.0)], LE, 2.0)
        add_row(m, f"floor[{k}]",
                [(int(x[k]), 1.0), (int(x[(k + 1) % 3]), 0.0)], GE, 0.5 * k)
    add_row(m, "pair[0,1]", [(int(x[0]), 2.0), (int(x[1]), -1.0)], GE, -1.0)
    return m


def _toy_by_families():
    m = Model("toy")
    x = m.add_vars(3, obj=[1.0, 2.0, 3.0])
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
    assert by_rows.num_constraints == by_fams.num_constraints == 8
    assert by_rows.row_names() == by_fams.row_names()
    for r, f in zip(by_rows.constraints, by_fams.constraints):
        assert (r.name, r.sense, r.rhs) == (f.name, f.sense, f.rhs)
        np.testing.assert_array_equal(r.cols, f.cols)
        np.testing.assert_array_equal(r.vals, f.vals)
    sr, sf = by_rows.solve(), by_fams.solve()
    assert sr.objective == sf.objective
    for name in by_rows.row_names():
        assert row_dual(sr, name) == row_dual(sf, name)
    np.testing.assert_array_equal(sf.family_duals("cap"),
                                  [row_dual(sr, f"cap[{k}]") for k in range(3)])
    np.testing.assert_array_equal(
        sf.family_multipliers("floor"),
        [row_multiplier(sr, f"floor[{k}]") for k in range(3)])
    # Absent rows read as zero; the family keeps its shape.
    assert (sf.family_multipliers("pair").tolist()
            == [[0.0, row_multiplier(sr, "pair[0,1]")]])
    with pytest.raises(ValueError):
        sf.family_multipliers("bal")


def test_row_views_and_names_stay_lazy():
    m = _toy_by_families()
    m.solve()
    assert "rows" not in m._cache
    assert m.constraints[-1].name == "pair[0,1]"
    assert m.constraints[1].cols.tolist() == [0]


def test_row_views_read_the_csr_matrix():
    """A row lists its columns in ascending order, repeats summed, as the
    CSR matrix holds them."""
    m = Model()
    x = m.add_vars(3)
    m.add(family("mix", 2, [(x[[2, 1]], 1.0), (x[[0, 1]], [2.0, 3.0])], LE, 1.0))
    rows = m.constraints
    assert isinstance(rows, list) and rows is m.constraints
    assert [(r.name, r.sense, r.rhs) for r in rows] == [("mix[0]", LE, 1.0),
                                                        ("mix[1]", LE, 1.0)]
    assert [r.cols.tolist() for r in rows] == [[0, 2], [1]]
    assert [r.vals.tolist() for r in rows] == [[2.0, 1.0], [4.0]]
    assert sum(len(r.cols) for r in rows) == m._matrix().nnz == 3


def test_column_arrays_are_scipys_bit_for_bit():
    """The column-wise matrix ``_load`` hands HiGHS (its structure cached,
    values gathered per model) is the one scipy builds from the
    coefficient table: repeats in one position summed in table order, the
    ``>=`` rows negated, on toys and on OPF models."""
    repeats = Model()
    x = repeats.add_vars(3)
    repeats.add(family("mix", 2, [(x[[2, 1]], 1.0), (x[[0, 1]], [2.0, 3.0])],
                       LE, 1.0))
    repeats.add(family("thrice", (), [(x[0], 0.1), (x[0], 0.2), (x[0], 0.3)],
                       GE, 0.0))
    data = MultiDataset.from_matrix([[0.01, -0.02, 0.03], [0.0, 0.02, -0.01]],
                                    [0.1, 0.0])
    from msdro_opf.network import bundled_network
    opf = build_msdro_opf(bundled_network(), data, 0.05).model
    for model in (repeats, build_cover_model()[0], _toy_by_families(), opf):
        indptr, indices, values = model._csc()
        want = scipy_csc(model)
        assert np.array_equal(indptr, want.indptr)
        assert np.array_equal(indices, want.indices)
        assert bits(values) == bits(want.data)
    assert repeats._columns()[4] is not None  # the repeats took the sum path


def test_with_values_shares_the_structure_and_solves_as_built():
    """A copy with other objective and family values shares row layout and
    column structure, and solves as the model built with those values; the
    original is unchanged, also when the copy's bounds are fixed."""
    base = cover_with_extra()
    edited = base.with_values([2.5, 3.0, 0.5], "cover", [1.0, 2.0, 0.5])
    built = Model("cover")
    xx = built.add_var(obj=2.5)
    yy = built.add_var(obj=3.0)
    zz = built.add_var(obj=0.5)
    for name, cols, vals, sense, b in (
            ("cover", [xx, yy, zz], [1.0, 2.0, 0.5], GE, 4.0),
            ("floor", [yy], [1.0], GE, 0.5), ("zcap", [zz], [1.0], LE, 1.0),
            ("cap", [xx], [1.0], LE, 10.0)):
        built.add(family(name, (), [(np.array(cols), np.array(vals))], sense, b))
    assert edited._columns() is base._columns()
    assert bits(edited.lb) == bits(base.lb) and bits(edited.ub) == bits(base.ub)
    assert edited._highs_rows() is base._highs_rows()
    for got, want in zip(edited._csc(), built._csc()):
        assert bits(got) == bits(want)
    got, want = edited.solve(), built.solve()
    assert got.objective == want.objective
    assert bits(got.x) == bits(want.x) and bits(got.duals) == bits(want.duals)
    assert base.families["cover"].vals.tolist() == [1.0, 1.0, 1.0]
    assert base.obj.tolist() == [2.0, 3.0, 1.0]
    lb, ub = base.lb.copy(), base.ub.copy()
    edited.fix_var(0, 1.0)
    assert bits(base.lb) == bits(lb) and bits(base.ub) == bits(ub)
    with pytest.raises(ValueError, match="sparsity"):
        base.with_values(base.obj, "cover", [1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="one value per"):
        base.with_values(base.obj, "cover", [1.0, 1.0])


def test_interleaved_families_need_equal_shapes():
    m = Model()
    x = m.add_vars(2)
    with pytest.raises(ValueError):
        m.add(family("a", 2, [(x, 1.0)], LE, 1.0),
              family("b", 1, [(x[0], 1.0)], LE, 1.0))
    with pytest.raises(ValueError):
        family("c", 2, [(x, 1.0)], "<", 1.0)


def test_fallback_without_private_bindings_gives_same_numbers(
        monkeypatch, case5, train20):
    """Where scipy has no ``_Highs``, ``linprog`` solves every model, to the
    same bits as the direct backend."""
    from scipy.optimize._highspy import _core

    spec = importlib.util.spec_from_file_location("lp_fallback", lp.__file__)
    fallback = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "lp_fallback", fallback)
    with monkeypatch.context() as patch:  # the import fails, linprog works
        patch.delattr(_core, "_Highs")
        spec.loader.exec_module(fallback)
    assert fallback._Highs is None
    models = [build_cover_model()[0]] + [
        build_msdro_opf(case5, MultiDataset.from_matrix(train20, eps), 0.05).model
        for eps in ([1.0, 1.0], [0.1, 0.005])]
    for model in models:
        direct, slow = model.solve(), fallback.Model.solve(model)
        assert slow.optimal and slow._highs is None
        assert slow.objective == direct.objective
        assert bits(slow.x) == bits(direct.x)
        assert bits(slow.duals) == bits(direct.duals)
    for end, model in (("infeasible", _infeasible_toy()),
                       ("unbounded", _unbounded_toy())):
        for sol in (model.solve(), fallback.Model.solve(model)):
            assert sol.status == end
            assert not sol.x.any() and np.isnan(sol.objective)


def _infeasible_toy() -> Model:
    """``x0 + x1 >= 3`` and ``x0 + x1 <= 1``."""
    m = Model("infeasible")
    x = m.add_vars(2)
    m.add(family("lo", (), [(x, 1.0)], GE, 3.0))
    m.add(family("hi", (), [(x, 1.0)], LE, 1.0))
    return m


def _unbounded_toy() -> Model:
    """Free ``x`` with cost ``(1, 0)`` and ``x0 + x1 <= 1``."""
    m = Model("unbounded")
    x = m.add_vars(2, lb=-INFINITY, obj=[1.0, 0.0])
    m.add(family("hi", (), [(x, 1.0)], LE, 1.0))
    return m


def doctored(change):
    """A HiGHS object whose optimal solution is edited by ``change``."""
    class Doctored(lp._Highs):
        def getSolution(self):
            solution = super().getSolution()
            change(solution)
            return solution
    return Doctored


def shift(name, by):
    def change(solution):
        setattr(solution, name, [v + by for v in getattr(solution, name)])
    return change


@pytest.mark.parametrize("change, fault", [
    (shift("col_value", -1.0), "does not satisfy the constraints"),
    (shift("row_value", 1.0), "does not satisfy the constraints"),
    (shift("col_value", float("nan")), "contains NaN"),
], ids=["below bounds", "rows violated", "nan"])
def test_post_solve_check_rejects_doctored_solution(monkeypatch, change, fault):
    m = build_cover_model()[0]
    monkeypatch.setattr(lp, "_Highs", doctored(change))
    with pytest.raises(SolverError) as err:
        m.solve()
    assert str(err.value).startswith(f"HiGHS status 7 (the solution {fault}")
    assert m.summary() in str(err.value)


def test_post_solve_check_passes_within_tolerance(monkeypatch):
    m, x, y = build_cover_model()
    monkeypatch.setattr(lp, "_Highs", doctored(shift("col_value", 1e-5)))
    assert m.solve().x[x] == pytest.approx(3.5 + 1e-5)


def cover_with_extra(drop=(), x_ub=INFINITY, z_ub=INFINITY):
    """The cover LP plus a cheap capped column z in the cover row, without
    the rows named in ``drop``; x and z take the upper bounds given."""
    m = Model("cover")
    x = m.add_var(ub=x_ub, obj=2.0)
    y = m.add_var(obj=3.0)
    z = m.add_var(ub=z_ub, obj=1.0)
    for name, cols, vals, sense, b in (
            ("cover", [x, y, z], [1.0, 1.0, 1.0], GE, 4.0),
            ("floor", [y], [1.0], GE, 0.5), ("zcap", [z], [1.0], LE, 1.0),
            ("cap", [x], [1.0], LE, 10.0)):
        m.add(family(name, (), [(np.array(cols), np.array(vals))], sense, b,
                     where=name not in drop))
    return m


def test_without_leaves_rows_out_in_order():
    """``without`` drops the marked rows, renumbers the rest in their order
    and takes the new upper bounds; the model it copies is unchanged."""
    full = cover_with_extra()
    drop = np.array([False, True, True, False])  # floor and zcap
    ub = np.array([3.0, INFINITY, 0.0])
    smaller = full.without(drop, ub)
    want = cover_with_extra(drop=("floor", "zcap"), x_ub=3.0, z_ub=0.0)
    assert smaller.row_names() == want.row_names() == ["cover", "cap"]
    for got, row in zip(smaller.constraints, want.constraints):
        assert (got.name, got.sense, got.rhs) == (row.name, row.sense, row.rhs)
        assert np.array_equal(got.cols, row.cols)
        assert bits(got.vals) == bits(row.vals)
    for part in ("lb", "ub", "obj"):
        assert bits(getattr(smaller, part)) == bits(getattr(want, part))
    assert full.row_names() == ["cover", "floor", "zcap", "cap"]
    assert full.ub[0] == INFINITY


def test_resolve_edits_the_solved_lp_and_hands_over_the_solver():
    solved = cover_with_extra()
    first = solved.solve()
    assert first.objective == pytest.approx(7.5)
    drop = np.array([False, True, True, False])  # floor and zcap
    ub = np.array([3.0, INFINITY, 0.0])  # x <= 3, z pinned to 0
    warm = first.resolve(drop, ub)
    assert first._highs is None and warm._highs is not None
    cold = cover_with_extra(drop=("floor", "zcap"), x_ub=3.0, z_ub=0.0).solve()
    assert warm.objective == pytest.approx(9.0)
    assert warm.model.row_names() == cold.model.row_names()
    assert bits(warm.x) == bits(cold.x) and bits(warm.duals) == bits(cold.duals)
    again = first.resolve(drop, ub)  # no solver left: from scratch
    assert again._highs is not None and again.objective == warm.objective
