"""Thin LP layer: model assembly, solve statuses, dual sign conventions."""

import importlib.util
import sys

import numpy as np
import pytest

from msdro_opf import MultiDataset, lp
from msdro_opf.lp import (EQ, GE, INFINITY, LE, Model, SolverError,
                          family)
from msdro_opf.opf_model import build_msdro_opf

from oracles import (add_row, bits, linprog_solve, row_dual, row_multiplier,
                     scipy_csc)


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
    for a, b in zip(by_rows._csc(), by_fams._csc()):
        assert bits(a) == bits(b)
    assert by_rows.num_vars == by_fams.num_vars
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


def _family_cases():
    """(shape, terms, rhs, where) for ``family``: scalar and array shapes,
    terms with and without axes beyond the shape, zero coefficients, and
    masks that keep every row, none, some, or broadcast."""
    rng = np.random.default_rng(3)
    ragged = rng.integers(-2, 3, (3, 1, 2)).astype(float)
    terms3x4 = [(np.arange(12).reshape(3, 4), 1.0),
                (np.arange(3)[:, None, None] + np.array([20, 25]), ragged),
                (7, -1.0),
                (np.arange(4)[None, :], np.array([[0.0, 1.5, 0.0, 2.0]]))]
    some = rng.random((3, 4)) < 0.4
    scalar = [(np.array([0, 1, 2]), np.array([1.0, 0.0, -2.0])), (3, 0.5)]
    cube = [(np.arange(24).reshape(2, 3, 4, 1), rng.normal(size=(2, 1, 4, 3)))]
    vector = [(np.arange(5)[:, None] + np.array([0, 10]), np.array([[1.0, 0.0]])),
              (3, 0.5)]
    return [((), scalar, 1.0, True), ((), scalar, 1.0, False),
            ((), scalar, 1.0, None), (5, vector, np.arange(5.0), None),
            (5, vector, 0.0, np.arange(5) % 2 == 0),
            ((3, 4), terms3x4, np.arange(12.0).reshape(3, 4), None),
            ((3, 4), terms3x4, 2.0, np.ones((3, 4), bool)),
            ((3, 4), terms3x4, 2.0, np.zeros((3, 4), bool)),
            ((3, 4), terms3x4, -1.0, some),
            ((3, 4), terms3x4, -1.0, np.array([True, False, True])),
            ((2, 3, 4), cube, 0.0, rng.random((2, 3, 4)) < 0.5)]


def _full_build(shape: tuple, terms) -> dict:
    """Every position's entries as (rows, cols, vals), each term broadcast
    over the whole of ``shape`` and listed term by term, exact zero
    coefficients dropped."""
    ndim = len(shape)
    flat = np.arange(int(np.prod(shape))).reshape(shape)
    parts = {"rows": [], "cols": [], "vals": []}
    for c, v in terms:
        c, v = np.asarray(c), np.asarray(v, dtype=float)
        k = max(ndim, c.ndim, v.ndim)
        arrays = (lp.align_left(flat, k), lp.align_left(c, k),
                  lp.align_left(v, k))
        full = np.broadcast_shapes(*(a.shape for a in arrays))
        for name, array, dtype in zip(parts, arrays, (np.int64, np.int64, float)):
            parts[name].append(np.broadcast_to(array, full).ravel().astype(dtype))
    parts = {name: np.concatenate(a) for name, a in parts.items()}
    keep = parts["vals"] != 0.0
    return {name: a[keep] for name, a in parts.items()}


@pytest.mark.parametrize("case", _family_cases())
def test_family_where_matches_the_full_build_filtered(case):
    """A family holds exactly the entries of a build over every position
    (``_full_build``) at the rows ``where`` keeps, in their order, with the
    broadcast rhs and the same dtypes."""
    shape, terms, rhs, where = case
    got = family("f", shape, terms, GE, rhs, where)
    ndim = len(got.shape)
    full = _full_build(got.shape, terms)
    mask = (np.ones(got.size, bool) if where is None else
            np.broadcast_to(lp.align_left(where, ndim), got.shape).ravel())
    keep = mask[full["rows"]]
    assert got.shape == ((shape,) if np.isscalar(shape) else tuple(shape))
    np.testing.assert_array_equal(got.present, mask)
    for name in ("rows", "cols", "vals"):
        want = full[name][keep]
        assert getattr(got, name).dtype == want.dtype, name
        assert bits(getattr(got, name)) == bits(want), name
    assert bits(got.rhs) == bits(np.broadcast_to(
        lp.align_left(np.asarray(rhs, float), ndim), got.shape).ravel())


def test_family_reads_terms_only_at_the_kept_rows():
    """Keeping 3 of 100 000 rows of four terms each allocates the rhs and
    the mask, about 9 bytes a position, not the 100-odd a full build of
    rows, columns and coefficients takes."""
    tracemalloc = pytest.importorskip("tracemalloc")
    shape = (1000, 100)
    where = np.zeros(shape, bool)
    where[[3, 500, 999], [0, 50, 99]] = True
    terms = [(np.arange(4)[None, None, :], np.ones(4)[None, None, :])]
    tracemalloc.start()
    try:
        fam = family("f", shape, terms, GE, 0.0, where)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * where.size
    assert fam.rows.tolist() == [300] * 4 + [50050] * 4 + [99999] * 4


def test_row_views_and_names_stay_lazy():
    m = _toy_by_families()
    m.solve()
    assert "rows" not in m._cache
    assert m.constraints[-1].name == "pair[0,1]"
    assert m.constraints[1].cols.tolist() == [0]


def test_row_views_read_the_column_wise_matrix():
    """A row lists its columns in ascending order, repeats summed, as the
    column-wise matrix HiGHS gets holds them."""
    m = Model()
    x = m.add_vars(3)
    m.add(family("mix", 2, [(x[[2, 1]], 1.0), (x[[0, 1]], [2.0, 3.0])], LE, 1.0))
    rows = m.constraints
    assert isinstance(rows, list) and rows is m.constraints
    assert [(r.name, r.sense, r.rhs) for r in rows] == [("mix[0]", LE, 1.0),
                                                        ("mix[1]", LE, 1.0)]
    assert [r.cols.tolist() for r in rows] == [[0, 2], [1]]
    assert [r.vals.tolist() for r in rows] == [[2.0, 1.0], [4.0]]
    assert sum(len(r.cols) for r in rows) == len(m._csc()[1]) == 3


def test_column_arrays_are_scipys_bit_for_bit():
    """The column-wise matrix ``_load`` hands HiGHS (its structure cached,
    values read from the families at each load) is the one scipy builds
    from the coefficient table: repeats in one position summed in table
    order, the ``>=`` rows negated, on toys and on OPF models."""
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
    # Four entries of ``mix`` and three of ``thrice`` share a position.
    assert len(repeats._values()) - len(repeats._csc()[1]) == 3


def test_with_values_shares_the_structure_and_solves_as_built():
    """A copy with another objective and other values in some of a
    family's columns shares row layout and column structure, and solves as
    the model built with those values; the original is unchanged, also
    when the copy's bounds are fixed."""
    base = cover_with_extra()
    edited = base.with_values([2.5, 3.0, 0.5], "cover", [2, 1], [0.5, 2.0])
    built = Model("cover")
    xx = built.add_var(obj=2.5)
    yy = built.add_var(obj=3.0)
    zz = built.add_var(obj=0.5)
    for name, cols, vals, sense, b in (
            ("cover", [xx, yy, zz], [1.0, 2.0, 0.5], GE, 4.0),
            ("floor", [yy], [1.0], GE, 0.5), ("zcap", [zz], [1.0], LE, 1.0),
            ("cap", [xx], [1.0], LE, 10.0)):
        built.add(family(name, (), [(np.array(cols), np.array(vals))], sense, b))
    assert bits(edited.lb) == bits(base.lb) and bits(edited.ub) == bits(base.ub)
    for got, want in zip(edited._csc(), built._csc()):
        assert bits(got) == bits(want)
    got, want = edited.solve(), built.solve()
    assert got.objective == want.objective
    assert bits(got.x) == bits(want.x) and bits(got.duals) == bits(want.duals)
    assert base.families["cover"].vals.tolist() == [1.0, 1.0, 1.0]
    assert base.obj.tolist() == [2.0, 3.0, 1.0]
    lb, ub = base.lb.copy(), base.ub.copy()
    edited.lb[0] = edited.ub[0] = 1.0
    assert bits(base.lb) == bits(lb) and bits(base.ub) == bits(ub)
    with pytest.raises(ValueError, match="one value per"):
        base.with_values(base.obj, "cover", [0, 1], [1.0])
    with pytest.raises(ValueError, match="one value per"):
        base.with_values(base.obj[:2], "cover", [0], [1.0])


def test_with_values_leaves_a_zero_out_as_family_does():
    """A zero value gives, bit for bit, the model ``family`` builds with
    that coefficient zero, which leaves it out: the copy shares the row
    layout but builds its own column structure."""
    base = cover_with_extra()
    base._columns()  # built, so that the copy could share it
    edited = base.with_values(base.obj, "cover", [2, 0], [0.0, 4.0])
    assert edited._cache.keys() == {"layout"}
    built = Model("cover")
    built.add_vars(3, obj=base.obj)
    for name, cols, vals, sense, b in (
            ("cover", [0, 1, 2], [4.0, 1.0, 0.0], GE, 4.0),
            ("floor", [1], [1.0], GE, 0.5), ("zcap", [2], [1.0], LE, 1.0),
            ("cap", [0], [1.0], LE, 10.0)):
        built.add(family(name, (), [(np.array(cols), np.array(vals))], sense, b))
    assert built.families["cover"].cols.tolist() == [0, 1]
    for got, want in zip(edited._layout() + edited._csc()
                         + (edited.obj, edited.lb, edited.ub),
                         built._layout() + built._csc()
                         + (built.obj, built.lb, built.ub)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert edited._layout() is base._layout()
    assert edited._columns() is not base._columns()
    assert base.families["cover"].cols.tolist() == [0, 1, 2]


def test_models_cache_structure_and_read_values_at_each_load():
    """A ``with_values`` copy that leaves no coefficient out shares its
    base's row layout and column structure and caches nothing else; a
    ``without`` model, which HiGHS solves by editing the loaded LP, builds
    its row layout and never the column structure; and a changed
    coefficient reaches the next load."""
    base = cover_with_extra()
    edited = base.with_values(base.obj, "cover", [1, 2], [2.0, 0.5])
    assert edited._cache.keys() == {"layout", "columns"}
    assert edited._layout() is base._layout()
    assert edited._columns() is base._columns()
    first = cover_with_extra().solve()
    assert "columns" in first.model._cache
    resolved = first.resolve(np.array([False, True, False, False]),
                             first.model.ub)
    assert resolved.optimal and resolved._highs is not None
    assert resolved.model._cache.keys() == {"layout"}
    base.families["cover"].vals[:] = [1.0, 2.0, 0.5]
    assert bits(base._csc()[2]) == bits(edited._csc()[2])


def test_interleaved_families_need_equal_shapes():
    m = Model()
    x = m.add_vars(2)
    with pytest.raises(ValueError):
        m.add(family("a", 2, [(x, 1.0)], LE, 1.0),
              family("b", 1, [(x[0], 1.0)], LE, 1.0))
    with pytest.raises(ValueError):
        family("c", 2, [(x, 1.0)], "<", 1.0)


def test_lp_without_private_bindings_fails_at_import(monkeypatch):
    """Where scipy has no ``_Highs``, loading ``lp`` fails with an
    ``ImportError`` that names the bindings and the scipy floor, chained
    from scipy's own."""
    from scipy.optimize._highspy import _core

    spec = importlib.util.spec_from_file_location("lp_without", lp.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "lp_without", module)
    monkeypatch.delattr(_core, "_Highs")
    with pytest.raises(ImportError, match=r"scipy >= 1\.15.*"
                       r"scipy\.optimize\._highspy") as err:
        spec.loader.exec_module(module)
    assert isinstance(err.value.__cause__, ImportError)
    assert "_Highs" in str(err.value.__cause__)


def test_infeasible_and_unbounded_ends_read_as_zeros():
    """Both the solver and the ``linprog`` reference end an infeasible or
    unbounded LP with that status, zeros and a NaN objective."""
    for end, model in (("infeasible", _infeasible_toy()),
                       ("unbounded", _unbounded_toy())):
        for sol in (model.solve(), linprog_solve(model)):
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


def test_without_copies_a_model_whose_rows_are_all_absent():
    m = Model()
    x = m.add_vars(2, obj=1.0)
    m.add(family("none", 2, [(x, 1.0)], LE, 1.0, where=False))
    copy = m.without(np.zeros(0, dtype=bool), [INFINITY, 0.0])
    assert copy.num_constraints == 0
    assert copy.families["none"].index.tolist() == [-1, -1]
    assert copy.solve().objective == 0.0


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


def one_free_row():
    """min y - x, x <= 5 and y >= 1: dropping the row leaves x unbounded."""
    m = Model("roof")
    x = m.add_vars(2, obj=[-1.0, 1.0])
    m.add(family("roof", (), [(x[0], 1.0)], LE, 5.0))
    m.add(family("floor", (), [(x[1], 1.0)], GE, 1.0))
    return m, np.array([True, False]), m.ub


def fuzz_seed_10():
    """The LP ``test_random_lps_solve_as_linprog_and_certify`` found at
    ``--hypothesis-seed 10``: dropping ``f1b[0,2]`` (x2 >= 1) and capping
    every column at 0 lets x2 and x4 fall together."""
    m = Model("fuzz")
    x = m.add_vars(5, lb=[0, 0, -INFINITY, 0, -INFINITY], obj=[0, 0, 1, 0, -1])
    m.add(family("f0a", 4, [(x[[[2, 4], [4, 4], [4, 2], [0, 0]]],
                             [[1, 1], [2, 0], [-3, 2], [0, 0]])],
                 LE, [1, 0, 2, 0]))
    m.add(family("f1a", (1, 3), [], LE, 0.0),
          family("f1b", (1, 3), [(x[2], [[0, 0, -1]])], LE, [[0, 0, -1]]))
    return m, np.arange(10) == 9, np.zeros(5)


def fuzz_seed_94():
    """The LP the same test found at ``--hypothesis-seed 94``: dropping
    ``f0b[1]`` (x2 <= 1 - x0) frees x2, whose cost is -1."""
    m = Model("fuzz")
    x = m.add_vars(4, obj=[0, -1, -1, 0])
    m.add(family("f0a", 2, [], LE, 0.0),
          family("f0b", 2, [(x[[[0, 1], [0, 2]]], [[1, -1], [-1, -1]])],
                 GE, [1, -1]))
    return m, np.arange(4) == 3, np.array([1, INFINITY, INFINITY, 0])


@pytest.mark.parametrize("case", [one_free_row, fuzz_seed_10, fuzz_seed_94])
def test_resolve_to_an_unbounded_lp_reads_unbounded(case):
    """A warm restart that stops short of an end (HiGHS ``kUnknown`` on both
    fuzz LPs) is solved again cold, so ``resolve`` ends as a cold solve of
    the derived model does."""
    model, drop, ub = case()
    first = model.solve()
    assert first.optimal
    assert model.without(drop, ub).solve().status == "unbounded"
    warm = first.resolve(drop, ub)
    assert warm.status == "unbounded"
    assert np.isnan(warm.objective) and not warm.x.any()
