"""Network loading, forecast-error supports, and DC flow maps."""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import msdro_opf
from msdro_opf.errors import InputError
from msdro_opf.network import (Generator, Line, Network, Resource,
                               build_joint_support, build_support,
                               compute_flow_maps, load_network)

from oracles import dc_flows_by_angles

CASE5 = Path(msdro_opf.__file__).parent / "data" / "case5.json"


def two_bus(slack: int = 2) -> Network:
    return Network(
        buses=[1, 2],
        lines=[Line(1, 2, 0.1, 5.0)],
        generators=[Generator(1, 0.0, 4.0, 10.0, 1.0, 20.0)],
        loads={2: 3.0},
        resources=[],
        slack_bus=slack,
    )


def chain_3bus() -> Network:
    return Network(
        buses=[1, 2, 3],
        lines=[Line(1, 2, 0.1, 5.0), Line(2, 3, 0.2, 5.0)],
        generators=[Generator(1, 0.0, 4.0, 10.0, 1.0, 20.0)],
        loads={3: 2.0},
        resources=[Resource(2, 0.5, 0.0, 1.0, 0.5)],
        slack_bus=3,
    )


def test_bundled_case5_contents(case5):
    assert case5.buses == [1, 2, 3, 4, 5]
    assert case5.num_lines == 6
    assert case5.num_generators == 5
    assert case5.num_resources == 2
    assert case5.loads == {2: 3.0, 3: 3.0, 4: 4.0}
    assert [g.p_max for g in case5.generators] == [0.4, 1.7, 5.2, 2.0, 6.0]
    assert [g.c_E for g in case5.generators] == [1400.0, 1500.0, 3000.0,
                                                 4000.0, 1000.0]
    assert [g.c_A for g in case5.generators] == [8000.0, 8000.0, 1500.0,
                                                 3000.0, 8000.0]
    assert [(r.bus, r.u, r.kappa) for r in case5.resources] == [
        (3, 1.0, 0.6), (4, 1.5, 0.6)]
    # Largest generator sits at bus 5, which doubles as the reference bus.
    assert case5.slack_bus == 5


def test_load_network_roundtrip(tmp_path, case5):
    raw = {
        "base_mva": case5.base_mva,
        "slack_bus": case5.slack_bus,
        "buses": case5.buses,
        "lines": [{"from": ln.from_bus, "to": ln.to_bus,
                   "reactance": ln.reactance, "f_max": ln.f_max}
                  for ln in case5.lines],
        "generators": [{"bus": g.bus, "p_min": g.p_min, "p_max": g.p_max,
                        "c_E": g.c_E, "c_R": g.c_R, "c_A": g.c_A}
                       for g in case5.generators],
        "loads": [{"bus": b, "d": d} for b, d in case5.loads.items()],
        "resources": [{"bus": r.bus, "u": r.u, "u_min": r.u_min,
                       "u_max": r.u_max, "kappa": r.kappa}
                      for r in case5.resources],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(raw))
    back = load_network(path)
    assert back == case5


def test_load_network_rejects_a_repeated_load_bus(tmp_path):
    """A second load at bus 2 would otherwise replace the first one."""
    raw = json.loads(CASE5.read_text())
    raw["loads"].append({"bus": 2, "d": 3.0})
    path = tmp_path / "net.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(InputError, match=f"{path}: more than one load at "
                                         f"bus 2$"):
        load_network(path)


def write_case5(tmp_path, field: str, value) -> Path:
    """case5 with the entry at ``field`` (``lines[2].from``, ``buses[4]``
    or ``slack_bus``) set to ``value``, written to a file."""
    raw = json.loads(CASE5.read_text())
    group, index, key = re.fullmatch(r"(\w+)(?:\[(\d+)\])?(?:\.(\w+))?",
                                     field).groups()
    if index is None:
        raw[group] = value
    elif key is None:
        raw[group][int(index)] = value
    else:
        raw[group][int(index)][key] = value
    path = tmp_path / "net.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("field", ["generators[0].bus", "lines[2].from",
                                   "lines[2].to", "loads[1].bus",
                                   "resources[0].bus", "buses[4]", "slack_bus"])
@pytest.mark.parametrize("value", [1.7, True, float("inf")])
def test_load_network_rejects_a_bus_id_that_is_not_whole(tmp_path, field,
                                                         value):
    """int() would truncate 1.7 to bus 1, read true as bus 1 and overflow
    on Infinity (which JSON files may hold)."""
    path = write_case5(tmp_path, field, value)
    with pytest.raises(InputError, match=re.escape(
            f"{path}: {field} is {value!r}, not a whole bus id") + "$"):
        load_network(path)


@pytest.mark.parametrize("field", ["generators[0].p_max", "lines[0].f_max",
                                   "loads[0].d", "resources[1].kappa",
                                   "base_mva"])
def test_load_network_rejects_a_boolean_number(tmp_path, field):
    """float() would read true as 1.0."""
    path = write_case5(tmp_path, field, True)
    with pytest.raises(InputError, match=re.escape(
            f"{path}: {field} is True, not a number") + "$"):
        load_network(path)


@pytest.mark.parametrize("field, kind", [
    ("generators[0].bus", "a whole bus id"), ("buses[4]", "a whole bus id"),
    ("generators[0].p_max", "a number"), ("base_mva", "a number")])
@pytest.mark.parametrize("value", [" 1 ", "0.4", None, [1]])
def test_load_network_rejects_a_value_that_is_not_a_json_number(
        tmp_path, field, kind, value):
    """int() and float() would read the text " 1 " and "0.4" as numbers."""
    path = write_case5(tmp_path, field, value)
    with pytest.raises(InputError, match=re.escape(
            f"{path}: {field} is {value!r}, not {kind}") + "$"):
        load_network(path)


@pytest.mark.parametrize("field", ["generators[2].p_max", "resources[0].u_max"])
def test_load_network_rejects_an_integer_too_large_for_a_float(tmp_path,
                                                               field):
    """float() raises OverflowError on a 401-digit integer."""
    path = write_case5(tmp_path, field, 10**400)
    with pytest.raises(InputError, match=re.escape(
            f"{path}: {field} is an integer too large for a float") + "$"):
        load_network(path)


@pytest.mark.parametrize("field, value, shown", [
    ("generators[0].c_A", -1e15, "-1e+15"), ("generators[0].c_E", 1e19, "1e+19"),
    ("generators[2].c_A", -6.07e262, "-6.07e+262"),
    ("lines[0].f_max", 10**16, "1e+16")])
def test_load_network_rejects_a_number_too_large_for_the_solver(
        tmp_path, field, value, shown):
    """HiGHS rejected the model (-1e15, -6.07e262) or ended without a status
    (1e19): exit 4 instead of an input error; f_max = 1e16 made case5
    infeasible (exit 3), though f_max = 1e15 solved."""
    path = write_case5(tmp_path, field, value)
    with pytest.raises(InputError, match=re.escape(
            f"{path}: {field} is {shown}, not below 1e15 in magnitude") + "$"):
        load_network(path)


def test_network_rejects_a_number_too_large_for_the_solver():
    gen = Generator(1, 0.0, 4.0, 10.0, 1.0, 20.0)
    good = dict(buses=[1, 2], lines=[Line(1, 2, 0.1, 5.0)], generators=[gen],
                loads={2: 3.0}, resources=[Resource(2, 0.5, 0.0, 1.0, 0.5)])
    Network(**dict(good, generators=[replace(gen, c_A=-5e14)]))
    with pytest.raises(InputError, match=re.escape(
            "generator 0 c_A is -1e+15, not below 1e15 in magnitude")):
        Network(**dict(good, generators=[replace(gen, c_A=-1e15)]))
    with pytest.raises(InputError, match="load at bus 2 is 1e"):
        Network(**dict(good, loads={2: 1e20}))


def test_load_network_rejects_an_integer_too_long_to_read(tmp_path):
    """json.load raises a plain ValueError on an integer of more digits
    than Python converts from text (4 300 by default)."""
    path = tmp_path / "net.json"
    path.write_text(CASE5.read_text().replace('"p_max": 5.2', '"p_max": '
                                              + "9" * 5000, 1))
    with pytest.raises(InputError, match=re.escape(f"{path}: not valid JSON")):
        load_network(path)


def test_load_network_reads_whole_float_bus_ids(tmp_path, case5):
    path = write_case5(tmp_path, "generators[0].bus", 1.0)
    assert load_network(path) == case5


def test_load_network_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InputError):
        load_network(path)


def test_load_network_rejects_missing_key(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"buses": [1]}))
    with pytest.raises(InputError):
        load_network(path)


def test_network_validation_errors():
    with pytest.raises(InputError, match="network has no buses"):
        Network(buses=[], lines=[], generators=[], loads={}, resources=[])
    with pytest.raises(InputError):
        Network(buses=[1, 1], lines=[], generators=[], loads={}, resources=[])
    with pytest.raises(InputError):
        Network(buses=[1], lines=[Line(1, 2, 0.1, 1.0)], generators=[],
                loads={}, resources=[])
    with pytest.raises(InputError):
        Network(buses=[1, 2], lines=[Line(1, 2, -0.1, 1.0)], generators=[],
                loads={}, resources=[])
    with pytest.raises(InputError):
        Network(buses=[1], lines=[], generators=[], loads={2: 1.0},
                resources=[])


def test_network_rejects_a_line_from_a_bus_to_itself():
    """compute_flow_maps would give the loop a made-up flow against its
    f_max (the -b write overwrites the +b one)."""
    loop = Line(2, 2, 0.01, 0.5)
    with pytest.raises(InputError, match=re.escape(
            f"line {loop} has both ends at bus 2") + "$"):
        Network(buses=[1, 2], lines=[Line(1, 2, 0.1, 5.0), loop],
                generators=[], loads={}, resources=[])


def test_network_rejects_non_finite_numbers():
    good = dict(buses=[1, 2], lines=[Line(1, 2, 0.1, 5.0)],
                generators=[Generator(1, 0.0, 4.0, 10.0, 1.0, 20.0)],
                loads={2: 3.0}, resources=[Resource(2, 0.5, 0.0, 1.0, 0.5)])
    Network(**good)
    nan, inf = float("nan"), float("inf")
    for key, value in (("lines", [Line(1, 2, nan, 5.0)]),
                       ("lines", [Line(1, 2, 0.1, inf)]),
                       ("generators", [Generator(1, 0.0, inf, 10.0, 1.0, 20.0)]),
                       ("generators", [Generator(1, 0.0, 4.0, 10.0, nan, 20.0)]),
                       ("loads", {2: nan}),
                       ("resources", [Resource(2, 0.5, 0.0, 1.0, nan)])):
        with pytest.raises(InputError, match="not a finite number"):
            Network(**dict(good, **{key: value}))


def test_build_support_centred_forecast():
    box = build_support(Resource(1, 1.0, 0.0, 2.0, 0.6))
    assert box.lower[0] == pytest.approx(-0.6)
    assert box.upper[0] == pytest.approx(0.6)


def test_build_support_asymmetric_forecast():
    box = build_support(Resource(1, 1.5, 0.0, 2.0, 0.6))
    assert box.lower[0] == pytest.approx(-0.9)
    assert box.upper[0] == pytest.approx(0.3)


def test_build_support_zero_kappa_degenerates():
    box = build_support(Resource(1, 1.7, 0.0, 2.0, 0.0))
    assert box.lower[0] == 0.0
    assert box.upper[0] == 0.0


def test_build_support_rejects_forecast_outside_window():
    with pytest.raises(InputError):
        build_support(Resource(1, 2.5, 0.0, 2.0, 0.6))


def test_joint_support_stacks_resources(case5):
    box = build_joint_support(case5)
    np.testing.assert_allclose(box.lower, [-0.6, -0.9])
    np.testing.assert_allclose(box.upper, [0.6, 0.3])


def test_flow_maps_two_bus_identity():
    b_g, b_w, b_b = compute_flow_maps(two_bus())
    assert b_g.shape == (1, 1)
    assert b_g[0, 0] == pytest.approx(1.0)
    # Load at the slack bus contributes nothing to the flow.
    assert b_b[0, 1] == pytest.approx(0.0)


def test_flow_maps_radial_chain_cumulative():
    b_g, b_w, b_b = compute_flow_maps(chain_3bus())
    # Injection at bus 1 travels the whole chain; at bus 2 only line 2.
    np.testing.assert_allclose(b_g[:, 0], [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(b_w[:, 0], [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(b_b[:, 0], [1.0, 1.0], atol=1e-12)


def test_flow_maps_same_bus_columns_agree(case5):
    b_g, b_w, b_b = compute_flow_maps(case5)
    bus_pos = {b: i for i, b in enumerate(case5.buses)}
    for gi, g in enumerate(case5.generators):
        np.testing.assert_allclose(b_g[:, gi], b_b[:, bus_pos[g.bus]],
                                   atol=1e-12)
    for ri, r in enumerate(case5.resources):
        np.testing.assert_allclose(b_w[:, ri], b_b[:, bus_pos[r.bus]],
                                   atol=1e-12)


def test_flow_maps_match_angle_solution(case5):
    """Shift-factor flows equal the reduced angle solve on balanced patterns."""
    _, _, b_b = compute_flow_maps(case5)
    rng = np.random.default_rng(29)
    for _ in range(8):
        inj = rng.normal(size=case5.num_buses)
        inj -= inj.mean()
        np.testing.assert_allclose(b_b @ inj,
                                   dc_flows_by_angles(case5, inj), atol=1e-9)


def test_flow_maps_slack_invariant_for_balanced_injections(case5):
    _, _, from_5 = compute_flow_maps(replace(case5, slack_bus=5))
    _, _, from_1 = compute_flow_maps(replace(case5, slack_bus=1))
    rng = np.random.default_rng(31)
    inj = rng.normal(size=case5.num_buses)
    inj -= inj.mean()
    np.testing.assert_allclose(from_5 @ inj, from_1 @ inj, atol=1e-9)


def test_flow_maps_slack_column_is_null(case5):
    """Mass at the reference bus is absorbed there and moves no flow."""
    _, _, b_b = compute_flow_maps(case5)
    slack_col = case5.buses.index(case5.slack_bus)
    np.testing.assert_allclose(b_b[:, slack_col], 0.0, atol=1e-12)


def test_flow_maps_equal_line_by_line_assembly():
    """Vectorised susceptance assembly keeps the loop's summation order."""
    rng = np.random.default_rng(41)
    buses = list(range(1, 8))
    pairs = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 1),
             (1, 4), (1, 4), (2, 6), (1, 5), (3, 7)]
    lines = [Line(f, t, float(rng.uniform(0.01, 0.3)), 5.0) for f, t in pairs]
    net = Network(buses=buses, lines=lines,
                  generators=[Generator(1, 0.0, 4.0, 10.0, 1.0, 20.0)],
                  loads={3: 1.0}, resources=[], slack_bus=1)
    pos = {b: i for i, b in enumerate(buses)}
    b_line = [1.0 / ln.reactance for ln in lines]
    bf = np.zeros((len(lines), len(buses)))
    bbus = np.zeros((len(buses), len(buses)))
    for k, ln in enumerate(lines):
        f, t = pos[ln.from_bus], pos[ln.to_bus]
        bf[k, f], bf[k, t] = b_line[k], -b_line[k]
        bbus[f, f] += b_line[k]
        bbus[t, t] += b_line[k]
        bbus[f, t] -= b_line[k]
        bbus[t, f] -= b_line[k]
    keep = [i for i in range(len(buses)) if i != pos[1]]
    ptdf = np.zeros_like(bf)
    ptdf[:, keep] = bf[:, keep] @ np.linalg.inv(bbus[np.ix_(keep, keep)])
    np.testing.assert_array_equal(compute_flow_maps(net)[2], ptdf)


def test_disconnected_network_raises():
    net = Network(
        buses=[1, 2, 3, 4],
        lines=[Line(1, 2, 0.1, 5.0), Line(3, 4, 0.1, 5.0)],
        generators=[Generator(1, 0.0, 4.0, 10.0, 1.0, 20.0)],
        loads={2: 1.0},
        resources=[],
        slack_bus=1,
    )
    with pytest.raises(InputError, match=r"network is disconnected; "
                                         r"unreachable buses \[3, 4\]"):
        compute_flow_maps(net)


def test_load_and_forecast_vectors(case5):
    np.testing.assert_allclose(case5.load_vector(), [0.0, 3.0, 3.0, 4.0, 0.0])
    np.testing.assert_allclose(case5.forecast_vector(), [1.0, 1.5])
