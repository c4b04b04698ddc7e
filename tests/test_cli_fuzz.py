"""Malformed networks, sample files and flags through ``cli.main``.

Whatever the input, ``msdro solve`` ends with one of the documented exit
codes (0 success, 2 input error, 3 infeasible, 4 solver failure) and never
with an uncaught exception. argparse rejects unparsable flags itself by
raising ``SystemExit(2)``, which counts as exit code 2.
"""

import copy
import json
import math
from importlib.resources import files

from hypothesis import given, settings
from hypothesis import strategies as st

from msdro_opf.cli import main

CASE5 = json.loads((files("msdro_opf") / "data" / "case5.json").read_text())
SECTIONS = ("buses", "lines", "generators", "loads", "resources")
EXIT_CODES = {0, 2, 3, 4}


@st.composite
def network_json(draw) -> str:
    """The bundled case, intact or with one defect."""
    net = copy.deepcopy(CASE5)
    defect = draw(st.sampled_from(["none", "none", "section", "key",
                                   "reactance", "disconnected", "overload"]))
    if defect == "section":
        del net[draw(st.sampled_from(SECTIONS))]
    elif defect == "key":
        records = net[draw(st.sampled_from(SECTIONS[1:]))]
        record = records[draw(st.integers(0, len(records) - 1))]
        del record[draw(st.sampled_from(sorted(record)))]
    elif defect == "reactance":
        line = net["lines"][draw(st.integers(0, len(net["lines"]) - 1))]
        line["reactance"] = draw(st.sampled_from(
            [math.nan, -0.01, 0.0, math.inf, -math.inf]))
    elif defect == "overload":  # more load than generation: infeasible
        for load in net["loads"]:
            load["d"] *= 10.0
    elif defect == "disconnected":
        island = max(net["buses"]) + 1
        net["buses"].append(island)
        if draw(st.booleans()):
            net["loads"].append({"bus": island, "d": 0.5})
    return json.dumps(net)  # NaN and inf are written as bare literals


def leaves(node, path=()) -> list:
    """The path (keys and list indices) to every scalar of ``node``."""
    if isinstance(node, dict):
        return [p for key, child in node.items() for p in leaves(child, path + (key,))]
    if isinstance(node, list):
        return [p for k, child in enumerate(node) for p in leaves(child, path + (k,))]
    return [path]


JSON_SCALAR = (st.none() | st.booleans() | st.integers(-10**450, 10**450)
               | st.floats() | st.text(max_size=4))
# Scalars are listed three times to weight them: most defects are one value.
JSON_VALUE = st.one_of(JSON_SCALAR, JSON_SCALAR, JSON_SCALAR,
                       st.lists(JSON_SCALAR, max_size=3),
                       st.dictionaries(st.text(max_size=4), JSON_SCALAR,
                                       max_size=3))


@st.composite
def network_with_one_leaf_replaced(draw) -> str:
    """The bundled case with one scalar, anywhere in it, replaced by any
    JSON value: null, a boolean, an integer of up to 451 digits, a float
    (NaN and infinities included), a short text, a list or an object."""
    net = copy.deepcopy(CASE5)
    *parents, last = draw(st.sampled_from(leaves(CASE5)))
    node = net
    for key in parents:
        node = node[key]
    node[last] = draw(JSON_VALUE)
    return json.dumps(net)


SAMPLE = st.floats(min_value=-0.3, max_value=0.3).map(repr)
BAD_CELL = st.sampled_from(["nan", "inf", "-inf", "abc", "", "1e999"])


@st.composite
def samples_csv(draw) -> str:
    """Two-feature sample rows inside the support, or with one defect."""
    n = draw(st.integers(1, 6))
    rows = [[draw(SAMPLE), draw(SAMPLE)] for _ in range(n)]
    defect = draw(st.sampled_from(["none", "none", "cell", "ragged"]))
    i = draw(st.integers(0, n - 1))
    if defect == "cell":
        rows[i][draw(st.integers(0, 1))] = draw(BAD_CELL)
    elif defect == "ragged":
        rows[i] = rows[i][:1] if draw(st.booleans()) else rows[i] + ["0.1"]
    return "\n".join(["xi_1,xi_2"] + [",".join(r) for r in rows]) + "\n"


@st.composite
def eps_flags(draw) -> list:
    """Two valid budgets, or a wrong count (none at all included), or one
    bad value."""
    eps = [draw(st.sampled_from(["1", "0.1", "0.005", "0"])) for _ in range(2)]
    defect = draw(st.sampled_from(["none", "none", "count", "value"]))
    if defect == "count":
        eps = draw(st.sampled_from([[], eps[:1], eps + eps[:1]]))
    elif defect == "value":
        eps[draw(st.integers(0, 1))] = draw(st.sampled_from(["nan", "-0.1",
                                                             "inf", "x"]))
    return eps


GAMMA = st.sampled_from(["0.05", "0.05", "0.5", "0", "1", "-0.1"])


@settings(max_examples=25, deadline=None)
@given(net=network_json(), csv_text=samples_csv(), eps=eps_flags(),
       gamma=GAMMA)
def test_cli_fuzz_ends_with_a_documented_exit_code(tmp_path_factory, net,
                                                   csv_text, eps, gamma):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "net.json").write_text(net)
    (work / "train.csv").write_text(csv_text)
    argv = ["solve", "--network", str(work / "net.json"), "--data",
            str(work / "train.csv"), "--gamma", gamma, "--out",
            str(work / "out")]
    if eps:
        argv += ["--eps", *eps]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected a flag
        code = exc.code
    assert code in EXIT_CODES


@settings(max_examples=30, deadline=None)
@given(net=network_with_one_leaf_replaced())
def test_cli_fuzz_survives_any_value_in_a_network_file(tmp_path_factory, net):
    work = tmp_path_factory.mktemp("leaf")
    (work / "net.json").write_text(net)
    code = main(["solve", "--network", str(work / "net.json"), "--train", "5",
                 "--eps", "0.1", "0.1", "--out", str(work / "out")])
    assert code in EXIT_CODES
