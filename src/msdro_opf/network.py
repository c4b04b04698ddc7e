"""Network data model, file loading, box supports, and DC flow maps.

Networks are described by a JSON file with top-level keys ``buses``,
``lines`` (from, to, reactance, f_max), ``generators`` (bus, p_min, p_max,
c_E, c_R, c_A), ``loads`` (bus, d), ``resources`` (bus, u, u_min, u_max,
kappa) and ``base_mva``. Power quantities are per-unit on base_mva, costs
in currency per per-unit.

Flow maps are injection shift factor matrices from the DC approximation:
B_G (lines x generators), B_W (lines x resources) and B_B (lines x buses)
map the respective injections to line flows. The reference bus only fixes
the representation; flows from balanced injection patterns do not depend
on it. When the file does not name a ``slack_bus``, the bus of the largest
generator is used.
"""

from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass

import numpy as np

from .dro_core import BoxSupport
from .errors import InputError, is_integer, real


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    reactance: float
    f_max: float


@dataclass(frozen=True)
class Generator:
    bus: int
    p_min: float
    p_max: float
    c_E: float
    c_R: float
    c_A: float


@dataclass(frozen=True)
class Resource:
    """Uncertain injection with forecast u and capacity window [u_min, u_max]."""

    bus: int
    u: float
    u_min: float
    u_max: float
    kappa: float


@dataclass
class Network:
    buses: list[int]
    lines: list[Line]
    generators: list[Generator]
    loads: dict[int, float]
    resources: list[Resource]
    base_mva: float = 100.0
    slack_bus: int | None = None

    def __post_init__(self):
        _check_values(self)
        if not self.buses:
            raise InputError("network has no buses")
        bus_set = set(self.buses)
        if len(bus_set) != len(self.buses):
            raise InputError("duplicate bus ids")
        for ln in self.lines:
            if ln.from_bus not in bus_set or ln.to_bus not in bus_set:
                raise InputError(f"line {ln} references unknown bus")
            if ln.from_bus == ln.to_bus:
                raise InputError(f"line {ln} has both ends at bus {ln.from_bus}")
            if ln.reactance <= 0:
                raise InputError("line reactance must be > 0")
            if ln.f_max <= 0:
                raise InputError("line f_max must be > 0")
        for g in self.generators:
            if g.bus not in bus_set:
                raise InputError(f"generator {g} references unknown bus")
            if g.p_min > g.p_max:
                raise InputError("generator has p_min > p_max")
        for r in self.resources:
            if r.bus not in bus_set:
                raise InputError(f"resource {r} references unknown bus")
            if not (r.u_min <= r.u <= r.u_max):
                raise InputError("resource forecast outside [u_min, u_max]")
            if not (0.0 <= r.kappa <= 1.0):
                raise InputError("resource kappa must lie in [0, 1]")
        for bus in self.loads:
            if bus not in bus_set:
                raise InputError(f"load references unknown bus {bus}")
        if self.slack_bus is None:
            self.slack_bus = self._largest_generator_bus()
        elif self.slack_bus not in bus_set:
            raise InputError(f"slack bus {self.slack_bus} not in bus list")

    def _largest_generator_bus(self) -> int:
        if not self.generators:
            return self.buses[0]
        return max(self.generators, key=lambda g: g.p_max).bus

    @property
    def num_buses(self) -> int:
        return len(self.buses)

    @property
    def num_lines(self) -> int:
        return len(self.lines)

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @property
    def num_resources(self) -> int:
        return len(self.resources)

    def load_vector(self) -> np.ndarray:
        return np.array([self.loads.get(b, 0.0) for b in self.buses])

    def forecast_vector(self) -> np.ndarray:
        return np.array([r.u for r in self.resources])


def _check_values(network: Network) -> None:
    """``InputError`` unless the four lists are lists (or tuples) and hold
    records of their kind, ``loads`` is a dict, every bus id is an integer
    (``is_integer``) and every other number is real (``real``), finite and
    below the solver's limit (``_check_number``)."""
    for name in ("buses", "lines", "generators", "resources"):
        if not isinstance(value := getattr(network, name), (list, tuple)):
            raise InputError(f"{name} must be a list, got {value!r}")
    if not isinstance(network.loads, dict):
        raise InputError(f"loads must be a dict from bus id to load, got "
                         f"{network.loads!r}")
    ids = [(f"bus {k}", b) for k, b in enumerate(network.buses)]
    ids += [("load bus", bus) for bus in network.loads]
    if network.slack_bus is not None:
        ids.append(("slack bus", network.slack_bus))
    numbers = [("base_mva", network.base_mva)]
    numbers += [(f"load at bus {bus}", d) for bus, d in network.loads.items()]
    for label, kind, records in (("line", Line, network.lines),
                                 ("generator", Generator, network.generators),
                                 ("resource", Resource, network.resources)):
        for k, rec in enumerate(records):
            if not isinstance(rec, kind):
                raise InputError(f"{label} {k} is {rec!r}, not a {kind.__name__}")
            for name, value in vars(rec).items():
                (ids if name.endswith("bus") else numbers).append(
                    (f"{label} {k} {name}", value))
    for label, value in ids:
        if not is_integer(value):
            raise InputError(f"{label} is {value!r}, not a whole bus id")
    for label, value in numbers:
        _check_number(label, real(label, value))


def _check_number(label: str, value: float) -> None:
    """``InputError`` naming ``label`` unless ``value`` is finite and below
    1e15 in magnitude. HiGHS rejects a model with a coefficient that large
    (its ``large_matrix_value``) and takes costs and bounds from 1e20 on
    as infinite."""
    if not math.isfinite(value):
        raise InputError(f"{label} is not a finite number ({value})")
    if abs(value) >= 1e15:
        raise InputError(f"{label} is {value:g}, not below 1e15 in magnitude")


def bundled_network() -> Network:
    """Load case5, the network file shipped inside the package."""
    ref = importlib.resources.files("msdro_opf") / "data" / "case5.json"
    with importlib.resources.as_file(ref) as path:
        return load_network(path)


def _number(path, field: str, value, bus: bool = False):
    """``value`` as a bus id (an int) or a float. Anything but a JSON number
    (a string, null, a list, a boolean), a bus id that is not a whole
    number, an integer too large for a float, or a float that
    ``_check_number`` refuses, is an InputError naming file and field."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (bus and isinstance(value, float) and not value.is_integer())):
        kind = "a whole bus id" if bus else "a number"
        raise InputError(f"{path}: {field} is {value!r}, not {kind}")
    if bus:
        return int(value)
    try:
        number = float(value)
    except OverflowError:
        raise InputError(f"{path}: {field} is an integer too large for a "
                         "float") from None
    _check_number(f"{path}: {field}", number)
    return number


def load_network(path) -> Network:
    """Read a network JSON file, which may start with a byte order mark,
    into a Network."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or too many digits
            raise InputError(f"{path}: not valid JSON ({exc})") from None

    def records(group: str, keys: tuple) -> list:
        """Each entry of ``raw[group]`` as the values of ``keys``."""
        return [[_number(path, f"{group}[{k}].{key}", e[key],
                         key in ("bus", "from", "to"))
                 for key in keys] for k, e in enumerate(raw[group])]

    try:
        lines = [Line(*r) for r in records(
            "lines", ("from", "to", "reactance", "f_max"))]
        gens = [Generator(*r) for r in records(
            "generators", ("bus", "p_min", "p_max", "c_E", "c_R", "c_A"))]
        loads = {}
        for bus, d in records("loads", ("bus", "d")):
            if bus in loads:
                raise InputError(f"{path}: more than one load at bus {bus}")
            loads[bus] = d
        resources = [Resource(*r) for r in records(
            "resources", ("bus", "u", "u_min", "u_max", "kappa"))]
        return Network(
            buses=[_number(path, f"buses[{k}]", b, bus=True)
                   for k, b in enumerate(raw["buses"])],
            lines=lines,
            generators=gens,
            loads=loads,
            resources=resources,
            base_mva=_number(path, "base_mva", raw.get("base_mva", 100.0)),
            slack_bus=(_number(path, "slack_bus", raw["slack_bus"], bus=True)
                       if "slack_bus" in raw else None),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"{path}: malformed network schema ({exc})") from None


def build_joint_support(network: Network) -> BoxSupport:
    """Forecast-error box over the network's uncertain resources: resource j
    errs within [kappa (u_min - u), kappa (u_max - u)]."""
    rs = network.resources
    return BoxSupport([r.kappa * (r.u_min - r.u) for r in rs],
                      [r.kappa * (r.u_max - r.u) for r in rs])


def compute_flow_maps(network: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Injection shift factor matrices (B_G, B_W, B_B) for the DC model.

    Line flow = B_G p + B_W u - B_B d for generator injections p, resource
    injections u and loads d. Raises InputError on a disconnected graph
    and on reactances so far apart that the bus susceptance matrix is
    singular in floating point.
    """
    slack_bus = network.slack_bus
    buses = network.buses
    v = network.num_buses
    n_lines = network.num_lines
    bus_pos = {b: i for i, b in enumerate(buses)}
    if slack_bus not in bus_pos:
        raise InputError(f"slack bus {slack_bus} not in network")

    _check_connected(network, bus_pos)

    b_line = np.array([1.0 / ln.reactance for ln in network.lines])
    f = np.array([bus_pos[ln.from_bus] for ln in network.lines], dtype=int)
    t = np.array([bus_pos[ln.to_bus] for ln in network.lines], dtype=int)
    # Branch susceptance matrix (lines x buses) and bus susceptance matrix.
    bf = np.zeros((n_lines, v))
    bf[np.arange(n_lines), f] = b_line
    bf[np.arange(n_lines), t] = -b_line
    # Entries accumulate line by line, in the order a loop over lines would.
    bbus = np.zeros((v, v))
    np.add.at(bbus, (np.stack([f, t, f, t], axis=1).ravel(),
                     np.stack([f, t, t, f], axis=1).ravel()),
              np.stack([b_line, b_line, -b_line, -b_line], axis=1).ravel())

    keep = [i for i in range(v) if i != bus_pos[slack_bus]]
    ptdf = np.zeros((n_lines, v))
    try:
        ptdf[:, keep] = bf[:, keep] @ np.linalg.inv(bbus[np.ix_(keep, keep)])
    except np.linalg.LinAlgError:
        raise InputError("line reactances are too far apart: the bus "
                         "susceptance matrix is singular") from None

    b_g = ptdf[:, [bus_pos[g.bus] for g in network.generators]]
    b_w = ptdf[:, [bus_pos[r.bus] for r in network.resources]]
    return b_g, b_w, ptdf


def _check_connected(network: Network, bus_pos: dict) -> None:
    adjacency: dict[int, set[int]] = {i: set() for i in range(network.num_buses)}
    for ln in network.lines:
        f, t = bus_pos[ln.from_bus], bus_pos[ln.to_bus]
        adjacency[f].add(t)
        adjacency[t].add(f)
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != network.num_buses:
        missing = [network.buses[i] for i in range(network.num_buses) if i not in seen]
        raise InputError(f"network is disconnected; unreachable buses {missing}")
