"""Seeded benchmark inputs: ring-plus-chords networks and stratified samples.

Nothing here calls into ``msdro_opf``; the inputs reach the program only as
files (network JSON, sample CSV) or arrays.
"""

from __future__ import annotations

import csv
import json

import numpy as np
from scipy.stats import truncnorm

#: Standard deviation of the training errors as a share of the forecast,
#: the same law the program uses for its own generated samples.
ERROR_SCALE = 0.15
KAPPA = 0.6


def ptdf(buses, lines, slack):
    """Injection shift factors (lines x buses) of a DC network."""
    pos = {b: i for i, b in enumerate(buses)}
    n_b = len(buses)
    bf = np.zeros((len(lines), n_b))
    bbus = np.zeros((n_b, n_b))
    for idx, (f, t, x) in enumerate(lines):
        i, j = pos[f], pos[t]
        bf[idx, i], bf[idx, j] = 1.0 / x, -1.0 / x
        bbus[i, i] += 1.0 / x
        bbus[j, j] += 1.0 / x
        bbus[i, j] -= 1.0 / x
        bbus[j, i] -= 1.0 / x
    keep = [i for i in range(n_b) if i != pos[slack]]
    out = np.zeros((len(lines), n_b))
    out[:, keep] = bf[:, keep] @ np.linalg.inv(bbus[np.ix_(keep, keep)])
    return out


def ring_network(seed, buses=14, chords=6, generators=6, resources=3):
    """A ring of ``buses`` plus ``chords`` random cross lines, as a dict.

    Line limits are set from a reference operating point (dispatch
    proportional to capacity, participation proportional to capacity,
    reserves covering the whole support), so that point is feasible for
    every realisation in the support: the instance is feasible at every
    budget and risk level. Lines near that point's worst-case flow can
    still congest at the optimum, which dispatches differently.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    ids = list(range(1, buses + 1))
    pairs = [(i, i % buses + 1) for i in ids]
    taken = {frozenset(p) for p in pairs}
    while len(pairs) < buses + chords:
        f, t = (int(v) for v in rng.choice(ids, size=2, replace=False))
        if frozenset((f, t)) not in taken:
            taken.add(frozenset((f, t)))
            pairs.append((f, t))
    lines = [(f, t, float(rng.uniform(0.01, 0.04))) for f, t in pairs]

    res_bus = [int(b) for b in rng.choice(ids, size=resources, replace=False)]
    u = rng.uniform(0.5, 1.5, size=resources)
    load_bus = [int(b) for b in rng.choice(ids, size=max(1, buses // 2),
                                          replace=False)]
    load = rng.uniform(0.5, 2.0, size=len(load_bus))
    # Net load at least 2.5x the forecast, so reserves for the full support
    # (kappa * u per resource) fit beside a half-capacity dispatch.
    load *= max(1.0, 2.5 * u.sum() / load.sum())
    net_load = load.sum() - u.sum()

    gen_bus = [int(b) for b in rng.choice(ids, size=generators)]
    share = rng.uniform(0.5, 1.5, size=generators)
    p_max = 2.0 * net_load * share / share.sum()
    c_r = rng.uniform(100.0, 800.0, size=generators)
    c_e = rng.uniform(1000.0, 4000.0, size=generators)
    slack = gen_bus[int(np.argmax(p_max))]

    shift = ptdf(ids, lines, slack)
    col = {b: i for i, b in enumerate(ids)}
    alpha0 = p_max / p_max.sum()
    p0 = 0.5 * p_max
    inj = np.zeros(buses)
    for g, b in enumerate(gen_bus):
        inj[col[b]] += p0[g]
    for j, b in enumerate(res_bus):
        inj[col[b]] += u[j]
    for b, d in zip(load_bus, load):
        inj[col[b]] -= d
    flow = shift @ inj
    # Flow response to one unit of error at resource j, balanced by alpha0.
    resp = shift[:, [col[b] for b in res_bus]] \
        - (shift[:, [col[b] for b in gen_bus]] @ alpha0)[:, None]
    swing = np.abs(resp) @ (KAPPA * u)
    f_max = 1.02 * (np.abs(flow) + swing) + 0.05

    return {
        "name": f"ring{buses}-seed{seed}",
        "base_mva": 100.0,
        "slack_bus": slack,
        "buses": ids,
        "lines": [{"from": f, "to": t, "reactance": x, "f_max": float(fm)}
                  for (f, t, x), fm in zip(lines, f_max)],
        "generators": [{"bus": b, "p_min": 0.0, "p_max": float(p_max[g]),
                        "c_E": float(c_e[g]), "c_R": float(c_r[g]),
                        "c_A": float(10.0 * c_r[g])}
                       for g, b in enumerate(gen_bus)],
        "loads": [{"bus": b, "d": float(d)} for b, d in zip(load_bus, load)],
        "resources": [{"bus": b, "u": float(u[j]), "u_min": 0.0,
                       "u_max": float(2.0 * u[j]), "kappa": KAPPA}
                      for j, b in enumerate(res_bus)],
    }


def write_network(path, network: dict) -> None:
    with open(path, "w") as fh:
        json.dump(network, fh, indent=1)


def stratified_errors(network: dict, n: int, seed) -> np.ndarray:
    """D x n forecast errors, one draw per probability stratum and feature.

    Each feature gets one uniform draw inside each of n equal strata of the
    truncated normal error law, mapped through its quantile function; the
    seed then pairs the features by random permutations. Unlike i.i.d.
    draws, every seed gives a sample of the same spread, so the LP a seed
    produces differs in its values and joint pairing but not in how far
    its samples scatter.
    """
    rng = np.random.default_rng([seed, 0xDA7A])
    rows = []
    for res in network["resources"]:
        scale = ERROR_SCALE * res["u"]
        lo = res["kappa"] * (res["u_min"] - res["u"])
        up = res["kappa"] * (res["u_max"] - res["u"])
        q = (np.arange(n) + rng.random(n)) / n
        draws = truncnorm.ppf(q, lo / scale, up / scale, loc=0.0, scale=scale)
        rows.append(rng.permutation(np.clip(draws, lo, up)))
    return np.vstack(rows)


def write_samples(path, xs: np.ndarray) -> None:
    """Write a D x n array in the xi_1,...,xi_D layout the CLI reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"xi_{j + 1}" for j in range(xs.shape[0])])
        writer.writerows([[repr(float(v)) for v in col] for col in xs.T])
