"""Build the op pools of every workload and store the program's results for them.

    python3 perfbench/make_reference.py [continuum lattice ladder cli]

Run from the repository root.  Pools are drawn from fixed master seeds, so
rerunning this on the same program stores the same ops and results; only
the dealing of continuum and ladder ops into rounds can change, since it
balances measured times (``seed_s``, taken with two ops running at once).
Continuum ops and ladder groups each run in a fresh interpreter, so a
stored outcome is the op's outcome when nothing ran before it.  The
benchmark itself never runs this script: it reads
``perfbench/reference/<workload>.json``.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import random
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import ops  # noqa: E402
from worker import machine  # noqa: E402

CONTINUUM_CANDIDATES = 120
LATTICE_ROUNDS = 24
LADDER_GROUPS = 36  # z values; two make a round
LADDER_NMAX = 30
# lattice round: four generic 1-point ops, two generic 2-point ops, and one
# op at each theta-lattice z, whose zero-row cut allows a larger nmax
LATTICE_ROUND = {"generic-1": 4, "generic-2": 2, "theta-1.5": 1, "theta-2.5": 1}
LATTICE_NMAX = {"generic-1": 30, "generic-2": 30, "theta-1.5": 80, "theta-2.5": 48}


def _continuum_one(op: dict) -> dict:
    import zmeasures
    from zmeasures.kernels import KernelParams
    from zmeasures.pfaffian import assemble

    t = time.perf_counter()
    try:
        with ops.time_limit():
            got = ops.run_continuum(op)
    except (zmeasures.ZMeasuresError, ops.OpTimeout) as exc:
        return {"refused": type(exc).__name__, "message": str(exc)[:200], "seed_s": time.perf_counter() - t}
    seed_s = time.perf_counter() - t
    # the blocks are cached by now, so assembling again is cheap
    a = assemble(op["points"], KernelParams(complex(*op["z"])))
    max_entry = float(abs(a.data).max())
    return {"value": got["value"], "atol": ops.continuum_atol(len(op["points"]), max_entry), "seed_s": seed_s}


def _ladder_group(group: list[dict]) -> list[dict] | None:
    import zmeasures

    out = []
    for op in group:
        t = time.perf_counter()
        try:
            with ops.time_limit():
                got = ops.run_ladder(op)
        except (zmeasures.ZMeasuresError, ops.OpTimeout):
            return None
        out.append({**got, "seed_s": time.perf_counter() - t})
    from zmeasures.kernels import KernelParams
    from zmeasures.pfaffian import assemble

    for op, got in zip(group, out):
        a = assemble(op["u"], KernelParams(complex(*op["z"])))
        got["atol"] = ops.continuum_atol(len(op["u"]), float(abs(a.data).max()))
    return out


def _pool(maxtasks):
    ctx = multiprocessing.get_context("spawn")
    return ctx.Pool(2, maxtasksperchild=maxtasks)


def build_continuum() -> dict:
    rng = random.Random(20120213)
    cands, seen = [], set()
    while len(cands) < CONTINUUM_CANDIDATES:
        z = (round(rng.uniform(0.0, 2.25), 4), round(rng.uniform(-3.0, 3.0), 4))
        if z in seen or z == (0.0, 0.0):
            continue
        seen.add(z)
        npts = rng.choice((1, 2, 3))
        pts = sorted({round(rng.uniform(0.2, 5.0), 3) for _ in range(npts)})
        cands.append({"z": list(z), "points": pts})
    with _pool(1) as pool:
        results = pool.map(_continuum_one, cands, chunksize=1)
    out = []
    for i, (op, exp) in enumerate(zip(cands, results)):
        kind = f"ok-{len(op['points'])}"
        if "refused" in exp:
            kind = "timeout" if exp["refused"] == "OpTimeout" else "refused"
        out.append({"id": f"c{i:03d}", "kind": kind, **op, "expect": exp})
    return group_continuum(out)


def _cost(unit: list[dict]) -> float:
    return sum(op["expect"]["seed_s"] for op in unit)


def balance(kinds: dict[str, list[list[dict]]], per_round: dict[str, int], seed: int) -> list[float]:
    """Deal units (lists of ops) into rounds that take ``per_round[kind]``
    units of each kind, so that the rounds cost nearly the same at the
    reference and any one round is a fair run.  Units left over become
    spares, which no run schedules.  Returns the rounds' reference costs."""
    rng = random.Random(seed)
    n_rounds = min(len(kinds[k]) // c for k, c in per_round.items() if c)
    for units in kinds.values():
        rng.shuffle(units)

    def totals():
        return [sum(_cost(u) for k, c in per_round.items() for u in kinds[k][i * c:(i + 1) * c])
                for i in range(n_rounds)]

    best = max(totals()) - min(totals())
    for _ in range(20000):
        k = rng.choice([k for k, c in per_round.items() if c])
        a, b = rng.randrange(n_rounds * per_round[k]), rng.randrange(len(kinds[k]))
        kinds[k][a], kinds[k][b] = kinds[k][b], kinds[k][a]
        t = totals()
        if max(t) - min(t) <= best:
            best = max(t) - min(t)
        else:
            kinds[k][a], kinds[k][b] = kinds[k][b], kinds[k][a]
    for k, units in kinds.items():
        c = per_round.get(k, 0)
        for j, unit in enumerate(units):
            for op in unit:
                op["stratum"], op["group"] = ("round", f"r{j // c:02d}") if j < n_rounds * c else ("spare", op["id"])
    return sorted(totals())


def group_continuum(out: list[dict]) -> dict:
    kinds = {k: [[op] for op in out if op["kind"] == k] for k in ("ok-1", "ok-2", "ok-3", "refused", "timeout")}
    ok = sum(len(kinds[k]) for k in ("ok-1", "ok-2", "ok-3"))
    # one accepted op of each size per round, failing ones in the pool's ratio
    per_round = {"ok-1": 1, "ok-2": 1, "ok-3": 1}
    per_round.update({k: round(3 * len(kinds[k]) / ok) for k in ("refused", "timeout")})
    costs = balance(kinds, per_round, 20120216)
    out.sort(key=lambda op: op["id"])
    return {"round": {"round": 1}, "per_round": per_round, "round_seed_s": costs,
            "pool_refused_share": 1 - ok / len(out), "ops": out}


def build_lattice() -> dict:
    from zmeasures.correlations import lattice_point_for

    rng = random.Random(20120214)
    cands, seen = [], set()
    for stratum, per_round in LATTICE_ROUND.items():
        made = 0
        while made < per_round * LATTICE_ROUNDS:
            xi = round(rng.uniform(0.5, 0.9), 3)
            if stratum.startswith("generic"):
                z = (round(rng.uniform(0.05, 1.5), 4), round(rng.uniform(-1.5, 1.5), 4))
                npts = int(stratum[-1])
            else:
                z = (float(stratum.split("-")[1]), 0.0)
                npts = 1
            pts = sorted({lattice_point_for(Fraction(str(round(rng.uniform(0.2, 2.5), 2))), Fraction(str(xi)))
                          for _ in range(npts)})
            key = (z, xi)
            if len(pts) != npts or key in seen:
                continue
            seen.add(key)
            cands.append({"stratum": stratum, "z": list(z), "xi": xi,
                          "points": [str(p) for p in pts], "nmax": LATTICE_NMAX[stratum]})
            made += 1
    with _pool(None) as pool:
        results = pool.map(ops.run_lattice, cands, chunksize=4)
    out = [{"id": f"l{i:03d}", **op, "expect": exp} for i, (op, exp) in enumerate(zip(cands, results))]
    return {"round": LATTICE_ROUND, "pool_refused_share": 0.0, "ops": out}


def _ladder_candidate(rng) -> list[dict]:
    while True:
        r, phi = math.sqrt(rng.uniform(0.05, 1.0)), rng.uniform(-math.pi / 2, math.pi / 2)
        z = (round(r * math.cos(phi), 4), round(r * math.sin(phi), 4))
        if z[0] >= 0.05 and abs(z[1]) >= 0.05 and abs(complex(*z)) <= 1.0:
            break
    u1 = round(rng.uniform(0.4, 1.0), 2)
    u2 = round(u1 + rng.uniform(0.6, 1.2), 2)
    group = []
    # every u-set twice, once with a 3-rung and once with a 4-rung ladder
    for rungs, us in [(3, [u1]), (3, [u2]), (3, [u1, u2]), (4, [u1]), (4, [u2]), (4, [u1, u2])]:
        xis = sorted({round(rng.uniform(0.5, 0.85), 3) for _ in range(rungs)})
        while len(xis) < rungs:
            xis = sorted(set(xis) | {round(rng.uniform(0.5, 0.85), 3)})
        group.append({"z": list(z), "u": us, "xi": xis, "nmax": LADDER_NMAX})
    return group


def build_ladder() -> dict:
    rng = random.Random(20120215)
    groups, tried, rejected, seen = [], 0, 0, set()
    while len(groups) < LADDER_GROUPS:
        batch = []
        while len(batch) < LADDER_GROUPS - len(groups) + 2:
            g = _ladder_candidate(rng)
            if tuple(g[0]["z"]) not in seen:
                seen.add(tuple(g[0]["z"]))
                batch.append(g)
        with _pool(1) as pool:
            results = pool.map(_ladder_group, batch, chunksize=1)
        for g, res in zip(batch, results):
            tried += 1
            rejected += res is None
            if res is not None and len(groups) < LADDER_GROUPS:
                gid = f"z{len(groups):02d}"
                groups.append([{"id": f"{gid}.{i}", "kind": "z", **op, "expect": exp}
                               for i, (op, exp) in enumerate(zip(g, res))])
    return group_ladder(groups, rejected / tried)


def group_ladder(groups: list[list[dict]], refused_share: float) -> dict:
    # two z per round: one z's cost varies too much to make a steady run
    costs = balance({"z": groups}, {"z": 2}, 20120217)
    return {"round": {"round": 1}, "per_round": {"z": 2}, "round_seed_s": costs,
            "pool_refused_share": refused_share, "ops": [op for g in groups for op in g]}


def build_cli() -> dict:
    import subprocess

    env = ops.child_env(ROOT)
    out = []
    for name, argv in ops.CLI_COMMANDS:
        proc = subprocess.run(ops.python_cli_prefix() + argv, env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=True)
        out.append({"id": name, "stratum": "readme", "argv": argv,
                    "expect": {"returncode": 0, "stdout": proc.stdout.decode()}})
    return {"round": {"readme": len(out)}, "reuse": True, "pool_refused_share": 0.0, "ops": out}


POOLS = {"continuum": build_continuum, "lattice": build_lattice, "ladder": build_ladder, "cli": build_cli}


def main(names):
    env = ops.child_env(ROOT)
    os.environ.update(env)
    os.environ.pop("ZMEASURES_WORKERS", None)
    for name in names or POOLS:
        ref = POOLS[name]()
        ref = {"workload": name, "machine": machine(), **ref}
        path = os.path.join(HERE, "reference", f"{name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(ref, f, indent=1)
            f.write("\n")
        print(f"{name}: {len(ref['ops'])} ops, refused share {ref['pool_refused_share']:.3f}, "
              f"round {ref['round']}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
