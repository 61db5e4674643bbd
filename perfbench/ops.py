"""One operation of each workload: how to run it and how to check its result.

Library entry points are looked up on their modules at call time, so the
tracing wrappers in ``tracing.py`` see every call the benchmark makes.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

# README command lines, in README order; names are the per-layer metric stems
CLI_COMMANDS = [
    ("zmeasure", ["zmeasure", "--z", "1,0", "--theta", "0.5", "--n", "2"]),
    ("partitions", ["partitions", "--n", "5", "--theta", "0.5"]),
    ("pairings", ["pairings", "--n", "2", "--t", "1.0"]),
    ("gelfand", ["gelfand", "--n", "4", "--g", "1,3,5;6,7;2,4,8"]),
    ("whittaker", ["whittaker", "--k", "1.0", "--m", "0.5,0", "--x", "2.0"]),
    ("kernel_matrix", ["kernel", "matrix", "--z", "0.3,0.4", "--x", "1.0", "--y", "2.0"]),
    ("lattice-corr", ["lattice-corr", "--z", "0.5,0", "--xi", "0.5", "--x", "3/2", "--nmax", "30"]),
    ("corr", ["corr", "--z", "0.3,0.4", "--u", "1.0,2.0"]),
    ("verify-limit", ["verify-limit", "--z", "0.5,0", "--u", "1.0", "--xi", "0.8,0.85,0.9", "--nmax", "80"]),
]

# Stated tolerances of the correctness gate.  Continuum values are compared
# with rtol plus a per-op atol stored with the reference: a first-order bound
# on the Pfaffian for kernel entries perturbed by 1e-8, a hundred times the
# kernel's quadrature tolerance.  Lattice sums only reorder float additions
# under a correct change, so they get a tight relative tolerance.
CONTINUUM_RTOL = 1e-6
ENTRY_ERROR = 1e-8
LATTICE_RTOL = 1e-9
LATTICE_ATOL = 1e-15

# An op still running after this long is stopped and counted as failed, so
# that one pathological input cannot push a run past its time limit.
OP_TIMEOUT_S = 30.0


class OpTimeout(BaseException):
    """An op ran past OP_TIMEOUT_S.  A BaseException, so that no handler in
    the library that catches Exception can swallow it."""


@contextmanager
def time_limit(seconds: float = OP_TIMEOUT_S):
    def fire(signum, frame):
        raise OpTimeout(f"op still running after {seconds:g} s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def child_env(root: str) -> dict:
    """Environment of every benchmark process: the checkout's sources first,
    one worker, BLAS pools at one thread."""
    env = dict(os.environ)
    env.pop("ZMEASURES_WORKERS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def continuum_atol(npts: int, max_entry: float) -> float:
    """|dPf| <= n (2n-1)!! max|A|^(n-1) * ENTRY_ERROR for a 2n x 2n matrix."""
    double_factorial = math.prod(range(1, 2 * npts, 2))
    return ENTRY_ERROR * npts * double_factorial * max_entry ** (npts - 1)


def run_continuum(op: dict) -> dict:
    from zmeasures import correlations

    return {"value": float(correlations.continuum_correlation(op["points"], complex(*op["z"])))}


def run_lattice(op: dict) -> dict:
    from zmeasures import measures

    p = measures.ZParams(complex(*op["z"]), 0.5, op["xi"])
    rep = measures.lattice_correlation([Fraction(x) for x in op["points"]], p, op["nmax"])
    return {"value": rep.value, "bound": rep.truncation_bound}


def run_ladder(op: dict) -> dict:
    from zmeasures import correlations

    rep = correlations.verify_limit(op["u"], complex(*op["z"]), op["xi"], n_max=op["nmax"])
    return {
        "continuum": rep.continuum,
        "rescaled": list(rep.rescaled_lattice),
        "bounds": list(rep.rescaled_bounds),
    }


def run_cli(op: dict, argv_prefix: list[str], env: dict) -> dict:
    proc = subprocess.run(argv_prefix + op["argv"], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    return {"returncode": proc.returncode, "stdout": proc.stdout.decode("utf-8", "replace")}


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b) + atol


def check(workload: str, op: dict, got: dict) -> str | None:
    """None when ``got`` matches the stored reference, else a reason.

    Ops the reference refused have no stored value: any finite result
    passes them (the caller records it as unverified)."""
    exp = op["expect"]
    if workload == "cli":
        if got["returncode"] != exp["returncode"]:
            return f"exit code {got['returncode']} != {exp['returncode']}"
        return None if got["stdout"] == exp["stdout"] else "stdout differs"
    if "refused" in exp:
        values = [got.get("value", got.get("continuum"))] + got.get("rescaled", [])
        return None if all(math.isfinite(v) for v in values) else "non-finite value"
    if workload == "continuum":
        ok = _close(got["value"], exp["value"], CONTINUUM_RTOL, exp["atol"])
        return None if ok else f"value {got['value']!r} != {exp['value']!r}"
    if workload == "lattice":
        for key in ("value", "bound"):
            if not _close(got[key], exp[key], LATTICE_RTOL, LATTICE_ATOL):
                return f"{key} {got[key]!r} != {exp[key]!r}"
        return None
    if not _close(got["continuum"], exp["continuum"], CONTINUUM_RTOL, exp["atol"]):
        return f"continuum {got['continuum']!r} != {exp['continuum']!r}"
    for key in ("rescaled", "bounds"):
        if len(got[key]) != len(exp[key]):
            return f"{key} has {len(got[key])} rungs, expected {len(exp[key])}"
        for g, e in zip(got[key], exp[key]):
            if not _close(g, e, LATTICE_RTOL, LATTICE_ATOL):
                return f"{key} {g!r} != {e!r}"
    return None


def python_cli_prefix() -> list[str]:
    return [sys.executable, "-m", "zmeasures.cli"]
