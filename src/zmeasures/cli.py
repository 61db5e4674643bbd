"""Command-line interface: every computation behind one batch binary.

The subcommands are declared once, in ``_COMMANDS``: each one's name, help,
handler and arguments, in the order usage and error text print them.  The
flags several commands share (--z, --theta, --n, --xi, --u) are specified
once each, and every command also takes --format and --out.

Complex parameters are written "re,im" (e.g. --z 0.3,0.4); half-integers
either as exact fractions "19/2" or decimals ending in .5; --theta as an
exact fraction or decimal ("1/3", "0.3" = 3/10) in every command.  Output is
CSV (default) or JSON via --format, to stdout or --out.  Exit codes:
0 success, 2 parameter/usage error, 3 numerical error.  A handler runs every
check that can refuse before it returns, so a refused command writes no
byte; rows that cannot fail may then be formed as they are written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import sys
from typing import Iterable, Iterator

from .correlations import continuum_correlation  # noqa: F401 (perfbench/tracing.py wraps it here)
from .correlations import DEFAULT_NMAX, verify_limit
from .errors import DomainError, NumericalError, ZMeasuresError
from .gelfand import (
    coset_type,
    from_cycles,
    spherical_restriction,
    zonal_spherical,
)
from .kernels import KernelParams, matrix_kernel, scalar_whittaker_kernel
from .measures import (
    ZParams,
    check_table_size,
    lattice_correlation,
    negative_binomial_weight,
    z_measure_table,
)
from .pairings import Matching, _matchings, cycle_count, t_measure
from .partitions import (
    HALF,
    YoungDiagram,
    _as_fraction,
    frobenius_coordinates,
    half_integer,
    iter_partition_tuples,
)
from .pfaffian import assemble, pfaffian
from .specfun import whittaker_W, whittaker_W_deriv


def _parse_complex(s: str) -> complex:
    try:
        if "," in s:
            re_s, im_s = s.split(",")
            return complex(float(re_s), float(im_s))
        return complex(float(s), 0.0)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"expected re,im — got {s!r}") from e


def _parse_float_list(s: str) -> list[float]:
    return [float(v) for v in s.split(",")]


def _emit(rows: Iterable[dict], fmt: str, out: str | None):
    """rows: flat dicts with identical keys, written as CSV line by line as
    they are formatted, or as one JSON array."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as f:
        if fmt == "json":
            f.write(json.dumps(list(rows), indent=2, default=str) + "\n")
            return
        rows = iter(rows)
        first = next(rows, None)
        if first is not None:
            keys = list(first)
            f.write(",".join(keys) + "\n")
            f.writelines(",".join(str(r[k]) for k in keys) + "\n" for r in itertools.chain([first], rows))


def _partition_row(parts: tuple[int, ...], theta) -> dict:
    cfg = frobenius_coordinates(YoungDiagram(parts), theta)
    return {
        "partition": " ".join(map(str, parts)),
        "rows": len(parts),
        "negatives": " ".join(str(v) for v in cfg.negatives),
        "positives": " ".join(str(v) for v in cfg.positives),
    }


def _cmd_partitions(args) -> Iterator[dict]:
    return (_partition_row(parts, args.theta) for parts in iter_partition_tuples(args.n, max_rows=args.max_rows))


def _labels(parts) -> Iterator[str]:
    """Each zero-padded row of ``parts`` as a partition is printed."""
    return (" ".join(str(v) for v in row.tolist() if v) for row in parts)


def _cmd_zmeasure(args) -> Iterator[dict]:
    parts, measures = z_measure_table(args.n, ZParams(args.z, args.theta))
    measures = measures.tolist()
    total = 0.0
    for m in measures:
        total += m
    rows = ({"partition": lam, "measure": repr(m)} for lam, m in zip(_labels(parts), measures))
    return itertools.chain(rows, [{"partition": "TOTAL", "measure": repr(total)}])


def _cmd_mixed(args) -> Iterator[dict]:
    p = ZParams(args.z, args.theta, args.xi)
    check_table_size(args.n)  # the largest size, before the first row
    # each size is weighed when its rows are written, after every refusal
    sizes = ((n, negative_binomial_weight(n, p), *z_measure_table(n, p)) for n in range(1, args.n + 1))
    # the weight times the measure, as mixed_z_measure forms it
    rows = (
        {"n": n, "partition": lam, "measure": repr(w * m if w else w)}
        for n, w, parts, measures in sizes
        for lam, m in zip(_labels(parts), measures.tolist())
    )
    return itertools.chain([{"n": 0, "partition": "-", "measure": repr(negative_binomial_weight(0, p))}], rows)


def _cmd_lattice_corr(args) -> list[dict]:
    xs = [half_integer(x) for x in args.x]
    p = ZParams(args.z, args.theta, args.xi)
    rep = lattice_correlation(xs, p, args.nmax)
    return [
        {
            "points": " ".join(str(x) for x in xs),
            "value": repr(rep.value),
            "truncation_bound": repr(rep.truncation_bound),
            "n_max_used": rep.n_max_used,
            "terms_summed": rep.terms_summed,
        }
    ]


def _cmd_pairings(args) -> Iterator[dict]:
    matchings = _matchings(args.n)  # n is checked here; the walk holds one matching at a time
    # the matching of the pairs (-i, i) has n circles, the most of any, so
    # for t > 1 its t^(circles-1) is the first to overflow, and every
    # matching shares the denominator: each t a row would refuse is refused
    # here, before the first byte
    t_measure(Matching.from_pairs((-i, i) for i in range(1, args.n + 1)), args.t)
    return (
        {
            "pairs": " ".join(f"{a}:{b}" for a, b in x.pairs),
            "circles": cycle_count(x),
            "t_measure": repr(t_measure(x, args.t)),
        }
        for x in matchings
    )


def _parse_int_tuple(s: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in s.split(","))
    except ValueError:
        raise DomainError(f"{what} must be comma-separated integers, got {s!r}") from None


def _cmd_gelfand(args) -> list[dict]:
    cycles = [_parse_int_tuple(c, "--g cycle") for c in map(str.strip, args.g.split(";")) if c]
    g = from_cycles(2 * args.n, cycles)
    ct = coset_type(g)
    rows = [{"quantity": "coset_type", "value": " ".join(map(str, ct.parts)), "error_bound": ""}]
    if args.z is not None:
        val = spherical_restriction(ZParams(args.z, 0.5), args.n, g)
        rows.append({"quantity": "spherical_restriction", "value": repr(val), "error_bound": ""})
    if args.lam:
        lam = _parse_int_tuple(args.lam, "--lam")
        w = zonal_spherical(lam, g)
        rows.append({"quantity": f"zonal[{args.lam}]", "value": str(w), "error_bound": "exact"})
    return rows


def _cmd_whittaker(args) -> list[dict]:
    k, m = args.k, args.m
    return [
        {"x": repr(x), "W": repr(whittaker_W(k, m, x)), "W_deriv": repr(whittaker_W_deriv(k, m, x))} for x in args.x
    ]


def _cmd_kernel(args) -> list[dict]:
    params = KernelParams(args.z)
    rows = []
    for x in args.x:
        for y in args.y:
            row = {"x": repr(x), "y": repr(y)}
            if args.which == "scalar":
                row.update(K=repr(scalar_whittaker_kernel(x, y, params)), error_bound="")
            else:
                v = matrix_kernel(x, y, params)
                row.update(S=repr(v.s), S_y=repr(v.s_y), S_x=repr(v.s_x), S_xy=repr(v.s_xy), error_bound=repr(v.error))
            rows.append(row)
    return rows


def _cmd_corr(args) -> list[dict]:
    # the mpmath reference route (matrix_kernel blocks), whose printed
    # values the documented output pins; continuum_correlation uses tables
    val = pfaffian(assemble(args.u, KernelParams(args.z)))
    return [
        {
            "points": " ".join(repr(u) for u in args.u),
            "value": repr(val),
        }
    ]


def _cmd_verify_limit(args) -> list[dict]:
    xis = args.xi.split(",")
    rep = verify_limit(args.u, args.z, xis, n_max=args.nmax)
    rows = []
    for i, xi in enumerate(rep.xi_ladder):
        rows.append(
            {
                "xi": repr(xi),
                "lattice_points": " ".join(str(p) for p in rep.lattice_points[i]),
                "rescaled_lattice": repr(rep.rescaled_lattice[i]),
                "truncation_bound": repr(rep.rescaled_bounds[i]),
                "continuum": repr(rep.continuum),
                "deviation": repr(rep.deviations[i]),
                "relative_deviation": repr(rep.relative_deviations[i]),
                "inconclusive": rep.inconclusive[i],
            }
        )
    return rows


def _arg(*flags, **kw) -> tuple[tuple[str, ...], dict]:
    """One ``add_argument`` call, as its flags and keywords."""
    return flags, kw


# a required comma-separated list of floats, under the flag it is given
_floats = functools.partial(_arg, type=_parse_float_list, required=True)
# the flags several commands share, each specified once; a command that
# reads one differently replaces keywords, as in _XI(type=None)
_Z = functools.partial(_arg, "--z", type=_parse_complex, required=True)
# exact in every command that takes it: "0.3" is 3/10, not the float nearest
_THETA = functools.partial(_arg, "--theta", type=_as_fraction, default=HALF)
_N = functools.partial(_arg, "--n", type=int, required=True)
_XI = functools.partial(_arg, "--xi", type=float, required=True)
_U = functools.partial(_floats, "--u")

# (name, help, handler, arguments): usage and error text follow this order
_COMMANDS = (
    ("partitions", "enumerate partitions with (A|B) coordinates", _cmd_partitions,
     [_N(), _THETA(), _arg("--max-rows", type=int, default=None)]),
    ("zmeasure", "z-measure table for partitions of n", _cmd_zmeasure,
     [_Z(), _THETA(), _N()]),
    ("mixed", "mixed z-measure table up to size n", _cmd_mixed,
     [_Z(), _THETA(), _XI(), _N()]),
    ("lattice-corr", "lattice correlation function at half-integer points", _cmd_lattice_corr,
     [_Z(), _THETA(), _XI(), _arg("--x", nargs="+", required=True), _arg("--nmax", type=int, default=60)]),
    ("pairings", "perfect matchings with circle counts and t-measures", _cmd_pairings,
     [_N(), _arg("--t", type=float, default=1.0)]),
    ("gelfand", "coset types and spherical functions", _cmd_gelfand,
     [_N(),
      _arg("--g", required=True, help="permutation of 1..2n as semicolon-separated cycles, e.g. '1,3,5;6,7;2,4,8'"),
      _Z(required=False),
      _arg("--lam", default=None, help="partition for a zonal value, e.g. '2,1'")]),
    ("whittaker", "Whittaker function values", _cmd_whittaker,
     [_arg("--k", type=float, required=True), _arg("--m", type=_parse_complex, required=True), _floats("--x")]),
    ("kernel", "scalar or matrix Whittaker kernel values", _cmd_kernel,
     [_arg("which", choices=("scalar", "matrix")), _Z(), _floats("--x"), _floats("--y")]),
    ("corr", "continuum correlation function (Pfaffian)", _cmd_corr,
     [_Z(), _U()]),
    ("verify-limit", "scaling-limit ladder report", _cmd_verify_limit,
     [_Z(), _U(), _XI(type=None, help="comma-separated ladder, e.g. 0.8,0.85,0.9"),
      _arg("--nmax", type=int, default=DEFAULT_NMAX)]),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zmeasures",
        description="z-measures on partitions, matchings, Whittaker kernels, "
        "and Pfaffian correlation functions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, summary, fn, arguments in _COMMANDS:
        sp = sub.add_parser(name, help=summary)
        for flags, kw in arguments:
            sp.add_argument(*flags, **kw)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.set_defaults(fn=fn)
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        # --theta is read by _as_fraction, whose ParameterError is reported
        # like any other refusal
        args = ap.parse_args(argv)
        rows = args.fn(args)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except ZMeasuresError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        _emit(rows, args.format, args.out)
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
