"""Command-line interface: every computation behind one batch binary.

Complex parameters are written "re,im" (e.g. --z 0.3,0.4); half-integers
either as exact fractions "19/2" or decimals ending in .5; --theta as an
exact fraction or decimal ("1/3", "0.3" = 3/10) in every command.  Output is
CSV (default) or JSON via --format, to stdout or --out.  Exit codes:
0 success, 2 parameter/usage error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .pairings import cycle_count, enumerate_matchings, t_measure
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


def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output path (default stdout)")


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


def _cmd_pairings(args) -> list[dict]:
    rows = []
    for x in enumerate_matchings(args.n):
        rows.append(
            {
                "pairs": " ".join(f"{a}:{b}" for a, b in x.pairs),
                "circles": cycle_count(x),
                "t_measure": repr(t_measure(x, args.t)),
            }
        )
    return rows


def _parse_int_tuple(s: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in s.split(","))
    except ValueError:
        raise DomainError(f"{what} must be comma-separated integers, got {s!r}") from None


def _cmd_gelfand(args) -> list[dict]:
    cycles = []
    for c in args.g.split(";"):
        c = c.strip()
        if c:
            cycles.append(_parse_int_tuple(c, "--g cycle"))
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
    m = args.m
    rows = []
    for x in args.x:
        v = whittaker_W(args.k, m, x)
        rows.append(
            {
                "x": repr(x),
                "W": repr(v),
                "W_deriv": repr(whittaker_W_deriv(args.k, m, x)),
            }
        )
    return rows


def _cmd_kernel(args) -> list[dict]:
    params = KernelParams(args.z)
    rows = []
    for x in args.x:
        for y in args.y:
            if args.which == "scalar":
                rows.append(
                    {
                        "x": repr(x),
                        "y": repr(y),
                        "K": repr(scalar_whittaker_kernel(x, y, params)),
                        "error_bound": "",
                    }
                )
            else:
                v = matrix_kernel(x, y, params)
                rows.append(
                    {
                        "x": repr(x),
                        "y": repr(y),
                        "S": repr(v.s),
                        "S_y": repr(v.s_y),
                        "S_x": repr(v.s_x),
                        "S_xy": repr(v.s_xy),
                        "error_bound": repr(v.error),
                    }
                )
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zmeasures",
        description="z-measures on partitions, matchings, Whittaker kernels, "
        "and Pfaffian correlation functions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("partitions", help="enumerate partitions with (A|B) coordinates")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--theta", type=_as_fraction, default=HALF)
    sp.add_argument("--max-rows", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_partitions)

    sp = sub.add_parser("zmeasure", help="z-measure table for partitions of n")
    sp.add_argument("--z", type=_parse_complex, required=True)
    sp.add_argument("--theta", type=_as_fraction, default=HALF)
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_zmeasure)

    sp = sub.add_parser("mixed", help="mixed z-measure table up to size n")
    sp.add_argument("--z", type=_parse_complex, required=True)
    sp.add_argument("--theta", type=_as_fraction, default=HALF)
    sp.add_argument("--xi", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_mixed)

    sp = sub.add_parser("lattice-corr", help="lattice correlation function at half-integer points")
    sp.add_argument("--z", type=_parse_complex, required=True)
    sp.add_argument("--theta", type=_as_fraction, default=HALF)
    sp.add_argument("--xi", type=float, required=True)
    sp.add_argument("--x", nargs="+", required=True)
    sp.add_argument("--nmax", type=int, default=60)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_lattice_corr)

    sp = sub.add_parser("pairings", help="perfect matchings with circle counts and t-measures")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t", type=float, default=1.0)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_pairings)

    sp = sub.add_parser("gelfand", help="coset types and spherical functions")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument(
        "--g",
        required=True,
        help="permutation of 1..2n as semicolon-separated cycles, e.g. '1,3,5;6,7;2,4,8'",
    )
    sp.add_argument("--z", type=_parse_complex, default=None)
    sp.add_argument("--lam", default=None, help="partition for a zonal value, e.g. '2,1'")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_gelfand)

    sp = sub.add_parser("whittaker", help="Whittaker function values")
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--m", type=_parse_complex, required=True)
    sp.add_argument("--x", type=_parse_float_list, required=True)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_whittaker)

    sp = sub.add_parser("kernel", help="scalar or matrix Whittaker kernel values")
    sp.add_argument("which", choices=("scalar", "matrix"))
    sp.add_argument("--z", type=_parse_complex, required=True)
    sp.add_argument("--x", type=_parse_float_list, required=True)
    sp.add_argument("--y", type=_parse_float_list, required=True)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_kernel)

    sp = sub.add_parser("corr", help="continuum correlation function (Pfaffian)")
    sp.add_argument("--z", type=_parse_complex, required=True)
    sp.add_argument("--u", type=_parse_float_list, required=True)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_corr)

    sp = sub.add_parser("verify-limit", help="scaling-limit ladder report")
    sp.add_argument("--z", type=_parse_complex, required=True)
    sp.add_argument("--u", type=_parse_float_list, required=True)
    sp.add_argument("--xi", required=True, help="comma-separated ladder, e.g. 0.8,0.85,0.9")
    sp.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_verify_limit)

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
