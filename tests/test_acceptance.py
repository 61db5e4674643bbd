"""Acceptance suite: ten criteria, one printed pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
Criterion 9 is implemented exactly as stated; at z = 0.5 the kernel
degenerates to zero on both sides of the comparison, so its
strictly-decreasing-deviation and bound-versus-value clauses cannot be
met by any implementation and the test fails honestly.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from zmeasures.correlations import verify_limit
from zmeasures.gelfand import (
    coset_type,
    from_cycles,
    hyperoctahedral_group,
    spherical_restriction,
    zonal_spherical,
)
from zmeasures.kernels import KernelParams, S, S_partials, matrix_kernel
from zmeasures.measures import ZParams, z_measure
from zmeasures.pairings import (
    Matching,
    act,
    cocycle,
    cycle_count,
    enumerate_matchings,
    extend_permutation,
    project,
    symbols,
    t_measure,
)
from zmeasures.partitions import YoungDiagram, iter_partition_tuples
from zmeasures.pfaffian import assemble, pfaffian
from zmeasures.specfun import whittaker_W, whittaker_W_deriv

from oracles import (
    all_permutations,
    identity_perm,
    pfaffian_expansion,
    whittaker_integral,
    z_measure_symmetry_check,
)


def report(num: int, ok: bool, text: str):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {text}")


def test_criterion_1_normalization():
    worst = 0.0
    for z in (0.5, 1.0, 1 + 1j, 0.3 + 0.7j):
        for th in (0.5, 1.0, 2.0):
            p = ZParams(z, th)
            for n in range(1, 31):
                total = math.fsum(
                    z_measure(YoungDiagram(parts), p)
                    for parts in iter_partition_tuples(n)
                )
                worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-10
    report(1, ok, f"z-measure normalization n<=30, 12 parameter sets (worst |sum-1| = {worst:.2e})")
    assert ok


def test_criterion_2_symmetry():
    worst = 0.0
    for z in (0.5, 1.0, 1 + 1j, 0.3 + 0.7j):
        p = ZParams(z, 0.5)
        for n in range(1, 21):
            for parts in iter_partition_tuples(n):
                lhs, rhs = z_measure_symmetry_check(YoungDiagram(parts), p)
                scale = max(lhs, rhs)
                if scale > 0:
                    worst = max(worst, abs(lhs - rhs) / scale)
    ok = worst <= 1e-12
    report(2, ok, f"theta 1/2 <-> 2 symmetry, |lam| <= 20 (worst rel = {worst:.2e})")
    assert ok


def test_criterion_3_hand_values():
    p = ZParams(1, 0.5)
    v2 = z_measure(YoungDiagram((2,)), p)
    v11 = z_measure(YoungDiagram((1, 1)), p)
    vd = z_measure(YoungDiagram((1, 1)), ZParams(-2, 2.0))
    ok = (
        abs(v2 - 8 / 9) < 1e-13
        and abs(v11 - 1 / 9) < 1e-13
        and abs(vd - 8 / 9) < 1e-13
    )
    report(3, ok, f"hand values 8/9, 1/9 and transposed dual (got {v2:.12f}, {v11:.12f}, {vd:.12f})")
    assert ok


def test_criterion_4_t_measures():
    ok = True
    detail = []
    # normalization
    worst = 0.0
    for n in range(1, 8):
        xs = enumerate_matchings(n)
        for t in (0.3, 1.0, 2.0, 5.0):
            worst = max(worst, abs(math.fsum(t_measure(x, t) for x in xs) - 1.0))
    ok &= worst <= 1e-12
    detail.append(f"normalization worst {worst:.1e}")
    # projection invariance by exhaustive preimage sums, n <= 5
    proj_worst = 0.0
    for n in range(1, 6):
        pushed: dict[Matching, float] = {}
        for t in (1.7,):
            for xp in enumerate_matchings(n + 1):
                key = project(xp)
                pushed[key] = pushed.get(key, 0.0) + t_measure(xp, t)
            for x in enumerate_matchings(n):
                proj_worst = max(proj_worst, abs(pushed[x] - t_measure(x, t)))
    ok &= proj_worst <= 1e-12
    detail.append(f"projection worst {proj_worst:.1e}")
    # cocycle identity and level stability, exhaustive n <= 3
    coc_ok = True
    for n in (1, 2, 3):
        syms = symbols(n)
        xs = enumerate_matchings(n)
        x_index = {x: i for i, x in enumerate(xs)}
        perms = [dict(zip(syms, img)) for img in itertools.permutations(syms)]
        cyc = [cycle_count(x) for x in xs]
        table = [[x_index[act(x, g)] for g in perms] for x in xs]
        perm_index = {tuple(g[s] for s in syms): i for i, g in enumerate(perms)}
        for i1, g1 in enumerate(perms):
            for i2, g2 in enumerate(perms):
                i12 = perm_index[tuple(g2[g1[s]] for s in syms)]
                for xi_, x in enumerate(xs):
                    lhs = cyc[table[xi_][i12]] - cyc[xi_]
                    mid = table[xi_][i1]
                    rhs = (cyc[table[mid][i2]] - cyc[mid]) + (cyc[mid] - cyc[xi_])
                    if lhs != rhs:
                        coc_ok = False
        # level stability against every preimage
        level_up = enumerate_matchings(n + 1)
        for g in perms:
            for x in xs:
                base = cocycle(x, g, support=n)
                for xp in level_up:
                    if project(xp) == x:
                        if cocycle(xp, g, support=n) != base:
                            coc_ok = False
    ok &= coc_ok
    detail.append(f"cocycle exhaustive n<=3 {'ok' if coc_ok else 'violated'}")
    # Fig-style 12-symbol element
    fig = Matching.from_pairs([(1, 3), (-2, 5), (2, -1), (-3, -5), (4, -6), (-4, 6)])
    fig_ok = cycle_count(fig) == 2
    ok &= fig_ok
    detail.append(f"12-symbol element circles = {cycle_count(fig)}")
    report(4, ok, "t-measure suite (" + "; ".join(detail) + ")")
    assert ok


def test_criterion_5_gelfand():
    ok = True
    detail = []
    g = from_cycles(8, [(1, 3, 5), (6, 7), (2, 4, 8)])
    ct = coset_type(g).parts
    ok &= ct == (3, 1)
    detail.append(f"worked coset type = {ct}")
    # w^lam(e) = 1 and double-coset constancy (exact rationals)
    norm_ok = True
    for n in (1, 2, 3):
        for parts in iter_partition_tuples(n):
            if zonal_spherical(parts, identity_perm(2 * n)) != 1:
                norm_ok = False
    const_ok = True
    for n in (1, 2):
        H = hyperoctahedral_group(n)
        for parts in iter_partition_tuples(n):
            for gg in all_permutations(2 * n):
                base = zonal_spherical(parts, gg)
                for h1 in H[: 2 * n]:
                    for h2 in H[: 2 * n]:
                        from zmeasures.gelfand import compose

                        if zonal_spherical(parts, compose(h1, compose(gg, h2))) != base:
                            const_ok = False
    ok &= norm_ok and const_ok
    detail.append(f"normalization {'ok' if norm_ok else 'bad'}, double cosets {'ok' if const_ok else 'bad'}")
    # restriction coherence for every g in S(2n), n <= 3
    coh_worst = 0.0
    for z in (0.5, 1 + 1j):
        for n in (1, 2, 3):
            for g_small in all_permutations(2 * n):
                g_big = tuple(g_small) + (2 * n, 2 * n + 1)
                a = spherical_restriction(ZParams(z, 0.5), n, g_small)
                b = spherical_restriction(ZParams(z, 0.5), n + 1, g_big)
                coh_worst = max(coh_worst, abs(a - b))
    ok &= coh_worst <= 1e-10
    detail.append(f"restriction coherence worst {coh_worst:.1e}")
    report(5, ok, "Gelfand suite (" + "; ".join(detail) + ")")
    assert ok


def test_criterion_6_whittaker():
    ok = True
    detail = []
    worst = 0.0
    for m in (0.0, 0.5, 1.3):
        for x in (0.01, 0.5, 1.0, 7.0, 45.0):
            ref = x ** (m + 0.5) * math.exp(-x / 2)
            worst = max(worst, abs(whittaker_W(m + 0.5, m, x) - ref) / ref)
    ok &= worst <= 1e-10
    detail.append(f"closed form worst {worst:.1e}")
    sym_worst = 0.0
    for x in (0.5, 5.0, 50.0):
        a = whittaker_W(-1.2, 0.7, x)
        sym_worst = max(sym_worst, abs(whittaker_W(-1.2, -0.7, x) - a) / abs(a))
    ok &= sym_worst <= 1e-12
    detail.append(f"m-symmetry worst {sym_worst:.1e}")
    cross_worst = 0.0
    for k, m in ((-1.5, 0.0), (-0.4, 0.25), (-0.6, 0.8j), (0.3, 1.0)):
        for x in (0.05, 1.0, 20.0, 60.0):
            d = whittaker_W(k, m, x)
            i = whittaker_integral(k, m, x)
            cross_worst = max(cross_worst, abs(d - i) / max(abs(d), 1e-300))
    ok &= cross_worst <= 1e-8
    detail.append(f"cross-method worst {cross_worst:.1e}")
    der_worst = 0.0
    for k, m, x in [(-1.5, 0.0, 2.0), (0.5, 0.25, 1.0), (-0.6, 0.8j, 3.0)]:
        h = 1e-4 * max(1.0, x)

        def fd(hh):
            return (whittaker_W(k, m, x + hh) - whittaker_W(k, m, x - hh)) / (2 * hh)

        rich = (4 * fd(h / 2) - fd(h)) / 3
        der_worst = max(der_worst, abs(whittaker_W_deriv(k, m, x) - rich) / abs(rich))
    ok &= der_worst <= 1e-5
    detail.append(f"derivative worst {der_worst:.1e}")
    report(6, ok, "Whittaker suite (" + "; ".join(detail) + ")")
    assert ok


def test_criterion_7_kernel():
    ok = True
    detail = []
    grid = [0.4, 0.9, 1.5, 2.6, 4.0]
    anti_worst = 0.0
    for z in (0.5, 0.3 + 0.4j):
        p = KernelParams(z)
        for x in grid:
            for y in grid:
                anti_worst = max(anti_worst, abs(S(x, y, p) + S(y, x, p)))
    ok &= anti_worst <= 1e-8
    detail.append(f"S antisymmetry worst {anti_worst:.1e}")
    diag_worst = 0.0
    for x in (0.7, 1.5, 3.0):
        sx, sy, sxy = S_partials(x, x, KernelParams(0.3 + 0.4j))
        diag_worst = max(diag_worst, abs(sy + sx), abs(sxy))
    ok &= diag_worst <= 1e-6
    detail.append(f"diagonal identities worst {diag_worst:.1e}")
    # realness: entries are produced through a real-only pipeline whose
    # imaginary residues are checked at the Whittaker level (1e-10)
    vals = matrix_kernel(1.2, 2.3, KernelParams(0.3 + 0.4j))
    real_ok = all(
        isinstance(v, float) for v in (vals.s, vals.s_x, vals.s_y, vals.s_xy)
    )
    ok &= real_ok
    detail.append("entries real")
    m = assemble([0.8, 1.7, 3.1], KernelParams(0.3 + 0.4j))
    # from_array would reject violations; measure on the raw blocks
    raw = np.zeros((6, 6))
    pts = [0.8, 1.7, 3.1]
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            raw[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = matrix_kernel(
                x, y, KernelParams(0.3 + 0.4j)
            ).as_array()
    violation = np.abs(raw + raw.T).max()
    ok &= violation <= 1e-8
    detail.append(f"assembled antisymmetry violation {violation:.1e}")
    report(7, ok, "kernel suite (" + "; ".join(detail) + ")")
    assert ok


def test_criterion_8_pfaffian():
    rng = np.random.default_rng(42)
    ok = True
    detail = []
    sq_worst = 0.0
    for d in range(2, 13, 2):
        for _ in range(5):
            a = rng.standard_normal((d, d))
            a = a - a.T
            pf = pfaffian(a)
            det = np.linalg.det(a)
            sq_worst = max(sq_worst, abs(pf * pf - det) / abs(det))
    ok &= sq_worst <= 1e-10
    detail.append(f"Pf^2 = det worst {sq_worst:.1e}")
    a = rng.standard_normal((4, 4))
    a = a - a.T
    ref = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
    closed_ok = abs(pfaffian(a) - ref) <= 1e-12 * abs(ref)
    ok &= closed_ok
    detail.append("4x4 closed form")
    cov_ok = True
    for d in (4, 6, 8):
        a = rng.standard_normal((d, d))
        a = a - a.T
        perm = rng.permutation(d)
        P = np.eye(d)[:, perm]
        for i in range(d):
            if rng.random() < 0.5:
                P[:, i] *= -1.0
        det_p = round(float(np.linalg.det(P)))
        if abs(pfaffian(P.T @ a @ P) - det_p * pfaffian(a)) > 1e-10:
            cov_ok = False
    ok &= cov_ok
    detail.append("permutation-sign covariance")
    report(8, ok, "Pfaffian suite (" + "; ".join(detail) + ")")
    assert ok


def test_criterion_9_scaling_limit():
    """z = 0.5 makes both the continuum kernel and every lattice
    correlation away from the point 3/2 identically zero, so the ladder
    deviations are all exactly 0: a constant, not strictly decreasing,
    sequence, and the certified truncation bound (a positive tail mass)
    can never be <= 1% of the zero lattice value.  The comparison is
    nevertheless run exactly as specified."""
    rep1 = verify_limit([1.0], 0.5, ["0.8", "0.85", "0.9"], n_max=80)
    rep2 = verify_limit([0.6, 1.4], 0.5, ["0.9"], n_max=80)
    devs = rep1.deviations
    decreasing = devs[0] > devs[1] > devs[2]
    final_ok = rep1.relative_deviations[-1] <= 0.10
    bound_ok = rep1.rescaled_bounds[-1] <= 0.01 * abs(rep1.rescaled_lattice[-1])
    two_ok = rep2.relative_deviations[0] <= 0.15
    ok = decreasing and final_ok and bound_ok and two_ok
    report(
        9,
        ok,
        "scaling limit at z=0.5 "
        f"(deviations {devs}, strictly decreasing: {decreasing}; "
        f"final rel dev {rep1.relative_deviations[-1]:.3g} <= 10%: {final_ok}; "
        f"bound {rep1.rescaled_bounds[-1]:.3g} <= 1% of value "
        f"{rep1.rescaled_lattice[-1]:.3g}: {bound_ok}; "
        f"two-point rel dev {rep2.relative_deviations[0]:.3g} <= 15%: {two_ok})",
    )
    assert decreasing, (
        "degenerate z=0.5: both sides vanish identically, deviations are all "
        "exactly zero and cannot decrease strictly"
    )
    assert final_ok
    assert bound_ok
    assert two_ok


def test_criterion_10_determinism(capsys):
    from zmeasures.cli import run

    argv = [
        "lattice-corr",
        "--z", "1,1",
        "--xi", "0.6",
        "--x", "3/2",
        "--nmax", "15",
    ]
    outputs = []
    for _ in range(6):
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
    ok = len(set(outputs)) == 1
    with capsys.disabled():
        report(10, ok, "CLI output byte-identical across repeats")
    assert ok
