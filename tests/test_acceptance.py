"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line
per criterion.  Criterion 8(d) (an explicit negative direction of the pasted
quadratic on the plane y = 0) is expected to fail: the engine's consistently
derived coefficient field makes the quadratic nonnegative on the modeled
variation class; ROADMAP.md items 1-2 give the blocking analysis.
"""

import numpy as np
import pytest

from subriemann import expr as ex
from subriemann import catalog as cat
from subriemann.curves import (CharState, integrate_characteristic,
                               rt_characteristic_closed_form,
                               jacobi_vertical_ode, jacobi_from_curve_family)
from subriemann.structures import torsion_in_rotated_frame
from subriemann.surfaces import (GraphSurface, area_graph,
                                 mean_curvature_graph, rt_minimal_residual,
                                 singular_set_detect,
                                 stationarity_at_singular_curve)
from subriemann.variation import (CharPatch, ParamPatch, VariationField,
                                  index_form, second_variation_numeric,
                                  first_variation_formula,
                                  first_variation_numeric,
                                  stability_sign_field)
from subriemann.reproduce import RT_REPORT_REGIONS, helicoid_q_samples, plane_q_search

from conftest import random_cubic, mc_area
from test_surfaces import _conti_residuals, _divergence_residuals


def report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


# ---------------------------------------------------------------------------


def test_criterion_1_structure_constants(rt, heis):
    p = (0.3, -0.2, 0.7)
    tau_rt = rt.tau_matrix(p)
    ok = (abs(rt.webster_curvature_tensor(p) - 0.5) <= 1e-12
          and np.max(np.abs(tau_rt - [[0, 0.5], [0.5, 0]])) <= 1e-12
          and abs(heis.c1 - 2.0) <= 1e-12
          and abs(heis.webster_curvature_tensor(p)) <= 1e-12
          and np.max(np.abs(heis.tau_matrix(p))) <= 1e-12)
    assert report("criterion 1 (structure constants)", ok,
                  f"RT W = {rt.webster_curvature_tensor(p):.17g}, "
                  f"Heisenberg c1 = {heis.c1:.17g}")


def test_criterion_2_classifier_table():
    reps = {(0.0, 0.0): "Heisenberg", (1.0, -2.0): "SU(2)", (2.0, 0.0): "E~(2)",
            (-2.0, 0.0): "E(1,1)", (2.0, 1.0): "SL~(2,R)"}
    ok = all(cat.classify_unimodular(*k) == v for k, v in reps.items())
    grid = np.linspace(-3.0, 3.0, 21)
    n = 0
    for c2 in grid:
        for c3 in grid:
            w = -(c3 - c2)
            tau = abs(c2 + c3) / 2.0
            name = cat.classify_unimodular(c2, c3)
            if abs(w) <= 1e-12 and tau <= 1e-12:
                ok &= name == "Heisenberg"
            elif abs(w - 2 * tau) <= 1e-12 and w > 1e-12:
                ok &= name == "E~(2)"
            elif abs(w + 2 * tau) <= 1e-12 and w < -1e-12:
                ok &= name == "E(1,1)"
            elif w > 2 * tau:
                ok &= name == "SU(2)"
            else:
                ok &= name == "SL~(2,R)"
            n += 1
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(40):
        c2, c3 = rng.uniform(-3, 3, 2)
        th = rng.uniform(0, 2 * np.pi)
        m = torsion_in_rotated_frame(c2, c3, np.cos(th), np.sin(th))
        worst = max(worst, abs(max(abs(np.linalg.eigvalsh(m)))
                               - abs(c2 + c3) / 2.0))
    ok &= worst <= 1e-10
    assert report("criterion 2 (classifier table)", ok,
                  f"{n} grid points, rotation-invariance residual {worst:.2e}")


def test_criterion_3_curve_oracle(rt):
    worst = 0.0
    for phi in (np.pi / 2, 0.0, 1.0, np.pi / 4):
        trace = integrate_characteristic(rt, CharState((0, 0, 0), phi, 0.0),
                                         (0.0, 10.0), 1e-3)
        m = rt.frame_matrix((0.0, 0.0, 0.0))
        vel = np.cos(phi) * m[0] + np.sin(phi) * m[1]
        closed = rt_characteristic_closed_form((0, 0, 0, *vel), trace.s)
        worst = max(worst, float(np.max(np.linalg.norm(trace.points - closed,
                                                       axis=1))))
    steps = [4e-2, 2e-2, 1e-2]
    errs = []
    for h in steps:
        tr = integrate_characteristic(rt, CharState((0, 0, 0), 0.9, 0.35),
                                      (0.0, 4.0), h)
        fine = integrate_characteristic(rt, CharState((0, 0, 0), 0.9, 0.35),
                                        (0.0, 4.0), h / 16)
        errs.append(np.linalg.norm(tr.points[-1] - fine.points[-1]))
    fit = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])
    ok = worst <= 1e-8 and 3.8 <= fit <= 4.2
    assert report("criterion 3 (curve oracle)", ok,
                  f"sup error {worst:.2e}, convergence order {fit:.3f}")


def test_criterion_4_jacobi_oracle(rt, heis):
    worst_closed = 0.0
    cases = [(rt, CharState((0, 0, 0), np.pi / 3, 0.0), 0.25),
             (rt, CharState((0, 0, 0), 0.0, 0.0), 1.0),
             (heis, CharState((0, 0, 0), 0.2, 1.0), 4.0)]
    for st, state, k in cases:
        jt = jacobi_vertical_ode(st, state, (0.0, -1.0, 0.0), (0.0, 6.0), 1e-3)
        expect = -np.sin(np.sqrt(k) * jt.s) / np.sqrt(k)
        worst_closed = max(worst_closed, float(np.max(np.abs(jt.vt - expect))))

    def fd_init(fam):
        h = fam.s[1] - fam.s[0]
        v = fam.vt
        d1 = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)
        d2 = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / (h * h)
        return v[0], d1, d2

    worst_fam = 0.0
    fams = [(lambda e: CharState((e, 0.0, 0.3), 0.0, 0.0), 0.0),
            (lambda e: CharState((0.0, e, 0.0), 0.3, 0.7), 0.7)]
    for transverse, lam in fams:
        fam = jacobi_from_curve_family(rt, transverse, lam, (0.0, 4.0), 1e-3)
        jt = jacobi_vertical_ode(rt, transverse(0.0), fd_init(fam),
                                 (0.0, 4.0), 1e-3)
        worst_fam = max(worst_fam, float(np.max(np.abs(fam.vt - jt.vt))))
    ok = worst_closed <= 1e-6 and worst_fam <= 1e-4
    assert report("criterion 4 (Jacobi oracle)", ok,
                  f"closed-form error {worst_closed:.2e}, "
                  f"family-oracle error {worst_fam:.2e}")


def test_criterion_5_identity_suites(rt, heis, helicoid, plane_y0, sigma_a,
                                     x_plus_sin):
    from conftest import helicoid_points, plane_points
    rng = np.random.default_rng(5)
    worst = 0.0
    count = 0
    # conti (i)-(v) on Heisenberg random polynomial graphs
    for _ in range(5):
        gs = GraphSurface(random_cubic(rng), domain=((-1.5, 1.5), (-1.5, 1.5)))
        st = gs.structure()
        impl = gs.to_implicit()
        geom = impl.geometry(st)
        pts = []
        while len(pts) < 20:
            x, y = rng.uniform(-1.2, 1.2, 2)
            p = (x, y, gs.u.at((x, y, 0)))
            if geom.nh.at(p) > 0.1:
                pts.append(p)
        worst = max(worst, float(np.max(_conti_residuals(st, impl, pts))))
        f = ex.parse("x - 0.5*y + 0.2*t")
        worst = max(worst, float(np.max(_divergence_residuals(st, impl, pts, f))))
        count += len(pts)
    # conti + divergence on RT catalog surfaces
    f = ex.parse("x*y + 0.3*t")
    for surf, pts in ((helicoid, helicoid_points(rng, 40)),
                      (plane_y0, plane_points(rng, 40)),
                      (sigma_a, [(rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0)
                                 for _ in range(25)])):
        worst = max(worst, float(np.max(_conti_residuals(rt, surf, pts))))
        worst = max(worst, float(np.max(_divergence_residuals(rt, surf, pts, f))))
        count += len(pts)
    # liebrachet, curvaturaT, R-e1tor on RT catalog surfaces
    for surf, pts in ((helicoid, helicoid_points(rng, 25)),
                      (plane_y0, plane_points(rng, 25))):
        geom = surf.geometry(rt)
        rtz = geom.r_znu_expr()
        t_field = [ex.ZERO, ex.ZERO, ex.ONE]
        for p in pts:
            zc = np.array([c.at(p) for c in geom.Z])
            nuc = np.array([c.at(p) for c in geom.nu])
            znu = np.asarray(rt.lie_bracket(geom.Z, geom.nu, p).components)
            expect = (rt.c1 * np.array([0, 0, 1.0]) - geom.H.at(p) * zc
                      + geom.thetaNu.at(p) * nuc)
            worst = max(worst, float(np.max(np.abs(znu - expect))))
            lhs = -rtz.at(p)
            rhs = (-geom.nu_of(geom.tauZZ).at(p) + geom.Z_of(geom.tauZnu).at(p)
                   - 2 * geom.thetaNu.at(p) * geom.tauZnu.at(p)
                   + 2 * geom.H.at(p) * geom.tauZZ.at(p))
            worst = max(worst, abs(lhs - rhs))
            worst = max(worst, abs(-rtz.at(p) - geom.Z_of(geom.tauZnu).at(p)))
            count += 1
    # intbypart2 and the canonical reduction on the helicoid fan
    [(sp, sm, _)] = CharPatch.fan_from_curve(rt, helicoid,
                                             [(lambda e: (0.0, 0.0, e), (-2.0, 2.0))],
                                             3.0, n_eps=41, n_s=121)
    geom = sp.geom
    ee, ss = np.meshgrid(sp.eps, sp.s, indexing="ij")

    def bump(v, width, center=0.0):
        arg = np.clip((v - center) / width, -1.0, 1.0)
        return np.cos(np.pi * arg / 2.0) ** 4

    def dbump(v, width, center=0.0):
        arg = np.clip((v - center) / width, -1.0, 1.0)
        return (-2.0 * np.pi / width * np.cos(np.pi * arg / 2.0) ** 3
                * np.sin(np.pi * arg / 2.0))

    def ddbump(v, width, center=0.0):
        arg = np.clip((v - center) / width, -1.0, 1.0)
        th = np.pi * arg / 2.0
        return (-(np.pi ** 2 / width ** 2)
                * (np.cos(th) ** 4 - 3.0 * np.cos(th) ** 2 * np.sin(th) ** 2))

    u = bump(ee, 1.8) * bump(ss, 1.2, 1.5)
    du = bump(ee, 1.8) * dbump(ss, 1.2, 1.5)
    v = bump(ee, 1.5) * bump(ss, 1.3, 1.5)
    dv = bump(ee, 1.5) * dbump(ss, 1.3, 1.5)
    ddv = bump(ee, 1.5) * ddbump(ss, 1.3, 1.5)
    nh = sp.scalar(geom.nh)
    gnt = sp.scalar(geom.gNT)
    ibp = sp.integrate(nh * (du * dv + u * ddv) + rt.c1 * gnt * u * dv)
    worst = max(worst, abs(ibp))
    z_nh = sp.scalar(geom.Z_of(geom.nh))
    q = sp.scalar(geom.q_expr())
    zf = du * nh + u * z_nh
    lhs = sp.integrate(zf * zf / nh + q * (u * nh) ** 2)
    tzn = sp.scalar(geom.tauZnu)
    ths = sp.scalar(geom.thetaS)
    w_grid = sp.scalar(rt.webster_expr())
    l_nh = (w_grid - rt.c1 * tzn - 2 * rt.c1 * (nh * ths - nh ** 2 * tzn) / nh ** 2
            - rt.c1 ** 2 * gnt ** 2 / nh ** 2)
    rhs = sp.integrate(nh * (du * du - l_nh * u * u))
    worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-6 and count >= 200
    assert report("criterion 5 (identity suites)", ok,
                  f"worst residual {worst:.2e} over {count} sampled points")


def test_criterion_6_mean_curvature(rt):
    rng = np.random.default_rng(6)
    worst_dual = 0.0
    for _ in range(4):
        gs = GraphSurface(random_cubic(rng), domain=((-1.5, 1.5), (-1.5, 1.5)))
        pe = gs.p_exprs()
        checked = 0
        while checked < 6:
            x, y = rng.uniform(-1.2, 1.2, 2)
            if np.hypot(pe[0].at((x, y, 0)), pe[1].at((x, y, 0))) < 0.2:
                continue
            r = mean_curvature_graph(gs, (x, y))
            worst_dual = max(worst_dual, abs(r.mu))
            checked += 1
    worst_res = 0.0
    for expr_text in ("x*sin(t) - y*cos(t)", "t - 0.4", "x + sin(t)"):
        u = ex.parse(expr_text)
        for _ in range(10):
            p = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-3, 3))
            if expr_text == "x + sin(t)" and abs(np.cos(p[2])) < 1e-3:
                continue
            worst_res = max(worst_res, abs(rt_minimal_residual(u, p)))
    tilted = ex.parse("x + 2*y + 0.5*t - 1")
    tilted_max = max(abs(rt_minimal_residual(tilted, (0.3, 0.2, al)))
                     for al in np.linspace(0.2, 6.0, 25))
    ok = worst_dual <= 1e-6 and worst_res <= 1e-10 and tilted_max > 1e-2
    assert report("criterion 6 (mean-curvature agreement)", ok,
                  f"dual-path {worst_dual:.2e}, minimal residual {worst_res:.2e}, "
                  f"tilted plane residual {tilted_max:.3f}")


def test_criterion_7_variation_oracles(rt):
    gs = GraphSurface(ex.parse("x^3 + y^2"), domain=((0.2, 1.2), (0.2, 1.2)))
    st = gs.structure()
    geom = gs.to_implicit().geometry(st)
    bump = ex.parse("((x-0.2)*(1.2-x)*(y-0.2)*(1.2-y))^2")
    U = VariationField.normal(geom, bump)
    patch = ParamPatch.from_graph(st, gs)
    f = first_variation_formula(geom, U, patch, order=8, cells=12)
    n = first_variation_numeric(patch, U, eps=1e-4, order=8, cells=12)
    rel1 = abs(f - n) / abs(n)

    sigma_a = cat.find_entry("sigma_a").make()
    geom_a = sigma_a.geometry(rt)
    u_amb = ex.parse("(cos(pi*x/2)*cos(pi*y/2))^2")
    Ua = VariationField.normal(geom_a, u_amb)
    ppatch = ParamPatch(rt, [ex.X, ex.Y, 0.0], ((-1, 1), (-1, 1)))
    numeric = second_variation_numeric(ppatch, Ua, eps=1e-3, order=10, cells=12)
    cpatch = CharPatch.from_base_point(rt, sigma_a, (0.0, 0.0, 0.0),
                                       (-1.0, 1.0), (-1.0, 1.0),
                                       n_eps=41, n_s=161)

    def u_fn(e, s):
        return (np.cos(np.pi * e / 2) * np.cos(np.pi * s / 2)) ** 2

    r = index_form(cpatch, u_fn)
    rel2 = abs(r.value - numeric) / abs(numeric)
    ok = rel1 <= 1e-4 and rel2 <= 1e-3
    assert report("criterion 7 (variation oracles)", ok,
                  f"first {rel1:.2e}, second {rel2:.2e}")


def test_criterion_8a_vertical_planes(rt, sigma_a):
    geom = sigma_a.geometry(rt)
    pts = [(x, y, 0.0) for x in np.linspace(-2, 2, 11)
           for y in np.linspace(-2, 2, 11)]
    sign = stability_sign_field(geom, pts)
    patch = CharPatch.from_base_point(rt, sigma_a, (0.0, 0.0, 0.0),
                                      (-1.0, 1.0), (-1.0, 1.0),
                                      n_eps=31, n_s=121)
    vals = []
    rng = np.random.default_rng(8)
    for _ in range(5):
        w1, w2 = rng.uniform(0.5, 1.0, 2)

        def u_fn(e, s, w1=w1, w2=w2):
            ae = np.clip(e / w1, -1, 1)
            as_ = np.clip(s / w2, -1, 1)
            return (np.cos(np.pi * ae / 2) * np.cos(np.pi * as_ / 2)) ** 2

        vals.append(index_form(patch, u_fn).value)
    ok = (max(abs(sign.minimum), abs(sign.maximum)) <= 1e-10
          and min(vals) >= -1e-10)
    assert report("criterion 8a (vertical planes)", ok,
                  f"criterion range [{sign.minimum:.1e}, {sign.maximum:.1e}], "
                  f"min index form {min(vals):.2e}")


def test_criterion_8b_left_helicoids(rt, sigma_b):
    geom = sigma_b.geometry(rt)
    pts = []
    for r in (0.1, 0.5, 1.5, 2.5):
        for al in np.linspace(-3, 3, 13):
            pts.append((-np.sin(al) * r, np.cos(al) * r, al))
    sign = stability_sign_field(geom, pts)
    ok = sign.minimum > 0.0
    assert report("criterion 8b (left helicoids)", ok,
                  f"criterion minimum off-axis {sign.minimum:.3e}")


def test_criterion_8c_right_helicoid(rt, helicoid):
    loci = singular_set_detect(rt, helicoid, region=RT_REPORT_REGIONS["sigma_c"],
                               grid=13)
    curve = [l for l in loci if l.kind == "curve"][0]
    stat = stationarity_at_singular_curve(rt, helicoid, curve)
    q_vals = helicoid_q_samples(rt, n_samples=50, seed=0)
    ok = stat.orthogonal and stat.max_angle_dev <= 1e-6 and min(q_vals) >= -1e-8
    assert report("criterion 8c (right helicoid)", ok,
                  f"orthogonality dev {stat.max_angle_dev:.2e} rad, "
                  f"min Q over 50 samples {min(q_vals):.3e}")


def test_criterion_8d_plane_negative_direction(rt):
    """The source classification predicts an explicit u with Q(u) < 0 on the
    plane y = 0.  The engine's q vanishes identically there (verified against
    a direct second-variation computation) and the singular-curve coefficient
    c1 + 2 g(tau(Z), nu_h) = 0, so the modeled quadratic is a sum of squares;
    the prescribed widening cosine ansatz never goes negative.  This
    criterion is therefore expected to FAIL; see ROADMAP.md items 1–3.
    """
    search = plane_q_search(rt, widths=(2.5, 5.0, 10.0, 20.0))
    found = search["negative_direction_found"]
    report("criterion 8d (plane negative direction)", found,
           f"min Q over widths = {search['min_Q']:.6e} "
           "(engine finds no negative direction; see ROADMAP.md items 1–3)")
    assert found, ("no negative Q direction exists in the modeled class; "
                   "blocking analysis recorded in ROADMAP.md items 1–3")


def test_criterion_8e_x_plus_sin_not_stationary(rt, x_plus_sin):
    loci = singular_set_detect(rt, x_plus_sin,
                               region=RT_REPORT_REGIONS["x_plus_sin"], grid=13)
    curves = [l for l in loci if l.kind == "curve"]
    reports = [stationarity_at_singular_curve(rt, x_plus_sin, c) for c in curves]
    ok = len(curves) == 2 and all(not r.orthogonal for r in reports)
    assert report("criterion 8e (x + sin alpha not stationary)", ok,
                  f"{len(curves)} singular curves, angle devs "
                  + str([f"{r.max_angle_dev:.3f}" for r in reports]))


def test_criterion_9_area_quadrature():
    closed = (np.sqrt(2.0) + np.log(1.0 + np.sqrt(2.0))) / 3.0
    gs = GraphSurface(ex.ZERO, domain=((0, 1), (0, 1)))
    val = area_graph(gs, order=12, cells=64)
    err_closed = abs(val - closed)
    gs2 = GraphSurface(ex.mul(ex.X, ex.Y), domain=((0, 1), (0, 1)),
                       metric=((2.0, 0.5), (0.5, 1.0)))
    val2 = area_graph(gs2, order=12, cells=64)
    mc = mc_area(gs2, n=10_000_000, seed=0)
    err_mc = abs(mc - val2) / val2
    ok = err_closed <= 1e-8 and err_mc <= 1e-4
    assert report("criterion 9 (area quadrature)", ok,
                  f"closed-form error {err_closed:.2e}, Monte-Carlo rel "
                  f"{err_mc:.2e}")
