import json
import re
import sys
import warnings

import numpy as np
import pytest

from subriemann import expr as ex
from subriemann.reproduce import RT_REPORT_REGIONS
from subriemann.structures import TangentVector, sum_exprs
from subriemann.surfaces import (GraphSurface, ImplicitSurface, SingularLocus, surface_frame,
                                 mean_curvature_frame, mean_curvature_graph,
                                 horizontal_jacobian, area_graph, mc_area,
                                 rt_minimal_residual, singular_set_detect,
                                 stationarity_at_singular_curve,
                                 rho_equiv_mean_curvature, SingularPointSignal,
                                 surface_from_json)
from conftest import random_cubic, helicoid_points, plane_points

AREA_CLOSED_FORM = (np.sqrt(2.0) + np.log(1.0 + np.sqrt(2.0))) / 3.0


# ---------------------------------------------------------------------------
# adapted frame


def test_heisenberg_flat_graph_frame():
    gs = GraphSurface(ex.ZERO, domain=((-2, 2), (-2, 2)))
    fp = surface_frame(None, gs, (1.0, 0.0, 0.0))
    assert fp.nh == pytest.approx(1 / np.sqrt(2), abs=1e-14)
    assert fp.gNT == pytest.approx(-1 / np.sqrt(2), abs=1e-14)  # downward
    assert np.allclose(fp.nu_h.components, (0, 1, 0), atol=1e-14)
    assert np.allclose(fp.Z.components, (-1, 0, 0), atol=1e-14)  # J(Y) = -X


def test_frame_orthonormality_invariants(rt, helicoid):
    rng = np.random.default_rng(0)
    geom = helicoid.geometry(rt)
    for p in helicoid_points(rng, 25):
        fp = geom.frame_point(p)
        assert fp.nh ** 2 + fp.gNT ** 2 == pytest.approx(1.0, abs=1e-12)
        z, s, n = (np.asarray(v.components) for v in (fp.Z, fp.S, fp.N))
        assert abs(z @ s) < 1e-12 and abs(z @ z - 1) < 1e-12 and abs(s @ s - 1) < 1e-12
        assert abs(z @ n) < 1e-12 and abs(s @ n) < 1e-12  # tangent basis
        assert abs(fp.Z.components[2]) < 1e-12              # Z horizontal
        # S = g(N,T) nu_h - |N_h| T
        expect_s = fp.gNT * np.asarray(fp.nu_h.components) - fp.nh * np.array([0, 0, 1.0])
        assert np.allclose(s, expect_s, atol=1e-12)


def test_helicoid_frame_values(rt, helicoid):
    p = (1.2 * np.cos(0.4), 1.2 * np.sin(0.4), 0.4)
    fp = surface_frame(rt, helicoid, p)
    assert fp.tauZnu == pytest.approx(0.5, abs=1e-12)
    assert fp.tauZZ == pytest.approx(0.0, abs=1e-12)
    assert fp.H == pytest.approx(0.0, abs=1e-12)
    # theta(S) = |N_h|/2, the value forced by Lemma conti (v)
    assert fp.thetaS == pytest.approx(fp.nh / 2.0, abs=1e-12)
    assert fp.thetaS_conti == pytest.approx(fp.thetaS, abs=1e-10)


def test_plane_frame_values(rt, plane_y0):
    p = (0.7, 0.0, 1.2)
    fp = surface_frame(rt, plane_y0, p)
    assert fp.tauZnu == pytest.approx(-0.5, abs=1e-12)
    assert fp.H == pytest.approx(0.0, abs=1e-12)
    assert fp.thetaS == pytest.approx(fp.nh / 2.0, abs=1e-12)
    # nu_h = sgn(sin a) Y and Z = J(nu_h) = -sgn(sin a) X
    assert np.allclose(fp.nu_h.components, (0, 1, 0), atol=1e-12)
    assert np.allclose(fp.Z.components, (-1, 0, 0), atol=1e-12)


def test_singular_point_signal(rt, helicoid):
    with pytest.raises(SingularPointSignal) as info:
        surface_frame(rt, helicoid, (0.0, 0.0, 0.3))
    assert info.value.nh <= 1e-10


def test_off_surface_point_rejected(rt, helicoid):
    with pytest.raises(ValueError):
        surface_frame(rt, helicoid, (1.0, 1.0, 0.0))


# ---------------------------------------------------------------------------
# horizontal Jacobian


def test_horizontal_jacobian_horizontal_basis(rt):
    p = (0.0, 0.0, 0.0)
    t_vec = TangentVector(p, (0, 0, 1))
    e1 = TangentVector(p, (1, 0, 0))
    e2 = TangentVector(p, (0, 1, 0))
    assert horizontal_jacobian(t_vec, e1, e2) == pytest.approx(0.0, abs=1e-15)


def test_horizontal_jacobian_adapted_basis(rt, helicoid):
    rng = np.random.default_rng(1)
    for p in helicoid_points(rng, 10):
        fp = surface_frame(rt, helicoid, p)
        t_vec = TangentVector(p, (0, 0, 1))
        val = horizontal_jacobian(t_vec, fp.Z, fp.S)
        assert val == pytest.approx(fp.nh, abs=1e-12)


def test_horizontal_jacobian_basis_invariance(rt, helicoid):
    rng = np.random.default_rng(2)
    for p in helicoid_points(rng, 10):
        fp = surface_frame(rt, helicoid, p)
        t_vec = TangentVector(p, (0, 0, 1))
        base = horizontal_jacobian(t_vec, fp.Z, fp.S)
        for _ in range(5):
            m = rng.uniform(-2, 2, (2, 2))
            if abs(np.linalg.det(m)) < 0.1:
                continue
            e1 = fp.Z.scale(m[0, 0]) + fp.S.scale(m[0, 1])
            e2 = fp.Z.scale(m[1, 0]) + fp.S.scale(m[1, 1])
            assert horizontal_jacobian(t_vec, e1, e2) == pytest.approx(base,
                                                                       abs=1e-12)


def test_horizontal_jacobian_degenerate_basis():
    p = (0, 0, 0)
    t_vec = TangentVector(p, (0, 0, 1))
    e = TangentVector(p, (1, 0, 0))
    with pytest.raises(ValueError):
        horizontal_jacobian(t_vec, e, e)


# ---------------------------------------------------------------------------
# area


def test_area_closed_form_unit_square():
    gs = GraphSurface(ex.ZERO, domain=((0, 1), (0, 1)))
    val = area_graph(gs, order=12, cells=64)
    assert val == pytest.approx(AREA_CLOSED_FORM, abs=1e-8)


def test_area_zero_measure_domain():
    gs = GraphSurface(ex.ZERO, domain=((0, 0), (0, 1)))
    assert area_graph(gs) == 0.0


def test_area_scaled_metric_closed_form_and_mc():
    # g = 4 id: integrand = <p,bp>^(1/2) sqrt(det g) = 2|p|
    gs = GraphSurface(ex.ZERO, domain=((0, 1), (0, 1)),
                      metric=((4.0, 0.0), (0.0, 4.0)))
    val = area_graph(gs, order=12, cells=64)
    assert val == pytest.approx(2.0 * AREA_CLOSED_FORM, abs=2e-8)
    mc = mc_area(gs, n=1_000_000, seed=3)
    assert abs(mc - val) / val < 1e-3


def test_area_general_metric_vs_monte_carlo():
    gs = GraphSurface(ex.mul(ex.X, ex.Y), domain=((0, 1), (0, 1)),
                      metric=((2.0, 0.5), (0.5, 1.0)))
    val = area_graph(gs, order=12, cells=64)
    mc = mc_area(gs, n=10_000_000, seed=0)
    assert abs(mc - val) / val < 1e-4


# ---------------------------------------------------------------------------
# mean curvature, two paths


def test_mean_curvature_rotational_field_zero():
    gs = GraphSurface(ex.ZERO, domain=((-2, 2), (-2, 2)))
    r = mean_curvature_graph(gs, (1.0, 1.0))
    assert r.div_term == pytest.approx(0.0, abs=1e-12)
    assert r.value == pytest.approx(0.0, abs=1e-12)
    assert r.mu == pytest.approx(0.0, abs=1e-12)


def test_mean_curvature_heisenberg_dual_path():
    rng = np.random.default_rng(4)
    for k in range(6):
        gs = GraphSurface(random_cubic(rng), domain=((-1.5, 1.5), (-1.5, 1.5)))
        pe = gs.p_exprs()
        checked = 0
        while checked < 8:
            x, y = rng.uniform(-1.2, 1.2, 2)
            pn = np.hypot(pe[0].at((x, y, 0)), pe[1].at((x, y, 0)))
            if pn < 0.2:
                continue
            r = mean_curvature_graph(gs, (x, y))
            assert r.mu is not None
            assert abs(r.mu) < 1e-6          # mu vanishes for the flat metric
            assert abs(r.value - r.div_term) < 1e-6
            checked += 1


def test_mean_curvature_planes_heisenberg():
    # graphs of planes t = ax + by are minimal where defined
    rng = np.random.default_rng(5)
    for _ in range(4):
        a, b = rng.uniform(-1, 1, 2)
        u = ex.add(ex.mul(a, ex.X), ex.mul(b, ex.Y))
        gs = GraphSurface(u, domain=((-2, 2), (-2, 2)))
        pe = gs.p_exprs()
        for _ in range(5):
            x, y = rng.uniform(-1.5, 1.5, 2)
            if np.hypot(pe[0].at((x, y, 0)), pe[1].at((x, y, 0))) < 0.3:
                continue
            r = mean_curvature_graph(gs, (x, y))
            assert abs(r.value) < 1e-10


def test_mean_curvature_general_metric_mu_and_rho_bounded():
    gs = GraphSurface(ex.ZERO, domain=((-2, 2), (-2, 2)),
                      metric=((2.0, 0.5), (0.5, 1.0)))
    mus = []
    rhos = []
    for rad in (1.0, 0.1, 0.01, 1e-3, 1e-4):
        for th in (0.3, 2.1, 4.0):
            p = (rad * np.cos(th), rad * np.sin(th))
            mus.append(mean_curvature_graph(gs, p).mu)
            rhos.append(rho_equiv_mean_curvature(gs, p))
    assert np.all(np.isfinite(mus)) and max(abs(np.array(mus))) < 50.0
    assert np.all(np.isfinite(rhos)) and max(abs(np.array(rhos))) < 50.0


def test_mean_curvature_frame_rt_catalog(rt, helicoid, sigma_a, x_plus_sin):
    rng = np.random.default_rng(6)
    for p in helicoid_points(rng, 10):
        assert abs(mean_curvature_frame(rt, helicoid, p)) < 1e-10
    for _ in range(6):
        p = (rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0)
        assert abs(mean_curvature_frame(rt, sigma_a, p)) < 1e-10
    for _ in range(6):
        al = rng.uniform(0.2, 1.2)
        p = (-np.sin(al), rng.uniform(-2, 2), al)
        assert abs(mean_curvature_frame(rt, x_plus_sin, p)) < 1e-10


# ---------------------------------------------------------------------------
# RT minimal-surface residual


def test_rt_minimal_residual_catalog(helicoid, x_plus_sin):
    rng = np.random.default_rng(7)
    heli_u = ex.parse("x*sin(t) - y*cos(t)")
    vert_u = ex.parse("t - 0.4")
    xsin_u = ex.parse("x + sin(t)")
    for _ in range(10):
        p = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-3, 3))
        assert abs(rt_minimal_residual(heli_u, p)) < 1e-10
        assert abs(rt_minimal_residual(vert_u, p)) < 1e-10
        assert abs(rt_minimal_residual(xsin_u, p)) < 1e-10


def test_rt_minimal_residual_second_family():
    u = ex.parse("x - y + 0.5*(sin(t) + cos(t))")
    rng = np.random.default_rng(8)
    for _ in range(10):
        p = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-3, 3))
        assert abs(rt_minimal_residual(u, p)) < 1e-10


def test_rt_minimal_residual_tilted_plane_nonzero():
    u = ex.parse("x + 2*y + 0.5*t - 1")   # a, b, c all nonzero
    vals = [abs(rt_minimal_residual(u, (0.3, 0.2, al)))
            for al in np.linspace(0.2, 6.0, 25)]
    assert max(vals) > 0.05


def test_rt_minimal_residual_gradient_precondition():
    with pytest.raises(ValueError):
        rt_minimal_residual(ex.parse("x*x"), (0.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# Lemma conti identities (i)-(v)


def _conti_residuals(structure, surf, pts):
    geom = surf.geometry(structure)
    c1 = structure.c1
    worst = np.zeros(5)
    z_nh = geom.Z_of(geom.nh)
    z_gnt = geom.Z_of(geom.gNT)
    b_zs = geom.shape_dot(geom.Z, geom.S)
    b_sz = geom.shape_dot(geom.S, geom.Z)
    # sigma(Z) . nu_h built from Levi-Civita Christoffels
    lc = structure._lc
    sigma_znu = sum_exprs(ex.mul(ex.mul(geom.Z[i], lc[i][2][k]), geom.nu[k])
                          for i in range(2) for k in range(2))
    tau_zz = geom.tauZZ
    tau_znu = geom.tauZnu
    for p in pts:
        nh = geom.nh.at(p)
        gnt = geom.gNT.at(p)
        zn = z_nh.at(p)
        zg = z_gnt.at(p)
        ths = geom.thetaS.at(p)
        tzn = tau_znu.at(p)
        worst[0] = max(worst[0], abs(nh * zn + gnt * zg))
        worst[1] = max(worst[1], abs(zg / nh - (nh * zg - gnt * zn)))
        worst[2] = max(worst[2], abs(b_zs.at(p) - (c1 / 2 - tzn + zg / nh)))
        worst[2] = max(worst[2], abs(b_zs.at(p) - (-sigma_znu.at(p) + zg / nh)))
        tau_nuz = tzn  # tau symmetric
        rhs4 = (-gnt * gnt * tau_nuz + (c1 / 2) * (nh * nh - gnt * gnt)
                - nh * ths)
        worst[3] = max(worst[3], abs(b_sz.at(p) - rhs4))
        rhs5 = -c1 * gnt * gnt + nh * nh * tzn - nh * ths
        worst[4] = max(worst[4], abs(zg / nh - rhs5))
    return worst


def test_conti_identities_heisenberg_random_graphs(heis):
    rng = np.random.default_rng(9)
    total = 0
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
        worst = _conti_residuals(st, impl, pts)
        total += len(pts)
        assert np.max(worst) < 1e-6, worst
    assert total >= 100


def test_conti_identities_rt_catalog(rt, helicoid, plane_y0, sigma_a, x_plus_sin):
    rng = np.random.default_rng(10)
    total = 0
    pts = helicoid_points(rng, 40)
    assert np.max(_conti_residuals(rt, helicoid, pts)) < 1e-6
    total += len(pts)
    pts = plane_points(rng, 40)
    assert np.max(_conti_residuals(rt, plane_y0, pts)) < 1e-6
    total += len(pts)
    pts = [(rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0) for _ in range(20)]
    assert np.max(_conti_residuals(rt, sigma_a, pts)) < 1e-6
    total += len(pts)
    pts = []
    while len(pts) < 20:
        al = rng.uniform(-2.9, 2.9)
        if abs(np.cos(al)) < 0.2:
            continue
        pts.append((-np.sin(al), rng.uniform(-2, 2), al))
    assert np.max(_conti_residuals(rt, x_plus_sin, pts)) < 1e-6
    total += len(pts)
    assert total >= 120


# ---------------------------------------------------------------------------
# divergence lemma


def _divergence_residuals(structure, surf, pts, f_expr):
    geom = surf.geometry(structure)
    c1 = structure.c1
    # div_Sigma(f S) = S(f) + f g(D_Z S, Z); div_Sigma(f Z) = Z(f) + f g(D_S Z, S)
    d_zs = structure.lc_field_exprs(geom.Z, geom.S)
    d_sz = structure.lc_field_exprs(geom.S, geom.Z)
    g_dzs_z = sum_exprs(ex.mul(d_zs[k], geom.Z[k]) for k in range(3))
    g_dsz_s = sum_exprs(ex.mul(d_sz[k], geom.S[k]) for k in range(3))
    tau_nuz = geom.tauZnu
    worst = np.zeros(2)
    for p in pts:
        nh = geom.nh.at(p)
        gnt = geom.gNT.at(p)
        f = f_expr.at(p)
        lhs_s = geom.S_of(f_expr).at(p) + f * g_dzs_z.at(p)
        theta_z = -geom.H.at(p)
        rhs_s = (geom.S_of(f_expr).at(p) + f * gnt * theta_z
                 - f * nh * geom.tauZZ.at(p))
        worst[0] = max(worst[0], abs(lhs_s - rhs_s))
        lhs_z = geom.Z_of(f_expr).at(p) + f * g_dsz_s.at(p)
        rhs_z = (geom.Z_of(f_expr).at(p) - f * gnt * geom.thetaS.at(p)
                 + f * gnt * nh * tau_nuz.at(p) + c1 * f * gnt * nh)
        worst[1] = max(worst[1], abs(lhs_z - rhs_z))
    return worst


def test_divergence_lemma(rt, helicoid, plane_y0):
    rng = np.random.default_rng(11)
    f = ex.parse("x*y + 0.3*t + cos(x)")
    assert np.max(_divergence_residuals(rt, helicoid,
                                        helicoid_points(rng, 30), f)) < 1e-6
    assert np.max(_divergence_residuals(rt, plane_y0,
                                        plane_points(rng, 30), f)) < 1e-6


def test_divergence_lemma_heisenberg(heis):
    rng = np.random.default_rng(12)
    gs = GraphSurface(random_cubic(rng), domain=((-1.5, 1.5), (-1.5, 1.5)))
    st = gs.structure()
    impl = gs.to_implicit()
    geom = impl.geometry(st)
    pts = []
    while len(pts) < 25:
        x, y = rng.uniform(-1.2, 1.2, 2)
        p = (x, y, gs.u.at((x, y, 0)))
        if geom.nh.at(p) > 0.1:
            pts.append(p)
    f = ex.parse("x - 2*y + 0.1*t*t")
    assert np.max(_divergence_residuals(st, impl, pts, f)) < 1e-6


# ---------------------------------------------------------------------------
# bracket frame identities


def test_liebrachet_identities(rt, helicoid, plane_y0):
    rng = np.random.default_rng(13)
    for surf, pts in ((helicoid, helicoid_points(rng, 20)),
                      (plane_y0, plane_points(rng, 20))):
        geom = surf.geometry(rt)
        c1 = rt.c1
        t_field = [ex.ZERO, ex.ZERO, ex.ONE]
        for p in pts:
            theta_z = -geom.H.at(p)
            theta_s = geom.thetaS.at(p)
            theta_nu = geom.thetaNu.at(p)
            theta_t = geom.thetaT.at(p)
            tzz = geom.tauZZ.at(p)
            tzn = geom.tauZnu.at(p)
            znu = np.asarray(rt.lie_bracket(geom.Z, geom.nu, p).components)
            zc = np.array([c.at(p) for c in geom.Z])
            nuc = np.array([c.at(p) for c in geom.nu])
            expect = (c1 * np.array([0, 0, 1.0]) + theta_z * zc + theta_nu * nuc)
            assert np.allclose(znu, expect, atol=1e-6)
            zt = np.asarray(rt.lie_bracket(geom.Z, t_field, p).components)
            expect = tzz * zc + (tzn + theta_t) * nuc
            assert np.allclose(zt, expect, atol=1e-6)
            nut = np.asarray(rt.lie_bracket(geom.nu, t_field, p).components)
            tau_nunu = (geom.tauZZ  # tau traceless: g(tau nu, nu) = -g(tau Z, Z)
                        )
            expect = (tzn - theta_t) * zc - tau_nunu.at(p) * nuc
            assert np.allclose(nut, expect, atol=1e-6)


# ---------------------------------------------------------------------------
# curvature-torsion identity and R-e1tor


def test_curvatura_t_identity(rt, helicoid, plane_y0, x_plus_sin):
    rng = np.random.default_rng(14)
    for surf, pts in ((helicoid, helicoid_points(rng, 20)),
                      (plane_y0, plane_points(rng, 20)),
                      (x_plus_sin, [(-np.sin(a), rng.uniform(-1, 1), a)
                                    for a in rng.uniform(0.2, 1.3, 15)])):
        geom = surf.geometry(rt)
        rtz = geom.r_znu_expr()  # g(R(Z,T) nu, Z)
        for p in pts:
            lhs = -rtz.at(p)     # g(R(T,Z) nu, Z)
            rhs = (-geom.nu_of(geom.tauZZ).at(p)
                   + geom.Z_of(geom.tauZnu).at(p)
                   - 2.0 * geom.thetaNu.at(p) * geom.tauZnu.at(p)
                   + 2.0 * geom.H.at(p) * geom.tauZZ.at(p))
            assert abs(lhs - rhs) < 1e-6


def test_r_e1tor_vanishes_on_minimal(rt, helicoid, plane_y0, sigma_a):
    rng = np.random.default_rng(15)
    surfaces = [(helicoid, helicoid_points(rng, 15)),
                (plane_y0, plane_points(rng, 15)),
                (sigma_a, [(rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0)
                           for _ in range(10)])]
    for surf, pts in surfaces:
        geom = surf.geometry(rt)
        rtz = geom.r_znu_expr()
        for p in pts:
            val = -rtz.at(p) - geom.Z_of(geom.tauZnu).at(p)
            assert abs(val) < 1e-6


# ---------------------------------------------------------------------------
# singular sets


def test_singular_set_heisenberg_flat_graph():
    gs = GraphSurface(ex.ZERO, domain=((-1, 1), (-1, 1)))
    loci = singular_set_detect(None, gs, grid=15)
    assert len(loci) == 1
    assert loci[0].kind == "isolated-point"
    assert np.allclose(loci[0].points[0], (0.0, 0.0), atol=1e-8)


def test_singular_set_helicoid(rt, helicoid):
    loci = singular_set_detect(rt, helicoid, region=((-2, 2), (-2, 2), (-2, 2)),
                               grid=13)
    curves = [l for l in loci if l.kind == "curve"]
    assert len(curves) == 1
    pts = curves[0].points
    assert np.max(np.abs(pts[:, :2])) < 1e-8      # the line x = y = 0
    assert pts[:, 2].max() - pts[:, 2].min() > 2.0


def test_singular_set_x_plus_sin(rt, x_plus_sin):
    loci = singular_set_detect(rt, x_plus_sin,
                               region=((-2, 2), (-2, 2), (0.3, 5.9)), grid=13)
    curves = [l for l in loci if l.kind == "curve"]
    assert len(curves) == 2
    for c in curves:
        al = np.median(c.points[:, 2])
        x = np.median(c.points[:, 0])
        if abs(al - np.pi / 2) < 0.1:
            assert abs(x + 1.0) < 1e-8
            assert np.max(np.abs(c.points[:, 2] - np.pi / 2)) < 1e-8
        else:
            assert abs(al - 3 * np.pi / 2) < 0.1
            assert abs(x - 1.0) < 1e-8


def test_singular_set_plane(rt, plane_y0):
    loci = singular_set_detect(rt, plane_y0,
                               region=((-1.5, 1.5), (-1.5, 1.5), (-0.9, 4.0)),
                               grid=13)
    curves = [l for l in loci if l.kind == "curve"]
    assert len(curves) == 2
    als = sorted(np.median(c.points[:, 2]) for c in curves)
    assert abs(als[0] - 0.0) < 1e-8
    assert abs(als[1] - np.pi) < 1e-8


# ---------------------------------------------------------------------------
# batched seed Newton against the per-seed loop


def _oracle_newton(fun, jac, q0, tol=1e-10, max_iter=60):
    q = np.asarray(q0, dtype=float)
    for _ in range(max_iter):
        r = np.asarray(fun(q), dtype=float)
        if np.linalg.norm(r) < tol:
            return q, True
        j = np.asarray(jac(q), dtype=float)
        step, *_ = np.linalg.lstsq(j, -r, rcond=None)
        if not np.all(np.isfinite(step)):
            return q, False
        limit = 0.5
        nrm = np.linalg.norm(step)
        if nrm > limit:
            step *= limit / nrm
        q = q + step
    return q, np.linalg.norm(fun(q)) < tol * 10


def _oracle_trace(fun, jac, q0, region, step=1e-2, newton_tol=1e-10, max_steps=4000):
    def kernel_dir(q):
        j = np.asarray(jac(q), dtype=float)
        _, _, vt = np.linalg.svd(j)
        return vt[-1]

    def in_region(q):
        return all(lo - 1e-9 <= c <= hi + 1e-9 for c, (lo, hi) in zip(q, region))

    pts = [np.asarray(q0, dtype=float)]
    tans = [kernel_dir(q0)]
    for direction in (1.0, -1.0):
        q = np.asarray(q0, dtype=float)
        tan = direction * tans[0]
        while len(pts) < max_steps:
            q_pred = q + step * tan
            q_corr, ok = _oracle_newton(fun, jac, q_pred, newton_tol)
            if not ok or not in_region(q_corr):
                break
            new_tan = kernel_dir(q_corr)
            if np.dot(new_tan, tan) < 0:
                new_tan = -new_tan
            q, tan = q_corr, new_tan
            if direction > 0:
                pts.append(q)
                tans.append(tan)
            else:
                pts.insert(0, q)
                tans.insert(0, tan)
            if np.linalg.norm(q - q0) < 0.5 * step and len(pts) > 10:
                return np.array(pts), np.array(tans)
    return np.array(pts), np.array(tans)


def _oracle_classify(fun, jac, seeds, region, step, ambient_dim):
    """The sequential detection: one scalar Newton solve per sorted seed."""
    loci = []

    def near_existing(q):
        return any(np.min(np.linalg.norm(l[1] - q, axis=1)) < 5 * step for l in loci)

    for seed in sorted(seeds, key=lambda q: tuple(q)):
        q, ok = _oracle_newton(fun, jac, seed)
        if not ok or near_existing(q):
            continue
        if not all(lo - 1e-7 <= c <= hi + 1e-7 for c, (lo, hi) in zip(q, region)):
            continue
        sv = np.linalg.svd(jac(q), compute_uv=False)
        rank = int(np.sum(sv > 1e-5 * max(max(sv[0], 1e-12), 1.0)))
        if rank >= ambient_dim:
            loci.append(("isolated-point", np.array([q]), None))
        elif rank == ambient_dim - 1:
            loci.append(("curve", *_oracle_trace(fun, jac, q, region, step)))
        else:
            loci.append(("unclassified", np.array([q]), None))
    return loci


def _singular_system(geom, q):
    """(f, Xf, Yf) at q and their 3x3 coordinate Jacobian, from one "numpy"
    kernel of ``singular_exprs()``."""
    with np.errstate(all="ignore"):
        vals = np.array(ex.compiled_cse(geom.singular_exprs())(*q))
    return vals[:3], vals[3:].reshape(3, 3)


def _oracle_detect(structure, surf, region, grid, step=1e-2):
    if isinstance(surf, GraphSurface):
        pe = surf.p_exprs()
        jac_exprs = [[pe[i].diff(j) for j in range(2)] for i in range(2)]

        def fun(q):
            return np.array([pe[0].at((q[0], q[1], 0.0)), pe[1].at((q[0], q[1], 0.0))])

        def jac(q):
            return np.array([[jac_exprs[i][j].at((q[0], q[1], 0.0)) for j in range(2)]
                             for i in range(2)])

        gx, gy = np.meshgrid(*(np.linspace(lo, hi, grid) for lo, hi in region),
                             indexing="ij")
        p1 = np.broadcast_to(pe[0].eval(gx, gy, 0.0), gx.shape)
        p2 = np.broadcast_to(pe[1].eval(gx, gy, 0.0), gx.shape)
        cell = max(hi - lo for lo, hi in region) / grid
        seeds = [np.array([gx[i, j], gy[i, j]])
                 for i, j in zip(*np.where(np.hypot(p1, p2) < 4 * cell))]
        return _oracle_classify(fun, jac, seeds, region, step, 2)
    geom = surf.geometry(structure)

    def fun(q):
        return _singular_system(geom, q)[0]

    def jac(q):
        return _singular_system(geom, q)[1]

    gx, gy, gt = np.meshgrid(*(np.linspace(lo, hi, grid) for lo, hi in region),
                             indexing="ij")
    vals = [np.broadcast_to(fn.eval(gx, gy, gt), gx.shape)
            for fn in (surf.f, geom.Xf, geom.Yf)]
    cell = max(hi - lo for lo, hi in region) / grid
    idx = np.where(np.sqrt(sum(v * v for v in vals)) < 4 * cell)
    seeds = [np.array([gx[i], gy[i], gt[i]]) for i in zip(*idx)]
    return _oracle_classify(fun, jac, seeds, region, step, 3)


def _assert_same_loci(loci, oracle):
    assert [l.kind for l in loci] == [o[0] for o in oracle]
    for locus, (_, pts, tans) in zip(loci, oracle):
        assert np.array_equal(locus.points, pts)
        if tans is None:
            assert locus.tangents is None
        else:
            assert np.array_equal(locus.tangents, tans)


# fixtures of the rt-report surfaces; their names key RT_REPORT_REGIONS
_RT_REPORT_SURFACES = ["helicoid", "plane_y0", "x_plus_sin"]


@pytest.mark.parametrize("name", _RT_REPORT_SURFACES)
def test_batched_detection_equals_the_per_seed_loop(name, rt, request):
    surf = request.getfixturevalue(name)
    region = RT_REPORT_REGIONS[surf.name]
    loci = singular_set_detect(rt, surf, region=region, grid=13)
    assert loci
    _assert_same_loci(loci, _oracle_detect(rt, surf, region, 13))


@pytest.mark.parametrize("grid", [9, 15, 24])
def test_batched_detection_equals_the_per_seed_loop_on_a_graph(grid):
    # the Heisenberg flat graph: one isolated singular point, Dp of rank 2
    gs = GraphSurface(ex.ZERO, domain=((-1, 1), (-1, 1)))
    loci = singular_set_detect(None, gs, grid=grid)
    assert [l.kind for l in loci] == ["isolated-point"]
    _assert_same_loci(loci, _oracle_detect(None, gs, gs.domain, grid))


def test_scalar_newton_runs_only_for_founding_seeds_and_the_tracer(rt, plane_y0,
                                                                   monkeypatch):
    from subriemann import surfaces
    callers = []
    newton = surfaces._newton_lstsq

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return newton(*args, **kwargs)

    monkeypatch.setattr(surfaces, "_newton_lstsq", counted)
    loci = singular_set_detect(rt, plane_y0, region=RT_REPORT_REGIONS["plane_y0"], grid=13)
    assert [l.kind for l in loci] == ["curve", "curve"]
    assert callers.count("_classify_seeds") == len(loci)
    # one corrector per traced point after the first, plus at most one
    # failed corrector at each end
    traced = sum(len(l.points) - 1 for l in loci)
    assert traced <= callers.count("_trace_curve") <= traced + 2 * len(loci)
    assert set(callers) == {"_classify_seeds", "_trace_curve"}


def test_scalar_newton_fails_on_non_finite_values_before_lstsq(monkeypatch):
    # LAPACK may not return from a nan or inf matrix, so none may reach it
    from subriemann.surfaces import _newton_lstsq
    lstsq = np.linalg.lstsq

    def finite_only(j, b, **kwargs):
        assert np.isfinite(j).all() and np.isfinite(b).all()
        return lstsq(j, b, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", finite_only)
    q0 = np.array([0.3, -0.2])
    for r, j in ((np.array([np.nan, 1.0]), np.eye(2)),
                 (np.array([1.0, 0.5]), np.array([[np.inf, 0.0], [0.0, 1.0]]))):
        q, ok, j_end = _newton_lstsq(lambda q: (r, j), q0)
        assert not ok and np.array_equal(q, q0) and j_end is j
    # a finite system still converges through lstsq
    q, ok, _ = _newton_lstsq(lambda q: (q - 1.0, np.eye(2)), q0)
    assert ok and np.allclose(q, 1.0)


def test_batched_lstsq_matches_numpy_lstsq():
    from subriemann.surfaces import _lstsq_batch
    rng = np.random.default_rng(3)
    j = rng.normal(size=(40, 3, 3))
    j[::4, 2] = j[::4, 0] + j[::4, 1]          # rank 2
    j[1::4, 1:] = 0.0                           # rank 1
    j[2::4] *= 1e-3
    b = rng.normal(size=(40, 3))
    got = _lstsq_batch(j, b)
    for k in range(40):
        want, *_ = np.linalg.lstsq(j[k], b[k], rcond=None)
        assert np.allclose(got[k], want, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("dim", [2, 3])
def test_near_agrees_with_the_norm_definition(dim):
    from subriemann.surfaces import _near
    rng = np.random.default_rng(dim)
    points = rng.uniform(-1, 1, size=(700, dim))
    qs = rng.uniform(-1.2, 1.2, size=(400, dim))
    radius = 0.05 if dim == 2 else 0.12
    dmin = np.array([np.min(np.linalg.norm(points - q, axis=1)) for q in qs])
    qs, dmin = qs[np.abs(dmin - radius) > 1e-6], dmin[np.abs(dmin - radius) > 1e-6]
    got = _near(points, qs, radius)
    assert np.array_equal(got, dmin < radius)
    assert 0 < got.sum() < len(got)


def test_closed_singular_curve_is_traced_once_round():
    from subriemann.surfaces import TRACE_STEP, _trace_curve

    def system(q):
        x, y, t = q
        return (np.array([x * x + y * y - 1.0, t, 0.0]),
                np.array([[2 * x, 2 * y, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))

    q0 = np.array([1.0, 0.0, 0.0])
    pts, tans = _trace_curve(system, q0, system(q0)[1], ((-2, 2), (-2, 2), (-1, 1)))
    assert len(pts) == len(tans) <= 2 * np.pi / TRACE_STEP + 2
    # one lap: the angle moves one way and never comes back to an earlier value
    angle = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0]))
    steps = np.diff(angle)
    assert np.all(steps > 0) or np.all(steps < 0)
    assert 2 * np.pi - 2 * TRACE_STEP < abs(angle[-1] - angle[0]) < 2 * np.pi


def test_singular_exprs_are_built_once(rt, helicoid):
    geom = helicoid.geometry(rt)
    first = geom.singular_exprs()
    assert len(first) == 12
    assert geom.singular_exprs() is first


# ---------------------------------------------------------------------------
# stationarity at singular curves


def _stationarity_oracle(structure, surf, locus, n_samples=5, delta=1e-3, tol=1e-6):
    """The per-sample stationarity loop: frame matrix, solve, one projection
    per approach point and Z by tree walks.  Returns (orthogonal,
    max_angle_dev, inconclusive)."""
    geom = surf.geometry(structure)
    n = len(locus.points)
    idx = np.linspace(0, n - 1, min(n_samples, n)).astype(int)
    worst = 0.0
    inconclusive = False
    for i in idx:
        q = locus.points[i]
        tan_coord = locus.tangents[i]
        m = structure.frame_matrix(q)
        w = np.linalg.solve(m.T, tan_coord)
        w /= np.linalg.norm(w)
        if abs(w[2]) > 1e-4:
            inconclusive = True
            continue
        side = structure.j_apply(w)
        side_coord = side @ m
        for sgn in (+1.0, -1.0):
            zs = []
            for d in (delta, delta / 2.0):
                pq = surf.project(q + sgn * d * side_coord)
                zs.append(np.array([c.at(pq) for c in geom.Z]))
            if not np.all(np.isfinite(zs)):
                inconclusive = True
                continue
            z_lim = 2.0 * zs[1] - zs[0]
            nz = np.linalg.norm(z_lim)
            if nz < 0.5:
                inconclusive = True
                continue
            z_lim /= nz
            dev = abs(float(np.dot(z_lim, w)))
            worst = max(worst, abs(np.arcsin(min(1.0, dev))))
    return worst <= tol and not inconclusive, worst, inconclusive


def _assert_same_stationarity(rep, oracle):
    orthogonal, worst, inconclusive = oracle
    assert np.float64(rep.max_angle_dev).tobytes() == np.float64(worst).tobytes()
    assert rep.orthogonal == orthogonal
    assert rep.inconclusive == inconclusive


@pytest.mark.parametrize("name,region", [
    *((name, None) for name in _RT_REPORT_SURFACES),
    ("plane_y0", ((-1.5, 1.5), (-1.5, 1.5), (-0.9, 4.0)))],
    ids=[*_RT_REPORT_SURFACES, "plane_y0-small"])
def test_batched_stationarity_equals_the_per_sample_loop(name, region, rt, request):
    surf = request.getfixturevalue(name)
    loci = singular_set_detect(rt, surf, region=region or RT_REPORT_REGIONS[surf.name],
                               grid=13)
    curves = [l for l in loci if l.kind == "curve"]
    assert curves
    for curve in curves:
        _assert_same_stationarity(stationarity_at_singular_curve(rt, surf, curve),
                                  _stationarity_oracle(rt, surf, curve))


def test_stationarity_is_inconclusive_along_a_vertical_tangent(rt, helicoid):
    # the axis x = y = 0 of sigma_c, given the Reeb field as its tangent
    ts = np.linspace(-1.0, 1.0, 11)
    pts = np.column_stack([np.zeros_like(ts), np.zeros_like(ts), ts])
    tans = np.column_stack([np.sin(ts), -np.cos(ts), np.zeros_like(ts)])
    curve = SingularLocus("curve", pts, tans)
    rep = stationarity_at_singular_curve(rt, helicoid, curve)
    assert rep.inconclusive and not rep.orthogonal
    with np.errstate(all="ignore"):
        _assert_same_stationarity(rep, _stationarity_oracle(rt, helicoid, curve))


def test_stationarity_helicoid(rt, helicoid):
    loci = singular_set_detect(rt, helicoid, region=RT_REPORT_REGIONS["sigma_c"],
                               grid=13)
    curve = [l for l in loci if l.kind == "curve"][0]
    rep = stationarity_at_singular_curve(rt, helicoid, curve)
    assert rep.orthogonal
    assert rep.max_angle_dev < 1e-6


def test_stationarity_plane(rt, plane_y0):
    loci = singular_set_detect(rt, plane_y0,
                               region=((-1.5, 1.5), (-1.5, 1.5), (-0.9, 4.0)),
                               grid=13)
    for curve in [l for l in loci if l.kind == "curve"]:
        rep = stationarity_at_singular_curve(rt, plane_y0, curve)
        assert rep.orthogonal


def test_stationarity_fails_x_plus_sin(rt, x_plus_sin):
    loci = singular_set_detect(rt, x_plus_sin, region=RT_REPORT_REGIONS["x_plus_sin"],
                               grid=13)
    for curve in [l for l in loci if l.kind == "curve"]:
        rep = stationarity_at_singular_curve(rt, x_plus_sin, curve)
        assert not rep.orthogonal
        assert rep.max_angle_dev > 0.5   # 45 degrees, well off orthogonal


# ---------------------------------------------------------------------------
# serialization


def test_surface_json_roundtrip():
    s = ImplicitSurface(ex.parse("x*sin(t) - y*cos(t)"), name="sigma_c")
    s2 = surface_from_json(s.to_json())
    p = (0.3, 0.1, 0.2)
    assert s2.f.at(p) == pytest.approx(s.f.at(p))
    g = GraphSurface(ex.parse("x*y"), domain=((0, 1), (0, 1)),
                     metric=((2.0, 0.0), (0.0, 1.0)))
    g2 = surface_from_json(g.to_json())
    assert g2.u.at((0.3, 0.4, 0)) == pytest.approx(0.12)
    assert g2.metric[0][0].at((0, 0, 0)) == pytest.approx(2.0)


def test_graph_nonconstant_metric_rejects_frame_machinery():
    # det(g) varies -> c1 is not constant -> the adapted-frame structure
    # must be refused (chart-level area formulas still apply)
    from subriemann.structures import StructureError
    varying = ex.parse("1 + 0.25*x*x")
    gs = GraphSurface(ex.ZERO, domain=((-1, 1), (-1, 1)),
                      metric=((varying, 0.0), (0.0, 1.0)))
    assert area_graph(gs, order=6, cells=8) > 0.0
    with pytest.raises(StructureError):
        gs.structure()


def test_surface_expression_domain_guard(rt):
    bad = ImplicitSurface(ex.parse("1/x"), name="bad")
    with pytest.raises(ex.DomainError):
        bad.geometry(rt)
    bad2 = ImplicitSurface(ex.parse("sqrt(x - 100)"), name="bad2")
    with pytest.raises(ex.DomainError):
        bad2.geometry(rt)


# ---------------------------------------------------------------------------
# compiled kernels of the surface layer


def test_frame_point_matches_tree_walk_bit_for_bit(rt, helicoid, x_plus_sin):
    rng = np.random.default_rng(12)
    for surf, pts in ((helicoid, helicoid_points(rng, 10)),
                      (x_plus_sin, [x_plus_sin.project(q) for q in
                                    rng.uniform(-1.5, 1.5, (10, 3)) + (0, 0, 3.1)])):
        geom = surf.geometry(rt)
        z_gnt = geom.Z_of(geom.gNT)
        for p in pts:
            p = tuple(float(c) for c in p)
            fp = geom.frame_point(p)
            for name in ("nh", "gNT", "thetaS", "H", "tauZZ", "tauZnu"):
                assert getattr(fp, name) == getattr(geom, name).at(p), name
            for vec, comps in ((fp.N, geom.N_comps), (fp.nu_h, geom.nu),
                               (fp.Z, geom.Z), (fp.S, geom.S)):
                assert vec.components == tuple(c.at(p) for c in comps)
            nh, gnt = fp.nh, fp.gNT
            conti = (-rt.c1 * gnt * gnt + nh * nh * fp.tauZnu
                     - z_gnt.at(p) / nh) / nh
            assert fp.thetaS_conti == conti


def test_frame_point_singular_signal_without_warnings(rt, helicoid, plane_y0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for surf, p in ((helicoid, (0.0, 0.0, 0.3)), (plane_y0, (0.4, 0.0, 0.0))):
            with pytest.raises(SingularPointSignal):
                surf.geometry(rt).frame_point(p)


def _frame_field_exprs(geom):
    """The expressions behind each field of ``frame_values``, by name."""
    return {"f": geom.surface.f, "nh": geom.nh, "gNT": geom.gNT, "tauZZ": geom.tauZZ,
            "tauZnu": geom.tauZnu, "thetaS": geom.thetaS, "H": geom.H,
            "Z_gNT": geom.Z_of(geom.gNT), "N": geom.N_comps, "nu_h": geom.nu,
            "Z": geom.Z, "S": geom.S}


def test_frame_values_equal_frame_point_row_by_row(rt, helicoid, x_plus_sin, plane_y0):
    rng = np.random.default_rng(19)
    xs_pts = [x_plus_sin.project(q) for q in rng.uniform(-1.5, 1.5, (8, 3)) + (0, 0, 3.1)]
    # one singular row each on the helicoid axis and on the plane's line alpha = 0
    for surf, pts, singular in ((helicoid, helicoid_points(rng, 8), (0.0, 0.0, 0.3)),
                                (x_plus_sin, xs_pts, None),
                                (plane_y0, plane_points(rng, 8), (0.4, 0.0, 0.0))):
        pts = [tuple(float(c) for c in p) for p in pts]
        if singular is not None:
            pts.insert(3, singular)
        geom = surf.geometry(rt)
        fields, regular = geom.frame_values(pts)
        assert set(fields) == set(_frame_field_exprs(geom))
        assert regular.tolist() == [p != singular for p in pts]
        for k, p in enumerate(pts):
            if not regular[k]:
                with pytest.raises(SingularPointSignal):
                    geom.frame_point(p)
                continue
            fp = geom.frame_point(p)
            for name in ("nh", "gNT", "thetaS", "H", "tauZZ", "tauZnu"):
                assert fields[name][k] == getattr(fp, name), name
            for name in ("N", "nu_h", "Z", "S"):
                assert tuple(fields[name][k]) == getattr(fp, name).components, name


def test_frame_rows_of_a_cubic_graph_equal_eval_on_the_point_columns():
    # x^3 is an array power: frame rows follow eval on arrays, bit for bit
    gs = GraphSurface(ex.parse("x^3*y - 0.3*x + 0.2*y^2"), domain=((-1, 1), (-1, 1)))
    geom = gs.to_implicit().geometry(gs.structure())
    xy = np.random.default_rng(4).uniform(-0.9, 0.9, (50, 2))
    pts = np.column_stack([xy, gs.u.eval(xy[:, 0], xy[:, 1], 0.0)])
    fields, regular = geom.frame_values(pts)
    assert regular.all()
    cols = pts[:, 0], pts[:, 1], pts[:, 2]
    for name, e in _frame_field_exprs(geom).items():
        want = ([np.broadcast_to(c.eval(*cols), len(pts)) for c in e]
                if isinstance(e, list) else np.broadcast_to(e.eval(*cols), len(pts)))
        assert np.array_equal(np.transpose(want), fields[name]), name


def test_frame_values_name_the_first_off_surface_row(rt, helicoid):
    pts = helicoid_points(np.random.default_rng(5), 4)
    pts[2] = (1.0, 1.0, 0.0)
    pts.append((2.0, 1.0, 0.0))
    with pytest.raises(ValueError, match=re.escape("point (1.0, 1.0, 0.0) is not on")):
        helicoid.geometry(rt).frame_values(pts)


def test_surface_analyze_on_a_region_that_misses_the_surface(tmp_path, capsys):
    from subriemann.cli import main
    csv = tmp_path / "rows.csv"
    code = main(["surface", "analyze", "--surface", "sigma_c", "--json",
                 "--region=2,3,2,3,0.1,0.2", "--csv-out", str(csv)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["samples"] == 0
    assert csv.read_text() == "x,y,t,nh,gNT,H,thetaS,tauZZ,tauZnu\n\n"


def _l_of_nh_tree(geom, p):
    """``l_of_nh`` by ``Expr.at`` tree walks."""
    st, c1 = geom.structure, geom.structure.c1
    w = st.webster_curvature_tensor(p)
    nh, gnt = geom.nh.at(p), geom.gNT.at(p)
    tzn, ths = geom.tauZnu.at(p), geom.thetaS.at(p)
    a = (w - c1 * tzn - 2.0 * c1 * (nh * ths - nh * nh * tzn) / nh ** 2
         - c1 ** 2 * gnt ** 2 / nh ** 2)
    z_ratio = geom.Z_of(ex.div(geom.gNT, geom.nh)).at(p)
    b = w - c1 * tzn + 2.0 * c1 * z_ratio + c1 ** 2 * gnt ** 2 / nh ** 2
    return a, b, a - b


def _second_variation_terms_tree(geom, p, v, w):
    """(q, xi, zeta, eta) of ``second_variation_terms`` by ``Expr.at`` tree walks."""
    c1 = geom.structure.c1
    nh, gnt = geom.nh.at(p), geom.gNT.at(p)
    tzn, tzz, ths = geom.tauZnu.at(p), geom.tauZZ.at(p), geom.thetaS.at(p)
    u = v + gnt * w
    coeff = nh * ths + c1 * gnt ** 2 + (1.0 + gnt ** 2) * tzn
    b_zs = geom.shape_dot(geom.Z, geom.S).at(p)
    return (geom.q_expr().at(p), gnt * coeff * u * u,
            nh * nh * (gnt * coeff * w * w - 2.0 * b_zs * v * w),
            (nh * nh * v * v - (gnt * v + w) ** 2) * tzz)


def test_pointwise_stability_terms_equal_tree_walks(rt, helicoid, plane_y0):
    from subriemann.variation import l_of_nh, second_variation_terms
    rng = np.random.default_rng(7)
    for surf, pts in ((helicoid, helicoid_points(rng, 6)),
                      (plane_y0, plane_points(rng, 6))):
        geom = surf.geometry(rt)
        for p in pts:
            p = tuple(float(c) for c in p)
            assert l_of_nh(geom, p) == _l_of_nh_tree(geom, p)
            t = second_variation_terms(geom, p, v=0.7, w=0.3)
            assert (t.q, t.xi, t.zeta, t.eta) == _second_variation_terms_tree(geom, p, 0.7, 0.3)


def test_projection_kernels_compile_once_per_surface():
    surf = ImplicitSurface(ex.parse("x*sin(t) - y*cos(t) + 0.1*x*x"))
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (20, 3))
    surf.project(pts[0])
    surf.project(pts)
    size = len(ex._FAST_CACHE)
    for q in pts:
        assert abs(surf.value(surf.project(q))) < 1e-12
    for _ in range(5):
        out = surf.project(pts + 0.01)
    assert np.max(np.abs(surf.f.eval(out[:, 0], out[:, 1], out[:, 2]))) < 1e-12
    assert len(ex._FAST_CACHE) == size


def test_graph_frames_reuse_one_geometry():
    gs = GraphSurface(ex.parse("x*y"), domain=((-1, 1), (-1, 1)))
    assert gs.to_implicit() is gs.to_implicit()
    surface_frame(None, gs, (0.5, 0.5, 0.25))
    size = len(ex._FAST_CACHE)
    for x in (0.1, 0.2, 0.3):
        assert surface_frame(None, gs, (x, 0.5, 0.5 * x)).nh > 0
    assert len(ex._FAST_CACHE) == size


def test_graph_metric_accepts_signed_zero_off_diagonal():
    # 0.0 and -0.0 are two nodes (kernels print repr), yet a symmetric pair
    gs = GraphSurface(ex.parse("x*y"), metric=((1.0, 0.0), (-0.0, 1.0)))
    assert gs.metric[0][1] is ex.ZERO and gs.metric[1][0] is ex.Const(-0.0)
    gs = GraphSurface(ex.parse("x*y"),
                      metric=((2.0, ex.parse("0.1*x")), (ex.parse("0.1*x"), 1.0)))
    assert gs.metric[0][1] is gs.metric[1][0]
    with pytest.raises(ValueError, match="symmetric"):
        GraphSurface(ex.parse("x*y"), metric=((1.0, 0.0), (0.1, 1.0)))
