import warnings

import numpy as np
import pytest

from subriemann import expr as ex
from subriemann.structures import TangentVector, sum_exprs
from subriemann.surfaces import (GraphSurface, ImplicitSurface, surface_frame,
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
# stationarity at singular curves


def test_stationarity_helicoid(rt, helicoid):
    loci = singular_set_detect(rt, helicoid, region=((-2, 2), (-2, 2), (-2, 2)),
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
    loci = singular_set_detect(rt, x_plus_sin,
                               region=((-2, 2), (-2, 2), (0.3, 5.9)), grid=13)
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


def test_projection_kernels_compile_once_per_surface():
    from subriemann.variation import _project_batch
    surf = ImplicitSurface(ex.parse("x*sin(t) - y*cos(t) + 0.1*x*x"))
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (20, 3))
    surf.project(pts[0])
    _project_batch(surf, pts)
    size = len(ex._FAST_CACHE)
    for q in pts:
        assert abs(surf.value(surf.project(q))) < 1e-12
    for _ in range(5):
        out = _project_batch(surf, pts + 0.01)
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
