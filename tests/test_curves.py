import numpy as np
import pytest

from subriemann import expr as ex
from subriemann.structures import StructureError
from subriemann.curves import (CharState, integrate_characteristic,
                               integrate_geodesic, rt_characteristic_closed_form,
                               jacobi_vertical_ode, jacobi_from_curve_family,
                               first_integral, characteristic_residual)
from subriemann.structures import unimodular_structure


# ---------------------------------------------------------------------------
# roto-translation closed forms


def test_rt_closed_form_straight_line():
    pts = rt_characteristic_closed_form((1, 2, 0, 1, 0, 0), np.array([0.0, 0.5, 2.0]))
    assert np.allclose(pts, [[1, 2, 0], [1.5, 2, 0], [3, 2, 0]])


def test_rt_closed_form_fiber():
    pts = rt_characteristic_closed_form((0.3, -0.2, 0.1, 0, 0, 1.0),
                                        np.array([0.0, 1.0, 2.5]))
    assert np.allclose(pts, [[0.3, -0.2, 0.1], [0.3, -0.2, 1.1], [0.3, -0.2, 2.6]])


def test_rt_closed_form_circular():
    p = rt_characteristic_closed_form((0, 0, 0, 1, 0, 1.0), np.pi)
    assert np.allclose(p, [np.sin(np.pi), 1 - np.cos(np.pi), np.pi], atol=1e-15)
    assert np.allclose(p, [0.0, 2.0, np.pi], atol=1e-12)


def test_rt_closed_form_requires_horizontal_velocity():
    with pytest.raises(ValueError):
        rt_characteristic_closed_form((0, 0, 0, 0.0, 1.0, 0.0), 1.0)


# ---------------------------------------------------------------------------
# characteristic integration


def test_rt_straight_line_integration(rt):
    trace = integrate_characteristic(rt, CharState((0, 0, 0), np.pi / 2, 0.0),
                                     (0.0, 5.0), 1e-3)
    expect = np.stack([trace.s, np.zeros_like(trace.s), np.zeros_like(trace.s)],
                      axis=1)
    assert np.max(np.abs(trace.points - expect)) < 1e-10


def test_rt_fiber_integration(rt):
    trace = integrate_characteristic(rt, CharState((0.5, -0.5, 0.2), 0.0, 0.0),
                                     (0.0, 3.0), 1e-3)
    expect = np.stack([np.full_like(trace.s, 0.5), np.full_like(trace.s, -0.5),
                       0.2 + trace.s], axis=1)
    assert np.max(np.abs(trace.points - expect)) < 1e-10


def test_rt_oracle_diagonal_direction(rt):
    phi = np.pi / 4  # Z = (X + Y)/sqrt(2)
    trace = integrate_characteristic(rt, CharState((0, 0, 0), phi, 0.0),
                                     (0.0, 10.0), 1e-3)
    m = rt.frame_matrix((0.0, 0.0, 0.0))
    vel = np.cos(phi) * m[0] + np.sin(phi) * m[1]
    closed = rt_characteristic_closed_form((0, 0, 0, vel[0], vel[1], vel[2]),
                                           trace.s)
    assert np.max(np.linalg.norm(trace.points - closed, axis=1)) < 1e-8


def test_rk4_order_of_convergence(rt):
    phi = 0.9
    m = rt.frame_matrix((0.0, 0.0, 0.0))
    vel = np.cos(phi) * m[0] + np.sin(phi) * m[1]
    errs = []
    steps = [4e-2, 2e-2, 1e-2]
    for h in steps:
        trace = integrate_characteristic(rt, CharState((0, 0, 0), phi, 0.35),
                                         (0.0, 4.0), h)
        fine = integrate_characteristic(rt, CharState((0, 0, 0), phi, 0.35),
                                        (0.0, 4.0), h / 16)
        errs.append(np.linalg.norm(trace.points[-1] - fine.points[-1]))
    fit = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert 3.8 <= fit <= 4.2


def test_adaptive_matches_fixed(rt):
    st0 = CharState((0.2, 0.1, 0.0), 0.7, 0.4)
    fixed = integrate_characteristic(rt, st0, (0.0, 3.0), 1e-3)
    adap = integrate_characteristic(rt, st0, (0.0, 3.0), 1e-2, adaptive=True,
                                    tol=1e-11)
    assert np.linalg.norm(fixed.points[-1] - adap.points[-1]) < 1e-7


def test_zero_range_gives_single_sample(rt):
    trace = integrate_characteristic(rt, CharState((0, 0, 0), 0.3, 0.0),
                                     (0.0, 0.0), 1e-3)
    assert len(trace) == 1 and not trace.truncated


def test_domain_exit_truncates(rt):
    # fiber direction: alpha grows without bound, chart caps at 16
    trace = integrate_characteristic(rt, CharState((0, 0, 15.9), 0.0, 0.0),
                                     (0.0, 1.0), 1e-3)
    assert trace.truncated
    assert trace.points[-1, 2] <= 16.0 + 1e-6


def test_lie_group_kind_rejected_for_integration():
    st = unimodular_structure(1.0, 1.0)
    with pytest.raises(StructureError):
        integrate_characteristic(st, CharState((0, 0, 0), 0.0, 0.0), (0, 1), 1e-2)


def test_characteristic_residual_flags_noncharacteristic(rt):
    trace = integrate_characteristic(rt, CharState((0, 0, 0), 0.4, 0.2),
                                     (0.0, 2.0), 1e-3)
    assert characteristic_residual(rt, trace) < 1e-8
    bad = trace
    bad.phi = bad.phi + 0.05 * bad.s  # corrupt the angle signal
    assert characteristic_residual(rt, bad) > 1e-3


# ---------------------------------------------------------------------------
# geodesics


def test_heisenberg_geodesic_lambda_constant(heis):
    tr = integrate_geodesic(heis, CharState((0, 0, 0), 0.3, 0.5), (0.0, 3.0), 1e-3)
    assert np.max(np.abs(tr.lam - 0.5)) < 1e-12
    ch = integrate_characteristic(heis, CharState((0, 0, 0), 0.3, 0.5),
                                  (0.0, 3.0), 1e-3)
    assert np.max(np.linalg.norm(tr.points - ch.points, axis=1)) < 1e-12


def test_rt_geodesic_lambda_rate(rt):
    # gamma' = X with lambda = 0: g(tau X, X) = 0 so lambda stays 0 and the
    # angle never rotates (the fiber line is a sub-Riemannian geodesic)
    tr = integrate_geodesic(rt, CharState((0, 0, 0), 0.0, 0.0), (0.0, 2.0), 1e-3)
    assert np.max(np.abs(tr.lam)) < 1e-12
    assert np.max(np.abs(tr.phi)) < 1e-12
    # gamma' = (X+Y)/sqrt2: dlambda/ds(0) = -(1/c1) g(tau Z, Z) = -1/2
    tr2 = integrate_geodesic(rt, CharState((0, 0, 0), np.pi / 4, 0.0),
                             (0.0, 0.2), 1e-4)
    rate0 = (tr2.lam[1] - tr2.lam[0]) / (tr2.s[1] - tr2.s[0])
    assert rate0 == pytest.approx(-0.5, abs=1e-4)


# ---------------------------------------------------------------------------
# Jacobi vertical equation


def test_jacobi_zero_init_stays_zero(rt):
    jt = jacobi_vertical_ode(rt, CharState((0, 0, 0), 0.0, 0.0), (0, 0, 0),
                             (0.0, 5.0), 1e-3)
    assert np.max(np.abs(jt.vt)) == 0.0


def test_jacobi_rt_plane_closed_form(rt):
    # characteristic gamma' = X on the plane y = 0: k = g(gamma', X)^2 = 1;
    # init (0, -1, 0) has the closed form -sin(s)
    jt = jacobi_vertical_ode(rt, CharState((0, 0, 0), 0.0, 0.0), (0.0, -1.0, 0.0),
                             (0.0, 6.0), 1e-3)
    assert np.allclose(jt.beta1, 1.0, atol=1e-12)
    assert np.allclose(jt.beta2, 0.0, atol=1e-12)
    assert np.max(np.abs(jt.vt + np.sin(jt.s))) < 1e-9


def test_jacobi_rt_k_quarter(rt):
    # g(gamma', X)^2 = cos^2(pi/3) = 1/4 -> vt = -(1/sqrt(k)) sin(sqrt(k) s)
    k = 0.25
    jt = jacobi_vertical_ode(rt, CharState((0, 0, 0), np.pi / 3, 0.0),
                             (0.0, -1.0, 0.0), (0.0, 8.0), 1e-3)
    assert np.allclose(jt.beta1, k, atol=1e-12)
    expect = -np.sin(np.sqrt(k) * jt.s) / np.sqrt(k)
    assert np.max(np.abs(jt.vt - expect)) < 1e-9


def test_jacobi_heisenberg_k4(heis):
    # W = tau = 0: beta1 = c1^2 lambda^2 = 4 at lambda = 1, beta2 = 0
    k = 4.0
    jt = jacobi_vertical_ode(heis, CharState((0, 0, 0), 0.2, 1.0),
                             (0.0, -1.0, 0.0), (0.0, 6.0), 1e-3)
    assert np.allclose(jt.beta1, k, atol=1e-12)
    assert np.allclose(jt.beta2, 0.0, atol=1e-12)
    expect = -np.sin(np.sqrt(k) * jt.s) / np.sqrt(k)
    assert np.max(np.abs(jt.vt - expect)) < 1e-9


def test_jacobi_heisenberg_lambda0_cubic(heis):
    # beta1 = beta2 = 0: vt is the quadratic polynomial matching the init
    init = (0.3, -0.2, 0.8)
    jt = jacobi_vertical_ode(heis, CharState((0, 0, 0), 0.9, 0.0), init,
                             (0.0, 4.0), 1e-3)
    expect = init[0] + init[1] * jt.s + 0.5 * init[2] * jt.s ** 2
    assert np.max(np.abs(jt.vt - expect)) < 1e-10


def test_jacobi_base_trace_precondition(rt):
    trace = integrate_characteristic(rt, CharState((0, 0, 0), 0.4, 0.2),
                                     (0.0, 2.0), 1e-3)
    jacobi_vertical_ode(rt, CharState((0, 0, 0), 0.4, 0.2), (0, -1, 0),
                        (0.0, 2.0), 1e-3, base_trace=trace)
    trace.phi = trace.phi + 0.1 * trace.s
    with pytest.raises(ValueError):
        jacobi_vertical_ode(rt, CharState((0, 0, 0), 0.4, 0.2), (0, -1, 0),
                            (0.0, 2.0), 1e-3, base_trace=trace)


# ---------------------------------------------------------------------------
# curve-family (finite difference) oracle


def _fd_init(jt):
    """(vt, vt', vt'') at s = 0 from a family trace, one-sided 4th order."""
    h = jt.s[1] - jt.s[0]
    v = jt.vt
    d1 = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)
    d2 = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / (h * h)
    return v[0], d1, d2


def test_family_oracle_rt_plane(rt):
    # vertical-line family on the plane y = 0: V = d/dx, g(V,T) = sin(alpha)
    fam = jacobi_from_curve_family(
        rt, lambda e: CharState((e, 0.0, 0.3), 0.0, 0.0), 0.0, (0.0, 5.0), 1e-3)
    expect = np.sin(0.3 + fam.s)
    assert np.max(np.abs(fam.vt - expect)) < 1e-7


def test_family_oracle_matches_ode_rt_plane(rt):
    fam = jacobi_from_curve_family(
        rt, lambda e: CharState((e, 0.0, 0.3), 0.0, 0.0), 0.0, (0.0, 5.0), 1e-3)
    jt = jacobi_vertical_ode(rt, CharState((0, 0, 0.3), 0.0, 0.0), _fd_init(fam),
                             (0.0, 5.0), 1e-3)
    assert np.max(np.abs(fam.vt - jt.vt)) < 1e-4


def test_family_oracle_helicoid_linear(rt):
    # fan of rays from the helicoid axis: g(V,T)(s) = -s
    def transverse(e):
        return CharState((0.0, 0.0, e), np.pi / 2, 0.0)

    fam = jacobi_from_curve_family(rt, transverse, 0.0, (0.0, 4.0), 1e-3)
    assert np.max(np.abs(fam.vt + fam.s)) < 1e-6


def test_family_oracle_nonzero_lambda(rt):
    # lambda != 0 exercises the beta2 signal (tau derivative along the curve)
    lam = 0.7

    def transverse(e):
        return CharState((0.0, e, 0.0), 0.3, lam)

    fam = jacobi_from_curve_family(rt, transverse, lam, (0.0, 4.0), 1e-3)
    jt = jacobi_vertical_ode(rt, CharState((0.0, 0.0, 0.0), 0.3, lam),
                             _fd_init(fam), (0.0, 4.0), 1e-3)
    assert np.max(np.abs(fam.vt - jt.vt)) < 1e-4


def test_family_reparametrization_direction(rt):
    # displacement along the fiber curve itself: V = gamma', g(V,T) = 0
    def transverse(e):
        return CharState((0.0, 0.0, e), 0.0, 0.0)

    fam = jacobi_from_curve_family(rt, transverse, 0.0, (0.0, 2.0), 1e-3)
    assert np.max(np.abs(fam.vt)) < 1e-9


def test_vt1_bracket_identity(rt):
    # g(V,T)' = c1 g(J(gamma'), V) along the family
    fam = jacobi_from_curve_family(
        rt, lambda e: CharState((e, 0.0, 0.3), 0.0, 0.0), 0.0, (0.0, 4.0), 1e-3)
    rhs = rt.c1 * fam.gVJZ
    interior = slice(5, -5)
    assert np.max(np.abs(fam.vt_prime[interior] - rhs[interior])) < 1e-6


def test_first_integral_on_geodesics(rt, heis):
    # RT fiber curves (gamma' = X) have g(tau Z, Z) = 0 and lambda = 0;
    # Heisenberg has tau = 0, so every lambda qualifies
    fam_rt = jacobi_from_curve_family(
        rt, lambda e: CharState((0.0, e, 0.5), 0.0, 0.0), 0.0, (0.0, 10.0), 1e-3)
    fi = first_integral(fam_rt)
    assert np.max(np.abs(fi[2:-2] - fi[2])) < 1e-8

    fam_h = jacobi_from_curve_family(
        heis, lambda e: CharState((0.0, e, 0.0), 0.3, 0.4), 0.4, (0.0, 10.0), 1e-3)
    fi_h = first_integral(fam_h)
    assert np.max(np.abs(fi_h[2:-2] - fi_h[2])) < 1e-8


def test_horizontal_speed_exact(rt):
    trace = integrate_characteristic(rt, CharState((0, 0, 0), 0.8, 0.6),
                                     (0.0, 5.0), 1e-3)
    # angle parametrization: |gamma'| = 1 identically by construction; check
    # the coordinate velocity matches a unit horizontal vector
    for i in (0, len(trace) // 2, len(trace) - 1):
        m = rt.frame_matrix(trace.points[i])
        v = np.cos(trace.phi[i]) * m[0] + np.sin(trace.phi[i]) * m[1]
        comps = np.linalg.solve(m.T, v)
        assert np.hypot(comps[0], comps[1]) == pytest.approx(1.0, abs=1e-14)
        assert abs(comps[2]) < 1e-14


def test_csv_trace_format(rt):
    trace = integrate_characteristic(rt, CharState((0, 0, 0), 0.3, 0.0),
                                     (0.0, 0.01), 1e-3)
    csv = trace.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "s,x,y,t,phi,lambda"
    assert len(lines) == len(trace) + 1
    assert "," in lines[1] and "e" not in lines[0]


def test_csv_with_jacobi_columns(rt):
    jt = jacobi_vertical_ode(rt, CharState((0, 0, 0), 0.0, 0.0), (0, -1, 0),
                             (0.0, 0.01), 1e-3)
    csv = jt.base.to_csv(jacobi=jt)
    header = csv.split("\n")[0]
    assert header == "s,x,y,t,phi,lambda,gVT,gVT_prime,gVT_second"


# ---------------------------------------------------------------------------
# shared right-hand-side kernels, batched frame solves, truncation


def test_second_integration_on_a_structure_compiles_nothing():
    from subriemann import catalog as cat
    st = cat.rt_structure()

    def run_all():
        integrate_characteristic(st, CharState((0, 0, 0.2), 0.4, 0.1), (0.0, 0.1), 1e-2)
        integrate_geodesic(st, CharState((0, 0, 0.2), 0.4, 0.1), (0.0, 0.1), 1e-2)
        jacobi_vertical_ode(st, CharState((0, 0, 0.2), 0.4, 0.1), (0, -1, 0),
                            (0.0, 0.1), 1e-2)
        jacobi_from_curve_family(st, lambda e: CharState((e, 0, 0.2), 0.4, 0.0), 0.0,
                                 (0.0, 0.1), 1e-2)

    run_all()
    entries = len(ex._FAST_CACHE)
    run_all()
    assert len(ex._FAST_CACHE) == entries


@pytest.mark.parametrize("name", ["rt", "heis"])
def test_batched_frame_solve_equals_per_point_solve(name, request):
    st = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    P = rng.uniform(-3.0, 3.0, (200, 3))
    V = rng.normal(size=(200, 3))
    comps = st.frame_components(P, V)
    for k in range(len(P)):
        assert np.array_equal(comps[k], np.linalg.solve(st.frame_matrix(P[k]).T, V[k]))


def _first_outside_scan(structure, ys):
    """Per-row reference: first row with a coordinate off the chart."""
    for i in range(len(ys)):
        if not all(lo - 1e-9 <= c <= hi + 1e-9
                   for c, (lo, hi) in zip(ys[i, :3], structure.chart_domain)):
            return max(i, 1)
    return None


def test_truncation_equals_per_row_scan(rt):
    from subriemann.curves import integrate_ode, _char_system, _truncate_outside
    sysm = _char_system(rt)
    # the fiber direction leaves the chart at alpha = 16
    _, ys = integrate_ode(lambda y: sysm.char_rhs(y, 0.0), np.array([0, 0, 15.9, 0.0]),
                          (0.0, 1.0), 1e-3)
    cut = _truncate_outside(rt, ys)
    assert cut is not None and cut == _first_outside_scan(rt, ys)
    inside = ys[:cut]
    assert _truncate_outside(rt, inside) is None is _first_outside_scan(rt, inside)
    with_nan = inside.copy()
    with_nan[7, 1] = np.nan
    assert _truncate_outside(rt, with_nan) == _first_outside_scan(rt, with_nan) == 7
    off_at_start = inside.copy()
    off_at_start[0, 0] = 1e3
    assert _truncate_outside(rt, off_at_start) == _first_outside_scan(rt, off_at_start) == 1


@pytest.mark.parametrize("name", ["rt", "heis"])
def test_jacobi_rhs_agrees_with_beta_coeffs(name, request):
    from subriemann.curves import _char_system
    st = request.getfixturevalue(name)
    sysm = _char_system(st)
    rng = np.random.default_rng(11)
    for _ in range(20):
        state = np.concatenate([rng.uniform(-2.0, 2.0, 3), rng.uniform(-np.pi, np.pi, 1),
                                rng.normal(size=3)])
        lam = float(rng.uniform(-1.0, 1.0))
        rhs = sysm.jacobi_rhs(state, lam)
        b1, b2 = sysm.beta_coeffs(state[:3], state[3], lam)
        assert np.array_equal(rhs[:4], sysm.char_rhs(state[:4], lam))
        assert np.array_equal(rhs[4:6], state[5:7])
        assert rhs[6] == -b1 * state[5] - st.c1 * b2 * state[4]
        # beta1 = W + c1 g(tau(Z), J(Z)) + c1^2 lam^2, by tree walks
        c, s = np.cos(state[3]), np.sin(state[3])
        tau = st.tau_matrix(state[:3])
        tzj = st.sgn_c1 * (tau[0, 1] * (c * c - s * s) + (tau[1, 1] - tau[0, 0]) * c * s)
        w = st.webster_expr().at(state[:3])
        assert b1 == pytest.approx(w + st.c1 * tzj + st.c1 ** 2 * lam ** 2, abs=1e-12)
