import math

import numpy as np
import pytest

from subriemann import expr as ex
from subriemann.structures import StructureError
from subriemann.curves import (CharState, integrate_characteristic,
                               integrate_geodesic, rt_characteristic_closed_form,
                               jacobi_vertical_ode, jacobi_from_curve_family,
                               first_integral, integrate_ode, _char_flow,
                               _geodesic_flow, _jacobi_flow, _flow_exprs, _flow_source,
                               rk4_step, _CSV_BLOCK)
from subriemann.structures import structure_from_json, unimodular_structure


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


def test_curved_characteristic_step_matches_tenfold_finer_step(rt):
    st0 = CharState((0.2, 0.1, 0.0), 0.7, 0.4)
    coarse = integrate_characteristic(rt, st0, (0.0, 3.0), 1e-3)
    fine = integrate_characteristic(rt, st0, (0.0, 3.0), 1e-4)
    assert np.linalg.norm(coarse.points[-1] - fine.points[-1]) < 1e-7


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


def _characteristic_residual(structure, trace):
    """Max residual of phi' + |c1| lambda + Gamma at 20 interior points of a
    trace, phi' by central differences."""
    idx = np.linspace(1, len(trace) - 2, 20).astype(int)
    worst = 0.0
    for i in idx:
        dphi = (trace.phi[i + 1] - trace.phi[i - 1]) / (trace.s[i + 1] - trace.s[i - 1])
        target = _char_flow(structure, trace.lam[i])((*trace.points[i], trace.phi[i]))[3]
        worst = max(worst, abs(dphi - target))
    return worst


def test_characteristic_residual_flags_noncharacteristic(rt):
    trace = integrate_characteristic(rt, CharState((0, 0, 0), 0.4, 0.2),
                                     (0.0, 2.0), 1e-3)
    assert _characteristic_residual(rt, trace) < 1e-8
    bad = trace
    bad.phi = bad.phi + 0.05 * bad.s  # corrupt the angle signal
    assert _characteristic_residual(rt, bad) > 1e-3


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


def _betas(structure, p, phi, lam):
    """(beta1, beta2) at a point and angle from the library's Jacobi
    right-hand side: its last entry -beta1 v' - c1 beta2 v at (v, v', v'')
    = (0, 1, 0) is -beta1, and at (1, 0, 0) it is -c1 beta2."""
    rhs = _jacobi_flow(structure, lam)
    b1 = -rhs((*p, phi, 0.0, 1.0, 0.0))[6]
    b2 = -rhs((*p, phi, 1.0, 0.0, 0.0))[6] / structure.c1
    return b1, b2


def _betas_along(structure, jt):
    """(beta1, beta2) at every state of a Jacobi trace's base curve."""
    b = [_betas(structure, p, phi, lam)
         for p, phi, lam in zip(jt.base.points, jt.base.phi, jt.base.lam)]
    return np.array(b).T


def test_jacobi_zero_init_stays_zero(rt):
    jt = jacobi_vertical_ode(rt, CharState((0, 0, 0), 0.0, 0.0), (0, 0, 0),
                             (0.0, 5.0), 1e-3)
    assert np.max(np.abs(jt.vt)) == 0.0


def test_jacobi_rt_plane_closed_form(rt):
    # characteristic gamma' = X on the plane y = 0: k = g(gamma', X)^2 = 1;
    # init (0, -1, 0) has the closed form -sin(s)
    jt = jacobi_vertical_ode(rt, CharState((0, 0, 0), 0.0, 0.0), (0.0, -1.0, 0.0),
                             (0.0, 6.0), 1e-3)
    beta1, beta2 = _betas_along(rt, jt)
    assert np.allclose(beta1, 1.0, atol=1e-12)
    assert np.allclose(beta2, 0.0, atol=1e-12)
    assert np.max(np.abs(jt.vt + np.sin(jt.s))) < 1e-9


def test_jacobi_rt_k_quarter(rt):
    # g(gamma', X)^2 = cos^2(pi/3) = 1/4 -> vt = -(1/sqrt(k)) sin(sqrt(k) s)
    k = 0.25
    jt = jacobi_vertical_ode(rt, CharState((0, 0, 0), np.pi / 3, 0.0),
                             (0.0, -1.0, 0.0), (0.0, 8.0), 1e-3)
    beta1, _ = _betas_along(rt, jt)
    assert np.allclose(beta1, k, atol=1e-12)
    expect = -np.sin(np.sqrt(k) * jt.s) / np.sqrt(k)
    assert np.max(np.abs(jt.vt - expect)) < 1e-9


def test_jacobi_heisenberg_k4(heis):
    # W = tau = 0: beta1 = c1^2 lambda^2 = 4 at lambda = 1, beta2 = 0
    k = 4.0
    jt = jacobi_vertical_ode(heis, CharState((0, 0, 0), 0.2, 1.0),
                             (0.0, -1.0, 0.0), (0.0, 6.0), 1e-3)
    beta1, beta2 = _betas_along(heis, jt)
    assert np.allclose(beta1, k, atol=1e-12)
    assert np.allclose(beta2, 0.0, atol=1e-12)
    expect = -np.sin(np.sqrt(k) * jt.s) / np.sqrt(k)
    assert np.max(np.abs(jt.vt - expect)) < 1e-9


def test_jacobi_heisenberg_lambda0_cubic(heis):
    # beta1 = beta2 = 0: vt is the quadratic polynomial matching the init
    init = (0.3, -0.2, 0.8)
    jt = jacobi_vertical_ode(heis, CharState((0, 0, 0), 0.9, 0.0), init,
                             (0.0, 4.0), 1e-3)
    expect = init[0] + init[1] * jt.s + 0.5 * init[2] * jt.s ** 2
    assert np.max(np.abs(jt.vt - expect)) < 1e-10


def test_jacobi_stops_at_the_chart_edge(heis):
    # from the origin at phi = 0.3 the curve leaves the chart x <= 8 after
    # 838 states; the joint Jacobi run keeps exactly the curve's states
    init = CharState((0, 0, 0), 0.3, 0.0)
    ch = integrate_characteristic(heis, init, (0.0, 10.0), 1e-2)
    jt = jacobi_vertical_ode(heis, init, (0.0, -1.0, 0.0), (0.0, 10.0), 1e-2)
    assert ch.truncated and jt.base.truncated
    assert len(ch) == len(jt.s) == len(jt.vt) == 838
    assert jt.base.points.tobytes() == ch.points.tobytes()
    assert jt.base.phi.tobytes() == ch.phi.tobytes()
    assert np.all(jt.base.points[:, 0] <= heis.chart_domain[0][1])


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


def test_family_keeps_the_chart_edge_cut(heis):
    # the members leave the chart x <= 8 after 838 states, as the curve of
    # test_jacobi_stops_at_the_chart_edge does; the trimmed base keeps the cut
    fam = jacobi_from_curve_family(heis, lambda e: CharState((0, e, 0), 0.3, 0.0),
                                   0.0, (0.0, 10.0), 1e-2)
    assert len(fam.s) == len(fam.base) == 838
    assert fam.base.points[-1, 0] == pytest.approx(7.996, abs=1e-3)
    assert fam.base.truncated


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


def _all_states(f, y0, s_span, step):
    """Every state of the run, stepped with the library's RK4 step and no
    chart-edge cut."""
    from subriemann.curves import rk4_step
    n = max(int(round(abs(s_span[1] - s_span[0]) / step)), 1)
    h = (s_span[1] - s_span[0]) / n
    ys = [tuple(y0)]
    for _ in range(n):
        ys.append(rk4_step(f, ys[-1], h))
    return np.array(ys)


def test_truncation_equals_per_row_scan(rt):
    # the fiber direction leaves the chart at alpha = 16
    f = _char_flow(rt, 0.0)
    y0 = (0.0, 0.0, 15.9, 0.0)
    s, ys, cut = integrate_ode(rt, f, y0, (0.0, 1.0), 1e-3)
    full = _all_states(f, y0, (0.0, 1.0), 1e-3)
    assert cut and len(ys) == len(s) == _first_outside_scan(rt, full) < len(full)
    assert ys.tobytes() == full[:len(ys)].tobytes()
    s, inside, cut = integrate_ode(rt, f, y0, (0.0, 0.05), 1e-3)
    assert not cut and len(inside) == 51 and _first_outside_scan(rt, inside) is None

    # a nan coordinate counts as outside: y turns nan in the step to x = 0.007
    def g(y):
        return (1.0, math.nan if y[0] > 0.0063 else 0.0, 0.0, 0.0)
    s, ys, cut = integrate_ode(rt, g, y0, (0.0, 0.02), 1e-3)
    full = _all_states(g, y0, (0.0, 0.02), 1e-3)
    assert cut and len(ys) == _first_outside_scan(rt, full) == 7
    with pytest.raises(StructureError):
        integrate_ode(rt, f, (1e3, 0.0, 0.0, 0.0), (0.0, 1.0), 1e-3)


class _Stepped(Exception):
    """Raised by a right-hand side to stop a run at its first step."""


def test_a_span_of_more_than_max_steps_is_refused_before_any_step(rt):
    from subriemann.curves import MAX_STEPS

    def never(y):
        pytest.fail("a refused span took a step")

    def stop(y):
        raise _Stepped

    y0 = (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"takes 1e\+300 RK4 steps, above the cap of 1,000,000"):
        integrate_ode(rt, never, y0, (0.0, 1.0), 1e-300)
    with pytest.raises(ValueError, match=f"takes {MAX_STEPS + 1} RK4 steps"):
        integrate_ode(rt, never, y0, (0.0, -1.0), 1.0 / (MAX_STEPS + 1))
    with pytest.raises(ValueError, match="takes inf RK4 steps"):   # the span overflows
        integrate_ode(rt, never, y0, (-1e308, 1e308), 1.0)
    with pytest.raises(_Stepped):                 # the cap itself is allowed
        integrate_ode(rt, stop, y0, (0.0, 1.0), 1.0 / MAX_STEPS)


def test_every_state_length_steps_through_one_generated_rk4_step(rt, monkeypatch):
    from subriemann import curves
    # start from caches that hold no RK4 step
    monkeypatch.setattr(ex, "_FAST_CACHE", {k: v for k, v in ex._FAST_CACHE.items()
                                            if k[1][:1] != ("rk4",)})
    monkeypatch.setattr(curves, "_RK4_BY_LENGTH", {})

    def never(y):
        pytest.fail("a refused state took a step")

    for length in (0, 1, 2):        # no chart point
        with pytest.raises(ValueError, match=f"a state of length {length} holds no chart point"):
            integrate_ode(rt, never, (0.0,) * length, (0.0, 1.0), 1e-3)

    for length in (3, 6, 8):
        def f(y):
            return tuple(0.3 * math.sin(y[(i + 1) % length]) - 0.2 * y[i] + 0.01 * i
                         for i in range(length))

        y0 = tuple(0.1 * (i + 1) for i in range(length))
        entries = len(ex._FAST_CACHE)
        _, ys, cut = integrate_ode(rt, f, y0, (0.0, 1.0), 1e-2)
        assert len(ex._FAST_CACHE) == entries + 1        # compiled on first use
        expected = [np.array(y0)]
        for _ in range(100):
            expected.append(_array_rk4_step(lambda v: np.array(f(tuple(v.tolist()))),
                                            expected[-1], 1.0 / 100))
        assert not cut and ys.shape == (101, length)
        assert ys.tobytes() == np.array(expected).tobytes()
        again = integrate_ode(rt, f, y0, (0.0, 1.0), 1e-2)[1]
        assert again.tobytes() == ys.tobytes() and len(ex._FAST_CACHE) == entries + 1


@pytest.mark.parametrize("name", ["rt", "heis"])
def test_jacobi_flow_gives_the_betas(name, request):
    st = request.getfixturevalue(name)
    rng = np.random.default_rng(11)
    for _ in range(20):
        state = tuple(np.concatenate([rng.uniform(-2.0, 2.0, 3),
                                      rng.uniform(-np.pi, np.pi, 1), rng.normal(size=3)]))
        lam = float(rng.uniform(-1.0, 1.0))
        rhs = _jacobi_flow(st, lam)
        out = rhs(state)
        b1 = -rhs((*state[:4], 0.0, 1.0, 0.0))[6]
        c1_b2 = -rhs((*state[:4], 1.0, 0.0, 0.0))[6]
        assert out[:4] == _char_flow(st, lam)(state[:4])
        assert out[4:6] == state[5:7]
        assert out[6] == -b1 * state[5] - c1_b2 * state[4]
        # beta1 = W + c1 g(tau(Z), J(Z)) + c1^2 lam^2, by tree walks
        c, s = np.cos(state[3]), np.sin(state[3])
        tau = st.tau_matrix(state[:3])
        tzj = st.sgn_c1 * (tau[0, 1] * (c * c - s * s) + (tau[1, 1] - tau[0, 0]) * c * s)
        w = st.webster_expr().at(state[:3])
        assert b1 == pytest.approx(w + st.c1 * tzj + st.c1 ** 2 * lam ** 2, abs=1e-12)


# ---------------------------------------------------------------------------
# float states against a float64-array RK4 step on layered right-hand
# sides: the stepping and the coefficient arithmetic that the unrolled
# step and the flat right-hand sides replaced


def _array_rk4_step(f, y, h):
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


class _LayeredRhs:
    """The right-hand sides as layered method calls on two coefficient
    kernels of their own: characteristic terms, then the betas, with the
    spatial and curvature sums as loops over every term."""

    def __init__(self, structure):
        # the coordinate rows of X and Y and g(nabla_{E_a} E_b, E_k); the
        # torsion entries, their derivatives, W and g(R(E_a, T) E_c, E_d)
        ph = structure._ph
        self.ck = ex.compiled_cse([*structure.frame[0], *structure.frame[1],
                                   *(ph[a][b][k] for a in range(2) for b in range(2)
                                     for k in range(2))], "math")
        tau = structure.tau_matrix_exprs()
        m = (tau[0][0], tau[0][1], tau[1][1])
        self.jk = ex.compiled_cse([*m, *(e.diff(k) for e in m for k in range(3)),
                                   structure.webster_expr(),
                                   *(structure.curvature_expr(a, 2, c, d) for a in range(2)
                                     for c in range(2) for d in range(2))], "math")
        self.c1, self.abs_c1, self.sgn_c1 = structure.c1, abs(structure.c1), structure.sgn_c1

    def _char_terms(self, x, y, t, phi, lam):
        k = self.ck(x, y, t)
        c, s2 = math.cos(phi), math.sin(phi)
        dp = (c * k[0] + s2 * k[3], c * k[1] + s2 * k[4], c * k[2] + s2 * k[5])
        gamma = (0.0 + c * c * (-s2 * k[6] + c * k[7])
                 + c * s2 * (-s2 * k[8] + c * k[9])
                 + s2 * c * (-s2 * k[10] + c * k[11])
                 + s2 * s2 * (-s2 * k[12] + c * k[13]))
        return c, s2, dp, -self.abs_c1 * lam - gamma

    def _betas(self, j, c, s2, lam, dp, dphi):
        sgn, c1 = self.sgn_c1, self.c1
        m00, m01, m11 = j[0], j[1], j[2]
        tzz = m00 * c * c + 2 * m01 * c * s2 + m11 * s2 * s2
        tzj = sgn * (m01 * (c * c - s2 * s2) + (m11 - m00) * c * s2)
        cos2, sin2 = c * c - s2 * s2, 2 * c * s2
        spatial = 0.0
        for i in range(3):
            dm00, dm01, dm11 = j[3 + i], j[6 + i], j[9 + i]
            spatial += dp[i] * (dm01 * cos2 + 0.5 * (dm11 - dm00) * sin2)
        angular = (-2 * m01 * sin2 + (m11 - m00) * cos2) * dphi
        dtzj = sgn * (spatial + angular)
        w, jw = (c, s2), (-sgn * s2, sgn * c)
        r_term = 0.0
        i = 13
        for wa in w:
            for wc in w:
                for wd in jw:
                    r_term += wa * wc * wd * j[i]
                    i += 1
        beta1 = j[12] + c1 * tzj + c1 ** 2 * lam ** 2
        beta2 = c1 * lam * tzz + r_term + dtzj
        return beta1, beta2

    def char_rhs(self, state, lam):
        x, y, t, phi = state
        _, _, dp, dphi = self._char_terms(x, y, t, phi, lam)
        return (*dp, dphi)

    def geodesic_rhs(self, state):
        x, y, t, phi, lam = state
        c, s2, dp, dphi = self._char_terms(x, y, t, phi, lam)
        m00, m01, m11 = self.jk(x, y, t)[:3]
        tzz = m00 * c * c + 2 * m01 * c * s2 + m11 * s2 * s2
        return (*dp, dphi, -tzz / self.c1)

    def jacobi_rhs(self, state, lam):
        x, y, t, phi, vt, vtp, vtpp = state
        c, s2, dp, dphi = self._char_terms(x, y, t, phi, lam)
        b1, b2 = self._betas(self.jk(x, y, t), c, s2, lam, dp, dphi)
        return (*dp, dphi, vtp, vtpp, -b1 * vtp - self.c1 * b2 * vt)

    def beta_coeffs(self, p, phi, lam):
        x, y, t = p
        c, s2, dp, dphi = self._char_terms(x, y, t, phi, lam)
        return self._betas(self.jk(x, y, t), c, s2, lam, dp, dphi)


def _array_integrate(structure, rhs, y0, s_range, step):
    """(s, states, truncated) of fixed-step RK4 on a float64 array state,
    each right-hand side wrapped in np.array, over the whole span or up to a
    step that raises (``math.cos`` of an infinite angle, an overflowing
    float power), then cut before the first row off the chart or not
    finite."""
    s0, s1 = float(s_range[0]), float(s_range[1])
    n = max(int(round(abs(s1 - s0) / abs(step))), 1)
    h = (s1 - s0) / n
    s, y = s0, np.asarray(y0, dtype=float)
    ss, ys, raised = [s], [y], False
    for _ in range(n):
        try:
            y = _array_rk4_step(lambda v: np.array(rhs(v)), y, h)
        except (ArithmeticError, ValueError):
            raised = True
            break
        s += h
        ss.append(s)
        ys.append(y)
    ss, ys = np.array(ss), np.array(ys)
    finite = np.isfinite(ys).all(axis=1)
    cuts = [i for i in (_first_outside_scan(structure, ys),
                        None if finite.all() else int(finite.argmin())) if i is not None]
    if not cuts:
        return ss, ys, raised
    return ss[:min(cuts)], ys[:min(cuts)], True


def _run_kind(st, kind, init, s_range, step=1e-3):
    """(s, states, truncated) of one characteristic, geodesic or Jacobi run."""
    if kind == "char":
        tr = integrate_characteristic(st, init, s_range, step)
        return tr.s, np.column_stack([tr.points, tr.phi]), tr.truncated
    if kind == "geodesic":
        tr = integrate_geodesic(st, init, s_range, step)
        return tr.s, np.column_stack([tr.points, tr.phi, tr.lam]), tr.truncated
    jt = jacobi_vertical_ode(st, init, (0.2, -1.0, 0.3), s_range, step)
    return (jt.s, np.column_stack([jt.base.points, jt.base.phi, jt.vt, jt.vt_prime,
                                   jt.vt_second]), jt.base.truncated)


def _run_both(structure, kind, init, s_range, step):
    """(library s, library states, reference s, reference states, library
    truncated, reference truncated) of one characteristic, geodesic or
    Jacobi run; the reference steps float64 arrays on the layered
    right-hand sides."""
    ref, lam = _LayeredRhs(structure), init.lam
    rhs, y0 = {"char": (lambda y: ref.char_rhs(y, lam), [*init.point, init.phi]),
               "geodesic": (ref.geodesic_rhs, [*init.point, init.phi, init.lam]),
               "jacobi": (lambda y: ref.jacobi_rhs(y, lam),
                          [*init.point, init.phi, 0.2, -1.0, 0.3])}[kind]
    got_s, got, got_cut = _run_kind(structure, kind, init, s_range, step)
    s, ys, cut = _array_integrate(structure, rhs, y0, s_range, step)
    return got_s, got, s, ys, got_cut, cut


def _pole_structure(height):
    """A chart structure whose Y frame field holds ``height``."""
    return structure_from_json({"kind": "coordinate-frame",
                                "chart_domain": [[-1, 1], [-1, 1], [-1, 1]],
                                "frame": {"X": ["1", "0", "y"],
                                          "Y": ["0", "1", "-x + " + height],
                                          "T": ["0", "0", "1"]}})


def _squeezed_structure():
    """The Heisenberg contact form with the horizontal frame a X, (Y + b X)/a
    for functions a, b of the point: c1 = 2 as on the Heisenberg group, but
    the torsion, its derivatives, the connection and the curvature vary."""
    a, b = "(1 + 0.25*sin(t + x + 0.5*y))", "(0.3*cos(y - t))"
    return structure_from_json({"kind": "coordinate-frame",
                                "chart_domain": [[-2, 2], [-2, 2], [-2, 2]],
                                "frame": {"X": [a, "0", f"{a}*y"],
                                          "Y": [f"{b}/{a}", f"1/{a}", f"(-x + {b}*y)/{a}"],
                                          "T": ["0", "0", "1"]}})


# curves on which plain floats raise, or turn complex, where float64 gives
# inf or nan: the float run and the array run stop at the same state
POLE_CASES = [
    ("1/(y - 0.1)", (0.0, 0.1, 0.0), 0.0),          # a divisor vanishes on the curve
    ("(y - 0.1)^(-1)", (0.0, 0.1, 0.0), 0.0),       # 0.0 to a negative power
    ("(y - 0.1)^1.5", (0.0, 0.5, 0.0), -1.5707),    # a negative base, fractional power
]


@pytest.fixture(scope="module")
def squeezed():
    return _squeezed_structure()


@pytest.mark.parametrize("name, kind, init, s_range, step, truncated", [
    ("rt", "char", CharState((0, 0, 0.4), 0.7, 0.0), (0.0, 3.0), 1e-3, False),
    ("rt", "char", CharState((0.1, -0.2, 0.4), 0.7, 0.8), (0.0, 3.0), 1e-3, False),
    ("heis", "char", CharState((0, 0, 0), 0.3, 1.0), (0.0, 3.0), 1e-3, False),
    ("heis", "char", CharState((0, 0, 0), 0.3, 0.0), (0.0, 10.0), 1e-2, True),
    ("rt", "geodesic", CharState((0, 0, 0.4), 0.7, 0.3), (0.0, 3.0), 1e-3, False),
    ("heis", "geodesic", CharState((0.1, 0.2, 0.3), 0.4, 0.5), (0.0, 3.0), 1e-3, False),
    ("rt", "jacobi", CharState((0, 0, 0.4), 0.7, 0.0), (0.0, 2.0), 1e-3, False),
    ("heis", "jacobi", CharState((0, 0, 0), 1.1, 1.0), (0.0, 2.0), 1e-3, False),
    ("heis", "jacobi", CharState((0, 0, 0), 0.3, 0.0), (0.0, 10.0), 1e-2, True),
    ("heis", "geodesic", CharState((0.3, 0.2, -0.1), 0.4, 0.0), (0.0, 1.0), 1e-3, False),
    *[("squeezed", kind, init, (0.0, 1.0), 1e-3, False)
      for kind in ("char", "geodesic", "jacobi")
      for init in (CharState((0.1, 0.2, 0.3), 0.5, 0.0),
                   CharState((-0.4, 0.1, 0.2), 2.0, 0.7))],
    # the fiber direction leaves the chart at alpha = 16
    *[("rt", kind, CharState((0, 0, 15.9), 0.0, 0.0), (0.0, 1.0), 1e-3, True)
      for kind in ("char", "geodesic", "jacobi")],
    # the float run, stopped before the step that has no float value
    *[(height, kind, CharState(init, phi, 0.3), (0.0, 1.0), 1e-3, True)
      for height, init, phi in POLE_CASES for kind in ("char", "geodesic", "jacobi")],
    # signed zeros in the start, the angle and the curvature; at lam = 1e308
    # phi' overflows (or lam^2 does), and the run keeps only its start
    *[(name, kind, CharState((-0.0, -0.0, -0.0), phi, lam), (0.0, 1.0), 1e-3, lam > 1.0)
      for name in ("rt", "heis") for kind in ("char", "geodesic", "jacobi")
      for phi in (-0.0, math.pi) for lam in (-0.0, 1e308)],
])
def test_float_states_equal_array_states_bit_for_bit(name, kind, init, s_range, step,
                                                     truncated, request):
    if name in {height for height, _, _ in POLE_CASES}:
        st = _pole_structure(name)
    else:
        st = request.getfixturevalue(name)
    with np.errstate(all="ignore"):
        s, got, ref_s, ref, cut, ref_cut = _run_both(st, kind, init, s_range, step)
    assert cut is ref_cut is truncated
    assert got.dtype == ref.dtype == float
    assert s.tobytes() == ref_s.tobytes() and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("height, init, phi", POLE_CASES)
def test_float_states_stop_where_floats_raise(height, init, phi):
    # plain floats raise, or turn complex, where float64 gives inf or nan;
    # the run stops before that step, where an array run stops at its first
    # non-finite state
    st = _pole_structure(height)
    with np.errstate(all="ignore"):
        s, got, ref_s, ref, cut, ref_cut = _run_both(st, "char", CharState(init, phi),
                                                     (0.0, 1.0), 1e-3)
    assert got.dtype == float and cut is ref_cut is True
    assert np.array_equal(s, ref_s) and np.array_equal(got, ref)


@pytest.mark.parametrize("height, init, phi", POLE_CASES)
def test_pole_endings_are_quiet(height, init, phi):
    # a run that ends at a pole steps no inf or nan, so nothing warns
    import warnings
    st = _pole_structure(height)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = integrate_characteristic(st, CharState(init, phi), (0.0, 1.0), 1e-3)
        jacobi_vertical_ode(st, CharState(init, phi), (0.2, -1.0, 0.3), (0.0, 1.0), 1e-3)
    assert tr.truncated


_FLOWS = {"char": _char_flow, "geodesic": lambda st, lam: _geodesic_flow(st),
          "jacobi": _jacobi_flow}


# A float step raises where a stage leaves the domain of math.sqrt, where
# math.exp overflows (from y = 0.709; from y = 0.7 the t velocity exp(700)
# takes the point off the chart first), or where 1/(1 + 1/(y - 0.1)), finite
# in float64 at y = 0.1 (1/inf = 0), divides by zero: a removable pole, on
# which the curve starts, so the run keeps only its initial state
@pytest.mark.parametrize("kind", ["char", "geodesic", "jacobi"])
@pytest.mark.parametrize("height, init, phi, n_states", [
    ("sqrt(y + 1)", (0.0, -0.999, 0.0), -1.5707, 2),
    ("exp(1000*y)", (0.0, 0.709, 0.0), 1.5707, 1),
    ("1/(1 + 1/(y - 0.1))", (0.0, 0.1, 0.0), 0.0, 1),
])
def test_a_run_ends_before_a_step_that_raises(height, init, phi, n_states, kind):
    import warnings
    st, state = _pole_structure(height), CharState(init, phi, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, states, cut = _run_kind(st, kind, state, (0.0, 1.0))
        short_s, short, short_cut = _run_kind(st, kind, state, (0.0, s[-1]))
    assert cut and not short_cut and len(s) == n_states and states.dtype == float
    assert s.tobytes() == short_s.tobytes() and states.tobytes() == short.tobytes()
    flow = _FLOWS[kind](st, 0.3)
    with pytest.raises((ArithmeticError, ValueError)):
        rk4_step(flow, tuple(states[-1].tolist()), 1e-3)


def test_a_state_that_turns_complex_off_the_point_is_cut(heis):
    # the fourth entry reads x ** 0.5, complex once a stage has x < 0; the
    # point stays real, so only the states from the first complex one go
    def flow(y):
        return (-1.0, 0.0, 0.0, y[0] ** 0.5)

    s, states, cut = integrate_ode(heis, flow, (0.0025, 0.0, 0.0, 0.0), (0.0, 0.01), 1e-3)
    # the run stores no part of the complex state's row
    assert cut and len(s) == 3 and states.dtype == float and states.shape == (3, 4)
    short_s, short, short_cut = integrate_ode(heis, flow, (0.0025, 0.0, 0.0, 0.0),
                                              (0.0, s[-1]), 1e-3)
    assert not short_cut
    assert s.tobytes() == short_s.tobytes() and states.tobytes() == short.tobytes()


def test_a_numpy_complex_entry_is_cut_not_cast(heis):
    # array('d') casts a numpy complex to its real part with only a warning;
    # the run cuts it as it cuts a Python complex, whatever the filters say
    import warnings

    def flow(y):
        return (-1.0, 0.0, 0.0, np.complex128(y[0]) ** 0.5)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s, states, cut = integrate_ode(heis, flow, (0.0025, 0.0, 0.0, 0.0), (0.0, 0.01), 1e-3)
    # the first step's fourth entry is complex, so only the start is kept
    assert cut and states.dtype == float and states.shape == (1, 4)
    assert s.tolist() == [0.0] and states.tolist() == [[0.0025, 0.0, 0.0, 0.0]]


def test_a_state_non_finite_off_the_point_is_cut(heis):
    # the fourth entry grows by 1.65 a step from 1e307, and the RK4 sum of
    # the step from the third state overflows to inf; the point stays
    # finite, so only the states from the fourth one go
    def flow(y):
        return (0.0, 0.0, 0.0, y[3])

    s, states, cut = integrate_ode(heis, flow, (0.0, 0.0, 0.0, 1e307), (0.0, 2.0), 0.5)
    assert cut and len(s) == 3 and np.isfinite(states).all()
    short_s, short, short_cut = integrate_ode(heis, flow, (0.0, 0.0, 0.0, 1e307),
                                              (0.0, s[-1]), 0.5)
    assert not short_cut
    assert s.tobytes() == short_s.tobytes() and states.tobytes() == short.tobytes()


def test_a_flow_of_the_wrong_length_is_refused(heis):
    with pytest.raises(ValueError, match="the flow gives 3 values for a state of 4"):
        integrate_ode(heis, lambda y: (1.0, 0.0, 0.0), (0, 0, 0, 0), (0, 1), 1e-3)


def test_a_flow_that_raises_at_the_start_ends_the_run_there(heis):
    s, states, cut = integrate_ode(heis, lambda y: (1.0 / y[0], 0.0, 0.0, 0.0),
                                   (0, 0, 0, 0), (0, 1), 1e-3)
    assert cut and s.tolist() == [0.0] and states.tolist() == [[0.0, 0.0, 0.0, 0.0]]


@pytest.mark.parametrize("name", ["rt", "heis"])
def test_right_hand_sides_are_tuples_of_floats(name, request):
    st = request.getfixturevalue(name)
    state = (0.1, -0.2, 0.3, 0.4)
    for out in (_char_flow(st, 0.5)(state), _geodesic_flow(st)((*state, 0.5)),
                _jacobi_flow(st, 0.5)((*state, 0.1, 0.2, 0.3))):
        assert type(out) is tuple and all(type(v) is float for v in out)


@pytest.mark.parametrize("name", ["rt", "heis", "squeezed"])
def test_right_hand_sides_equal_the_layered_ones(name, request):
    st = request.getfixturevalue(name)
    ref = _LayeredRhs(st)
    geodesic = _geodesic_flow(st)
    rng = np.random.default_rng(3)
    for _ in range(200):
        state = tuple(float(v) for v in rng.uniform(-1.0, 1.0, 7))
        lam = float(rng.uniform(-1.5, 1.5))
        jacobi = _jacobi_flow(st, lam)
        assert _char_flow(st, lam)(state[:4]) == ref.char_rhs(state[:4], lam)
        assert geodesic(state[:5]) == ref.geodesic_rhs(state[:5])
        assert jacobi(state) == ref.jacobi_rhs(state, lam)
        b1, b2 = ref.beta_coeffs(state[:3], state[3], lam)
        assert jacobi((*state[:4], 0.0, 1.0, 0.0))[6] == -b1
        assert jacobi((*state[:4], 1.0, 0.0, 0.0))[6] == -(st.c1 * b2)


def _sum_terms(source, name):
    """The terms of the generated line ``name = ...``, split at the + signs
    outside parentheses."""
    text = next(line.strip() for line in source.splitlines()
                if line.strip().startswith(name + " = ")).split(" = ", 1)[1]
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and text.startswith(" + ", i):
            terms.append(text[start:i])
            start = i + 3
    return terms + [text[start:]]


@pytest.mark.parametrize("name, dropped", [("rt", (1, 2, 4)), ("heis", (4, 3, 8)),
                                           ("squeezed", (0, 0, 0))])
def test_generated_flows_leave_out_exactly_the_literal_zero_terms(name, dropped, request):
    # Gamma (4 terms), the spatial part of d/ds g(tau(Z), J(Z)) (3) and
    # g(R(Z, T) Z, J(Z)) (8) lose the terms whose coefficients are all 0.0
    st = request.getfixturevalue(name)
    lines, k = ex._cse_program(_flow_exprs(st, "jacobi"))
    zero = [v in ("0.0", "-0.0") for v in k]
    source = _flow_source("jacobi", lines, k)
    groups = {"gamma": [(6 + 2 * i, 7 + 2 * i) for i in range(4)],
              "spatial": [(17 + i, 20 + i, 23 + i) for i in range(3)],
              "r_term": [(27 + j,) for j in range(8)]}
    for (sum_name, terms), n_dropped in zip(groups.items(), dropped):
        kept = [js for js in terms if not all(zero[j] for j in js)]
        assert len(kept) == len(terms) - n_dropped
        got = _sum_terms(source, sum_name)
        assert got[0] == "0.0" and len(got) == 1 + len(kept)
        for term, js in zip(got[1:], kept):
            assert all(zero[j] or k[j] == "1.0" or k[j] in term for j in js)
    # the characteristic flow keeps the same Gamma terms; no flow multiplies
    # by 1.0
    char = _flow_source("char", *ex._cse_program(_flow_exprs(st, "char")))
    assert len(_sum_terms(char, "gamma")) == len(_sum_terms(source, "gamma"))
    for text in (source, char):
        assert "* 1.0" not in text.split("c, s2 = ")[1]


def test_a_second_run_compiles_nothing(rt, monkeypatch):
    # flows are compiled once per structure and kind; lam is bound per run
    compiles, program = [], ex._cse_program
    monkeypatch.setattr(ex, "_cse_program", lambda *a, **kw: compiles.append(a) or program(*a, **kw))

    def runs(st, lam):
        jacobi_from_curve_family(st, lambda e: CharState((e, 0, 0.2), 0.4, lam), 0.0,
                                 (0.0, 0.1), 1e-2)
        jacobi_vertical_ode(st, CharState((0, 0, 0.2), 0.4, lam), (0, -1, 0), (0.0, 0.1), 1e-2)
        integrate_geodesic(st, CharState((0, 0, 0.2), 0.4, lam), (0.0, 0.1), 1e-2)

    # curvatures no other test uses, so no earlier test has filled the cache
    runs(rt, 0.61803)
    entries, compiles[:] = len(ex._FAST_CACHE), []
    runs(rt, 0.61803)
    runs(rt, 0.41421)
    assert compiles == [] and len(ex._FAST_CACHE) == entries


def test_each_step_is_one_rk4_step_call(rt, monkeypatch):
    # the benchmark counts curves.rk4_calls by wrapping this module global
    import subriemann.curves as curves
    step, lengths = curves.rk4_step, []

    def counted(f, y, h):
        lengths.append(len(y))
        return step(f, y, h)

    monkeypatch.setattr(curves, "rk4_step", counted)
    integrate_characteristic(rt, CharState((0, 0, 0.3), 0.4, 0.0), (0.0, 0.25), 1e-3)
    assert lengths == [4] * 250
    lengths.clear()
    jacobi_vertical_ode(rt, CharState((0, 0, 0.3), 0.4, 0.0), (0.0, -1.0, 0.0),
                        (0.0, 0.25), 1e-3)
    assert lengths == [7] * 250


def test_csv_rows_equal_the_cell_by_cell_format():
    from subriemann.curves import CurveTrace
    n = 1100                                  # more than two row blocks
    rng = np.random.default_rng(9)
    cols = rng.normal(size=(7, n)) * 10.0 ** rng.integers(-300, 300, size=(7, n))
    cols[:, ::97] = -0.0
    cols[1, 5], cols[2, 600], cols[3, 1099], cols[6, 0] = np.nan, np.inf, -np.inf, np.nan
    trace = CurveTrace(s=cols[0], points=cols[1:4].T, phi=cols[4], lam=cols[5])
    extra = [("extra", cols[6])]
    expect = "s,x,y,t,phi,lambda,extra\n" + "".join(
        ",".join("%.17g" % (v + 0.0) for v in row) + "\n" for row in zip(*cols))
    assert trace.to_csv(extra=extra) == expect
    assert "-0," not in expect and ",nan," in expect and ",-inf," in expect


@pytest.mark.parametrize("n", [1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1,
                               2 * _CSV_BLOCK + 1])
def test_csv_written_to_a_file_equals_the_returned_text(n):
    import io
    from subriemann.curves import CurveTrace
    rng = np.random.default_rng(n)
    cols = rng.normal(size=(8, n)) * 10.0 ** rng.integers(-300, 300, size=(8, n))
    cols[:, ::7] = -0.0
    cols[:, n // 2] = np.nan
    trace = CurveTrace(s=cols[0], points=cols[1:4].T, phi=cols[4], lam=cols[5])
    extra = [("x_oracle", cols[6]), ("y_oracle", cols[7])]
    fh = io.StringIO()
    assert trace.to_csv(extra, fh) is None
    text = trace.to_csv(extra)
    assert fh.getvalue() == text and text.count("\n") == n + 1
    assert ",nan," in text and "-0," not in text


def test_a_run_keeps_under_100_bytes_per_state(rt):
    import tracemalloc
    init, span = CharState((0.0, 0.0, -15.0), 1.5408), (0.0, 20.0)
    integrate_characteristic(rt, init, (0.0, 0.01), 1e-3)     # compiles the kernel
    tracemalloc.start()
    try:
        trace = integrate_characteristic(rt, init, span, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 20_001 and not trace.truncated
    assert peak < 100 * len(trace), f"{peak / len(trace):.1f} bytes per state"


def test_a_span_past_the_chart_edge_steps_once_past_the_edge(tmp_path, monkeypatch):
    # from alpha = 15.9 the fiber direction reaches the chart edge alpha = 16
    # at s = 0.1; the span (0, 100) takes one step more than (0, 0.1), the one
    # that leaves the chart, and writes the same CSV
    import subriemann.curves as curves
    from subriemann import cli
    step, calls = curves.rk4_step, []

    def counted(f, y, h):
        calls.append(h)
        return step(f, y, h)

    monkeypatch.setattr(curves, "rk4_step", counted)
    texts, counts = [], []
    for span in ("0,0.1", "0,100"):
        out = tmp_path / f"curve-{span}.csv"
        calls.clear()
        assert cli.main(["curve", "integrate", "--structure", "rt", "--init", "0,0,15.9",
                         "--phi", "0", "--range", span, "--out", str(out)]) == 0
        texts.append(out.read_text())
        counts.append(len(calls))
    assert counts == [100, 101]
    assert texts[0] == texts[1] and len(texts[0].splitlines()) == 102
