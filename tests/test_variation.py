import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from subriemann import catalog as cat
from subriemann import expr as ex
from subriemann.structures import sum_exprs
from subriemann.surfaces import GraphSurface, ImplicitSurface
from subriemann.variation import (VariationField, ParamPatch, CharPatch,
                                  first_variation_formula, first_variation_numeric,
                                  second_variation_numeric, second_variation_terms,
                                  index_form, l_of_nh, stability_quadratic_Q,
                                  singular_curve_second_variation,
                                  stability_sign_field,
                                  criterion_range_unimodular, AdmissibilityError,
                                  ADMISSIBILITY_TOL, CONSTANCY_TOL,
                                  INDEX_FORM_AGREEMENT_TOL, _median_below_zero)
from conftest import helicoid_points, plane_points


@pytest.fixture(scope="module")
def helicoid_fan(rt, helicoid):
    [fan] = CharPatch.fan_from_curve(rt, helicoid, [(lambda e: (0.0, 0.0, e), (-2.0, 2.0))],
                                     3.0, n_eps=41, n_s=121)
    return fan


@pytest.fixture(scope="module")
def sigma_a_patch(rt, sigma_a):
    return CharPatch.from_base_point(rt, sigma_a, (0.0, 0.0, 0.0),
                                     (-1.0, 1.0), (-1.0, 1.0),
                                     n_eps=41, n_s=161)


def cos2_bump(width):
    def fn(v):
        arg = np.clip(np.asarray(v) / width, -1.0, 1.0)
        return np.cos(np.pi * arg / 2.0) ** 2
    return fn


# ---------------------------------------------------------------------------
# first variation


def test_first_variation_zero_field(heis):
    gs = GraphSurface(ex.parse("x^3 + y^2"), domain=((0.2, 1.2), (0.2, 1.2)))
    geom = gs.to_implicit().geometry(gs.structure())
    U = VariationField.normal(geom, ex.ZERO)
    patch = ParamPatch.from_graph(gs.structure(), gs)
    assert first_variation_numeric(patch, U, order=8, cells=10) == pytest.approx(0.0)


def test_first_variation_formula_vs_numeric_nonminimal():
    gs = GraphSurface(ex.parse("x^3 + y^2"), domain=((0.2, 1.2), (0.2, 1.2)))
    st = gs.structure()
    geom = gs.to_implicit().geometry(st)
    xm = ex.parse("(x - 0.2)*(1.2 - x)")
    ym = ex.parse("(y - 0.2)*(1.2 - y)")
    bump = ex.mul(ex.mul(xm, xm), ex.mul(ym, ym))
    U = VariationField.normal(geom, bump)
    patch = ParamPatch.from_graph(st, gs)
    f = first_variation_formula(geom, U, patch, order=8, cells=12)
    n = first_variation_numeric(patch, U, eps=1e-4, order=8, cells=12)
    assert abs(f - n) / abs(n) < 1e-4
    assert abs(f) > 1e-4    # genuinely nonminimal


def test_first_variation_tangent_field_closed_patch():
    gs = GraphSurface(ex.parse("x^3 + y^2"), domain=((0.2, 1.2), (0.2, 1.2)))
    st = gs.structure()
    geom = gs.to_implicit().geometry(st)
    xm = ex.parse("(x - 0.2)*(1.2 - x)")
    ym = ex.parse("(y - 0.2)*(1.2 - y)")
    bump = ex.mul(ex.mul(xm, xm), ex.mul(ym, ym))
    U = VariationField.tangent(geom, bump, ex.mul(0.7, bump))
    patch = ParamPatch.from_graph(st, gs)
    assert abs(first_variation_formula(geom, U, patch, order=8, cells=12)) < 1e-10


def test_first_variation_minimal_graph_vanishes():
    # t = xy is a minimal Heisenberg graph away from {x = 0}
    gs = GraphSurface(ex.parse("x*y"), domain=((0.2, 1.2), (0.2, 1.2)))
    st = gs.structure()
    geom = gs.to_implicit().geometry(st)
    xm = ex.parse("(x - 0.2)*(1.2 - x)")
    ym = ex.parse("(y - 0.2)*(1.2 - y)")
    bump = ex.mul(ex.mul(xm, xm), ex.mul(ym, ym))
    U = VariationField.normal(geom, bump)
    patch = ParamPatch.from_graph(st, gs)
    assert abs(first_variation_formula(geom, U, patch, order=8, cells=12)) < 1e-12
    assert abs(first_variation_numeric(patch, U, eps=1e-4,
                                       order=8, cells=12)) < 1e-6


def test_first_variation_helicoid_normal_bump(rt, helicoid):
    # normal bump away from the singular line of a minimal surface
    geom = helicoid.geometry(rt)
    rbump = ex.parse("((x*cos(t) + y*sin(t)) - 0.5)*(2.5 - (x*cos(t) + y*sin(t)))")
    abump = ex.parse("(1 - (t/1.5)^2)")
    u = ex.mul(ex.mul(rbump, rbump), ex.mul(abump, abump))
    U = VariationField.normal(geom, u)
    # parametrize by (r, alpha) in [0.5, 2.5] x [-1.5, 1.5]
    patch = ParamPatch(rt, [ex.parse("x*cos(y)"), ex.parse("x*sin(y)"),
                            ex.parse("y")], ((0.5, 2.5), (-1.5, 1.5)))
    val = first_variation_numeric(patch, U, eps=1e-4, order=8, cells=12)
    assert abs(val) < 1e-5
    f = first_variation_formula(geom, U, patch, order=8, cells=12)
    assert abs(f) < 1e-10


# ---------------------------------------------------------------------------
# the deformation kernel of a patch and a field

_EPS = [1e-3, -1e-3, 5e-4, -5e-4, 1e-4, -1e-4]


def _deformation_case(name):
    """A patch and a variation field on it."""
    rt = cat.rt_structure()
    bump = ex.parse("(1-x*x)^2*(1-y*y)^2")
    if name.startswith("rt plane"):
        geom = cat.find_entry("sigma_a").make().geometry(rt)
        patch = ParamPatch(rt, [ex.X, ex.Y, 0.0], ((-1, 1), (-1, 1)))
        return patch, {"rt plane normal": VariationField.normal(geom, bump),
                       "rt plane vertical": VariationField.vertical(bump),
                       "rt plane tangent": VariationField.tangent(geom, bump,
                                                                  ex.mul(0.7, bump))}[name]
    if name == "rt polar":
        patch = ParamPatch(rt, [ex.parse("x*cos(y)"), ex.parse("x*sin(y)"), ex.parse("y")],
                           ((0.5, 2.5), (-1.5, 1.5)))
        return patch, VariationField.vertical(ex.parse("(x*x + y*y)*(1 - (t/1.5)^2)^2"))
    gs = GraphSurface(ex.parse("x^3 + y^2"), domain=((0.2, 1.2), (0.2, 1.2)))
    geom = gs.to_implicit().geometry(gs.structure())
    u = ex.parse("((x - 0.2)*(1.2 - x)*(y - 0.2)*(1.2 - y))^2")
    return ParamPatch.from_graph(gs.structure(), gs), VariationField.normal(geom, u)


def _symbolic_deformation(patch, U, eps):
    """Oracle: the patch of psi = m + eps U(m) - (eps^2/2) Gamma(U, U)(m)
    built as one symbolic map, with eps a constant in its tree."""
    st = patch.structure
    u_coord = st.frame_to_coordinate(list(U.comps))
    gamma = st.coordinate_christoffels()
    corr = []
    for k in range(3):
        acc = ex.ZERO
        for i in range(3):
            for j in range(3):
                acc = ex.add(acc, ex.mul(gamma[k][i][j],
                                         ex.mul(u_coord[i], u_coord[j])))
        corr.append(acc)
    out = []
    for k in range(3):
        uk = ex.substitute(u_coord[k], patch.map)
        ck = ex.substitute(corr[k], patch.map)
        out.append(sum_exprs([patch.map[k], ex.mul(eps, uk),
                              ex.mul(-0.5 * eps * eps, ck)]))
    return ParamPatch(st, out, patch.domain)


@pytest.mark.parametrize("name", ["rt plane normal", "rt plane vertical",
                                  "rt plane tangent", "rt polar", "heisenberg graph"])
def test_deformed_areas_equal_the_symbolic_deformation(name):
    patch, U = _deformation_case(name)
    oracle = {e: _symbolic_deformation(patch, U, e).area(6, 4) for e in _EPS}
    assert patch.deformed_areas(U, _EPS, 6, 4) == [oracle[e] for e in _EPS]
    a0 = patch.area(6, 4)
    assert patch.deformed_areas(U, [0.0], 6, 4) == [a0]

    eps = 1e-4
    assert (first_variation_numeric(patch, U, eps, 6, 4)
            == (oracle[eps] - oracle[-eps]) / (2.0 * eps))
    eps = 1e-3
    d1, d2 = ((oracle[e] - 2.0 * a0 + oracle[-e]) / (e * e) for e in (eps, eps / 2.0))
    assert second_variation_numeric(patch, U, eps, 6, 4) == (4.0 * d2 - d1) / 3.0


def test_a_new_eps_compiles_no_kernel():
    patch, U = _deformation_case("rt plane normal")
    first_variation_numeric(patch, U, eps=1e-4, order=6, cells=4)
    compiled = len(ex._FAST_CACHE)
    first_variation_numeric(patch, U, eps=2.5e-4, order=6, cells=4)
    assert len(ex._FAST_CACHE) == compiled
    second_variation_numeric(patch, U, eps=7e-4, order=6, cells=4)
    assert len(ex._FAST_CACHE) == compiled


# ---------------------------------------------------------------------------
# second-variation terms


def test_second_variation_terms_helicoid_reduction(rt, helicoid):
    rng = np.random.default_rng(0)
    geom = helicoid.geometry(rt)
    for p in helicoid_points(rng, 15):
        t = second_variation_terms(geom, p, v=1.0, w=0.0)
        nh = geom.nh.at(p)
        assert t.q == pytest.approx(nh * (1.0 - nh ** 2), abs=1e-10)


def test_second_variation_terms_vertical_surface(rt, sigma_a):
    geom = sigma_a.geometry(rt)
    p = (0.4, -0.3, 0.0)
    t = second_variation_terms(geom, p, v=0.7, w=0.0)
    assert t.xi == pytest.approx(0.0, abs=1e-14)
    assert t.zeta == pytest.approx(0.0, abs=1e-14)
    # eta = |N_h|^2 v^2 g(tau Z, Z); on sigma_a Z = Y and g(tau Y, Y) = 0
    assert t.eta == pytest.approx(0.0, abs=1e-14)


def test_second_variation_terms_plane_q_zero(rt, plane_y0):
    rng = np.random.default_rng(1)
    geom = plane_y0.geometry(rt)
    for p in plane_points(rng, 15):
        t = second_variation_terms(geom, p, v=0.5, w=0.2)
        assert t.q == pytest.approx(0.0, abs=1e-10)


def test_second_variation_minimality_gate(rt):
    bowl = ImplicitSurface(ex.parse("t - x*x - y*y"), name="bowl")
    geom = bowl.geometry(rt)
    with pytest.raises(AdmissibilityError):
        second_variation_terms(geom, (0.5, 0.2, 0.29), v=1.0, w=0.0)


# ---------------------------------------------------------------------------
# L(|N_h|)


def test_l_of_nh_dual_paths_helicoid(rt, helicoid):
    rng = np.random.default_rng(2)
    geom = helicoid.geometry(rt)
    for p in helicoid_points(rng, 100):
        a, b, diff = l_of_nh(geom, p)
        assert abs(diff) < 1e-6
        r = np.hypot(p[0], p[1])
        assert a == pytest.approx(-1.0 / r ** 2, rel=1e-8)


def test_l_of_nh_vertical_surfaces(rt, sigma_a, sigma_b):
    geom = sigma_a.geometry(rt)
    a, b, diff = l_of_nh(geom, (0.3, 0.2, 0.0))
    assert a == pytest.approx(0.0, abs=1e-12)      # W - c1 g(tauZ,nu) = 0
    assert abs(diff) < 1e-10
    geom_b = sigma_b.geometry(rt)
    p = (-np.sin(0.5) * 0.8, np.cos(0.5) * 0.8, 0.5)
    a2, b2, diff2 = l_of_nh(geom_b, p)
    crit = geom_b.criterion.at(p)
    assert a2 == pytest.approx(crit, abs=1e-10)    # vertical: L(nh) = criterion
    assert abs(diff2) < 1e-8


# ---------------------------------------------------------------------------
# index form


def test_index_form_zero_and_symmetry(rt, sigma_a_patch):
    z = lambda e, s: np.zeros_like(np.asarray(e) + np.asarray(s))
    assert index_form(sigma_a_patch, z).value == 0.0
    be = cos2_bump(1.0)
    u_fn = lambda e, s: be(e) * be(s)
    v_fn = lambda e, s: be(e) ** 2 * be(s)
    iuv = _bilinear_index(sigma_a_patch, u_fn, v_fn)
    ivu = _bilinear_index(sigma_a_patch, v_fn, u_fn)
    assert abs(iuv - ivu) < 1e-8


def _bilinear_index(patch, u_fn, v_fn):
    geom = patch.geom
    u = patch.u_grid(u_fn)
    v = patch.u_grid(v_fn)
    zu = patch.z_derivative(u)
    zv = patch.z_derivative(v)
    nh = patch.scalar(geom.nh)
    q = patch.scalar(geom.q_expr())
    return patch.integrate(zu * zv / nh + q * u * v)


def test_index_form_operator_agreement(rt, sigma_a_patch):
    be = cos2_bump(1.0)
    r = index_form(sigma_a_patch, lambda e, s: be(e) * be(s))
    assert abs(r.value - r.operator_value) < 1e-6


def test_index_form_nonnegative_sigma_a(rt, sigma_a_patch):
    rng = np.random.default_rng(3)
    for _ in range(6):
        w1, w2 = rng.uniform(0.5, 1.0, 2)
        c = rng.uniform(-0.2, 0.2)
        b1, b2 = cos2_bump(w1), cos2_bump(w2)
        r = index_form(sigma_a_patch, lambda e, s: b1(e - c) * b2(s))
        assert r.value >= -1e-10


def test_index_form_disagreement_reports_difference_and_tolerance(rt, sigma_a_patch):
    # u = 1 + s does not vanish on the s-edges, so the operator form misses
    # the boundary term of the integration by parts
    u_fn = lambda e, s: (1.0 + s) * np.ones_like(e)
    value = _bilinear_index(sigma_a_patch, u_fn, u_fn)
    with pytest.raises(AdmissibilityError) as info:
        index_form(sigma_a_patch, u_fn)
    msg = str(info.value)
    bound = INDEX_FORM_AGREEMENT_TOL * (1.0 + abs(value))
    assert msg.startswith(f"index form and operator form disagree: {value:.6g} vs ")
    diff, shown = re.search(r"difference (\S+) above the tolerance (\S+) =", msg).groups()
    assert shown == f"{bound:.3e}" and float(diff) > bound


def test_index_form_requires_minimal(rt):
    bowl = ImplicitSurface(ex.parse("t - 0.2*(x*x + y*y)"), name="bowl2")
    patch = CharPatch.from_base_point(rt, bowl, (0.4, 0.1, 0.2 * 0.17),
                                      (-0.2, 0.2), (-0.2, 0.2), n_eps=9, n_s=17)
    be = cos2_bump(0.2)
    with pytest.raises(AdmissibilityError):
        index_form(patch, lambda e, s: be(e) * be(s))


@pytest.fixture(scope="module")
def helicoid_patch(rt, helicoid):
    return CharPatch.from_base_point(rt, helicoid, (1.0, 0.4, np.arctan2(0.4, 1.0)),
                                     (-0.1, 0.1), (0.0, 0.2), n_eps=9, n_s=11)


def _per_sign_flow_at_params(surf, field, p0, params):
    """Flow positions at signed parameters, one flow per sign: the positive
    parameters in increasing order, then the negative ones in decreasing
    order, each from p0 outwards."""
    params = np.asarray(params, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    out = np.empty(p0.shape[:-1] + (len(params), 3))
    out[..., params == 0, :] = p0[..., None, :]
    for sign in (1, -1):
        idx = np.where(sign * params > 0)[0]
        if len(idx):
            order = idx[np.argsort(params[idx])][::sign]
            pts = CharPatch._surface_flow(surf, field, p0,
                                          np.concatenate([[0.0], params[order]]))
            out[..., order, :] = pts[..., 1:, :]
    return out


@pytest.mark.parametrize("eps_span, s_span, n_eps, n_s", [
    ((-0.1, 0.1), (-0.2, 0.2), 9, 17),       # symmetric spans
    ((-0.3, 0.1), (-0.05, 0.3), 13, 21),     # asymmetric spans
    ((0.0, 0.2), (0.0, 0.2), 9, 11),         # empty negative runs
    ((-0.2, -0.05), (0.05, 0.2), 9, 11),     # no zero parameter, one empty run each
])
def test_base_point_patch_equals_one_flow_per_sign(rt, helicoid, monkeypatch,
                                                   eps_span, s_span, n_eps, n_s):
    import subriemann.variation as variation
    seed = (1.0, 0.4, np.arctan2(0.4, 1.0))
    geom = helicoid.geometry(rt)
    eps, s = np.linspace(*eps_span, n_eps), np.linspace(*s_span, n_s)
    base = _per_sign_flow_at_params(helicoid, rt.frame_to_coordinate(list(geom.S)),
                                    helicoid.project(seed), eps)
    expect = _per_sign_flow_at_params(helicoid, rt.frame_to_coordinate(list(geom.Z)),
                                      base, s)
    step, calls = variation.rk4_step, []

    def counted(f, y, h):
        calls.append(y.shape)
        return step(f, y, h)

    monkeypatch.setattr(variation, "rk4_step", counted)
    patch = CharPatch.from_base_point(rt, helicoid, seed, eps_span, s_span,
                                      n_eps=n_eps, n_s=n_s)
    assert patch.points.tobytes() == expect.tobytes()
    # one flow per field, as long as its longer run; both runs in each step
    runs = [max(np.sum(g > 0), np.sum(g < 0)) for g in (eps, s)]
    assert calls == [(2, 1, 3)] * (8 * runs[0]) + [(2, n_eps, 3)] * (8 * runs[1])


def test_char_patch_rejects_non_finite_points(rt, helicoid_patch):
    # one nan point spoils the area factor of its whole s column through the
    # eps differences; it is an error, not a nan integral
    p = helicoid_patch
    pts = p.points.copy()
    pts[4, 6] = np.nan
    with pytest.raises(ValueError, match=r"not positive and finite at 9 of 99 grid "
                                         r"points, first at \(eps, s\) index \(0, 6\)"):
        CharPatch(rt, p.geom, p.eps, p.s, pts)
    # a seed whose projection fails (the gradient vanishes on the axis of a
    # cylinder) gives nan rows, and so the same error
    cylinder = ImplicitSurface(ex.parse("x*x + y*y - 0.25"), name="cylinder")
    with pytest.raises(ValueError, match="not positive and finite"):
        CharPatch.from_base_point(rt, cylinder, (0.0, 0.0, 0.3), (-0.1, 0.1),
                                  (0.0, 0.2), n_eps=9, n_s=11)


def test_char_patch_needs_uniform_grids_of_seven_samples(rt, helicoid_patch):
    p = helicoid_patch
    with pytest.raises(ValueError, match="eps grid of a characteristic patch has 5 samples"):
        CharPatch(rt, p.geom, p.eps[:5], p.s, p.points[:5])
    with pytest.raises(ValueError, match="s grid of a characteristic patch has 6 samples"):
        CharPatch(rt, p.geom, p.eps, p.s[:6], p.points[:, :6])
    eps = p.eps.copy()
    eps[3] += 1e-3 * (eps[1] - eps[0])
    with pytest.raises(ValueError, match="eps grid of a characteristic patch is not uniform"):
        CharPatch(rt, p.geom, eps, p.s, p.points)
    s = p.s.copy()
    s[-1] += 1e-6
    with pytest.raises(ValueError, match="s grid of a characteristic patch is not uniform"):
        CharPatch(rt, p.geom, p.eps, s, p.points)


def test_the_patch_fields_come_from_one_kernel(rt, helicoid_fan, monkeypatch):
    side = helicoid_fan[0]
    geom = side.geom
    fields = [geom.gNT, geom.thetaS, geom.tauZnu, geom.tauZZ, geom.H, geom.q_expr()]
    pts = side.points.reshape(-1, 3)
    with np.errstate(all="ignore"):
        alone = [ex.compiled_cse([e], "arrays")(pts)[:, 0] for e in fields]
    compiled, real = [], ex.compiled_cse

    def counted(exprs, mode):
        compiled.append(len(exprs))
        return real(exprs, mode)

    monkeypatch.setattr(ex, "compiled_cse", counted)
    fresh = CharPatch(rt, geom, side.eps, side.s, side.points, side.z_orientation)
    assert compiled == [9, 1]     # the frame matrices and |N_h|, for the area factor
    with np.errstate(all="ignore"):
        grids = [fresh.scalar(e) for e in reversed(fields)][::-1]
    assert compiled == [9, 1, 6]
    for grid, want in zip(grids, alone):
        assert grid.shape == side.points.shape[:2]
        assert grid.tobytes() == want.reshape(grid.shape).tobytes()


def test_the_q_kernel_keeps_only_live_arrays(rt, helicoid_fan):
    # with one array per kernel line, the 375 lines of sigma_c's q would
    # hold about 15 MB at once on the 4,961 rows of a fan side
    side = helicoid_fan[0]
    pts = side.points.reshape(-1, 3).copy()
    assert len(pts) == 4961
    kernel = ex.compiled_cse([side.geom.q_expr()], "arrays")
    with np.errstate(all="ignore"):
        kernel(pts)
        tracemalloc.start()
        try:
            kernel(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 3e6


@pytest.mark.parametrize("values", [
    [1.0, -2.0, -3.0], [-1.0, 2.0, 3.0], [-1.0, 1.0], [-3.0, 1.0], [3.0, -1.0],
    [-0.0, -0.0, 1.0], [-0.0, -0.0], [-5e-324, 0.0], [-1e-323, 0.0],
    [-np.inf, np.inf], [-np.inf, -1.0, 2.0], [-1.0, -2.0, np.inf, np.inf],
    [np.nan, -1.0, -2.0], [-1.0, -2.0, -3.0, np.nan], [-np.nan],
])
def test_median_sign_equals_numpy_median(values):
    values = np.array(values, dtype=float)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = bool(np.median(values) < 0)
        assert _median_below_zero(values) == want


def test_median_sign_equals_numpy_median_on_random_grids():
    rng = np.random.default_rng(11)
    for shape in [(7, 7), (7, 8), (41, 121), (40, 121), (9, 11)]:
        for _ in range(20):
            values = rng.normal(rng.normal(), 1.0, shape)
            values[rng.random(shape) < 0.1] = 0.0
            assert _median_below_zero(values) == bool(np.median(values) < 0)


def test_building_a_patch_imports_no_numpy_ma():
    # np.median's nan check imports numpy.ma, 10-14 ms per process (-X importtime)
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "from subriemann import catalog as cat\n"
            "from subriemann.variation import CharPatch\n"
            "CharPatch.from_base_point(cat.rt_structure(), cat.find_entry('sigma_a').make(),\n"
            "                          (0.0, 0.0, 0.0), (-0.5, 0.5), (-0.5, 0.5), 9, 9)\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# integration by parts and the canonical reduction


def test_intbypart2_identity(rt, sigma_a_patch, helicoid_fan):
    # int |N_h| { Z(u)Z(v) + u Z(Z(v)) + c1 |N_h|^-1 g(N,T) u Z(v) } = 0
    def check(patch, u, v):
        geom = patch.geom
        ug = patch.u_grid(u)
        vg = patch.u_grid(v)
        zu = patch.z_derivative(ug)
        zv = patch.z_derivative(vg)
        zzv = patch.z_derivative(zv)
        nh = patch.scalar(geom.nh)
        gnt = patch.scalar(geom.gNT)
        val = patch.integrate(nh * (zu * zv + ug * zzv)
                              + rt.c1 * gnt * ug * zv)
        assert abs(val) < 1e-6

    smooth = _smooth_bump
    check(sigma_a_patch, lambda e, s: smooth(e) * smooth(s),
          lambda e, s: smooth(e) * smooth(s / 0.8))
    sp, sm, _ = helicoid_fan
    check(sp, lambda e, s: smooth(e / 1.8) * smooth((s - 1.5) / 1.2),
          lambda e, s: smooth(e / 1.5) * smooth((s - 1.5) / 1.3))


def _smooth_bump(v):
    v = np.clip(np.asarray(v, dtype=float), -1.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        inner = np.where(np.abs(v) < 1.0,
                         np.exp(1.0 - 1.0 / np.maximum(1.0 - v * v, 1e-300)), 0.0)
    return inner


def test_stabopercanonical_reduction(rt, helicoid_fan):
    # I(u |N_h|, u |N_h|) = int |N_h| { Z(u)^2 - L(|N_h|) u^2 } with both
    # sides quadratured on the fan; the s-derivatives are analytic so only
    # the shared quadrature error remains.
    sp, _, _ = helicoid_fan
    geom = sp.geom
    ee, ss = np.meshgrid(sp.eps, sp.s, indexing="ij")

    def bump(v, width, center=0.0):
        arg = np.clip((v - center) / width, -1.0, 1.0)
        return np.cos(np.pi * arg / 2.0) ** 4

    def dbump(v, width, center=0.0):
        arg = np.clip((v - center) / width, -1.0, 1.0)
        return (-2.0 * np.pi / width * np.cos(np.pi * arg / 2.0) ** 3
                * np.sin(np.pi * arg / 2.0))

    u = bump(ee, 1.8) * bump(ss, 1.2, 1.5)
    du_ds = bump(ee, 1.8) * dbump(ss, 1.2, 1.5)
    nh = sp.scalar(geom.nh)
    z_nh = sp.scalar(geom.Z_of(geom.nh))
    q = sp.scalar(geom.q_expr())
    zf = du_ds * nh + u * z_nh
    lhs = sp.integrate(zf * zf / nh + q * (u * nh) ** 2)
    c1 = rt.c1
    gnt = sp.scalar(geom.gNT)
    tzn = sp.scalar(geom.tauZnu)
    ths = sp.scalar(geom.thetaS)
    w = sp.scalar(rt.webster_expr())
    l_nh = (w - c1 * tzn - 2 * c1 * (nh * ths - nh ** 2 * tzn) / nh ** 2
            - c1 ** 2 * gnt ** 2 / nh ** 2)
    rhs = sp.integrate(nh * (du_ds * du_ds - l_nh * u * u))
    assert abs(lhs - rhs) < 1e-6


# ---------------------------------------------------------------------------
# the pasted quadratic Q


def test_q_zero_function(rt, helicoid_fan):
    sp, sm, gpts = helicoid_fan
    z = lambda e, s: np.zeros_like(np.asarray(e) * np.ones_like(np.asarray(s)))
    rep = stability_quadratic_Q((sp, sm), gpts, z)
    assert rep.value == pytest.approx(0.0, abs=1e-15)


def test_q_helicoid_nonnegative_sample(rt, helicoid_fan):
    sp, sm, gpts = helicoid_fan
    rng = np.random.default_rng(4)
    tube = 0.15
    for _ in range(10):
        we = rng.uniform(0.7, 1.9)
        ce = rng.uniform(-0.3, 0.3)
        cut = rng.uniform(1.0, 2.7)

        def u_fn(e, s):
            s = np.abs(s)
            phi = cos2_bump(we)(e - ce)
            rho = np.where(s <= tube, 1.0,
                           np.where(s < cut,
                                    np.cos(np.pi * (np.minimum(s, cut) - tube)
                                           / (2 * (cut - tube))) ** 2, 0.0))
            return phi * rho

        rep = stability_quadratic_Q((sp, sm), gpts, u_fn, tube_radius=tube)
        assert rep.value >= -1e-8
        assert rep.boundary_u2 >= 0.0   # coefficient c1 + 2 g(tauZ,nu) = +2


def test_q_helicoid_singular_coefficient(rt, helicoid_fan):
    # coefficient per side extrapolates to sgn(g(N,T)) (c1 + 2 g(tauZ,nu)) = 2
    sp, sm, gpts = helicoid_fan
    from subriemann.variation import _limit_coefficient
    for patch in (sp, sm):
        cf = _limit_coefficient(patch)
        assert np.allclose(cf, 2.0, atol=1e-6)


def test_q_admissibility_rejection(rt, helicoid_fan):
    sp, sm, gpts = helicoid_fan
    u_fn = lambda e, s: cos2_bump(1.5)(e) * np.cos(s)
    tube = sp.u_grid(u_fn)[:, sp.s <= 0.15]
    worst = np.max(np.abs(tube - tube[:, :1]))
    with pytest.raises(AdmissibilityError) as info:
        stability_quadratic_Q((sp, sm), gpts, u_fn, tube_radius=0.15)
    assert f"varies by {worst:.3e}" in str(info.value)
    assert f"tolerance {ADMISSIBILITY_TOL:.1e}" in str(info.value)


def test_q_plane_never_negative_in_modeled_class(rt, plane_y0):
    # q = 0 and the singular coefficient c1 + 2 g(tauZ,nu) vanishes on the
    # plane, so Q(u) reduces to the S(u)^2 line integrals; the prescribed
    # widening cosine ansatz cannot reach a negative value
    from subriemann.reproduce import plane_q_search
    report = plane_q_search(rt, widths=(2.5, 10.0))
    assert report["negative_direction_found"] is False
    assert report["min_Q"] >= 0.0


def test_q_plane_coefficient_zero(rt, plane_y0):
    from subriemann.variation import _limit_coefficient
    [(sp, sm, gpts)] = CharPatch.fan_from_curve(rt, plane_y0,
                                                [(lambda e: (e, 0.0, 0.0), (-2.0, 2.0))],
                                                1.2, n_eps=21, n_s=41)
    for patch in (sp, sm):
        assert np.allclose(_limit_coefficient(patch), 0.0, atol=1e-8)


# ---------------------------------------------------------------------------
# singular-curve second variation


def test_singular_curve_second_variation_helicoid(rt, helicoid):
    [(sp, sm, gpts)] = CharPatch.fan_from_curve(rt, helicoid,
                                                [(lambda e: (0.0, 0.0, e), (-2.0, 2.0))],
                                                0.5, n_eps=41, n_s=41)
    w_fn = lambda e, s: cos2_bump(1.8)(e) * np.ones_like(s)
    val = singular_curve_second_variation((sp, sm), gpts, w_fn)
    assert val >= 0.0
    # w constant: bulk = int 2 w^2 nh (tauZnu^2) over the tube (tauZZ = 0)
    w_const = lambda e, s: np.ones_like(np.asarray(e) * np.ones_like(np.asarray(s)))
    val_c = singular_curve_second_variation((sp, sm), gpts, w_const)
    # analytic: 2 * (1/4) * int nh dSigma = (1/2) int |r| dr dalpha over both
    # sides (|r| <= 0.5, alpha in [-2, 2]) plus S(w)^2 = 0
    expect = 0.5 * (0.5 ** 2) * 4.0   # (1/2) * [2 * int_0^0.5 r dr] * 4
    assert val_c == pytest.approx(expect, rel=2e-2)


def test_singular_curve_second_variation_requires_constancy(rt, helicoid):
    [(sp, sm, gpts)] = CharPatch.fan_from_curve(rt, helicoid,
                                                [(lambda e: (0.0, 0.0, e), (-1.0, 1.0))],
                                                0.4, n_eps=15, n_s=21)
    w_fn = lambda e, s: np.cos(s) * np.ones_like(e)
    worst = np.max(np.abs(sp.z_derivative(sp.u_grid(w_fn))))
    with pytest.raises(AdmissibilityError) as info:
        singular_curve_second_variation((sp, sm), gpts, w_fn)
    assert f"max |Z(w)| = {worst:.3e}" in str(info.value)
    assert f"tolerance {CONSTANCY_TOL:.1e}" in str(info.value)


# ---------------------------------------------------------------------------
# numeric second variation oracle


def test_second_variation_numeric_vs_index_form_sigma_a(rt, sigma_a):
    geom = sigma_a.geometry(rt)
    a0 = 0.0
    sa0, ca0 = np.sin(a0), np.cos(a0)
    eps_e = ex.add(ex.mul(-sa0, ex.X), ex.mul(ca0, ex.Y))
    s_e = ex.add(ex.mul(ca0, ex.X), ex.mul(sa0, ex.Y))

    def cos2e(v):
        return ex.mul(ex.cos(ex.mul(np.pi / 2, v)), ex.cos(ex.mul(np.pi / 2, v)))

    u_amb = ex.mul(cos2e(eps_e), cos2e(s_e))
    U = VariationField.normal(geom, u_amb)
    ppatch = ParamPatch(rt, [ex.add(ex.mul(-sa0, ex.X), ex.mul(ca0, ex.Y)),
                             ex.add(ex.mul(ca0, ex.X), ex.mul(sa0, ex.Y)), a0],
                        ((-1, 1), (-1, 1)))
    numeric = second_variation_numeric(ppatch, U, eps=1e-3, order=10, cells=12)
    patch = CharPatch.from_base_point(rt, sigma_a, (0.0, 0.0, a0),
                                      (-1.0, 1.0), (-1.0, 1.0), n_eps=41, n_s=161)
    r = index_form(patch, lambda e, s: (np.cos(np.pi * e / 2)
                                        * np.cos(np.pi * s / 2)) ** 2)
    assert abs(r.value - numeric) / abs(numeric) < 1e-3


def test_nongeodesic_variation_invariance(rt, sigma_a):
    # straight coordinate rays vs rays with the geodesic correction give the
    # same second variation for regular-support fields on a minimal surface
    geom = sigma_a.geometry(rt)
    u_amb = ex.mul(ex.mul(ex.cos(ex.mul(np.pi / 2, ex.X)),
                          ex.cos(ex.mul(np.pi / 2, ex.X))),
                   ex.mul(ex.cos(ex.mul(np.pi / 2, ex.Y)),
                          ex.cos(ex.mul(np.pi / 2, ex.Y))))
    U = VariationField.normal(geom, u_amb)
    ppatch = ParamPatch(rt, [ex.X, ex.Y, 0.0], ((-1, 1), (-1, 1)))
    with_corr = second_variation_numeric(ppatch, U, eps=1e-3, order=8, cells=10)

    # drop the correction by deforming along straight rays manually
    st = rt
    u_coord = st.frame_to_coordinate(list(U.comps))

    def area_straight(e):
        maps = [ex.add(m, ex.mul(e, ex.substitute(c, ppatch.map)))
                for m, c in zip(ppatch.map, u_coord)]
        return ParamPatch(rt, maps, ppatch.domain).area(8, 10)

    a0 = ppatch.area(8, 10)
    straight = (area_straight(1e-3) - 2 * a0 + area_straight(-1e-3)) / 1e-6
    assert abs(with_corr - straight) / abs(with_corr) < 2e-3


# ---------------------------------------------------------------------------
# stability sign field


def test_sign_field_sigma_a(rt, sigma_a):
    geom = sigma_a.geometry(rt)
    pts = [(x, y, 0.0) for x in np.linspace(-2, 2, 9)
           for y in np.linspace(-2, 2, 9)]
    rep = stability_sign_field(geom, pts)
    assert max(abs(rep.minimum), abs(rep.maximum)) < 1e-12
    assert rep.classification == "nonpositive-everywhere"


def test_sign_field_sigma_b_positive(rt, sigma_b):
    geom = sigma_b.geometry(rt)
    pts = []
    for r in (0.2, 1.0, 2.5):
        for al in np.linspace(-3, 3, 13):
            pts.append((-np.sin(al) * r, np.cos(al) * r, al))
    rep = stability_sign_field(geom, pts)
    assert rep.minimum > 0.0
    assert rep.classification == "positive-everywhere"


def test_sign_field_plane_positive(rt, plane_y0):
    geom = plane_y0.geometry(rt)
    pts = [(x, 0.0, al) for x in (-1.0, 0.5) for al in np.linspace(0.3, 2.8, 9)]
    rep = stability_sign_field(geom, pts)
    assert rep.minimum == pytest.approx(1.0, abs=1e-12)  # g(nu_h, Y)^2 = 1


def test_criterion_range_su2():
    lo, hi = criterion_range_unimodular(1.0, -2.0)
    assert lo > 0.0                       # no stable vertical surfaces
    assert lo == pytest.approx(2.0, abs=1e-3)
    assert hi == pytest.approx(4.0, abs=1e-3)


def test_criterion_range_heisenberg():
    lo, hi = criterion_range_unimodular(0.0, 0.0)
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(0.0, abs=1e-12)


def test_isolated_point_second_variation_variant(rt, helicoid, heis):
    from subriemann.variation import isolated_point_second_variation
    [(sp, sm, gpts)] = CharPatch.fan_from_curve(rt, helicoid,
                                                [(lambda e: (0.0, 0.0, e), (-1.0, 1.0))],
                                                0.5, n_eps=15, n_s=21)
    w_fn = lambda e, s: np.ones_like(np.asarray(e) * np.ones_like(np.asarray(s)))
    val = isolated_point_second_variation((sp, sm), w_fn)
    # same bulk as the curve variant, without the line terms
    full = singular_curve_second_variation((sp, sm), gpts, w_fn)
    assert 0.0 < val <= full + 1e-12
    # vanishing torsion kills the bulk term entirely
    plane_h = ImplicitSurface(ex.Y, name="heis-plane")
    patch = CharPatch.from_base_point(heis, plane_h, (0.3, 0.0, 0.1),
                                      (-0.4, 0.4), (-0.4, 0.4),
                                      n_eps=9, n_s=17)
    assert isolated_point_second_variation((patch,), w_fn) == pytest.approx(0.0,
                                                                            abs=1e-14)


def test_first_variation_flags_singular_support(rt, helicoid):
    geom = helicoid.geometry(rt)
    U = VariationField.normal(geom, ex.ONE)
    # patch straddles the singular axis r = 0
    patch = ParamPatch(rt, [ex.parse("x*cos(y)"), ex.parse("x*sin(y)"),
                            ex.parse("y")], ((-1.0, 1.0), (-0.5, 0.5)))
    with pytest.raises(AdmissibilityError):
        first_variation_formula(geom, U, patch)


def test_q_validated_on_heisenberg_saddle(heis):
    # second structure, non-vertical minimal surface: t = xy in the
    # Heisenberg metric; index form against the numeric second difference
    from subriemann.surfaces import ImplicitSurface
    surf = ImplicitSurface(ex.parse("x*y - t"), name="saddle")
    geom = surf.geometry(heis)
    seed = (0.8, 0.3, 0.24)
    assert abs(geom.H.at(seed)) < 1e-12
    patch = CharPatch.from_base_point(heis, surf, seed, (-0.25, 0.25),
                                      (-0.25, 0.25), n_eps=41, n_s=161)
    assert patch.max_h() < 1e-10
    u_amb = ex.parse("(cos(pi*(x-0.8)/0.3)*cos(pi*(y-0.3)/0.3))^2")
    U = VariationField.normal(geom, u_amb)
    ppatch = ParamPatch(heis, [ex.X, ex.Y, ex.parse("x*y")],
                        ((0.65, 0.95), (0.15, 0.45)))
    numeric = second_variation_numeric(ppatch, U, eps=1e-3, order=10, cells=12)
    fn = ex.compiled_cse([u_amb], "arrays")
    u_vals = fn(patch.points.reshape(-1, 3))[:, 0].reshape(patch.points.shape[:2])
    inside = ((patch.points[..., 0] >= 0.65) & (patch.points[..., 0] <= 0.95)
              & (patch.points[..., 1] >= 0.15) & (patch.points[..., 1] <= 0.45))
    u_vals = np.where(inside, u_vals, 0.0)   # kill periodic cosine tails
    zu = patch.z_derivative(u_vals)
    nh = patch.scalar(geom.nh)
    q = patch.scalar(geom.q_expr())
    val = patch.integrate(zu * zu / nh + q * u_vals * u_vals)
    assert abs(val - numeric) / abs(numeric) < 1e-3


def _project_point(surf, p):
    """Scalar Newton projection of one point from the tree walk of f and
    its gradient: the per-point reference of ``ImplicitSurface.project``."""
    q = np.asarray(p, dtype=float)
    for _ in range(40):
        with np.errstate(all="ignore"):
            v, *g = [e.at(q) for e in (surf.f, *surf.grad)]
        v = float(v)
        if abs(v) < 1e-13:
            return q
        g = np.array(g)
        n2 = float(g @ g)
        if n2 < 1e-30:
            raise ValueError(f"vanishing gradient while projecting near {tuple(q)}")
        q = q - (v / n2) * g
    return q


def _step_off_point(structure, geom, surf, q, sgn, ds, ref_dir):
    """One ray's first step off a singular curve, point by point: the
    reference of the batched ``_fan_starts``."""
    with np.errstate(all="ignore"):
        j = np.array([e.at(q) for e in geom.singular_exprs()[3:]]).reshape(3, 3)
    _, _, vt = np.linalg.svd(j)
    tan_coord = vt[-1]
    if float(tan_coord @ ref_dir) < 0:
        tan_coord = -tan_coord
    m = structure.frame_matrix(q)
    w = np.linalg.solve(m.T, tan_coord)
    w /= np.linalg.norm(w)
    zdir = structure.j_apply(w)
    return _project_point(surf, q + sgn * ds * (zdir @ m))


def _separate_fan(structure, surf, gamma, eps_span, s_max, n_eps, n_s, s_min=1e-3):
    """One curve, one flow per side, the negated Z field for sigma = -1,
    each curve point stepped off and projected alone, and each side's flow
    projected until its largest |f| is below 1e-12: the fan construction
    before the sides of all curves shared one flow and one projection."""
    from subriemann.variation import rk4_step

    def project(q):
        q = np.array(q, dtype=float)
        kernel = ex.compiled_cse((surf.f, *surf.grad), "arrays")
        for _ in range(30):
            fg = kernel(q)
            v = fg[:, 0]
            if np.max(np.abs(v)) < 1e-12:
                break
            g = fg[:, 1:]
            q = q - (v / np.sum(g * g, axis=-1))[:, None] * g
        return q

    def flow(field, q, s):
        rhs = ex.compiled_cse(field, "arrays")
        out = [q]
        for j in range(1, len(s)):
            h = (s[j] - s[j - 1]) / 8
            for _ in range(8):
                q = rk4_step(rhs, q, h)
            q = project(q)
            out.append(q)
        return np.stack(out, axis=1)

    geom = surf.geometry(structure)
    eps = np.linspace(eps_span[0], eps_span[1], n_eps)
    gpts = np.array([_project_point(surf, gamma(e)) for e in eps])
    z_coord = structure.frame_to_coordinate(list(geom.Z))
    s = np.linspace(s_min, s_max, n_s)
    ref = np.gradient(gpts, axis=0)
    sides = []
    for sgn in (+1.0, -1.0):
        q0 = np.stack([_step_off_point(structure, geom, surf, gpts[i], sgn, s[0], ref[i])
                       for i in range(n_eps)])
        mid = n_eps // 2
        z_at = np.array([c.at(q0[mid]) for c in geom.Z])
        m = structure.frame_matrix(q0[mid])
        out_dir = np.linalg.solve(m.T, q0[mid] - gpts[mid])
        sigma = 1.0 if float(z_at @ out_dir) >= 0 else -1.0
        field = z_coord if sigma > 0 else [ex.neg(c) for c in z_coord]
        sides.append(CharPatch(structure, geom, eps, s, flow(field, q0, s),
                               z_orientation=sigma))
    return sides[0], sides[1], gpts


def _assert_same_fan(fan, oracle):
    for side, ref in zip(fan[:2], oracle[:2]):
        assert np.array_equal(side.points, ref.points)
        assert np.array_equal(side.f_eps, ref.f_eps)
        assert side.z_orientation == ref.z_orientation
    assert np.array_equal(fan[2], oracle[2])


def test_grouped_fans_match_separate_fans(rt, plane_y0, helicoid, helicoid_fan):
    # plane_q_search's eight fans in one flow, sides with sigma = -1 flowing Z
    # along -s, give what one flow per side of the negated field gives
    curves = [(lambda e, a=a: (e, 0.0, a), (-x0, x0))
              for x0 in (2.5, 5.0, 10.0, 20.0) for a in (0.0, np.pi)]
    fans = CharPatch.fan_from_curve(rt, plane_y0, curves, np.pi / 2 - 0.05,
                                    n_eps=61, n_s=61)
    assert len(fans) == len(curves)
    assert {fan[0].z_orientation for fan in fans} | \
        {fan[1].z_orientation for fan in fans} == {1.0, -1.0}
    for fan, (gamma, span) in zip(fans, curves):
        _assert_same_fan(fan, _separate_fan(rt, plane_y0, gamma, span,
                                            np.pi / 2 - 0.05, 61, 61))
    # helicoid_q_samples' fan: both sides in one flow
    _assert_same_fan(helicoid_fan, _separate_fan(rt, helicoid, lambda e: (0.0, 0.0, e),
                                                 (-2.0, 2.0), 3.0, 41, 121))


def test_projection_groups_stop_on_their_own(helicoid):
    # a row already within tol comes back bit for bit while other rows still
    # iterate, and every row of a stack comes back as it would alone
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, (2, 25, 3))
    done = helicoid.project(pts[0])
    assert 0.0 < np.max(np.abs(helicoid.f.eval(*done.T))) < 1e-13
    out = helicoid.project(np.stack([done, pts[1]]))
    assert out.shape == pts.shape
    assert out[0].tobytes() == done.tobytes()
    assert out[1].tobytes() == helicoid.project(pts[1]).tobytes()
    assert not np.array_equal(out[1], pts[1])
    # ... and as the scalar reference projects it
    for p, q in zip(pts.reshape(-1, 3), out.reshape(-1, 3)):
        assert helicoid.project(p).tobytes() == q.tobytes()
        assert _project_point(helicoid, p).tobytes() == q.tobytes()
    # a row on which the gradient vanishes (the axis x = y = 0 of a cylinder)
    # comes back nan, and the other rows as they would alone
    cylinder = ImplicitSurface(ex.parse("x*x + y*y - 0.25"))
    rows = np.array([[0.5, 0.2, 0.3], [0.0, 0.0, 0.7], [-0.3, 0.4, 1.0]])
    out = cylinder.project(rows)
    assert np.isnan(out[1]).all() and np.isfinite(out[[0, 2]]).all()
    for k in (0, 2):
        assert out[k].tobytes() == cylinder.project(rows[k]).tobytes()
    assert np.isnan(cylinder.project(rows[1])).all()


def test_z_derivative_along_integrated_curve_matches_symbolic(rt, helicoid):
    # d/ds of a scalar along an integrated Z-curve equals the symbolic
    # directional derivative Z(h) (the identity suites use the latter)
    geom = helicoid.geometry(rt)
    z_coord = rt.frame_to_coordinate(list(geom.Z))
    p0 = helicoid.project(np.array([1.0, 0.4, np.arctan2(0.4, 1.0)]))
    ss = np.linspace(0, 0.5, 501)
    pts = CharPatch._surface_flow(helicoid, z_coord, p0, ss)
    h_vals = np.array([geom.nh.at(p) for p in pts])
    mid = len(ss) // 2
    num = (h_vals[mid + 1] - h_vals[mid - 1]) / (ss[mid + 1] - ss[mid - 1])
    sym = geom.Z_of(geom.nh).at(pts[mid])
    assert abs(num - sym) < 1e-6


def test_singular_curve_second_variation_zero_torsion(heis):
    # tau = 0: the tube formula reduces to the S(w)^2 line integral alone;
    # the fan also exercises inward-pointing characteristic fields (the ray
    # orientation g(Z, nu_ext) = -1 is recorded on the patches)
    from subriemann.surfaces import ImplicitSurface
    saddle = ImplicitSurface(ex.parse("x*y - t"), name="saddle")
    [(sp, sm, gpts)] = CharPatch.fan_from_curve(heis, saddle,
                                                [(lambda e: (0.0, e, 0.0), (-0.8, 0.8))],
                                                0.4, n_eps=21, n_s=31)
    assert sp.z_orientation == -1.0 and sm.z_orientation == -1.0
    w_fn = lambda e, s: np.cos(np.pi * e / 1.6) ** 2 * np.ones_like(s)
    val = singular_curve_second_variation((sp, sm), gpts, w_fn)
    e = np.linspace(-0.8, 0.8, 20001)
    w = np.cos(np.pi * e / 1.6) ** 2
    expect = np.trapezoid(np.gradient(w, e) ** 2, e)
    assert abs(val - expect) / expect < 1e-2


def test_heisenberg_vertical_plane_cross_evaluation(heis):
    # vertical plane y = 0 in the Heisenberg metric: W - c1 g(tauZ, nu) = 0,
    # so L(|N_h|) = 0 and the second-variation coefficient q vanishes
    from subriemann.surfaces import ImplicitSurface
    plane = ImplicitSurface(ex.Y, name="h-plane")
    geom = plane.geometry(heis)
    for p in [(0.4, 0.0, 0.3), (-1.0, 0.0, 0.8), (2.0, 0.0, -1.5)]:
        assert geom.gNT.at(p) == pytest.approx(0.0, abs=1e-14)   # vertical
        assert geom.criterion.at(p) == pytest.approx(0.0, abs=1e-12)
        assert geom.q_expr().at(p) == pytest.approx(0.0, abs=1e-12)
        a, b, diff = l_of_nh(geom, p)
        assert a == pytest.approx(0.0, abs=1e-12)
        assert abs(diff) < 1e-10


def test_repeated_q_runs_compile_nothing_new():
    # each run builds a fresh rt structure and fresh fans; equal expressions
    # are one node, so the second run finds every kernel in the cache
    from subriemann.reproduce import helicoid_q_samples
    first = helicoid_q_samples(cat.rt_structure(), 1)
    entries = len(ex._FAST_CACHE)
    assert helicoid_q_samples(cat.rt_structure(), 1) == first
    assert len(ex._FAST_CACHE) == entries
