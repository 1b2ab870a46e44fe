import numpy as np
import pytest

from subriemann import catalog as cat
from subriemann import expr as ex
from subriemann.structures import (StructureSpec, StructureError, TangentVector,
                                   coordinate_structure, unimodular_structure,
                                   nonunimodular_structure,
                                   torsion_in_rotated_frame, rotate_tau_matrix,
                                   structure_from_json)

NAMES = ("X", "Y", "T")


def rand_points(rng, n, scale=1.5):
    return [tuple(rng.uniform(-scale, scale, 3)) for _ in range(n)]


# ---------------------------------------------------------------------------
# brackets


def test_rt_brackets(rt):
    p = (0.4, -0.2, 1.3)
    assert np.allclose(rt.lie_bracket("X", "Y", p).components, (0, 0, -1), atol=1e-14)
    assert np.allclose(rt.lie_bracket("X", "T", p).components, (0, 1, 0), atol=1e-14)
    assert np.allclose(rt.lie_bracket("Y", "T", p).components, (0, 0, 0), atol=1e-14)


def test_bracket_antisymmetry(rt):
    p = (0.1, 0.9, -0.4)
    assert np.allclose(rt.lie_bracket("X", "X", p).components, 0.0)
    xy = np.asarray(rt.lie_bracket("X", "Y", p).components)
    yx = np.asarray(rt.lie_bracket("Y", "X", p).components)
    assert np.allclose(xy, -yx)


def test_heisenberg_bracket_and_c1(heis):
    p = (0.7, -1.1, 0.3)
    assert np.allclose(heis.lie_bracket("X", "Y", p).components, (0, 0, -2),
                       atol=1e-14)
    assert heis.c1 == pytest.approx(2.0, abs=1e-14)


def test_ambient_field_bracket(heis):
    # [x*X, Y] = x[X,Y] - Y(x) X = -2x T  (Y(x) = 0 for the Heisenberg frame)
    p = (0.5, 0.2, 0.1)
    v = heis.lie_bracket([ex.X, ex.ZERO, ex.ZERO], ["Y"][0] if False else
                         [ex.ZERO, ex.ONE, ex.ZERO], p)
    assert np.allclose(v.components, (0, 0, -2 * 0.5), atol=1e-13)


# ---------------------------------------------------------------------------
# Levi-Civita connection


def test_lc_torsion_free_residual(rt, heis):
    rng = np.random.default_rng(3)
    for st in (rt, heis):
        worst = 0.0
        for p in rand_points(rng, 12):
            for i in range(3):
                for j in range(3):
                    dij = np.asarray(st.connection_lc(NAMES[i], NAMES[j], p).components)
                    dji = np.asarray(st.connection_lc(NAMES[j], NAMES[i], p).components)
                    br = np.asarray(st.lie_bracket(NAMES[i], NAMES[j], p).components)
                    worst = max(worst, np.max(np.abs(dij - dji - br)))
        assert worst < 1e-12


def test_lc_metric_compatibility(rt):
    # V g(W,U) - g(D_V W, U) - g(W, D_V U) = 0; frame inner products constant
    rng = np.random.default_rng(4)
    for p in rand_points(rng, 8):
        for v in NAMES:
            for w in NAMES:
                for u in NAMES:
                    lhs = (rt.connection_lc(v, w, p).components[NAMES.index(u)]
                           + rt.connection_lc(v, u, p).components[NAMES.index(w)])
                    assert abs(lhs) < 1e-12


def test_reeb_curves_are_riemannian_geodesics(rt, heis):
    for st in (rt, heis):
        v = st.connection_lc("T", "T", (0.3, 0.1, -0.7))
        assert np.allclose(v.components, 0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# pseudo-hermitian connection


def test_nabla_T_vanishes(rt, heis):
    # parallelism residuals at 100 random points per structure
    rng = np.random.default_rng(5)
    for st in (rt, heis):
        for p in rand_points(rng, 100):
            for v in NAMES:
                assert np.allclose(st.connection_ph(v, "T", p).components, 0.0,
                                   atol=1e-9)


def test_nabla_metric_compatibility(rt):
    rng = np.random.default_rng(6)
    for p in rand_points(rng, 6):
        for v in NAMES:
            for w in NAMES:
                for u in NAMES:
                    lhs = (rt.connection_ph(v, w, p).components[NAMES.index(u)]
                           + rt.connection_ph(v, u, p).components[NAMES.index(w)])
                    assert abs(lhs) < 1e-12


def test_nabla_J_parallel(rt, heis):
    # (nabla_V J)W = nabla_V(JW) - J(nabla_V W) = 0 on frame fields
    rng = np.random.default_rng(7)
    for st in (rt, heis):
        jx = st.j_apply(np.array([1.0, 0.0, 0.0]))
        jy = st.j_apply(np.array([0.0, 1.0, 0.0]))
        j_of = {"X": jx, "Y": jy, "T": np.zeros(3)}
        for p in rand_points(rng, 34):
            for v in NAMES:
                for w in ("X", "Y"):
                    jw = j_of[w]
                    fld = [ex.Const(c) for c in jw]
                    lhs = np.asarray(st.connection_ph(v, fld, p).components)
                    dvw = st.connection_ph(v, w, p).components
                    rhs = st.j_apply(np.asarray(dvw))
                    assert np.allclose(lhs, rhs, atol=1e-12)


def test_nabla_torsion_matches_definition(rt):
    # Tor(V,W) = nabla_V W - nabla_W V - [V,W] against the displayed formula
    rng = np.random.default_rng(8)
    for p in rand_points(rng, 8):
        tau = rt.tau_matrix(p)
        for i, v in enumerate(NAMES):
            for j, w in enumerate(NAMES):
                lhs = (np.asarray(rt.connection_ph(v, w, p).components)
                       - np.asarray(rt.connection_ph(w, v, p).components)
                       - np.asarray(rt.lie_bracket(v, w, p).components))
                gvt = 1.0 if i == 2 else 0.0
                gwt = 1.0 if j == 2 else 0.0
                tau_w = np.array([*(tau @ np.eye(3)[j][:2]), 0.0]) if j < 2 else np.zeros(3)
                tau_v = np.array([*(tau @ np.eye(3)[i][:2]), 0.0]) if i < 2 else np.zeros(3)
                jv = rt.j_apply(np.eye(3)[i])
                rhs = gvt * tau_w - gwt * tau_v + rt.c1 * float(jv @ np.eye(3)[j]) * np.array([0, 0, 1.0])
                assert np.allclose(lhs, rhs, atol=1e-8)


def _pointwise_connection(st, table, v, w, p):
    """The numeric covariant derivative the connection methods used before
    they evaluated the symbolic field formula: the bit-for-bit oracle."""
    if isinstance(v, TangentVector):
        vcomps = np.asarray(v.components)
    else:
        vcomps = np.array([c.at(p) for c in st._field_components(v)])
    wfield = st._field_components(w)
    out = np.zeros(3)
    for k in range(3):
        acc = 0.0
        for i in range(3):
            if vcomps[i] == 0.0:
                continue
            acc += vcomps[i] * st.frame_derivation(i, wfield[k]).at(p)
            for j in range(3):
                acc += vcomps[i] * wfield[j].at(p) * table[i][j][k].at(p)
        out[k] = acc
    return out


@pytest.mark.parametrize("name", [e.name for e in cat.catalog_structures()])
def test_connection_keeps_pointwise_bits(name):
    st = cat.structure_by_name(name)
    rng = np.random.default_rng(11)
    lo, hi = np.array(st.chart_domain).T
    fields = [*NAMES, [ex.X, ex.ZERO, ex.add(1.0, ex.mul(ex.Y, ex.T))]]
    for p in (lo + (hi - lo) * rng.uniform(0.2, 0.8, (3, 3))).tolist():
        p = tuple(p)
        dirs = [*NAMES, TangentVector(p, rng.normal(size=3)),
                TangentVector(p, (rng.normal(), 0.0, rng.normal()))]
        for method, table in ((st.connection_lc, st._lc), (st.connection_ph, st._ph)):
            for v in dirs:
                for w in fields:
                    got = np.array(method(v, w, p).components)
                    want = _pointwise_connection(st, table, v, w, p)
                    assert got.tobytes() == want.tobytes(), (name, v, w, p)


def test_new_directions_compile_no_new_connection_kernels(rt):
    rng = np.random.default_rng(12)
    p = (0.3, -0.4, 1.1)
    rt.connection_ph(TangentVector(p, (1.0, 2.0, 3.0)), "T", p)
    before = len(ex._FAST_CACHE)
    for _ in range(100):
        rt.connection_ph(TangentVector(p, rng.normal(size=3)), "T", p)
    assert len(ex._FAST_CACHE) - before <= 3


@pytest.mark.parametrize("name", ["rt", "su2", "sasakian"])
def test_direction_contraction_equals_the_symbolic_route(name):
    # the route it replaced: V's components as constants in the field formula
    st = cat.structure_by_name(name)
    rng = np.random.default_rng(13)
    field = [ex.X, ex.ZERO, ex.add(1.0, ex.mul(ex.Y, ex.T))]
    for table, method in ((st._lc, st.connection_lc), (st._ph, st.connection_ph)):
        for _ in range(5):
            p = tuple(rng.uniform(-1.0, 1.0, 3))
            v = TangentVector(p, rng.normal(size=3))
            for w in (*NAMES, field):
                comps = st._cov_field_exprs(table, [ex.Const(c) for c in v.components],
                                            st._field_components(w))
                want = ex.compiled_cse(comps, "arrays")(np.array([p]))[0]
                got = np.array(method(v, w, p).components)
                assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_unimodular_connection_closed_forms():
    st = unimodular_structure(1.0, -2.0)
    p = (0.0, 0.0, 0.0)
    assert np.allclose(st.connection_ph("X", "X", p).components, 0.0, atol=1e-14)
    # nabla_T X = ((c3 - c2)/2) Y
    assert np.allclose(st.connection_ph("T", "X", p).components,
                       (0.0, (-2.0 - 1.0) / 2.0, 0.0), atol=1e-14)
    assert np.allclose(st.connection_ph("T", "Y", p).components,
                       ((1.0 + 2.0) / 2.0, 0.0, 0.0), atol=1e-14)


# ---------------------------------------------------------------------------
# torsion


def test_rt_torsion_matrix(rt):
    assert np.allclose(rt.tau_matrix((0.4, 1.0, -0.3)),
                       [[0.0, 0.5], [0.5, 0.0]], atol=1e-14)


def test_heisenberg_torsion_vanishes(heis):
    assert np.allclose(heis.tau_matrix((0.3, -0.6, 0.2)), 0.0, atol=1e-14)


def test_unimodular_torsion_norm():
    for c2, c3 in [(1.0, -2.0), (2.0, 0.0), (0.5, 0.25), (-2.0, 0.0)]:
        st = unimodular_structure(c2, c3)
        assert st.tau_norm((0, 0, 0)) == pytest.approx(abs(c2 + c3) / 2.0, abs=1e-14)


def test_tau_is_horizontal_and_kills_T(rt):
    p = (0.2, 0.2, 0.2)
    v = rt.torsion_tau(TangentVector(p, (0.0, 0.0, 1.0)))
    assert np.allclose(v.components, 0.0)
    w = rt.torsion_tau(TangentVector(p, (0.3, -0.4, 0.0)))
    assert w.components[2] == 0.0


def test_j_antisymmetry(rt, heis):
    rng = np.random.default_rng(9)
    for st in (rt, heis):
        for _ in range(50):
            a, b = rng.uniform(-2, 2, 2)
            v = np.array([a, b, 0.0])
            assert abs(float(st.j_apply(v) @ v)) < 1e-12
    assert np.allclose(rt.j_apply(np.array([0.0, 0.0, 1.0])), 0.0)


def test_j_sign_convention(rt):
    # g(J(X), Y) = sgn(c1) = +1 for RT
    assert float(rt.j_apply(np.array([1.0, 0, 0]))[1]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Webster curvature


def test_webster_values(rt, heis):
    rng = np.random.default_rng(10)
    for p in rand_points(rng, 6):
        assert rt.webster_curvature_tensor(p) == pytest.approx(0.5, abs=1e-12)
        assert heis.webster_curvature_tensor(p) == pytest.approx(0.0, abs=1e-12)


def test_webster_unimodular_closed_form_vs_tensor():
    rng = np.random.default_rng(11)
    for _ in range(12):
        c2, c3 = rng.uniform(-3, 3, 2)
        st = unimodular_structure(c2, c3)
        closed = -2.0 * (c3 - c2) / 2.0
        assert st.meta["webster_closed_form"] == pytest.approx(closed, abs=1e-14)
        assert st.webster_curvature_tensor((0, 0, 0)) == pytest.approx(closed,
                                                                       abs=1e-9)


def test_webster_nonunimodular():
    for alpha, gamma in [(1.0, 0.0), (1.0, 0.5), (2.0, -1.0), (0.5, 3.0)]:
        st = nonunimodular_structure(alpha, gamma)
        expected = -alpha ** 2 - gamma
        assert st.meta["webster_closed_form"] == pytest.approx(expected)
        assert st.webster_curvature_tensor((0, 0, 0)) == pytest.approx(expected,
                                                                       abs=1e-12)


def test_curvature_sample(rt):
    s = rt.curvature_sample((0.1, 0.2, 0.3))
    assert s.webster == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(s.tau_matrix, s.tau_matrix.T)


# ---------------------------------------------------------------------------
# rotated-frame torsion


def test_rotated_torsion_identity_rotation():
    m = torsion_in_rotated_frame(1.3, -0.4, 1.0, 0.0)
    assert np.allclose(m, [[0.0, 0.45], [0.45, 0.0]])


def test_rotated_torsion_vanishing_sum():
    for a1, a2 in [(1, 0), (0.6, 0.8), (np.sqrt(0.5), -np.sqrt(0.5))]:
        assert np.allclose(torsion_in_rotated_frame(1.0, -1.0, a1, a2), 0.0)


def test_rotated_torsion_diagonal_case():
    # diagonal rotation by 45 degrees: off-diagonal vanishes and the diagonal
    # is (c2+c3) a1 a2 with opposite signs (tau is traceless)
    r = np.sqrt(2) / 2
    m = torsion_in_rotated_frame(1.0, 1.0, r, r)
    assert np.allclose(m, [[1.0, 0.0], [0.0, -1.0]], atol=1e-12)


def test_rotated_torsion_matches_conjugation():
    rng = np.random.default_rng(12)
    for _ in range(25):
        c2, c3 = rng.uniform(-3, 3, 2)
        th = rng.uniform(0, 2 * np.pi)
        a1, a2 = np.cos(th), np.sin(th)
        base = np.array([[0.0, (c2 + c3) / 2], [(c2 + c3) / 2, 0.0]])
        assert np.allclose(torsion_in_rotated_frame(c2, c3, a1, a2),
                           rotate_tau_matrix(base, a1, a2), atol=1e-12)


def test_rotated_torsion_precondition():
    with pytest.raises(ValueError):
        torsion_in_rotated_frame(1.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# validation and serialization


def test_non_constant_c1_rejected():
    # scale X by a function of x: c1 = -g([X,Y],T) picks up the factor
    scale = ex.add(1.0, ex.mul(0.25, ex.mul(ex.X, ex.X)))
    with pytest.raises(StructureError):
        coordinate_structure([scale, 0, ex.mul(scale, ex.Y)],
                             [0, 1, ex.neg(ex.X)], [0, 0, 1],
                             ((-2, 2), (-2, 2), (-2, 2)))


def test_reeb_violation_rejected():
    # T with a bracket that has a vertical component: swap roles so that
    # [X, T] has a T part
    with pytest.raises(StructureError):
        coordinate_structure([1, 0, ex.Y], [0, 1, ex.neg(ex.X)],
                             [0, 0, ex.add(1.0, ex.X)],
                             ((-2, 2), (-2, 2), (-2, 2)))


def test_point_outside_domain_rejected(rt):
    with pytest.raises(StructureError):
        rt.lie_bracket("X", "Y", (1000.0, 0.0, 0.0))


def test_structure_json_roundtrip(rt):
    data = rt.to_json()
    st2 = structure_from_json(data)
    p = (0.3, 0.4, 0.5)
    assert st2.c1 == pytest.approx(rt.c1)
    assert st2.webster_curvature_tensor(p) == pytest.approx(0.5, abs=1e-12)


def test_structure_json_liegroup():
    st = structure_from_json({"kind": "lie-group", "c2": 1.0, "c3": -2.0})
    assert st.meta["webster_closed_form"] == pytest.approx(3.0)
    st2 = structure_from_json({"kind": "lie-group", "alpha": 1.0, "gamma": 0.0})
    assert st2.meta["webster_closed_form"] == pytest.approx(-1.0)
    with pytest.raises(StructureError):
        structure_from_json({"kind": "lie-group"})
