"""Surface models, adapted frames, sub-Riemannian area and singular sets.

Two surface models are supported: graphs t = u(x, y) over a Darboux chart
(with an arbitrary constant-coefficient positive definite metric on the
horizontal fields) and implicit level sets f = 0 in any chart structure.

Given a structure and an implicit surface the ambient unit normal, the
horizontal normal nu_h, the characteristic field Z = J(nu_h), S and all the
scalar invariants (|N_h|, g(N,T), theta(S), mean curvature, torsion
components) are assembled once as symbolic expressions, so every derivative
an identity needs is exact.

Orientation: graphs use the downward-pointing normal (negative Reeb
component); implicit surfaces use the normalized Riemannian gradient of f
times the declared orientation sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import Expr
from .structures import (StructureError, StructureSpec, TangentVector, json_box,
                         json_expr, json_float, json_list, json_object, sum_exprs)

EPS_SING = 1e-10
PROJECT_TOL, PROJECT_MAX_ITER = 1e-13, 40   # Newton projection onto f = 0
NEWTON_TOL, NEWTON_MAX_ITER = 1e-10, 60     # Gauss-Newton on the singular system
RANK_TOL_RATIO = 1e-5   # singular values up to this times max(s_max, 1) count as 0
TRACE_STEP, TRACE_MAX_POINTS = 1e-2, 4000   # singular-curve continuation
NEAR_CHUNK = 32   # consecutive locus points per bounding box in _near
# the fields of SurfaceGeometry.frame_values; Z_gNT is Z(g(N,T))
FRAME_SCALARS = ("f", "nh", "gNT", "tauZZ", "tauZnu", "thetaS", "H", "Z_gNT")
FRAME_VECTORS = ("N", "nu_h", "Z", "S")


class SingularPointSignal(Exception):
    """Raised where the adapted frame degenerates (|N_h| below threshold)."""

    def __init__(self, point, nh):
        super().__init__(f"singular point at {tuple(point)}: |N_h| = {nh:.3e}")
        self.point = tuple(point)
        self.nh = float(nh)


@dataclass(frozen=True)
class SurfaceFramePoint:
    """Adapted data at a non-singular surface point."""

    point: tuple
    N: TangentVector
    nu_h: TangentVector
    Z: TangentVector
    S: TangentVector
    nh: float
    gNT: float
    thetaS: float
    H: float
    tauZZ: float
    tauZnu: float
    thetaS_conti: float = 0.0   # theta(S) back-solved from Lemma conti (v)


class ImplicitSurface:
    """Level set {f = 0} with an orientation sign for the unit normal."""

    def __init__(self, f: Expr, orientation: int = 1, name: str = ""):
        self.f = ex._as_expr(f)
        self.grad = tuple(self.f.diff(i) for i in range(3))
        self.orientation = 1 if orientation >= 0 else -1
        self.name = name
        self._geom = {}

    def geometry(self, structure: StructureSpec) -> "SurfaceGeometry":
        key = id(structure)
        entry = self._geom.get(key)
        if entry is None or entry[0] is not structure:
            entry = (structure, SurfaceGeometry(structure, self))
            self._geom[key] = entry
        return entry[1]

    def value(self, p) -> float:
        """f at p, from the (f, grad f) kernel of ``project``."""
        kernel = ex.compiled_cse((self.f, *self.grad), "arrays")
        return float(kernel(np.array([p], dtype=float))[0, 0])

    def project(self, p):
        """Newton projection along the coordinate gradient of a point (3,), or
        of each row of a stack (..., 3) on its own: a row stops once
        |f| < PROJECT_TOL, after at most PROJECT_MAX_ITER steps.  A row whose
        gradient vanishes (|grad f|^2 < 1e-30) or is not finite comes back as
        nan; the caller decides what that means."""
        shape = np.shape(p)
        rows = np.array(p, dtype=float).reshape(-1, 3)
        kernel = ex.compiled_cse((self.f, *self.grad), "arrays")
        live = np.arange(len(rows))
        with np.errstate(all="ignore"):
            for _ in range(PROJECT_MAX_ITER):
                fg = kernel(rows[live])
                v, g = fg[:, 0], fg[:, 1:]
                go = ~(np.abs(v) < PROJECT_TOL)
                live, v, g = live[go], v[go], g[go]
                if not len(live):
                    break
                n2 = np.vecdot(g, g)
                flat = ~(n2 >= 1e-30)
                rows[live[flat]] = np.nan
                live, v, g, n2 = live[~flat], v[~flat], g[~flat], n2[~flat]
                rows[live] = rows[live] - (v / n2)[:, None] * g
        return rows.reshape(shape)

    def to_json(self):
        return {"kind": "implicit", "expr": str(self.f), "orientation": self.orientation,
                "name": self.name}


class GraphSurface:
    """Graph t = u(x, y) over a box, with metric g_ij on the Darboux fields.

    The metric entries may be expressions of (x, y); the adapted-frame
    machinery additionally requires det(g) constant (otherwise c1 is not
    constant and only the chart-level formulas - area, divergence-form mean
    curvature - apply).
    """

    def __init__(self, u: Expr, domain=((-1.0, 1.0), (-1.0, 1.0)), metric=None,
                 name: str = ""):
        self.u = ex._as_expr(u)
        self.domain = tuple((float(lo), float(hi)) for lo, hi in domain)
        ex.validate_on_box(self.u, (*self.domain, (-1.0, 1.0)))
        if metric is None:
            metric = ((1.0, 0.0), (0.0, 1.0))
        self.metric = [[ex._as_expr(metric[i][j]) for j in range(2)] for i in range(2)]
        # equal entries are one node; constants 0.0 and -0.0 are two nodes
        # but still a symmetric pair
        if not ex._is_const(ex.sub(self.metric[0][1], self.metric[1][0]), 0.0):
            raise ValueError("metric matrix must be symmetric")
        self.name = name
        self._structure = None
        self._implicit = None
        self._min_det_check()

    def _min_det_check(self):
        g = self.metric
        kernel = ex.compiled_cse([g[0][0], g[0][1], g[1][1]], "arrays")
        axes = [np.linspace(lo, hi, 9) for lo, hi in self.domain]
        g11, g12, g22 = kernel(grid_points(*axes, [0.0])).T
        if np.any(g11 <= 0) or np.any(g11 * g22 - g12 ** 2 <= 0):
            raise ValueError("metric matrix is not positive definite on the domain")

    # p = grad(u) + F with F(x, y) = (-y, x); its zero set projects Sigma_0.
    def p_exprs(self):
        return [ex.sub(self.u.diff(0), ex.Y), ex.add(self.u.diff(1), ex.X)]

    def b_exprs(self):
        g = self.metric
        det = ex.sub(ex.mul(g[0][0], g[1][1]), ex.mul(g[0][1], g[0][1]))
        return [[ex.div(g[1][1], det), ex.neg(ex.div(g[0][1], det))],
                [ex.neg(ex.div(g[0][1], det)), ex.div(g[0][0], det)]], det

    def pbp_expr(self):
        """<p, b p> as an expression of (x, y)."""
        p = self.p_exprs()
        b, _ = self.b_exprs()
        return sum_exprs(ex.mul(ex.mul(p[i], b[i][j]), p[j])
                         for i in range(2) for j in range(2))

    def area_integrand_expr(self):
        """|N_h| dG_u density: <p,bp>^1/2 det(g_ij + p_i p_j)^1/2 /
        (1 + <p,bp>)^1/2."""
        p = self.p_exprs()
        g = self.metric
        pbp = self.pbp_expr()
        m = [[ex.add(g[i][j], ex.mul(p[i], p[j])) for j in range(2)] for i in range(2)]
        det_m = ex.sub(ex.mul(m[0][0], m[1][1]), ex.mul(m[0][1], m[1][0]))
        return ex.div(ex.mul(ex.sqrt(pbp), ex.sqrt(det_m)),
                      ex.sqrt(ex.add(1.0, pbp)))

    def to_implicit(self) -> ImplicitSurface:
        """Level set u(x,y) - t = 0; orientation +1 is the downward normal.

        Built once, so its geometry and compiled kernels are reused."""
        if self._implicit is None:
            self._implicit = ImplicitSurface(ex.sub(self.u, ex.T), orientation=1,
                                             name=self.name or "graph")
        return self._implicit

    def chart_box(self):
        xs, ys = self.domain
        kernel = ex.compiled_cse([self.u], "arrays")
        corners = kernel(np.array([(x, y, 0.0) for x in xs for y in ys]))[:, 0].tolist()
        return (xs, ys, (min(corners) - 2.0, max(corners) + 2.0))

    def structure(self) -> StructureSpec:
        """Orthonormalized Darboux-chart structure for this graph's metric.

        The base fields are X0 = d/dx + y d/dt, Y0 = d/dy - x d/dt, T = d/dt;
        Gram-Schmidt against the metric matrix gives the orthonormal pair.
        Requires constant c1, i.e. constant det(g).
        """
        if self._structure is None:
            g = self.metric
            det = ex.sub(ex.mul(g[0][0], g[1][1]), ex.mul(g[0][1], g[0][1]))
            s11 = ex.sqrt(g[0][0])
            s2 = ex.sqrt(ex.mul(g[0][0], det))
            x0 = [ex.ONE, ex.ZERO, ex.Y]
            y0 = [ex.ZERO, ex.ONE, ex.neg(ex.X)]
            e1 = [ex.div(c, s11) for c in x0]
            e2 = [ex.div(ex.sub(ex.mul(g[0][0], y0[k]), ex.mul(g[0][1], x0[k])), s2)
                  for k in range(3)]
            t = [ex.ZERO, ex.ZERO, ex.ONE]
            self._structure = StructureSpec([e1, e2, t], self.chart_box(),
                                            name=self.name or "darboux-graph")
        return self._structure

    def to_json(self):
        return {"kind": "graph", "expr": str(self.u),
                "domain": [list(b) for b in self.domain],
                "metric": [[str(e) for e in row] for row in self.metric],
                "name": self.name}


def surface_from_json(data) -> ImplicitSurface | GraphSurface:
    """An implicit or graph surface from its JSON description; a missing
    field or one of the wrong type raises StructureError naming it."""
    data = json_object(data, "a surface spec")
    kind = data.get("kind")
    if kind not in ("implicit", "graph"):
        raise ValueError(f"unknown surface kind {kind!r}")
    try:
        f = json_expr(data["expr"], "expr")
        domain = json_box(data["domain"], "domain", 2) if kind == "graph" else None
    except KeyError as e:
        raise StructureError(f"missing field in surface spec: {e}") from e
    name = data.get("name", "")
    if kind == "implicit":
        orientation = int(json_float(data.get("orientation", 1), "orientation"))
        return ImplicitSurface(f, orientation=orientation, name=name)
    metric = data.get("metric")
    if metric is not None:
        metric = [[json_expr(e, "metric") if isinstance(e, str)
                   else json_float(e, "metric") for e in json_list(row, "metric", 2)]
                  for row in json_list(metric, "metric", 2)]
    return GraphSurface(f, domain=domain, metric=metric, name=name)


class SurfaceGeometry:
    """Symbolic adapted-frame fields of an implicit surface in a structure.

    All fields are ambient expressions built from the gradient of f; their
    restrictions to the surface give the adapted frame, and tangential
    derivatives of the restrictions agree with derivatives of the ambient
    extensions, so identities can be checked with exact differentiation.
    """

    def __init__(self, structure: StructureSpec, surface: ImplicitSurface):
        st, f, sgn = structure, surface.f, float(surface.orientation)
        ex.validate_on_box(f, st.chart_domain)  # f itself must be total
        self.structure = st
        self.surface = surface
        self.Xf = st.frame_derivation(0, f)
        self.Yf = st.frame_derivation(1, f)
        self.Tf = st.frame_derivation(2, f)
        gh2 = ex.add(ex.mul(self.Xf, self.Xf), ex.mul(self.Yf, self.Yf))
        if ex._is_const(gh2, 0.0):
            raise ValueError(f"the level set of f = {f} has X f^2 + Y f^2 = 0 "
                             "identically: every point is singular")
        self.gh_norm = ex.sqrt(gh2)
        grad2 = ex.add(gh2, ex.mul(self.Tf, self.Tf))
        self.grad_norm = ex.sqrt(grad2)
        self.N_comps = [ex.mul(sgn, ex.div(c, self.grad_norm))
                        for c in (self.Xf, self.Yf, self.Tf)]
        self.nh = ex.div(self.gh_norm, self.grad_norm)
        self.gNT = ex.mul(sgn, ex.div(self.Tf, self.grad_norm))
        self.nu = [ex.mul(sgn, ex.div(self.Xf, self.gh_norm)),
                   ex.mul(sgn, ex.div(self.Yf, self.gh_norm)), ex.ZERO]
        self.Z = st.j_apply(self.nu)
        self.S = [ex.mul(self.gNT, self.nu[0]), ex.mul(self.gNT, self.nu[1]),
                  ex.neg(self.nh)]
        tau = st.tau_matrix_exprs()
        tau_z = [sum_exprs(ex.mul(tau[i][k], self.Z[i]) for i in range(2))
                 for k in range(2)]
        self.tauZZ = sum_exprs(ex.mul(tau_z[k], self.Z[k]) for k in range(2))
        self.tauZnu = sum_exprs(ex.mul(tau_z[k], self.nu[k]) for k in range(2))
        nabla_z_nu = st.nabla_field_exprs(self.Z, self.nu)
        self.H = ex.neg(sum_exprs(ex.mul(nabla_z_nu[k], self.Z[k]) for k in range(3)))
        nabla_s_nu = st.nabla_field_exprs(self.S, self.nu)
        self.thetaS = sum_exprs(ex.mul(nabla_s_nu[k], self.Z[k]) for k in range(3))
        t_field = [ex.ZERO, ex.ZERO, ex.ONE]
        nabla_t_nu = st.nabla_field_exprs(t_field, self.nu)
        self.thetaT = sum_exprs(ex.mul(nabla_t_nu[k], self.Z[k]) for k in range(3))
        nabla_nu_nu = st.nabla_field_exprs(self.nu, self.nu)
        self.thetaNu = sum_exprs(ex.mul(nabla_nu_nu[k], self.Z[k]) for k in range(3))
        self.criterion = ex.sub(st.webster_expr(), ex.mul(st.c1, self.tauZnu))
        self._q = None
        self._shape_cache = {}
        self._frame_fn = None
        self._singular = None

    # -- derivations ---------------------------------------------------------

    def along(self, direction_comps, h: Expr) -> Expr:
        return self.structure.direction_derivation(direction_comps, h)

    def Z_of(self, h: Expr) -> Expr:
        return self.along(self.Z, h)

    def S_of(self, h: Expr) -> Expr:
        return self.along(self.S, h)

    def nu_of(self, h: Expr) -> Expr:
        return self.along(self.nu, h)

    def shape_dot(self, vc, wc) -> Expr:
        """g(B(V), W) with B the Riemannian shape operator B(V) = -D_V N."""
        key = (tuple(vc), tuple(wc))
        if key not in self._shape_cache:
            dvn = self.structure.lc_field_exprs(vc, self.N_comps)
            self._shape_cache[key] = ex.neg(
                sum_exprs(ex.mul(dvn[k], wc[k]) for k in range(3)))
        return self._shape_cache[key]

    def r_znu_expr(self) -> Expr:
        """g(R(Z,T) nu_h, Z) assembled from the curvature tensor."""
        st = self.structure
        acc = ex.ZERO
        for a in range(2):
            for c in range(2):
                for d in range(2):
                    term = ex.mul(ex.mul(self.Z[a], self.nu[c]),
                                  ex.mul(self.Z[d], st.curvature_expr(a, 2, c, d)))
                    acc = ex.add(acc, term)
        return acc

    def q_expr(self) -> Expr:
        """Second-variation coefficient q of the index form."""
        if self._q is None:
            st = self.structure
            c1 = st.c1
            first = ex.mul(self.nh, sum_exprs([
                ex.neg(st.webster_expr()), ex.Const(c1 * c1),
                ex.mul(c1, self.tauZnu)]))
            inner = ex.sub(ex.mul(self.nh, ex.add(ex.Const(c1), self.tauZnu)),
                           self.thetaS)
            second = ex.neg(ex.mul(self.nh, ex.mul(inner, inner)))
            # g(R(Z,T) nu, Z) enters with the (Z,T) slot order of the theorem
            third = ex.mul(self.gNT, self.r_znu_expr())
            fourth = ex.neg(ex.mul(self.gNT, self.Z_of(self.tauZnu)))
            self._q = sum_exprs([first, second, third, fourth])
        return self._q

    # -- pointwise evaluation --------------------------------------------------

    def frame_values(self, P):
        """(fields, regular) at the rows of the (n, 3) points P, from one
        ``"arrays"`` kernel: ``fields`` maps FRAME_SCALARS to (n,) arrays and
        FRAME_VECTORS to (n, 3) frame components (0/0 on the singular set is
        nan); ``regular`` marks |N_h| finite and above EPS_SING.  Raises
        ValueError naming the first point with |f| > 1e-8."""
        P = np.asarray(P, dtype=float).reshape(-1, 3)
        if self._frame_fn is None:
            # Z(g(N,T)) feeds the independent theta(S) cross-check of frame_point
            self._frame_fn = ex.compiled_cse([
                self.surface.f, self.nh, self.gNT, self.tauZZ, self.tauZnu,
                self.thetaS, self.H, self.Z_of(self.gNT),
                *self.N_comps, *self.nu, *self.Z, *self.S], "arrays")
        with np.errstate(all="ignore"):
            vals = self._frame_fn(P)
        off = np.flatnonzero(np.abs(vals[:, 0]) > 1e-8)
        if len(off):
            p = tuple(float(c) for c in P[off[0]])
            raise ValueError(f"point {p} is not on the surface (f = {vals[off[0], 0]:.3e})")
        k = len(FRAME_SCALARS)
        fields = dict(zip(FRAME_SCALARS, vals[:, :k].T))
        fields.update((name, vals[:, k + 3 * i:k + 3 * i + 3])
                      for i, name in enumerate(FRAME_VECTORS))
        nh = fields["nh"]
        return fields, np.isfinite(nh) & (nh > EPS_SING)

    def frame_point(self, p) -> SurfaceFramePoint:
        p = tuple(float(c) for c in p)
        fields, regular = self.frame_values([p])
        v = {name: float(fields[name][0]) for name in FRAME_SCALARS}
        nh, gnt = v["nh"], v["gNT"]
        if not regular[0]:
            raise SingularPointSignal(p, 0.0 if not np.isfinite(nh) else nh)
        # cross-check theta(S) by solving Lemma conti (v)
        c1 = self.structure.c1
        theta_conti = (-c1 * gnt * gnt + nh * nh * v["tauZnu"] - v["Z_gNT"] / nh) / nh
        vec = {name: TangentVector(p, fields[name][0]) for name in FRAME_VECTORS}
        return SurfaceFramePoint(
            point=p, **vec, nh=nh, gNT=gnt, thetaS=v["thetaS"], H=v["H"],
            tauZZ=v["tauZZ"], tauZnu=v["tauZnu"], thetaS_conti=theta_conti)

    def singular_exprs(self) -> list:
        """(f, Xf, Yf) and their coordinate derivatives d/dx, d/dy, d/dt.

        The singular set of the surface is the zero set of (f, Xf, Yf).
        Built once per geometry."""
        if self._singular is None:
            funcs = [self.surface.f, self.Xf, self.Yf]
            self._singular = funcs + [fn.diff(j) for fn in funcs for j in range(3)]
        return self._singular


def surface_frame(structure: StructureSpec, surf, p) -> SurfaceFramePoint:
    """Adapted frame data at a non-singular surface point."""
    if isinstance(surf, GraphSurface):
        geom = surf.to_implicit().geometry(surf.structure())
        return geom.frame_point(p)
    return surf.geometry(structure).frame_point(p)


def mean_curvature_frame(structure: StructureSpec, surf, p) -> float:
    """Reference mean curvature H = -g(nabla_Z nu_h, Z) at p."""
    if isinstance(surf, GraphSurface):
        geom = surf.to_implicit().geometry(surf.structure())
    else:
        geom = surf.geometry(structure)
    kernel = ex.compiled_cse([geom.nh, geom.H], "arrays")
    with np.errstate(all="ignore"):   # H is 0/0 where |N_h| vanishes
        nh, h = kernel(np.array([p], dtype=float))[0].tolist()
    if not np.isfinite(nh) or nh <= EPS_SING:
        raise SingularPointSignal(p, 0.0 if not np.isfinite(nh) else nh)
    return h


def horizontal_jacobian(T_p: TangentVector, e1: TangentVector,
                        e2: TangentVector) -> float:
    """|N_h| from any tangent basis: |g(T,E1)E2 - g(T,E2)E1| / G(E1,E2)^(1/2)."""
    a = np.asarray(e1.components)
    b = np.asarray(e2.components)
    gram = (a @ a) * (b @ b) - (a @ b) ** 2
    if gram <= 0:
        raise ValueError("degenerate tangent basis (Gram determinant <= 0)")
    t = np.asarray(T_p.components)
    v = (t @ a) * b - (t @ b) * a
    return float(np.linalg.norm(v) / np.sqrt(gram))


# ---------------------------------------------------------------------------
# Graph area


def gauss_legendre_grid(domain, order, cells):
    """Tensor Gauss-Legendre nodes/weights on a 2D box split into cells."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    (x0, x1), (y0, y1) = domain
    nx, ny = (cells, cells) if np.isscalar(cells) else cells
    xs_edges = np.linspace(x0, x1, nx + 1)
    ys_edges = np.linspace(y0, y1, ny + 1)
    hx = (x1 - x0) / nx / 2.0
    hy = (y1 - y0) / ny / 2.0
    cx = (xs_edges[:-1] + xs_edges[1:]) / 2.0
    cy = (ys_edges[:-1] + ys_edges[1:]) / 2.0
    gx = (cx[:, None] + hx * nodes[None, :]).ravel()
    gy = (cy[:, None] + hy * nodes[None, :]).ravel()
    wx = np.tile(weights * hx, nx)
    wy = np.tile(weights * hy, ny)
    return gx, gy, wx, wy


def grid_points(*axes):
    """The points of the tensor grid of the axes, the first axis slowest: an
    (n, len(axes)) array.  ``grid_points(xs, ys, [0.0])`` is the plane t = 0."""
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def area_graph(gs: GraphSurface, order: int = 12, cells: int = 64) -> float:
    """Sub-Riemannian area of the graph by composite Gauss-Legendre tensor
    quadrature of the closed-form integrand."""
    (x0, x1), (y0, y1) = gs.domain
    if x0 == x1 or y0 == y1:
        return 0.0
    integrand = ex.compiled_cse([gs.area_integrand_expr()], "arrays")
    gx, gy, wx, wy = gauss_legendre_grid(gs.domain, order, cells)
    vals = integrand(grid_points(gx, gy, [0.0]))[:, 0].reshape(len(gx), len(gy))
    return float(wx @ vals @ wy)


# ---------------------------------------------------------------------------
# Graph mean curvature (divergence form)


@dataclass(frozen=True)
class GraphMeanCurvature:
    value: float          # frame-definition mean curvature (reference)
    div_term: float       # -div(b p / <p, b p>^(1/2))
    mu: float | None      # bounded correction: value - div_term


def _div_field_exprs(v1: Expr, v2: Expr) -> Expr:
    return ex.add(v1.diff(0), v2.diff(1))


def mean_curvature_graph(gs: GraphSurface, p) -> GraphMeanCurvature:
    """Mean curvature of a graph at chart point p = (x, y).

    Returns the frame-definition value together with the symbolic
    divergence-form term and the bounded correction mu (their difference).
    mu vanishes identically for the Heisenberg metric.
    """
    x, y = float(p[0]), float(p[1])
    pe = gs.p_exprs()
    b, _ = gs.b_exprs()
    pbp = gs.pbp_expr()
    den = ex.sqrt(pbp)
    v = [ex.div(sum_exprs(ex.mul(b[i][j], pe[j]) for j in range(2)), den)
         for i in range(2)]
    div_expr = _div_field_exprs(v[0], v[1])
    kernel = ex.compiled_cse([*pe, gs.u, div_expr], "arrays")
    with np.errstate(all="ignore"):   # the divergence is 0/0 where p vanishes
        p1, p2, t, div = kernel(np.array([(x, y, 0.0)]))[0].tolist()
    if np.linalg.norm([p1, p2]) <= EPS_SING:
        raise SingularPointSignal((x, y, t), 0.0)
    div_term = -div
    try:
        st = gs.structure()
        q3 = (x, y, t)
        frame_val = mean_curvature_frame(st, gs, q3)
        return GraphMeanCurvature(value=frame_val, div_term=div_term,
                                  mu=frame_val - div_term)
    except (StructureError, SingularPointSignal):
        return GraphMeanCurvature(value=div_term, div_term=div_term, mu=None)


def rho_equiv_mean_curvature(gs: GraphSurface, p) -> float:
    """rho = div(b p/<p,bp>^(1/2)) - det(g) div(p/|p|); bounded off the
    singular projection (Lemma-level decomposition check)."""
    x, y = float(p[0]), float(p[1])
    pe = gs.p_exprs()
    b, det = gs.b_exprs()
    den = ex.sqrt(gs.pbp_expr())
    v = [ex.div(sum_exprs(ex.mul(b[i][j], pe[j]) for j in range(2)), den)
         for i in range(2)]
    pnorm = ex.sqrt(ex.add(ex.mul(pe[0], pe[0]), ex.mul(pe[1], pe[1])))
    w = [ex.div(pe[0], pnorm), ex.div(pe[1], pnorm)]
    expr = ex.sub(_div_field_exprs(v[0], v[1]),
                  ex.mul(det, _div_field_exprs(w[0], w[1])))
    return float(ex.compiled_cse([expr], "arrays")(np.array([(x, y, 0.0)]))[0, 0])


# ---------------------------------------------------------------------------
# Roto-translation minimal-surface residual


def rt_minimal_residual(u: Expr, p) -> float:
    """Residual of the roto-translation minimal-surface equation for the
    level set u(x, y, alpha) = 0, evaluated exactly as displayed.

    Zero iff the level set is minimal at p; it differs from the frame mean
    curvature by a positive gradient-power factor.
    """
    u = ex._as_expr(u)
    ux, uy, ua = u.diff(0), u.diff(1), u.diff(2)
    P = np.array([p], dtype=float)
    if np.linalg.norm(ex.compiled_cse([ux, uy, ua], "arrays")(P)[0]) < 1e-14:
        raise ValueError(f"vanishing gradient at {tuple(p)}")
    ca, sa = ex.cos(ex.T), ex.sin(ex.T)
    horiz = ex.add(ex.mul(ca, ux), ex.mul(sa, uy))
    term1 = ex.mul(ex.mul(ua, ua), sum_exprs([
        ex.mul(ex.mul(ca, ca), ux.diff(0)),
        ex.mul(2.0, ex.mul(ex.mul(ca, sa), ux.diff(1))),
        ex.mul(ex.mul(sa, sa), uy.diff(1))]))
    term2 = ex.mul(ex.mul(horiz, horiz), ua.diff(2))
    bracket = sum_exprs([
        ex.mul(2.0, ex.mul(ca, ua.diff(0))),
        ex.mul(2.0, ex.mul(sa, ua.diff(1))),
        ex.neg(ex.mul(sa, ux)),
        ex.mul(ca, uy)])
    term3 = ex.neg(ex.mul(ua, ex.mul(horiz, bracket)))
    return float(ex.compiled_cse([sum_exprs([term1, term2, term3])], "arrays")(P)[0, 0])


# ---------------------------------------------------------------------------
# Singular-set detection


@dataclass
class SingularLocus:
    kind: str                  # "isolated-point" | "curve" | "unclassified"
    points: np.ndarray         # (n, d): refined locus samples
    tangents: np.ndarray | None = None


def _newton_lstsq(system, q0):
    """Gauss-Newton with minimum-norm least-squares steps capped at 0.5.

    ``system(q)`` gives the residuals r and the Jacobian rows J at q, from one
    evaluation.  q0 is a float tuple, and so is each iterate.  A non-finite
    iterate fails before LAPACK sees it, as in ``_newton_batch``.  Returns
    (q, converged, J at q)."""
    q = q0
    for _ in range(NEWTON_MAX_ITER):
        r, j = system(q)
        rn = math.hypot(*r)   # inf or nan where some residual is
        if rn < NEWTON_TOL:
            return q, True, j
        jm = np.asarray(j, dtype=float)
        if not (math.isfinite(rn) and np.isfinite(jm).all()):
            return q, False, j
        step, *_ = np.linalg.lstsq(jm, np.negative(r), rcond=None)
        if not np.all(np.isfinite(step)):
            return q, False, j
        limit = 0.5
        nrm = np.linalg.norm(step)
        if nrm > limit:
            step *= limit / nrm
        q = tuple(c + d for c, d in zip(q, step.tolist()))
    r, j = system(q)
    return q, math.hypot(*r) < NEWTON_TOL * 10, j


def _lstsq_batch(j, b):
    """Minimum-norm least-squares solutions of the stacked systems j[k] x = b[k],
    with lstsq's default cutoff: singular values up to eps * max(m, n) * s_max
    count as zero."""
    u, s, vt = np.linalg.svd(j, full_matrices=False)
    cut = np.finfo(float).eps * max(j.shape[1:]) * s[:, :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cut)
    return np.einsum("nkd,nk->nd", vt, inv * np.einsum("nmk,nm->nk", u, b))


def _newton_batch(batch, seeds, dim):
    """``_newton_lstsq`` run on every seed at once.

    ``batch(Q)`` gives, for each row of the (n, dim) array Q, the dim
    residuals followed by the row-major dim x dim Jacobian.  A seed stops
    when its residual is below NEWTON_TOL (converged), or when its values or its
    step are not finite (failed).  The iterates may round differently from
    the scalar routine's, so they only say where each seed goes.
    Returns the (n, dim) end points and the converged flags."""
    q = np.array(seeds, dtype=float).reshape(len(seeds), dim)
    ok = np.zeros(len(q), dtype=bool)
    live = np.arange(len(q))
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            if not len(live):
                return q, ok
            vals = batch(q[live])
            rn = np.linalg.norm(vals[:, :dim], axis=1)
            ok[live[rn < NEWTON_TOL]] = True
            go = (rn >= NEWTON_TOL) & np.isfinite(vals).all(axis=1)
            live, vals = live[go], vals[go]
            step = _lstsq_batch(vals[:, dim:].reshape(-1, dim, dim), -vals[:, :dim])
            good = np.isfinite(step).all(axis=1)
            live, step = live[good], step[good]
            nrm = np.linalg.norm(step, axis=1)
            big = nrm > 0.5
            step[big] *= (0.5 / nrm[big])[:, None]
            q[live] += step
        if len(live):
            ok[live] = np.linalg.norm(batch(q[live])[:, :dim], axis=1) < NEWTON_TOL * 10
    return q, ok


def _rank_and_kernel(j):
    """Numeric rank of the Jacobian rows j and the last right singular vector,
    the kernel direction where the rank is one short, from one SVD."""
    _, sv, vt = np.linalg.svd(np.asarray(j, dtype=float))
    scale = max(sv[0], 1e-12)
    return int(np.sum(sv > RANK_TOL_RATIO * max(scale, 1.0))), vt[-1]


def _kernel_direction(j):
    """Unit kernel direction of Jacobian rows of rank dim - 1, in floats: for
    3 rows the longest cross product of two rows, for 2 rows the longer row
    turned by 90 degrees.  None where every candidate has zero length (the
    rank is lower) or its length is not a number."""
    if len(j) == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = j
        cands = ((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0),
                 (a1 * c2 - a2 * c1, a2 * c0 - a0 * c2, a0 * c1 - a1 * c0),
                 (b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0))
    else:
        (a0, a1), (b0, b1) = j
        cands = ((-a1, a0), (-b1, b0))
    best, n = None, 0.0
    for u in cands:
        length = math.hypot(*u)
        if length > n:
            best, n = u, length
    return None if best is None else tuple([c / n for c in best])


def _trace_curve(system, q0, tan0, region):
    """Predictor-corrector continuation of a rank-deficient zero curve from
    q0, in plain floats.  The march starts along tan0, the kernel direction
    of the Jacobian at q0 from its SVD, then backward along -tan0; the
    tangent of each corrected point is ``_kernel_direction`` of its Jacobian,
    signed to keep the march's heading, and a point without one ends that
    march.  A curve that closes on itself is traced once round: the backward
    march only runs when the forward one stopped short of q0."""
    bounds = [(lo - 1e-9, hi + 1e-9) for lo, hi in region]
    q0, t0 = tuple(map(float, q0)), tuple(map(float, tan0))
    # q0 is row mid; the forward march fills rows mid + 1, mid + 2, ... and
    # the backward one rows mid - 1, mid - 2, ...; ends are the outermost rows
    mid = TRACE_MAX_POINTS - 1
    pts, tans = np.empty((2, 2 * mid + 1, len(q0)))
    pts[mid], tans[mid] = q0, t0
    ends = [mid, mid]

    def traced():
        return pts[ends[0]:ends[1] + 1].copy(), tans[ends[0]:ends[1] + 1].copy()

    for side, step in ((1, 1), (0, -1)):
        q, tan = q0, tuple(step * c for c in t0)
        while ends[1] - ends[0] + 1 < TRACE_MAX_POINTS:
            q, ok, j = _newton_lstsq(system, tuple(c + TRACE_STEP * d for c, d in zip(q, tan)))
            if not ok or not all(lo <= c <= hi for c, (lo, hi) in zip(q, bounds)):
                break
            new_tan = _kernel_direction(j)
            if new_tan is None:
                break
            if sum(c * d for c, d in zip(new_tan, tan)) < 0:
                new_tan = tuple(-c for c in new_tan)
            tan = new_tan
            ends[side] += step
            pts[ends[side]], tans[ends[side]] = q, tan
            if math.dist(q, q0) < 0.5 * TRACE_STEP and ends[1] - ends[0] > 9:
                return traced()   # closed loop
    return traced()


def singular_set_detect(structure: StructureSpec, surf, region=None,
                        grid: int = 24) -> list:
    """Locate and classify the singular set.

    Graphs: zeros of p = grad(u) + F in the (x, y) domain, classified by the
    rank of Dp (2 -> isolated point, 1 -> curve).  Implicit surfaces: zeros
    of (f, Xf, Yf) in the chart region, classified by the rank of the 3x3
    Jacobian (3 -> isolated, 2 -> curve, else unclassified).  A curve traced
    within half a step of its founding point is that isolated point.  The
    seeds are the grid points where the system is small.
    """
    if isinstance(surf, GraphSurface):
        pe = surf.p_exprs()
        return _detect(pe + [p.diff(j) for p in pe for j in range(2)],
                       region or surf.domain, grid, 2)
    return _detect(surf.geometry(structure).singular_exprs(),
                   region or structure.chart_domain, grid, 3)


def _detect(exprs, region, grid, dim):
    """Loci of the zeros of dim residuals in the first dim coordinates (t = 0
    when dim is 2); ``exprs`` holds the residuals, then the row-major Jacobian.
    A ``"math"`` kernel on floats serves the scalar Newton: float tuples of
    the residuals and the Jacobian rows, nan where it raises or turns complex.
    An ``"arrays"`` kernel serves the grid screen (seeds: residual norm below
    4 cells) and the batched Newton."""
    region = tuple(region)[:dim]
    point_fn = ex.compiled_cse(exprs, "math")
    batch_fn = ex.compiled_cse(exprs, "arrays")
    pad = (0.0,) * (3 - dim)
    failed = (math.nan,) * (dim + dim * dim)

    def system(q):
        try:   # TypeError: float() of a complex value
            vals = tuple(map(float, point_fn(*q, *pad)))
        except (ArithmeticError, ValueError, TypeError):
            vals = failed
        return vals[:dim], [vals[k:k + dim] for k in range(dim, len(vals), dim)]

    def batch(q):
        return batch_fn(np.column_stack([q, np.zeros((len(q), 3 - dim))]))

    pts = grid_points(*(np.linspace(lo, hi, grid) for lo, hi in region))
    with np.errstate(all="ignore"):   # a huge region's values overflow to inf
        vals = batch(pts)
        norm = np.sqrt(sum(vals[:, i] * vals[:, i] for i in range(dim)))
    cell = max(hi - lo for lo, hi in region) / grid
    return _classify_seeds(system, batch, pts[norm < 4 * cell], region, dim)


def _near(points, qs, radius):
    """Whether each row of qs lies within radius of some row of points: the
    squared distances, summed coordinate by coordinate, against radius^2.
    The points are cut into chunks of NEAR_CHUNK consecutive rows, and a
    distance is only measured between a q and the chunks whose bounding box,
    padded by the radius, holds it; no table passes 4096 entries."""
    n, dim = points.shape
    m = -(-n // NEAR_CHUNK)
    # the last chunk is filled up with copies of the last point
    chunks = points[np.minimum(np.arange(m * NEAR_CHUNK), n - 1)].reshape(m, NEAR_CHUNK, dim)
    pad = 2.0 * radius   # wider than the radius by far more than any rounding
    lo, hi = chunks.min(axis=1) - pad, chunks.max(axis=1) + pad
    out = np.zeros(len(qs), dtype=bool)
    rows, pairs = max(1, 4096 // m), 4096 // NEAR_CHUNK
    for q_lo in range(0, len(qs), rows):
        block = qs[q_lo:q_lo + rows]
        inside = np.ones((len(block), m), dtype=bool)
        for k in range(dim):
            inside &= (lo[:, k] <= block[:, k, None]) & (block[:, k, None] <= hi[:, k])
        qi, ci = np.nonzero(inside)
        qi += q_lo
        for s in range(0, len(qi), pairs):
            q, c = qi[s:s + pairs], ci[s:s + pairs]
            d2 = sum((chunks[c, :, k] - qs[q, k, None]) ** 2 for k in range(dim))
            out[q[d2.min(axis=1) < radius * radius]] = True
    return out


def _classify_seeds(system, batch, seeds, region, dim):
    """Loci of the seeds' Newton limits, in sorted seed order.

    All seeds are solved at once by ``_newton_batch``.  A seed whose batched
    solution converged near a locus found from an earlier seed is skipped;
    every other seed is solved again from the seed by the scalar
    ``_newton_lstsq``, so a locus is always founded, ranked and traced from
    the scalar solution."""
    loci = []
    seeds = sorted(seeds.tolist())
    solved, converged = _newton_batch(batch, seeds, dim)
    covered = np.zeros(len(seeds), dtype=bool)
    for k, seed in enumerate(seeds):
        if covered[k]:
            continue
        q, ok, j = _newton_lstsq(system, tuple(seed))
        if not ok or any(_near(l.points, np.array([q]), 5 * TRACE_STEP)[0] for l in loci):
            continue
        if not all(lo - 1e-7 <= c <= hi + 1e-7 for c, (lo, hi) in zip(q, region)):
            continue
        rank, kernel = _rank_and_kernel(j)
        if rank >= dim:
            loci.append(SingularLocus("isolated-point", np.array([q])))
        elif rank == dim - 1:
            pts, tans = _trace_curve(system, q, kernel, region)
            if len(pts) > 1 and all(math.dist(p, q) < 0.5 * TRACE_STEP for p in pts):
                # the march closed at once, a step from a degenerate isolated zero
                loci.append(SingularLocus("isolated-point", np.array([q])))
            else:
                loci.append(SingularLocus("curve", pts, tans))
        else:
            loci.append(SingularLocus("unclassified", np.array([q])))
        later = k + 1 + np.flatnonzero(converged[k + 1:] & ~covered[k + 1:])
        covered[later] = _near(loci[-1].points, solved[later], 5 * TRACE_STEP)
    return loci


# ---------------------------------------------------------------------------
# Stationarity at singular curves


# curve points sampled, first approach distance (then half of it), and the
# largest angle deviation (radians) still counted as orthogonal
STATIONARITY_SAMPLES, STATIONARITY_DELTA, STATIONARITY_TOL = 5, 1e-3, 1e-6


def step_off_curve(structure: StructureSpec, surf: ImplicitSurface, points, tangents,
                   offsets):
    """Steps off a curve along J(w), w the unit frame tangent at each curve
    point, projected back to the surface.

    ``points`` and their coordinate tangents ``tangents`` are (n, 3); each of
    the k signed ``offsets`` moves every point by that multiple of J(w), in
    coordinates.  Returns w (n, 3) and the k x n projections (k, n, 3), all
    from one projection call and one evaluation of the frame matrices."""
    m = structure.frame_matrices(points)   # w is solved as in frame_components
    w = np.linalg.solve(np.swapaxes(m, 1, 2),
                        np.asarray(tangents, dtype=float)[..., None])[..., 0]
    w = w / np.sqrt(np.vecdot(w, w))[:, None]
    step = (structure.j_apply(w)[:, None, :] @ m)[:, 0]
    return w, surf.project(points + np.multiply.outer(offsets, step))


@dataclass
class StationarityReport:
    orthogonal: bool
    max_angle_dev: float       # radians, worst |pi/2 - angle(Z, curve tangent)|
    inconclusive: bool = False


def stationarity_at_singular_curve(structure: StructureSpec, surf,
                                   locus: SingularLocus) -> StationarityReport:
    """Test whether characteristic curves meet a singular curve orthogonally.

    Samples points of the traced curve, approaches the surface from both
    sides along the horizontal direction J(tangent), extrapolates the limit
    characteristic direction and measures its Riemannian angle against the
    curve tangent.  A side of a sample counts when the tangent is horizontal
    (|w_T| <= 1e-4), Z is finite at both approach points and the
    extrapolated Z has length at least 0.5; the test is inconclusive when
    some side does not count.
    """
    if locus.kind != "curve":
        raise ValueError("stationarity test requires a singular curve locus")
    geom = surf.geometry(structure)
    n = len(locus.points)
    idx = np.linspace(0, n - 1, min(STATIONARITY_SAMPLES, n)).astype(int)
    d = STATIONARITY_DELTA
    w, pq = step_off_curve(structure, surf, locus.points[idx], locus.tangents[idx],
                           (d, d / 2.0, -d, -d / 2.0))
    with np.errstate(all="ignore"):
        # (side, approach distance, sample, 3)
        z = ex.compiled_cse(geom.Z, "arrays")(pq.reshape(-1, 3)).reshape(2, 2, -1, 3)
        z_lim = 2.0 * z[:, 1] - z[:, 0]
        nz = np.sqrt(np.vecdot(z_lim, z_lim))
        dev = np.abs(np.vecdot(z_lim / nz[..., None], w))
        ang_dev = np.abs(np.arcsin(np.minimum(1.0, dev)))
    counts = (np.abs(w[:, 2]) <= 1e-4) & np.isfinite(z).all(axis=(1, 3)) & (nz >= 0.5)
    worst = float(np.max(ang_dev[counts], initial=0.0))
    inconclusive = not counts.all()
    return StationarityReport(orthogonal=(worst <= STATIONARITY_TOL and not inconclusive),
                              max_angle_dev=worst, inconclusive=inconclusive)
