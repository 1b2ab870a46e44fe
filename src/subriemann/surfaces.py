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

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .expr import Expr
from .structures import StructureSpec, TangentVector, sum_exprs

EPS_SING = 1e-10


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
    thetaZ: float
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
        return self.f.at(p)

    def project(self, p, tol=1e-13, max_iter=40):
        """Newton projection onto the surface along the coordinate gradient."""
        q = np.asarray(p, dtype=float)
        kernel = ex.compiled_cse((self.f, *self.grad))
        for _ in range(max_iter):
            with np.errstate(all="ignore"):
                v, *g = kernel(*q)
            v = float(v)
            if abs(v) < tol:
                return q
            g = np.array(g)
            n2 = float(g @ g)
            if n2 < 1e-30:
                raise ValueError(f"vanishing gradient while projecting near {tuple(q)}")
            q = q - (v / n2) * g
        return q

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
        if self.metric[0][1] != self.metric[1][0]:
            raise ValueError("metric matrix must be symmetric")
        self.name = name
        self._structure = None
        self._implicit = None
        self._min_det_check()

    def _min_det_check(self, n=9):
        xs = np.linspace(*self.domain[0], n)
        ys = np.linspace(*self.domain[1], n)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        g11 = np.broadcast_to(self.metric[0][0].eval(gx, gy, 0.0), gx.shape)
        g12 = np.broadcast_to(self.metric[0][1].eval(gx, gy, 0.0), gx.shape)
        g22 = np.broadcast_to(self.metric[1][1].eval(gx, gy, 0.0), gx.shape)
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

    def riemannian_jacobian_expr(self):
        """dG_u density (Riemannian area of the graph per unit dx dy)."""
        p = self.p_exprs()
        g = self.metric
        det = ex.sub(ex.mul(g[0][0], g[1][1]), ex.mul(g[0][1], g[0][1]))
        out = sum_exprs([
            det,
            ex.mul(g[0][0], ex.mul(p[1], p[1])),
            ex.mul(g[1][1], ex.mul(p[0], p[0])),
            ex.neg(ex.mul(2.0, ex.mul(g[0][1], ex.mul(p[0], p[1])))),
        ])
        return ex.sqrt(out)

    def to_implicit(self) -> ImplicitSurface:
        """Level set u(x,y) - t = 0; orientation +1 is the downward normal.

        Built once, so its geometry and compiled kernels are reused."""
        if self._implicit is None:
            self._implicit = ImplicitSurface(ex.sub(self.u, ex.T), orientation=1,
                                             name=self.name or "graph")
        return self._implicit

    def chart_box(self, t_pad=None):
        xs, ys = self.domain
        if t_pad is None:
            corners = [self.u.at((x, y, 0.0)) for x in xs for y in ys]
            lo, hi = min(corners) - 2.0, max(corners) + 2.0
        else:
            lo, hi = t_pad
        return (xs, ys, (lo, hi))

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
                                            kind="coordinate-frame",
                                            name=self.name or "darboux-graph")
        return self._structure

    def to_json(self):
        return {"kind": "graph", "expr": str(self.u),
                "domain": [list(b) for b in self.domain],
                "metric": [[str(e) for e in row] for row in self.metric],
                "name": self.name}


def surface_from_json(data) -> ImplicitSurface | GraphSurface:
    kind = data.get("kind")
    if kind == "implicit":
        return ImplicitSurface(ex.parse(data["expr"]),
                               orientation=int(data.get("orientation", 1)),
                               name=data.get("name", ""))
    if kind == "graph":
        metric = data.get("metric")
        if metric is not None:
            metric = [[ex.parse(e) if isinstance(e, str) else e for e in row]
                      for row in metric]
        return GraphSurface(ex.parse(data["expr"]),
                            domain=tuple(tuple(map(float, b)) for b in data["domain"]),
                            metric=metric, name=data.get("name", ""))
    raise ValueError(f"unknown surface kind {kind!r}")


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
        self._singular_fn = None

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

    def nh_at(self, p) -> float:
        return self.nh.at(p)

    def frame_point(self, p, eps_sing: float = EPS_SING) -> SurfaceFramePoint:
        p = tuple(float(c) for c in p)
        if self._frame_fn is None:
            # Z(g(N,T)) feeds the independent theta(S) cross-check below
            self._frame_fn = ex.compiled_cse([
                self.surface.f, self.nh, self.gNT, self.tauZZ, self.tauZnu,
                self.thetaS, self.H, self.Z_of(self.gNT),
                *self.N_comps, *self.nu, *self.Z, *self.S])
        # every field is evaluated before the singular check: 0/0 there is nan
        with np.errstate(all="ignore"):
            vals = [float(v) for v in self._frame_fn(*p)]
        fval, nh, gnt, tau_zz, tau_znu, theta_s, h, zg = vals[:8]
        if abs(fval) > 1e-8:
            raise ValueError(f"point {p} is not on the surface (f = {fval:.3e})")
        if not np.isfinite(nh) or nh <= eps_sing:
            raise SingularPointSignal(p, 0.0 if not np.isfinite(nh) else nh)
        # cross-check theta(S) by solving Lemma conti (v)
        c1 = self.structure.c1
        theta_conti = (-c1 * gnt * gnt + nh * nh * tau_znu - zg / nh) / nh
        return SurfaceFramePoint(
            point=p,
            N=TangentVector(p, vals[8:11]),
            nu_h=TangentVector(p, vals[11:14]),
            Z=TangentVector(p, vals[14:17]),
            S=TangentVector(p, vals[17:20]),
            nh=nh, gNT=gnt, thetaS=theta_s, thetaZ=-h, H=h,
            tauZZ=tau_zz, tauZnu=tau_znu, thetaS_conti=theta_conti)

    def singular_system_at(self, q):
        """(f, Xf, Yf) at q and their 3x3 coordinate Jacobian, from one kernel.

        The singular set of the surface is the zero set of (f, Xf, Yf).
        """
        if self._singular_fn is None:
            funcs = [self.surface.f, self.Xf, self.Yf]
            self._singular_fn = ex.compiled_cse(
                funcs + [fn.diff(j) for fn in funcs for j in range(3)])
        with np.errstate(all="ignore"):
            vals = np.array(self._singular_fn(*q))
        return vals[:3], vals[3:].reshape(3, 3)


def surface_frame(structure: StructureSpec, surf, p,
                  eps_sing: float = EPS_SING) -> SurfaceFramePoint:
    """Adapted frame data at a non-singular surface point."""
    if isinstance(surf, GraphSurface):
        geom = surf.to_implicit().geometry(surf.structure())
        return geom.frame_point(p, eps_sing)
    return surf.geometry(structure).frame_point(p, eps_sing)


def mean_curvature_frame(structure: StructureSpec, surf, p) -> float:
    """Reference mean curvature H = -g(nabla_Z nu_h, Z) at p."""
    if isinstance(surf, GraphSurface):
        geom = surf.to_implicit().geometry(surf.structure())
    else:
        geom = surf.geometry(structure)
    nh = geom.nh.at(p)
    if not np.isfinite(nh) or nh <= EPS_SING:
        raise SingularPointSignal(p, 0.0 if not np.isfinite(nh) else nh)
    return geom.H.at(p)


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


def area_graph(gs: GraphSurface, order: int = 12, cells: int = 64) -> float:
    """Sub-Riemannian area of the graph by composite Gauss-Legendre tensor
    quadrature of the closed-form integrand."""
    (x0, x1), (y0, y1) = gs.domain
    if x0 == x1 or y0 == y1:
        return 0.0
    integrand = ex.compiled_cse(gs.area_integrand_expr(), arrays=True)
    gx, gy, wx, wy = gauss_legendre_grid(gs.domain, order, cells)
    xx, yy = np.meshgrid(gx, gy, indexing="ij")
    vals = np.asarray(integrand(xx, yy, 0.0), dtype=float)
    vals = np.broadcast_to(vals, xx.shape)
    return float(wx @ vals @ wy)


def mc_area(gs: GraphSurface, n: int = 10_000_000, seed: int = 0) -> float:
    """Stratified Monte-Carlo oracle for the graph area (jittered grid)."""
    rng = np.random.default_rng(seed)
    (x0, x1), (y0, y1) = gs.domain
    m = int(np.sqrt(n))
    integrand = ex.compiled_cse(gs.area_integrand_expr(), arrays=True)
    total = 0.0
    # stream in row blocks to bound memory
    ys_base = (np.arange(m) + 0.0) / m
    block = max(1, 2_000_000 // m)
    for i0 in range(0, m, block):
        i1 = min(m, i0 + block)
        ix = np.arange(i0, i1)
        jx = rng.random((i1 - i0, m))
        jy = rng.random((i1 - i0, m))
        xs = x0 + (x1 - x0) * (ix[:, None] + jx) / m
        ys = y0 + (y1 - y0) * (ys_base[None, :] + jy / m)
        vals = np.asarray(integrand(xs, ys, 0.0), dtype=float)
        total += float(np.sum(np.broadcast_to(vals, xs.shape)))
    return total * (x1 - x0) * (y1 - y0) / (m * m)


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
    pvals = np.array([pe[0].at((x, y, 0.0)), pe[1].at((x, y, 0.0))])
    if np.linalg.norm(pvals) <= EPS_SING:
        raise SingularPointSignal((x, y, gs.u.at((x, y, 0.0))), 0.0)
    div_term = -div_expr.at((x, y, 0.0))
    try:
        st = gs.structure()
        q3 = (x, y, gs.u.at((x, y, 0.0)))
        frame_val = mean_curvature_frame(st, gs, q3)
        return GraphMeanCurvature(value=frame_val, div_term=div_term,
                                  mu=frame_val - div_term)
    except Exception:
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
    return expr.at((x, y, 0.0))


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
    grad = np.array([ux.at(p), uy.at(p), ua.at(p)])
    if np.linalg.norm(grad) < 1e-14:
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
    return sum_exprs([term1, term2, term3]).at(p)


# ---------------------------------------------------------------------------
# Singular-set detection


@dataclass
class SingularLocus:
    kind: str                  # "isolated-point" | "curve" | "unclassified"
    points: np.ndarray         # (n, d): refined locus samples
    tangents: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    def representative(self):
        return self.points[0]


def _newton_lstsq(fun, jac, q0, tol=1e-10, max_iter=60):
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


def _numeric_rank(j, tol_ratio=1e-5):
    sv = np.linalg.svd(j, compute_uv=False)
    scale = max(sv[0], 1e-12)
    return int(np.sum(sv > tol_ratio * max(scale, 1.0))), sv


def _trace_curve(fun, jac, q0, region, step=1e-2, newton_tol=1e-10, max_steps=4000):
    """Predictor-corrector continuation of a rank-deficient zero curve."""

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
            q_corr, ok = _newton_lstsq(fun, jac, q_pred, newton_tol)
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
                break  # closed loop
    return np.array(pts), np.array(tans)


def singular_set_detect(structure: StructureSpec, surf, region=None,
                        grid: int = 24, step: float = 1e-2) -> list:
    """Locate and classify the singular set.

    Graphs: zeros of p = grad(u) + F in the (x, y) domain, classified by the
    rank of Dp (2 -> isolated point, 1 -> curve).  Implicit surfaces: zeros
    of (f, Xf, Yf) in the chart region, classified by the rank of the 3x3
    Jacobian (3 -> isolated, 2 -> curve, else unclassified).
    """
    if isinstance(surf, GraphSurface):
        return _detect_graph(surf, region or surf.domain, grid, step)
    return _detect_implicit(structure, surf, region or structure.chart_domain,
                            grid, step)


def _detect_graph(gs: GraphSurface, region, grid, step):
    pe = gs.p_exprs()
    jac_exprs = [[pe[i].diff(j) for j in range(2)] for i in range(2)]

    def fun(q):
        return np.array([pe[0].at((q[0], q[1], 0.0)), pe[1].at((q[0], q[1], 0.0))])

    def jac(q):
        return np.array([[jac_exprs[i][j].at((q[0], q[1], 0.0)) for j in range(2)]
                         for i in range(2)])

    xs = np.linspace(*region[0], grid)
    ys = np.linspace(*region[1], grid)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    p1 = np.broadcast_to(pe[0].eval(gx, gy, 0.0), gx.shape)
    p2 = np.broadcast_to(pe[1].eval(gx, gy, 0.0), gx.shape)
    norm = np.hypot(p1, p2)
    cell = max((region[0][1] - region[0][0]), (region[1][1] - region[1][0])) / grid
    seeds = [np.array([gx[i, j], gy[i, j]])
             for i, j in zip(*np.where(norm < 4 * cell))]
    return _classify_seeds(fun, jac, seeds, region, step, ambient_dim=2)


def _detect_implicit(structure, surf, region, grid, step):
    geom = surf.geometry(structure)
    funcs = [surf.f, geom.Xf, geom.Yf]

    def fun(q):
        return geom.singular_system_at(q)[0]

    def jac(q):
        return geom.singular_system_at(q)[1]

    axes = [np.linspace(lo, hi, grid) for lo, hi in region]
    gx, gy, gt = np.meshgrid(*axes, indexing="ij")
    vals = [np.broadcast_to(fn.eval(gx, gy, gt), gx.shape) for fn in funcs]
    norm = np.sqrt(sum(v * v for v in vals))
    cell = max(hi - lo for lo, hi in region) / grid
    idx = np.where(norm < 4 * cell)
    seeds = [np.array([gx[i], gy[i], gt[i]]) for i in zip(*idx)]
    return _classify_seeds(fun, jac, seeds, region, step, ambient_dim=3)


def _classify_seeds(fun, jac, seeds, region, step, ambient_dim):
    loci = []
    full_rank = ambient_dim

    def near_existing(q):
        for locus in loci:
            if np.min(np.linalg.norm(locus.points - q, axis=1)) < 5 * step:
                return True
        return False

    for seed in sorted(seeds, key=lambda q: tuple(q)):
        q, ok = _newton_lstsq(fun, jac, seed)
        if not ok or near_existing(q):
            continue
        if not all(lo - 1e-7 <= c <= hi + 1e-7 for c, (lo, hi) in zip(q, region)):
            continue
        rank, sv = _numeric_rank(jac(q))
        if rank >= full_rank:
            loci.append(SingularLocus("isolated-point", np.array([q]),
                                      diagnostics={"singular_values": sv.tolist()}))
        elif rank == full_rank - 1:
            pts, tans = _trace_curve(fun, jac, q, region, step)
            loci.append(SingularLocus("curve", pts, tans,
                                      diagnostics={"singular_values": sv.tolist()}))
        else:
            loci.append(SingularLocus("unclassified", np.array([q]),
                                      diagnostics={"singular_values": sv.tolist(),
                                                   "rank": rank}))
    return loci


# ---------------------------------------------------------------------------
# Stationarity at singular curves


@dataclass
class StationarityReport:
    orthogonal: bool
    max_angle_dev: float       # radians, worst |pi/2 - angle(Z, curve tangent)|
    inconclusive: bool = False
    samples: list = field(default_factory=list)


def stationarity_at_singular_curve(structure: StructureSpec, surf,
                                   locus: SingularLocus, n_samples: int = 5,
                                   delta: float = 1e-3,
                                   tol: float = 1e-6) -> StationarityReport:
    """Test whether characteristic curves meet a singular curve orthogonally.

    Samples points of the traced curve, approaches the surface from both
    sides along the horizontal direction J(tangent), extrapolates the limit
    characteristic direction and measures its Riemannian angle against the
    curve tangent.
    """
    if locus.kind != "curve":
        raise ValueError("stationarity test requires a singular curve locus")
    geom = surf.geometry(structure)
    n = len(locus.points)
    idx = np.linspace(0, n - 1, min(n_samples, n)).astype(int)
    worst = 0.0
    samples = []
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
                try:
                    pq = surf.project(q + sgn * d * side_coord)
                    z = np.array([c.at(pq) for c in geom.Z])
                except Exception:
                    z = np.full(3, np.nan)
                zs.append(z)
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
            ang_dev = abs(np.arcsin(min(1.0, dev)))
            samples.append({"point": tuple(q), "side": sgn, "dot": dev,
                            "angle_dev_rad": ang_dev})
            worst = max(worst, ang_dev)
    return StationarityReport(orthogonal=(worst <= tol and not inconclusive),
                              max_angle_dev=worst, inconclusive=inconclusive,
                              samples=samples)
