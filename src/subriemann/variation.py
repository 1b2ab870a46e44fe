"""First and second variation of the sub-Riemannian area, and stability.

Numeric variation oracles deform a parametrized patch along straight
coordinate rays with a second-order geodesic correction and re-measure the
area through the horizontal Jacobian.  Formula paths evaluate the displayed
integrands with the exact symbolic surface fields.

Index forms and the pasted quadratic Q integrate in characteristic
coordinates (eps, s): eps moves along a transverse curve (an integral curve
of S, or a singular curve), s runs along integrated characteristic curves,
and the Riemannian area element is f_eps ds deps with
f_eps = -g(V_eps, T)/|N_h| obtained from centered differences across
neighboring characteristics.

The singular-curve boundary coefficient of Q is the s -> 0 limit of
(xi + zeta)/u^2 for the vertical pasting, namely
sgn(g(N,T)) (c1 + 2 g(tau(Z), nu_h)); the fan construction orients the
characteristic flow away from the singular curve so g(Z, nu) = +1 on both
sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .expr import Expr
from .curves import rk4_step
from .structures import StructureSpec, sum_exprs
from .surfaces import (GraphSurface, ImplicitSurface, SurfaceGeometry,
                       SingularLocus)

MINIMALITY_TOL = 1e-8


class AdmissibilityError(ValueError):
    """A variation function violates the hypotheses of a stability operator."""


def _project_batch(surf: ImplicitSurface, q, tol=1e-12, max_iter=30):
    """Vectorized Newton projection of points (n, 3) onto {f = 0}."""
    q = np.array(q, dtype=float)
    kernel = ex.compiled_cse((surf.f, *surf.grad), arrays=True)
    for _ in range(max_iter):
        fg = kernel(q)
        v = fg[:, 0]
        if np.max(np.abs(v)) < tol:
            break
        g = fg[:, 1:]
        n2 = np.sum(g * g, axis=-1)
        q = q - (v / n2)[:, None] * g
    return q


# ---------------------------------------------------------------------------
# Variation fields


@dataclass(frozen=True)
class VariationField:
    """Ambient variation field given by frame-component expressions.

    ``support`` is an optional descriptor (e.g. a compact sub-region box or a
    distance floor to the singular set) carried for reporting; the effective
    support is whatever the coefficient expressions vanish outside of.
    """

    comps: tuple
    kind: str = "generic"
    support: dict | None = None

    @staticmethod
    def normal(geom: SurfaceGeometry, u: Expr) -> "VariationField":
        u = ex._as_expr(u)
        return VariationField(tuple(ex.mul(u, c) for c in geom.N_comps), "normal")

    @staticmethod
    def vertical(w: Expr) -> "VariationField":
        w = ex._as_expr(w)
        return VariationField((ex.ZERO, ex.ZERO, w), "vertical")

    @staticmethod
    def normal_vertical(geom: SurfaceGeometry, v: Expr, w: Expr) -> "VariationField":
        v, w = ex._as_expr(v), ex._as_expr(w)
        comps = tuple(ex.add(ex.mul(v, c), ex.mul(w, t))
                      for c, t in zip(geom.N_comps, (ex.ZERO, ex.ZERO, ex.ONE)))
        return VariationField(comps, "normal-vertical")

    @staticmethod
    def tangent(geom: SurfaceGeometry, l: Expr, h: Expr) -> "VariationField":
        l, h = ex._as_expr(l), ex._as_expr(h)
        comps = tuple(ex.add(ex.mul(l, z), ex.mul(h, s))
                      for z, s in zip(geom.Z, geom.S))
        return VariationField(comps, "tangent")

    @staticmethod
    def frame_decomposition(geom: SurfaceGeometry, f: Expr, l: Expr, h: Expr):
        """U = f nu_h + l Z + h T."""
        f, l, h = ex._as_expr(f), ex._as_expr(l), ex._as_expr(h)
        comps = tuple(sum_exprs([ex.mul(f, geom.nu[k]), ex.mul(l, geom.Z[k]),
                                 ex.mul(h, (ex.ZERO, ex.ZERO, ex.ONE)[k])])
                      for k in range(3))
        return VariationField(comps, "frame")


# ---------------------------------------------------------------------------
# Parametrized patches and numeric areas


class ParamPatch:
    """Immersed patch (a, b) -> chart coordinates, as symbolic expressions.

    The parameters reuse the variable slots x, y of the expression engine.
    """

    def __init__(self, structure: StructureSpec, map_exprs, domain):
        self.structure = structure
        self.map = [ex._as_expr(m) for m in map_exprs]
        self.domain = tuple((float(lo), float(hi)) for lo, hi in domain)

    @staticmethod
    def from_graph(structure: StructureSpec, gs: GraphSurface) -> "ParamPatch":
        return ParamPatch(structure, [ex.X, ex.Y, gs.u], gs.domain)

    def _nodes(self, order, cells):
        from .surfaces import gauss_legendre_grid
        gx, gy, wx, wy = gauss_legendre_grid(self.domain, order, cells)
        xx, yy = np.meshgrid(gx, gy, indexing="ij")
        ww = np.outer(wx, wy)
        return xx, yy, ww

    def _eval_map(self, maps, xx, yy):
        pts = [np.broadcast_to(np.asarray(ex.compiled_cse(m, arrays=True)(xx, yy, 0.0),
                                          dtype=float), xx.shape)
               for m in maps]
        return pts

    def _tangent_frames(self, maps, xx, yy):
        """The map's points on the grid and the frame components of its two
        parameter derivatives there, each grid-shaped (..., 3)."""
        pts = self._eval_map(maps, xx, yy)
        e1 = self._eval_map([m.diff(0) for m in maps], xx, yy)
        e2 = self._eval_map([m.diff(1) for m in maps], xx, yy)
        p, v1, v2 = (np.stack(v, -1).reshape(-1, 3) for v in (pts, e1, e2))
        f1, f2 = (self.structure.frame_components(p, v).reshape(xx.shape + (3,))
                  for v in (v1, v2))
        return pts, f1, f2

    def _area_of_map(self, maps, xx, yy, ww):
        _, f1, f2 = self._tangent_frames(maps, xx, yy)
        t1 = f1[..., 2]
        t2 = f2[..., 2]
        v = t1[..., None] * f2 - t2[..., None] * f1
        dens = np.linalg.norm(v, axis=-1)
        return float(np.sum(dens * ww))

    def area(self, order=10, cells=24) -> float:
        """Sub-Riemannian area of the undeformed patch."""
        xx, yy, ww = self._nodes(order, cells)
        return self._area_of_map(self.map, xx, yy, ww)

    def deformed_map(self, U: VariationField, eps: float):
        """Straight-ray deformation with second-order geodesic correction:
        psi = m + eps U(m) - (eps^2/2) Gamma(U, U)(m)."""
        st = self.structure
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
            uk = ex.substitute(u_coord[k], self.map)
            ck = ex.substitute(corr[k], self.map)
            out.append(sum_exprs([self.map[k], ex.mul(eps, uk),
                                  ex.mul(-0.5 * eps * eps, ck)]))
        return out

    def deformed_area(self, U: VariationField, eps: float, order=10, cells=24):
        xx, yy, ww = self._nodes(order, cells)
        return self._area_of_map(self.deformed_map(U, eps), xx, yy, ww)

    def integrate_riemannian(self, scalar: Expr, order=10, cells=24) -> float:
        """Integral of an ambient scalar over the patch w.r.t. dSigma."""
        xx, yy, ww = self._nodes(order, cells)
        pts, f1, f2 = self._tangent_frames(self.map, xx, yy)
        g11 = np.sum(f1 * f1, axis=-1)
        g22 = np.sum(f2 * f2, axis=-1)
        g12 = np.sum(f1 * f2, axis=-1)
        ds = np.sqrt(np.maximum(g11 * g22 - g12 ** 2, 0.0))
        fn = ex.compiled_cse(scalar, arrays=True)
        vals = np.broadcast_to(np.asarray(fn(pts[0], pts[1], pts[2]), dtype=float),
                               xx.shape)
        return float(np.sum(vals * ds * ww))

    def _sample_scalar(self, scalar: Expr, n=31):
        xs = np.linspace(*self.domain[0], n)
        ys = np.linspace(*self.domain[1], n)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        pts = self._eval_map(self.map, xx, yy)
        fn = ex.compiled_cse(scalar, arrays=True)
        return np.broadcast_to(np.asarray(fn(pts[0], pts[1], pts[2]),
                                          dtype=float), xx.shape)

    def max_abs(self, scalar: Expr, n=31) -> float:
        return float(np.max(np.abs(self._sample_scalar(scalar, n))))

    def min_scalar(self, scalar: Expr, n=31) -> float:
        # odd n keeps box midlines on the grid (symmetric singular loci)
        return float(np.min(self._sample_scalar(scalar, n)))


def first_variation_numeric(patch: ParamPatch, U: VariationField, eps=1e-4,
                            order=10, cells=24) -> float:
    """Central-difference first variation of the sub-Riemannian area."""
    ap = patch.deformed_area(U, +eps, order, cells)
    am = patch.deformed_area(U, -eps, order, cells)
    return (ap - am) / (2.0 * eps)


def second_variation_numeric(patch: ParamPatch, U: VariationField, eps=1e-3,
                             order=10, cells=24, richardson=True) -> float:
    """Central second difference of the area, Richardson-refined by default."""

    def second_diff(e):
        ap = patch.deformed_area(U, +e, order, cells)
        am = patch.deformed_area(U, -e, order, cells)
        a0 = patch.area(order, cells)
        return (ap - 2.0 * a0 + am) / (e * e)

    d1 = second_diff(eps)
    if not richardson:
        return d1
    d2 = second_diff(eps / 2.0)
    return (4.0 * d2 - d1) / 3.0


def first_variation_formula(geom: SurfaceGeometry, U: VariationField,
                            patch: ParamPatch, order=10, cells=24) -> float:
    """First variation by the displayed integrand,

        -S(g(U,T)) + c1 g(N,T) g(J(nu_h), U_h) + |N_h| g(nabla_Z U_h, Z)
        + |N_h| g(U,T) g(tau(Z), Z),

    with g(nabla_Z U_h, Z) expanded as Z(l) - f H for U_h = f nu_h + l Z.

    The support must avoid the singular set (the clean integrand has no
    divergence-term handling); patches containing singular points are flagged.
    """
    nh_min = patch.min_scalar(geom.nh)
    if not np.isfinite(nh_min) or nh_min <= 1e-6:
        raise AdmissibilityError(
            f"variation support touches the singular set (min |N_h| = {nh_min:.2e}); "
            "the clean first-variation integrand does not apply")
    st = geom.structure
    u0, u1, u2 = U.comps
    f_expr = ex.add(ex.mul(u0, geom.nu[0]), ex.mul(u1, geom.nu[1]))
    l_expr = ex.add(ex.mul(u0, geom.Z[0]), ex.mul(u1, geom.Z[1]))
    integrand = sum_exprs([
        ex.neg(geom.S_of(u2)),
        ex.mul(st.c1, ex.mul(geom.gNT, l_expr)),
        ex.mul(geom.nh, ex.sub(geom.Z_of(l_expr), ex.mul(f_expr, geom.H))),
        ex.mul(geom.nh, ex.mul(u2, geom.tauZZ)),
    ])
    return patch.integrate_riemannian(integrand, order, cells)


# ---------------------------------------------------------------------------
# Second-variation pointwise terms


@dataclass(frozen=True)
class SecondVariationTerms:
    point: tuple
    q: float
    xi: float
    zeta: float
    eta: float


def second_variation_terms(geom: SurfaceGeometry, p, v: float, w: float,
                           check_minimal=True) -> SecondVariationTerms:
    """Evaluate q, xi, zeta, eta of the second variation at a point for the
    variation U = v N + w T (v, w numbers here: pointwise values)."""
    st = geom.structure
    c1 = st.c1
    p = tuple(float(c) for c in p)
    if check_minimal and abs(geom.H.at(p)) > MINIMALITY_TOL:
        raise AdmissibilityError(
            f"surface is not minimal at {p}: H = {geom.H.at(p):.3e}")
    nh = geom.nh.at(p)
    gnt = geom.gNT.at(p)
    tzn = geom.tauZnu.at(p)
    tzz = geom.tauZZ.at(p)
    ths = geom.thetaS.at(p)
    u = v + gnt * w
    coeff = nh * ths + c1 * gnt ** 2 + (1.0 + gnt ** 2) * tzn
    xi = gnt * coeff * u * u
    b_zs = geom.shape_dot(geom.Z, geom.S).at(p)
    zeta = nh * nh * (gnt * coeff * w * w - 2.0 * b_zs * v * w)
    eta = (nh * nh * v * v - (gnt * v + w) ** 2) * tzz
    return SecondVariationTerms(point=p, q=geom.q_expr().at(p), xi=xi,
                                zeta=zeta, eta=eta)


def l_of_nh(geom: SurfaceGeometry, p):
    """The stability operator applied to |N_h|, along two independent paths.

    Path A uses the pointwise frame data (theta(S), torsion components);
    path B differentiates g(N,T)/|N_h| along Z.  Returns (a, b, a - b).
    """
    st = geom.structure
    c1 = st.c1
    p = tuple(float(c) for c in p)
    w = st.webster_curvature_tensor(p)
    nh = geom.nh.at(p)
    gnt = geom.gNT.at(p)
    tzn = geom.tauZnu.at(p)
    ths = geom.thetaS.at(p)
    a = (w - c1 * tzn - 2.0 * c1 * (nh * ths - nh * nh * tzn) / nh ** 2
         - c1 ** 2 * gnt ** 2 / nh ** 2)
    ratio = ex.div(geom.gNT, geom.nh)
    z_ratio = geom.Z_of(ratio).at(p)
    b = w - c1 * tzn + 2.0 * c1 * z_ratio + c1 ** 2 * gnt ** 2 / nh ** 2
    return a, b, a - b


# ---------------------------------------------------------------------------
# Characteristic-coordinate patches


def _fd4(values, h, axis=-1):
    """Fourth-order first derivative on a uniform grid (one-sided at ends)."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    n = v.shape[-1]
    out = np.empty_like(v)
    if n < 7:
        out = np.gradient(v, h, axis=-1)
        return np.moveaxis(out, -1, axis)
    out[..., 2:-2] = (v[..., :-4] - 8 * v[..., 1:-3] + 8 * v[..., 3:-1]
                      - v[..., 4:]) / (12 * h)
    for i in (0, 1):
        out[..., i] = (-25 * v[..., i] + 48 * v[..., i + 1] - 36 * v[..., i + 2]
                       + 16 * v[..., i + 3] - 3 * v[..., i + 4]) / (12 * h)
        out[..., -1 - i] = -(-25 * v[..., -1 - i] + 48 * v[..., -2 - i]
                             - 36 * v[..., -3 - i] + 16 * v[..., -4 - i]
                             - 3 * v[..., -5 - i]) / (12 * h)
    return np.moveaxis(out, -1, axis)


def _trapezoid_weights(grid):
    w = np.empty_like(grid)
    w[1:-1] = (grid[2:] - grid[:-2]) / 2.0
    w[0] = (grid[1] - grid[0]) / 2.0
    w[-1] = (grid[-1] - grid[-2]) / 2.0
    return w


class CharPatch:
    """A characteristic-coordinate grid on a surface.

    points[i, j] is the j-th sample along the characteristic curve through
    the i-th base point; s is arc length along characteristics, eps arc
    length along the transverse base curve.  The Riemannian area element is
    f_eps ds deps.
    """

    def __init__(self, structure, geom, eps, s, points, z_orientation=1.0):
        self.structure = structure
        self.geom = geom
        self.eps = np.asarray(eps, dtype=float)
        self.s = np.asarray(s, dtype=float)
        self.points = np.asarray(points, dtype=float)
        # +1 when the s-parametrization runs along +Z, -1 along -Z; for fans
        # this equals g(Z, nu_exterior) at the singular curve
        self.z_orientation = float(z_orientation)
        self._scalars = {}
        self.f_eps = self._area_factor()

    # -- construction -------------------------------------------------------

    @staticmethod
    def _surface_flow(structure, surf, field_coord_exprs, p0, s_grid, n_sub=8):
        """RK4 flow of a surface field with per-step projection onto f = 0.

        ``p0`` may be a single point (3,) or a batch (n, 3); the flow is
        integrated for the whole batch at once.
        """
        p0 = np.asarray(p0, dtype=float)
        single = p0.ndim == 1
        q0 = p0[None, :] if single else p0

        rhs = ex.compiled_cse(field_coord_exprs, arrays=True)
        out = np.empty((q0.shape[0], len(s_grid), 3))
        out[:, 0] = q0
        q = q0
        for j in range(1, len(s_grid)):
            h = (s_grid[j] - s_grid[j - 1]) / n_sub
            for _ in range(n_sub):
                q = rk4_step(rhs, q, h)
            q = _project_batch(surf, q)
            out[:, j] = q
        return out[0] if single else out

    @classmethod
    def _flow_at_params(cls, structure, surf, field, p0, params, n_sub=8):
        """Flow positions at signed parameters (0 corresponds to p0).

        ``p0`` a point (3,) or batch (n, 3); result (len(params), 3) or
        (n, len(params), 3).
        """
        params = np.asarray(params, dtype=float)
        p0 = np.asarray(p0, dtype=float)
        single = p0.ndim == 1
        q0 = p0[None, :] if single else p0
        out = np.empty((q0.shape[0], len(params), 3))
        pos_idx = np.where(params > 0)[0]
        neg_idx = np.where(params < 0)[0]
        zero_idx = np.where(params == 0)[0]
        for i in zero_idx:
            out[:, i] = q0
        if len(pos_idx):
            order = pos_idx[np.argsort(params[pos_idx])]
            pts = cls._surface_flow(structure, surf, field, q0,
                                    np.concatenate([[0.0], params[order]]), n_sub)
            for k, i in enumerate(order):
                out[:, i] = pts[:, k + 1]
        if len(neg_idx):
            order = neg_idx[np.argsort(params[neg_idx])[::-1]]
            pts = cls._surface_flow(structure, surf, field, q0,
                                    np.concatenate([[0.0], params[order]]), n_sub)
            for k, i in enumerate(order):
                out[:, i] = pts[:, k + 1]
        return out[0] if single else out

    @classmethod
    def from_base_point(cls, structure, surf, seed, eps_span, s_span,
                        n_eps=21, n_s=81):
        """Patch built on the S-integral curve through ``seed`` (the seed is
        the eps = 0, s = 0 corner of the grid)."""
        geom = surf.geometry(structure)
        seed = surf.project(np.asarray(seed, dtype=float))
        s_coord = structure.frame_to_coordinate(list(geom.S))
        z_coord = structure.frame_to_coordinate(list(geom.Z))
        eps = np.linspace(eps_span[0], eps_span[1], n_eps)
        s = np.linspace(s_span[0], s_span[1], n_s)
        base = cls._flow_at_params(structure, surf, s_coord, seed, eps)
        pts = cls._flow_at_params(structure, surf, z_coord, base, s)
        return cls(structure, geom, eps, s, pts)

    @classmethod
    def fan_from_curve(cls, structure, surf, gamma, eps_span, s_max,
                       n_eps=21, n_s=61, s_min=1e-3):
        """Two one-sided patches emanating from a singular curve.

        ``gamma(e)`` returns the curve point at arc-length parameter e (or
        pass a traced SingularLocus).  Returns (side_plus, side_minus,
        gamma_samples).  The rays are parametrized away from the curve along
        sigma Z with sigma = +-1 chosen per side so the flow leaves the curve;
        sigma = g(Z, nu_exterior) is recorded as ``z_orientation``.
        """
        geom = surf.geometry(structure)
        if isinstance(gamma, SingularLocus):
            gamma_fn = _locus_interpolator(gamma)
        else:
            gamma_fn = gamma
        eps = np.linspace(eps_span[0], eps_span[1], n_eps)
        gpts = np.array([surf.project(np.asarray(gamma_fn(e), dtype=float))
                         for e in eps])
        z_coord = structure.frame_to_coordinate(list(geom.Z))
        s = np.linspace(s_min, s_max, n_s)
        sides = []
        ref = np.gradient(gpts, axis=0)
        for sgn in (+1.0, -1.0):
            q0 = np.stack([_step_off_curve(structure, geom, surf, gpts[i], sgn,
                                           s[0], ref_dir=ref[i])
                           for i in range(n_eps)])
            # orient the flow away from the curve: compare Z at the stepped
            # point with the outward step direction
            mid = n_eps // 2
            z_at = np.array([c.at(q0[mid]) for c in geom.Z])
            m = structure.frame_matrix(q0[mid])
            out_dir = np.linalg.solve(m.T, q0[mid] - gpts[mid])
            sigma = 1.0 if float(z_at @ out_dir) >= 0 else -1.0
            field = z_coord if sigma > 0 else [ex.neg(c) for c in z_coord]
            pts = cls._surface_flow(structure, surf, field, q0, s)
            sides.append(cls(structure, geom, eps, s, pts, z_orientation=sigma))
        return sides[0], sides[1], gpts

    # -- grid data ------------------------------------------------------------

    def scalar(self, e: Expr) -> np.ndarray:
        key = id(e)
        if key not in self._scalars:
            fn = ex.compiled_cse(e, arrays=True)
            px, py, pt = (self.points[..., k] for k in range(3))
            self._scalars[key] = np.broadcast_to(
                np.asarray(fn(px, py, pt), dtype=float),
                self.points.shape[:2]).copy()
        return self._scalars[key]

    def _area_factor(self):
        if len(self.eps) < 2:
            raise ValueError("patch needs at least two transverse samples")
        d_eps = self.eps[1] - self.eps[0]
        v = _fd4(self.points, d_eps, axis=0) if len(self.eps) >= 7 else \
            np.gradient(self.points, self.eps, axis=0)
        comps = self.structure.frame_components(self.points.reshape(-1, 3),
                                                v.reshape(-1, 3))
        vt = comps[:, 2].reshape(self.points.shape[:2])
        nh = self.scalar(self.geom.nh)
        f = -vt / nh
        if np.median(f) < 0:
            f = -f
        if np.any(f <= 0):
            bad = float(np.min(f))
            raise ValueError(f"area factor f_eps not positive (min {bad:.3e}); "
                             "patch folded or crossed the singular set")
        return f

    def weights(self):
        return np.outer(_trapezoid_weights(self.eps), _trapezoid_weights(self.s))

    def integrate(self, values: np.ndarray) -> float:
        return float(np.sum(values * self.f_eps * self.weights()))

    def u_grid(self, u_fn):
        ee, ss = np.meshgrid(self.eps, self.s, indexing="ij")
        return np.asarray(u_fn(ee, ss), dtype=float)

    def z_derivative(self, grid):
        """True Z-derivative of a grid sampled along the rays (the ray
        parameter runs along z_orientation * Z)."""
        if len(self.s) >= 2 and np.allclose(np.diff(self.s), self.s[1] - self.s[0],
                                            rtol=1e-9):
            d = _fd4(grid, self.s[1] - self.s[0], axis=1)
        else:
            d = np.gradient(grid, self.s, axis=1)
        return self.z_orientation * d

    def max_h(self) -> float:
        return float(np.max(np.abs(self.scalar(self.geom.H))))


def _locus_interpolator(locus: SingularLocus):
    pts = locus.points
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    arcl = np.concatenate([[0.0], np.cumsum(seg)])
    arcl -= arcl[len(arcl) // 2]

    def gamma(e):
        return np.array([np.interp(e, arcl, pts[:, k]) for k in range(3)])

    return gamma


def _step_off_curve(structure, geom, surf, q, sgn, ds, ref_dir=None):
    """First step from a singular-curve point along the limit characteristic
    direction (J of the curve tangent), then projected back to the surface.

    The curve tangent is the kernel direction of the Jacobian of (f, Xf, Yf);
    its sign (arbitrary from the SVD) is aligned with ``ref_dir`` when given,
    so all rays of a fan step off to the same side.
    """
    _, j = geom.singular_system_at(q)
    _, _, vt = np.linalg.svd(j)
    tan_coord = vt[-1]
    if ref_dir is not None and float(tan_coord @ ref_dir) < 0:
        tan_coord = -tan_coord
    m = structure.frame_matrix(q)
    w = np.linalg.solve(m.T, tan_coord)
    w /= np.linalg.norm(w)
    zdir = structure.j_apply(w)
    q1 = surf.project(q + sgn * ds * (zdir @ m))
    return q1


@dataclass
class IndexFormResult:
    value: float
    operator_value: float

    @property
    def difference(self):
        return self.value - self.operator_value


def index_form(patch: CharPatch, u_fn, v_fn=None, require_minimal=True,
               agreement_tol=1e-4) -> IndexFormResult:
    """I(u, v) = int { |N_h|^-1 Z(u) Z(v) + q u v } dSigma on the patch,
    together with the operator form -int u L(v) dSigma; the two paths are
    asserted to agree within ``agreement_tol`` (absolute plus relative)."""
    geom = patch.geom
    st = patch.structure
    if require_minimal and patch.max_h() > MINIMALITY_TOL:
        raise AdmissibilityError(
            f"index form requires a minimal patch (max |H| = {patch.max_h():.2e})")
    u = patch.u_grid(u_fn)
    v = u if v_fn is None else patch.u_grid(v_fn)
    zu = patch.z_derivative(u)
    zv = patch.z_derivative(v)
    nh = patch.scalar(geom.nh)
    q = patch.scalar(geom.q_expr())
    value = patch.integrate(zu * zv / nh + q * u * v)
    # operator path: L(v) = nh^-1 { Z(Z(v)) + gNT nh^-1 (-2 nh thetaS - c1
    # + 2 nh^2 (c1 + tauZnu)) Z(v) } - q v
    zzv = patch.z_derivative(zv)
    gnt = patch.scalar(geom.gNT)
    ths = patch.scalar(geom.thetaS)
    tzn = patch.scalar(geom.tauZnu)
    c1 = st.c1
    coeff = gnt / nh * (-2.0 * nh * ths - c1 + 2.0 * nh ** 2 * (c1 + tzn))
    lv = (zzv + coeff * zv) / nh - q * v
    op_value = -patch.integrate(u * lv)
    if abs(value - op_value) > agreement_tol * (1.0 + abs(value)):
        raise AdmissibilityError(
            f"index form and operator form disagree: {value:.6g} vs "
            f"{op_value:.6g} (patch too coarse?)")
    return IndexFormResult(value=value, operator_value=op_value)


# ---------------------------------------------------------------------------
# Pasted stability quadratic Q(u) and singular-curve second variation


@dataclass
class QReport:
    value: float
    bulk: float
    boundary_u2: float
    boundary_su2: float
    sing_coefficients: list
    admissible: bool = True


def _gamma_weights(gpts):
    seg = np.linalg.norm(np.diff(gpts, axis=0), axis=1)
    w = np.zeros(len(gpts))
    w[:-1] += seg / 2.0
    w[1:] += seg / 2.0
    return w


def _limit_coefficient(patch: CharPatch):
    """Per-eps Richardson limit of (xi + zeta)/u^2 = (nh thetaS + c1 gNT^2 +
    (1 + gNT^2) tauZnu)/gNT as s -> 0 along the fan."""
    geom = patch.geom
    c1 = patch.structure.c1
    nh = patch.scalar(geom.nh)
    gnt = patch.scalar(geom.gNT)
    ths = patch.scalar(geom.thetaS)
    tzn = patch.scalar(geom.tauZnu)
    f = (nh * ths + c1 * gnt ** 2 + (1.0 + gnt ** 2) * tzn) / gnt
    # Richardson in the first two s-samples (geometric grid: ratio known)
    s0, s1 = patch.s[0], patch.s[1]
    w1 = s1 / (s1 - s0)
    return w1 * f[:, 0] - (w1 - 1.0) * f[:, 1]


def stability_quadratic_Q(sides, gamma_points, u_fn, tube_radius=0.1,
                          admissibility_tol=1e-8) -> QReport:
    """Pasted stability quadratic

        Q(u) = int { |N_h|^-1 Z(u)^2 + q u^2 } dSigma
               + 2 int_Gamma (xi + zeta) g(Z, nu) u^2 dGamma
               + int_Gamma S(u)^2 dGamma,

    evaluated over a two-sided characteristic fan from a singular curve.
    ``u_fn(eps, s)`` must have Z(u) = 0 for |s| <= tube_radius (checked).
    The u^2 boundary term enters with g(Z, nu_exterior) = z_orientation of
    each side; its limit coefficient is sgn(g(N,T)) (c1 + 2 g(tauZ,nu)).
    """
    side_p, side_m = sides
    bulk = 0.0
    coeffs = []
    boundary_u2 = 0.0
    gw = _gamma_weights(gamma_points)
    u_gamma = np.asarray(u_fn(side_p.eps, np.zeros_like(side_p.eps)), dtype=float)
    for sgn, patch in ((+1.0, side_p), (-1.0, side_m)):
        if patch.max_h() > MINIMALITY_TOL:
            raise AdmissibilityError(
                f"Q requires a minimal surface (max |H| = {patch.max_h():.2e})")
        u = patch.u_grid(lambda e, s: u_fn(e, sgn * s))
        zu = patch.z_derivative(u)
        in_tube = patch.s <= tube_radius
        if np.any(in_tube):
            # admissibility: u constant along characteristics inside the tube
            tube_vals = u[:, in_tube]
            worst = float(np.max(np.abs(tube_vals - tube_vals[:, :1])))
            if worst > admissibility_tol:
                raise AdmissibilityError(
                    f"u is not admissible: varies by {worst:.3e} along "
                    f"characteristics inside the tube of radius {tube_radius}")
            zu[:, in_tube] = 0.0  # exact by admissibility; avoids FD bleed
        nh = patch.scalar(patch.geom.nh)
        q = patch.scalar(patch.geom.q_expr())
        bulk += patch.integrate(zu * zu / nh + q * u * u)
        cf = _limit_coefficient(patch) * patch.z_orientation
        coeffs.append(cf)
        boundary_u2 += float(np.sum(cf * u_gamma ** 2 * gw))
    # S(u)^2 along the curve: S is tangent to Gamma at the singular curve
    d_eps = side_p.eps[1] - side_p.eps[0]
    su = _fd4(u_gamma, d_eps)
    boundary_su2 = float(np.sum(su ** 2 * gw))
    value = bulk + boundary_u2 + boundary_su2
    return QReport(value=value, bulk=bulk, boundary_u2=boundary_u2,
                   boundary_su2=boundary_su2,
                   sing_coefficients=[c.tolist() for c in coeffs])


def singular_curve_second_variation(sides, gamma_points, w_fn,
                                    constancy_tol=1e-8) -> float:
    """Second variation of a vertical variation supported near a singular
    curve:  int 2 w^2 |N_h| (g(tauZ,nu)^2 + g(tauZ,Z)^2) dSigma
    + boundary flux of w^2 g(tauZ,Z) S + int_Gamma S(w)^2 dGamma.

    ``w_fn(eps, s)`` must be constant along characteristics (s-independent)
    in the fan; the divergence term is evaluated as its boundary flux, which
    vanishes on the s-edges since g(S, Z) = 0.
    """
    side_p, side_m = sides
    total = 0.0
    gw = _gamma_weights(gamma_points)
    w_gamma = np.asarray(w_fn(side_p.eps, np.zeros_like(side_p.eps)), dtype=float)
    for sgn, patch in ((+1.0, side_p), (-1.0, side_m)):
        w = patch.u_grid(lambda e, s: w_fn(e, sgn * s))
        zw = patch.z_derivative(w)
        worst = float(np.max(np.abs(zw)))
        if worst > max(constancy_tol, 1e-6):
            raise AdmissibilityError(
                f"w must be constant along characteristics (max |Z(w)| = {worst:.3e})")
        nh = patch.scalar(patch.geom.nh)
        tzn = patch.scalar(patch.geom.tauZnu)
        tzz = patch.scalar(patch.geom.tauZZ)
        total += patch.integrate(2.0 * w * w * nh * (tzn ** 2 + tzz ** 2))
        # flux of w^2 g(tauZ,Z) S through the far s-edge: conormal there is
        # Z, and g(S, Z) = 0, so the contribution vanishes identically.
    d_eps = side_p.eps[1] - side_p.eps[0]
    sw = _fd4(w_gamma, d_eps)
    total += float(np.sum(sw ** 2 * gw))
    return total


def isolated_point_second_variation(sides, w_fn, constancy_tol=1e-8) -> float:
    """Isolated-singular-point variant: w constant near the point, so only
    the bulk term int 2 w^2 |N_h| (g(tauZ,nu)^2 + g(tauZ,Z)^2) dSigma remains
    (no curve or divergence contributions).  ``sides`` is any tuple of
    characteristic patches covering the tubular neighborhood."""
    total = 0.0
    for patch in sides:
        w = patch.u_grid(w_fn)
        zw = patch.z_derivative(w)
        worst = float(np.max(np.abs(zw)))
        if worst > max(constancy_tol, 1e-6):
            raise AdmissibilityError(
                f"w must be constant near the singular point "
                f"(max |Z(w)| = {worst:.3e})")
        nh = patch.scalar(patch.geom.nh)
        tzn = patch.scalar(patch.geom.tauZnu)
        tzz = patch.scalar(patch.geom.tauZZ)
        total += patch.integrate(2.0 * w * w * nh * (tzn ** 2 + tzz ** 2))
    return total


# ---------------------------------------------------------------------------
# Stability sign field


@dataclass
class SignFieldReport:
    minimum: float
    maximum: float
    classification: str
    samples: int


def stability_sign_field(geom: SurfaceGeometry, points,
                         tol=1e-10) -> SignFieldReport:
    """Sample W - c1 g(tau(Z), nu_h) over surface points and classify."""
    pts = np.asarray(points, dtype=float)
    fn = ex.compiled_cse(geom.criterion, arrays=True)
    vals = np.asarray(fn(pts[:, 0], pts[:, 1], pts[:, 2]), dtype=float)
    vals = np.broadcast_to(vals, (len(pts),))
    mn, mx = float(np.min(vals)), float(np.max(vals))
    if mx <= tol:
        cls = "nonpositive-everywhere"
    elif mn > tol:
        cls = "positive-everywhere"
    else:
        cls = "positive-somewhere"
    return SignFieldReport(minimum=mn, maximum=mx, classification=cls,
                           samples=len(pts))


def criterion_range_unimodular(c2: float, c3: float, n: int = 721):
    """Range of W - c1 g(tau(Z), nu_h) over all horizontal normal directions
    in a unimodular group; a vertical surface realizes some subset of it."""
    from .structures import unimodular_structure
    st = unimodular_structure(c2, c3)
    w = st.meta["webster_closed_form"]
    m = st.tau_matrix((0.0, 0.0, 0.0))
    psis = np.linspace(0.0, np.pi, n)
    vals = []
    for psi in psis:
        nu = np.array([np.cos(psi), np.sin(psi)])
        z = np.array([-st.sgn_c1 * nu[1], st.sgn_c1 * nu[0]])
        vals.append(w - st.c1 * float(z @ m @ nu))
    return float(np.min(vals)), float(np.max(vals))
