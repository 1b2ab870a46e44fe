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

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import Expr
from .structures import StructureSpec, sum_exprs
from .surfaces import (GraphSurface, SurfaceGeometry, gauss_legendre_grid, grid_points,
                       step_off_curve)

MINIMALITY_TOL = 1e-8
# RK4 substeps per grid interval of a characteristic-patch flow
FLOW_SUBSTEPS = 8
# index form vs operator form: the bound is this times (1 + |I(u, u)|)
INDEX_FORM_AGREEMENT_TOL = 1e-4
# largest change of u along characteristics inside the tube of Q
ADMISSIBILITY_TOL = 1e-8
# largest |Z(w)| of a w required constant along characteristics
CONSTANCY_TOL = 1e-6
FAN_S_MIN = 1e-3   # arc length of a fan's first sample off its singular curve
SIGN_FIELD_TOL = 1e-10   # sign-field values up to this count as nonpositive


class AdmissibilityError(ValueError):
    """A variation function violates the hypotheses of a stability operator."""


# ---------------------------------------------------------------------------
# Variation fields


@dataclass(frozen=True)
class VariationField:
    """Ambient variation field given by frame-component expressions; its
    support is whatever the coefficient expressions vanish outside of."""

    comps: tuple

    @staticmethod
    def normal(geom: SurfaceGeometry, u: Expr) -> "VariationField":
        u = ex._as_expr(u)
        return VariationField(tuple(ex.mul(u, c) for c in geom.N_comps))

    @staticmethod
    def vertical(w: Expr) -> "VariationField":
        w = ex._as_expr(w)
        return VariationField((ex.ZERO, ex.ZERO, w))

    @staticmethod
    def tangent(geom: SurfaceGeometry, l: Expr, h: Expr) -> "VariationField":
        l, h = ex._as_expr(l), ex._as_expr(h)
        comps = tuple(ex.add(ex.mul(l, z), ex.mul(h, s))
                      for z, s in zip(geom.Z, geom.S))
        return VariationField(comps)


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
        """Gauss-Legendre parameter points (n, 3), as (a, b, 0), and weights."""
        gx, gy, wx, wy = gauss_legendre_grid(self.domain, order, cells)
        return grid_points(gx, gy, [0.0]), np.outer(wx, wy).ravel()

    @staticmethod
    def _map_values(maps, params):
        """The k maps and their two parameter derivatives at the (n, 3)
        parameter points: an (n, 3k) array from one kernel, the k values,
        then the k a-derivatives, then the k b-derivatives."""
        kernel = ex.compiled_cse([*maps, *(m.diff(0) for m in maps),
                                  *(m.diff(1) for m in maps)], "arrays")
        return kernel(params)

    def _tangent_frames(self, vals):
        """Frame components of the two parameter derivatives in (n, 9) map
        values, each row a point and its a- and b-derivative."""
        return [self.structure.frame_components(vals[:, :3], vals[:, k:k + 3]) for k in (3, 6)]

    def _areas(self, vals, ww):
        """Sub-Riemannian areas of maps given by their (m, n, 9) values at
        the quadrature nodes of weights ww, one area per map."""
        f1, f2 = self._tangent_frames(vals.reshape(-1, 9))
        v = f1[..., 2:] * f2 - f2[..., 2:] * f1
        dens = np.linalg.norm(v, axis=-1).reshape(len(vals), -1)
        return [float(np.sum(d * ww)) for d in dens]

    def area(self, order=10, cells=24) -> float:
        """Sub-Riemannian area of the undeformed patch."""
        params, ww = self._nodes(order, cells)
        return self._areas(self._map_values(self.map, params)[None], ww)[0]

    def deformed_areas(self, U: VariationField, eps_values, order=10, cells=24) -> list:
        """Areas of psi = m + eps U(m) - (eps^2/2) Gamma(U, U)(m), straight rays
        with the second-order geodesic correction, one per eps.  m, U(m),
        Gamma(U, U)(m) and their parameter derivatives come from one kernel;
        each eps costs array arithmetic in the order of the symbolic sum."""
        st = self.structure
        u_coord = st.frame_to_coordinate(list(U.comps))
        gamma = st.coordinate_christoffels()
        corr = [sum_exprs(ex.mul(gamma[k][i][j], ex.mul(u_coord[i], u_coord[j]))
                          for i in range(3) for j in range(3)) for k in range(3)]
        fields = [ex.substitute(f, self.map) for f in (*u_coord, *corr)]
        params, ww = self._nodes(order, cells)
        vals = self._map_values([*self.map, *fields], params)
        # (n, 27) columns: (value, d_a, d_b) x (m, U(m), Gamma(U, U)(m)) x coordinate
        m, u, c = np.moveaxis(vals.reshape(-1, 3, 3, 3), 2, 0).reshape(3, -1, 9)
        psi = np.array([m + e * u + (-0.5 * e * e) * c for e in eps_values])
        return self._areas(psi, ww)

    def integrate_riemannian(self, scalar: Expr, order=10, cells=24) -> float:
        """Integral of an ambient scalar over the patch w.r.t. dSigma."""
        params, ww = self._nodes(order, cells)
        vals = self._map_values(self.map, params)
        f1, f2 = self._tangent_frames(vals)
        g11 = np.sum(f1 * f1, axis=-1)
        g22 = np.sum(f2 * f2, axis=-1)
        g12 = np.sum(f1 * f2, axis=-1)
        ds = np.sqrt(np.maximum(g11 * g22 - g12 ** 2, 0.0))
        scalars = ex.compiled_cse([scalar], "arrays")(vals[:, :3])[:, 0]
        return float(np.sum(scalars * ds * ww))

    def min_scalar(self, scalar: Expr) -> float:
        """Least value of an ambient scalar on a 31 x 31 grid of the patch."""
        # an odd count keeps box midlines on the grid (symmetric singular loci)
        axes = [np.linspace(lo, hi, 31) for lo, hi in self.domain]
        pts = self._map_values(self.map, grid_points(*axes, [0.0]))[:, :3]
        return float(np.min(ex.compiled_cse([scalar], "arrays")(pts)))


def first_variation_numeric(patch: ParamPatch, U: VariationField, eps=1e-4,
                            order=10, cells=24) -> float:
    """Central-difference first variation of the sub-Riemannian area."""
    ap, am = patch.deformed_areas(U, [+eps, -eps], order, cells)
    return (ap - am) / (2.0 * eps)


def second_variation_numeric(patch: ParamPatch, U: VariationField, eps=1e-3,
                             order=10, cells=24) -> float:
    """Central second difference of the area at eps and eps/2, Richardson-refined."""
    steps = [eps, eps / 2.0]
    # eps = 0 is the undeformed area, from the same kernel evaluation
    a0, *areas = patch.deformed_areas(U, [0.0, *(s for e in steps for s in (+e, -e))],
                                      order, cells)
    d = [(ap - 2.0 * a0 + am) / (e * e) for e, ap, am in zip(steps, areas[::2], areas[1::2])]
    return (4.0 * d[1] - d[0]) / 3.0


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


def second_variation_terms(geom: SurfaceGeometry, p, v: float,
                           w: float) -> SecondVariationTerms:
    """Evaluate q, xi, zeta, eta of the second variation at a point for the
    variation U = v N + w T (v, w numbers here: pointwise values)."""
    c1 = geom.structure.c1
    p = tuple(float(c) for c in p)
    kernel = ex.compiled_cse([geom.H, geom.nh, geom.gNT, geom.tauZnu, geom.tauZZ, geom.thetaS,
                              geom.shape_dot(geom.Z, geom.S), geom.q_expr()], "arrays")
    h, nh, gnt, tzn, tzz, ths, b_zs, q = kernel(np.array([p]))[0].tolist()
    if abs(h) > MINIMALITY_TOL:
        raise AdmissibilityError(f"surface is not minimal at {p}: H = {h:.3e}")
    u = v + gnt * w
    coeff = nh * ths + c1 * gnt ** 2 + (1.0 + gnt ** 2) * tzn
    xi = gnt * coeff * u * u
    zeta = nh * nh * (gnt * coeff * w * w - 2.0 * b_zs * v * w)
    eta = (nh * nh * v * v - (gnt * v + w) ** 2) * tzz
    return SecondVariationTerms(point=p, q=q, xi=xi, zeta=zeta, eta=eta)


def l_of_nh(geom: SurfaceGeometry, p):
    """The stability operator applied to |N_h|, along two independent paths.

    Path A uses the pointwise frame data (theta(S), torsion components);
    path B differentiates g(N,T)/|N_h| along Z.  Returns (a, b, a - b).
    """
    st = geom.structure
    c1 = st.c1
    p = tuple(float(c) for c in p)
    st.check_point(p)
    kernel = ex.compiled_cse([st.webster_expr(), geom.nh, geom.gNT, geom.tauZnu,
                              geom.thetaS, geom.Z_of(ex.div(geom.gNT, geom.nh))], "arrays")
    w, nh, gnt, tzn, ths, z_ratio = kernel(np.array([p]))[0].tolist()
    a = (w - c1 * tzn - 2.0 * c1 * (nh * ths - nh * nh * tzn) / nh ** 2
         - c1 ** 2 * gnt ** 2 / nh ** 2)
    b = w - c1 * tzn + 2.0 * c1 * z_ratio + c1 ** 2 * gnt ** 2 / nh ** 2
    return a, b, a - b


# ---------------------------------------------------------------------------
# Characteristic-coordinate patches


def _fd4(values, h, axis=-1):
    """Fourth-order first derivative on a uniform grid of at least 7 samples
    (one-sided at ends)."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    out = np.empty_like(v)
    out[..., 2:-2] = (v[..., :-4] - 8 * v[..., 1:-3] + 8 * v[..., 3:-1]
                      - v[..., 4:]) / (12 * h)
    for i in (0, 1):
        out[..., i] = (-25 * v[..., i] + 48 * v[..., i + 1] - 36 * v[..., i + 2]
                       + 16 * v[..., i + 3] - 3 * v[..., i + 4]) / (12 * h)
        out[..., -1 - i] = -(-25 * v[..., -1 - i] + 48 * v[..., -2 - i]
                             - 36 * v[..., -3 - i] + 16 * v[..., -4 - i]
                             - 3 * v[..., -5 - i]) / (12 * h)
    return np.moveaxis(out, -1, axis)


def _median_below_zero(values):
    """Whether ``np.median(values) < 0``, decided without ``np.median``,
    whose nan check imports ``numpy.ma``: the middle value, or the mean of
    the two middle values, is below zero.  Any nan gives False, as the nan
    median does."""
    flat = np.ravel(values)
    if np.isnan(flat).any():
        return False
    k = flat.size // 2
    if flat.size % 2:
        return bool(np.partition(flat, k)[k] < 0)
    part = np.partition(flat, (k - 1, k))
    return bool((part[k - 1] + part[k]) / 2.0 < 0)


def _uniform_axis(name, grid):
    """``grid`` as a float array, checked uniform with at least 7 samples."""
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 7:
        raise ValueError(f"the {name} grid of a characteristic patch has {len(grid)} "
                         "samples; the fourth-order differences need at least 7")
    h = grid[1] - grid[0]
    dev = float(np.max(np.abs(np.diff(grid) - h)))
    if dev > 1e-9 * abs(h):
        raise ValueError(f"the {name} grid of a characteristic patch is not uniform: "
                         f"its spacing deviates by {dev:.3e} from the first step "
                         f"{h:.3e}, above 1e-9 of it")
    return grid


def _trapezoid_weights(grid):
    w = np.empty_like(grid)
    w[1:-1] = (grid[2:] - grid[:-2]) / 2.0
    w[0] = (grid[1] - grid[0]) / 2.0
    w[-1] = (grid[-1] - grid[-2]) / 2.0
    return w


def rk4_step(f, y, h):
    """One RK4 step of y' = f(y) on arrays; ``h`` broadcasts against ``y``,
    so a stack of groups can take one step size each."""
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


class CharPatch:
    """A characteristic-coordinate grid on a surface.

    points[i, j] is the j-th sample along the characteristic curve through
    the i-th base point; s is arc length along characteristics, eps arc
    length along the transverse base curve.  The Riemannian area element is
    f_eps ds deps.  Both grids are uniform with at least 7 samples, the
    stencil of the fourth-order differences in eps and s.
    """

    def __init__(self, structure, geom, eps, s, points, z_orientation=1.0):
        self.structure = structure
        self.geom = geom
        self.eps = _uniform_axis("eps", eps)
        self.s = _uniform_axis("s", s)
        self.points = np.asarray(points, dtype=float)
        # +1 when the s-parametrization runs along +Z, -1 along -Z; for fans
        # this equals g(Z, nu_exterior) at the singular curve
        self.z_orientation = float(z_orientation)
        self._scalars = {}
        self.f_eps = self._area_factor()

    # -- construction -------------------------------------------------------

    @staticmethod
    def _surface_flow(surf, field_coord_exprs, p0, s_grid):
        """RK4 flow of a surface field with per-step projection onto f = 0.

        ``p0`` is a point (3,) or a batch (n, 3) flowed over the grid
        ``s_grid`` (m,), giving (m, 3) or (n, m, 3); or a stack of groups
        (g, n, 3) with one grid per group, ``s_grid`` (g, m), giving
        (g, n, m, 3).  A group whose grid decreases flows backwards.  All
        groups step in one loop, each projected as if it flowed alone.
        """
        p0 = np.asarray(p0, dtype=float)
        grids = np.atleast_2d(np.asarray(s_grid, dtype=float))
        q = p0.reshape(len(grids), -1, 3)
        rhs = ex.compiled_cse(field_coord_exprs, "arrays")

        def f(y):
            return rhs(y.reshape(-1, 3)).reshape(y.shape)

        out = np.empty(q.shape[:2] + (grids.shape[1], 3))
        out[:, :, 0] = q
        for j in range(1, grids.shape[1]):
            h = ((grids[:, j] - grids[:, j - 1]) / FLOW_SUBSTEPS)[:, None, None]
            for _ in range(FLOW_SUBSTEPS):
                q = rk4_step(f, q, h)
            q = surf.project(q)
            out[:, :, j] = q
        return out.reshape(p0.shape[:-1] + out.shape[2:])

    @classmethod
    def _flow_at_params(cls, surf, field, p0, params):
        """Flow positions at signed parameters (0 corresponds to p0).

        ``p0`` a point (3,) or batch (n, 3); result (len(params), 3) or
        (n, len(params), 3).  The positive parameters in increasing order
        and the negative ones in decreasing order, each from p0 outwards,
        are two groups of one flow; the shorter group ends in zero-length
        steps whose points are not kept.
        """
        params = np.asarray(params, dtype=float)
        p0 = np.asarray(p0, dtype=float)
        order = np.argsort(params)
        pos, neg = order[params[order] > 0], order[params[order] < 0][::-1]
        m = max(len(pos), len(neg))
        grids = [np.pad(np.concatenate([[0.0], params[idx]]), (0, m - len(idx)), "edge")
                 for idx in (pos, neg)]
        pts = cls._surface_flow(surf, field, np.stack([p0, p0]), grids)
        out = np.empty(p0.shape[:-1] + (len(params), 3))
        out[..., params == 0, :] = p0[..., None, :]
        out[..., pos, :] = pts[0][..., 1:len(pos) + 1, :]
        out[..., neg, :] = pts[1][..., 1:len(neg) + 1, :]
        return out

    @classmethod
    def from_base_point(cls, structure, surf, seed, eps_span, s_span,
                        n_eps=21, n_s=81):
        """Patch built on the S-integral curve through ``seed``.  The seed is
        parameter 0 of both signed grids, eps over ``eps_span`` and s over
        ``s_span``: the middle of the grid when both spans are symmetric."""
        geom = surf.geometry(structure)
        seed = surf.project(seed)
        s_coord = structure.frame_to_coordinate(list(geom.S))
        z_coord = structure.frame_to_coordinate(list(geom.Z))
        eps = np.linspace(eps_span[0], eps_span[1], n_eps)
        s = np.linspace(s_span[0], s_span[1], n_s)
        base = cls._flow_at_params(surf, s_coord, seed, eps)
        pts = cls._flow_at_params(surf, z_coord, base, s)
        return cls(structure, geom, eps, s, pts)

    @classmethod
    def fan_from_curve(cls, structure, surf, curves, s_max,
                       n_eps=21, n_s=61):
        """Two one-sided patches emanating from each of a list of singular
        curves.

        ``curves`` holds (gamma, eps_span) pairs; ``gamma(e)`` returns the
        curve point at arc-length parameter e.  Returns one (side_plus,
        side_minus, gamma_samples) per curve.  The rays are parametrized
        away from the curve along sigma Z with sigma = +-1 chosen per side so
        the flow leaves the curve; sigma = g(Z, nu_exterior) is recorded as
        ``z_orientation``.  Every side of every curve is integrated in one
        flow: a side with sigma = -1 flows Z along -s.
        """
        geom = surf.geometry(structure)
        z_coord = structure.frame_to_coordinate(list(geom.Z))
        s = np.linspace(FAN_S_MIN, s_max, n_s)
        eps_all, gpts_all, starts = [], [], []
        for gamma, eps_span in curves:
            eps = np.linspace(eps_span[0], eps_span[1], n_eps)
            gpts = surf.project([gamma(e) for e in eps])
            eps_all.append(eps)
            gpts_all.append(gpts)
            starts.extend(_fan_starts(structure, geom, surf, gpts, s[0]))
        starts = np.stack(starts)
        # orient each side's flow away from its curve: compare Z at the middle
        # stepped point with the outward step direction
        mid = n_eps // 2
        q_mid = starts[:, mid]
        g_mid = np.repeat([g[mid] for g in gpts_all], 2, axis=0)
        z_mid = ex.compiled_cse(geom.Z, "arrays")(q_mid)
        out_dir = structure.frame_components(q_mid, q_mid - g_mid)
        sigmas = np.where(np.vecdot(z_mid, out_dir) >= 0, 1.0, -1.0)
        pts = cls._surface_flow(surf, z_coord, starts, np.outer(sigmas, s))
        sides = [cls(structure, geom, eps_all[k // 2], s, pts[k], z_orientation=sigma)
                 for k, sigma in enumerate(sigmas)]
        return [(sides[2 * c], sides[2 * c + 1], gpts) for c, gpts in enumerate(gpts_all)]

    # -- grid data ------------------------------------------------------------

    def scalar(self, e: Expr) -> np.ndarray:
        """The grid of ``e`` over the patch points.  The first request for
        any of g(N,T), theta(S), g(tau(Z),nu), g(tau(Z),Z), H and q
        evaluates all six from one kernel; |N_h| and any other expression
        get a kernel of their own."""
        key = id(e)
        if key not in self._scalars:
            geom = self.geom
            fields = [geom.gNT, geom.thetaS, geom.tauZnu, geom.tauZZ, geom.H, geom.q_expr()]
            exprs = fields if any(e is f for f in fields) else [e]
            vals = ex.compiled_cse(exprs, "arrays")(self.points.reshape(-1, 3))
            for f, col in zip(exprs, vals.T.copy()):   # contiguous: sums may depend on layout
                self._scalars[id(f)] = col.reshape(self.points.shape[:2])
        return self._scalars[key]

    def _area_factor(self):
        v = _fd4(self.points, self.eps[1] - self.eps[0], axis=0)
        comps = self.structure.frame_components(self.points.reshape(-1, 3),
                                                v.reshape(-1, 3))
        vt = comps[:, 2].reshape(self.points.shape[:2])
        nh = self.scalar(self.geom.nh)
        f = -vt / nh
        if _median_below_zero(f):
            f = -f
        bad = np.flatnonzero(~(f > 0))
        if len(bad):
            first = np.unravel_index(bad[0], f.shape)
            raise ValueError(
                f"area factor f_eps not positive and finite at {len(bad)} of {f.size} "
                f"grid points, first at (eps, s) index {tuple(map(int, first))} with "
                f"value {f[first]:.3e}; patch folded, crossed the singular set or "
                "holds a non-finite point")
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
        return self.z_orientation * _fd4(grid, self.s[1] - self.s[0], axis=1)

    def max_h(self) -> float:
        return float(np.max(np.abs(self.scalar(self.geom.H))))


def _fan_starts(structure, geom, surf, gpts, ds):
    """First points of both sides of a fan off the singular-curve points gpts
    (n, 3): steps of +ds and -ds along the limit characteristic direction (J
    of the curve tangent), projected back to the surface; a (2, n, 3) array.

    The curve tangent is the kernel direction of the Jacobian of (f, Xf, Yf);
    its sign (arbitrary from the SVD) is aligned with ``np.gradient`` of the
    points, so the rays of each side all step off to one side of the curve.
    """
    with np.errstate(all="ignore"):
        vals = ex.compiled_cse(geom.singular_exprs(), "arrays")(gpts)
    tan = np.linalg.svd(vals[:, 3:].reshape(-1, 3, 3))[2][:, -1]
    tan = np.where((np.vecdot(tan, np.gradient(gpts, axis=0)) < 0)[:, None], -tan, tan)
    return step_off_curve(structure, surf, gpts, tan, (ds, -ds))[1]


def _bulk(patch: CharPatch, u, needs: str, flat=slice(0)):
    """(int { |N_h|^-1 Z(u)^2 + q u^2 } dSigma, Z(u)) for the grid u on a
    minimal patch, Z(u) taken as 0 on the s columns ``flat``; ``needs``
    opens the error raised when max |H| > MINIMALITY_TOL."""
    if patch.max_h() > MINIMALITY_TOL:
        raise AdmissibilityError(f"{needs} (max |H| = {patch.max_h():.2e})")
    zu = patch.z_derivative(u)
    zu[:, flat] = 0.0
    nh = patch.scalar(patch.geom.nh)
    q = patch.scalar(patch.geom.q_expr())
    return patch.integrate(zu * zu / nh + q * u * u), zu


@dataclass
class IndexFormResult:
    value: float
    operator_value: float


def index_form(patch: CharPatch, u_fn) -> IndexFormResult:
    """I(u, u) = int { |N_h|^-1 Z(u)^2 + q u^2 } dSigma on the patch,
    together with the operator form -int u L(u) dSigma; the two paths are
    asserted to agree within INDEX_FORM_AGREEMENT_TOL (1 + |I(u, u)|)."""
    geom = patch.geom
    st = patch.structure
    u = patch.u_grid(u_fn)
    value, zu = _bulk(patch, u, "index form requires a minimal patch")
    nh = patch.scalar(geom.nh)
    q = patch.scalar(geom.q_expr())
    # operator path: L(u) = nh^-1 { Z(Z(u)) + gNT nh^-1 (-2 nh thetaS - c1
    # + 2 nh^2 (c1 + tauZnu)) Z(u) } - q u
    zzu = patch.z_derivative(zu)
    gnt = patch.scalar(geom.gNT)
    ths = patch.scalar(geom.thetaS)
    tzn = patch.scalar(geom.tauZnu)
    c1 = st.c1
    coeff = gnt / nh * (-2.0 * nh * ths - c1 + 2.0 * nh ** 2 * (c1 + tzn))
    lu = (zzu + coeff * zu) / nh - q * u
    op_value = -patch.integrate(u * lu)
    diff, bound = abs(value - op_value), INDEX_FORM_AGREEMENT_TOL * (1.0 + abs(value))
    if diff > bound:
        raise AdmissibilityError(
            f"index form and operator form disagree: {value:.6g} vs "
            f"{op_value:.6g}, difference {diff:.3e} above the tolerance {bound:.3e} = "
            f"{INDEX_FORM_AGREEMENT_TOL:g} (1 + |I|) (patch too coarse?)")
    return IndexFormResult(value=value, operator_value=op_value)


# ---------------------------------------------------------------------------
# Pasted stability quadratic Q(u) and singular-curve second variation


@dataclass
class QReport:
    value: float
    bulk: float
    boundary_u2: float
    boundary_su2: float


def _gamma_weights(gpts):
    seg = np.linalg.norm(np.diff(gpts, axis=0), axis=1)
    w = np.zeros(len(gpts))
    w[:-1] += seg / 2.0
    w[1:] += seg / 2.0
    return w


def _fan_grids(sides, gamma_points, u_fn):
    """The shared data of an integral over a two-sided fan: the weights on
    Gamma, u on Gamma, each side's grid u_fn(eps, sgn s) (sgn = +1 on the
    first side, -1 on the second) and int_Gamma S(u)^2 dGamma."""
    side_p, side_m = sides
    gw = _gamma_weights(gamma_points)
    u_gamma = np.asarray(u_fn(side_p.eps, np.zeros_like(side_p.eps)), dtype=float)
    grids = [patch.u_grid(lambda e, s, sgn=sgn: u_fn(e, sgn * s))
             for sgn, patch in ((+1.0, side_p), (-1.0, side_m))]
    # S(u)^2 along the curve: S is tangent to Gamma at the singular curve
    su = _fd4(u_gamma, side_p.eps[1] - side_p.eps[0])
    return gw, u_gamma, grids, float(np.sum(su ** 2 * gw))


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
    # linear extrapolation to s = 0 through the first two s-samples
    s0, s1 = patch.s[0], patch.s[1]
    w1 = s1 / (s1 - s0)
    return w1 * f[:, 0] - (w1 - 1.0) * f[:, 1]


def stability_quadratic_Q(sides, gamma_points, u_fn, tube_radius=0.1) -> QReport:
    """Pasted stability quadratic

        Q(u) = int { |N_h|^-1 Z(u)^2 + q u^2 } dSigma
               + 2 int_Gamma (xi + zeta) g(Z, nu) u^2 dGamma
               + int_Gamma S(u)^2 dGamma,

    evaluated over a two-sided characteristic fan from a singular curve.
    ``u_fn(eps, s)`` must have Z(u) = 0 for |s| <= tube_radius (checked to
    ADMISSIBILITY_TOL).
    The u^2 boundary term enters with g(Z, nu_exterior) = z_orientation of
    each side; its limit coefficient is sgn(g(N,T)) (c1 + 2 g(tauZ,nu)).
    """
    gw, u_gamma, grids, boundary_su2 = _fan_grids(sides, gamma_points, u_fn)
    bulk = 0.0
    boundary_u2 = 0.0
    for patch, u in zip(sides, grids):
        # Z(u) = 0 inside the tube, exact by admissibility; avoids FD bleed
        in_tube = patch.s <= tube_radius
        bulk += _bulk(patch, u, "Q requires a minimal surface", in_tube)[0]
        if np.any(in_tube):
            # admissibility: u constant along characteristics inside the tube
            tube_vals = u[:, in_tube]
            worst = float(np.max(np.abs(tube_vals - tube_vals[:, :1])))
            if worst > ADMISSIBILITY_TOL:
                raise AdmissibilityError(
                    f"u is not admissible: varies by {worst:.3e} along "
                    f"characteristics inside the tube of radius {tube_radius}, "
                    f"above the tolerance {ADMISSIBILITY_TOL:.1e}")
        cf = _limit_coefficient(patch) * patch.z_orientation
        boundary_u2 += float(np.sum(cf * u_gamma ** 2 * gw))
    value = bulk + boundary_u2 + boundary_su2
    return QReport(value=value, bulk=bulk, boundary_u2=boundary_u2,
                   boundary_su2=boundary_su2)


def _constant_w_bulk(patch: CharPatch, w: np.ndarray, where: str) -> float:
    """int 2 w^2 |N_h| (g(tauZ,nu)^2 + g(tauZ,Z)^2) dSigma over the patch for
    a grid w that must be constant along characteristics ``where``."""
    worst = float(np.max(np.abs(patch.z_derivative(w))))
    if worst > CONSTANCY_TOL:
        raise AdmissibilityError(
            f"w must be constant {where} (max |Z(w)| = {worst:.3e}, "
            f"above the tolerance {CONSTANCY_TOL:.1e})")
    nh = patch.scalar(patch.geom.nh)
    tzn = patch.scalar(patch.geom.tauZnu)
    tzz = patch.scalar(patch.geom.tauZZ)
    return patch.integrate(2.0 * w * w * nh * (tzn ** 2 + tzz ** 2))


def singular_curve_second_variation(sides, gamma_points, w_fn) -> float:
    """Second variation of a vertical variation supported near a singular
    curve:  int 2 w^2 |N_h| (g(tauZ,nu)^2 + g(tauZ,Z)^2) dSigma
    + boundary flux of w^2 g(tauZ,Z) S + int_Gamma S(w)^2 dGamma.

    ``w_fn(eps, s)`` must be constant along characteristics (s-independent)
    in the fan; the divergence term is evaluated as its boundary flux, which
    vanishes on the s-edges since g(S, Z) = 0.
    """
    _, _, grids, sw2 = _fan_grids(sides, gamma_points, w_fn)
    total = 0.0
    for patch, w in zip(sides, grids):
        total += _constant_w_bulk(patch, w, "along characteristics")
        # flux of w^2 g(tauZ,Z) S through the far s-edge: conormal there is
        # Z, and g(S, Z) = 0, so the contribution vanishes identically.
    return total + sw2


def isolated_point_second_variation(sides, w_fn) -> float:
    """Isolated-singular-point variant: w constant near the point, so only
    the bulk term int 2 w^2 |N_h| (g(tauZ,nu)^2 + g(tauZ,Z)^2) dSigma remains
    (no curve or divergence contributions).  ``sides`` is any tuple of
    characteristic patches covering the tubular neighborhood."""
    total = 0.0
    for patch in sides:
        total += _constant_w_bulk(patch, patch.u_grid(w_fn), "near the singular point")
    return total


# ---------------------------------------------------------------------------
# Stability sign field


@dataclass
class SignFieldReport:
    minimum: float
    maximum: float
    classification: str
    samples: int


def stability_sign_field(geom: SurfaceGeometry, points) -> SignFieldReport:
    """Sample W - c1 g(tau(Z), nu_h) over surface points and classify."""
    pts = np.asarray(points, dtype=float)
    vals = ex.compiled_cse([geom.criterion], "arrays")(pts)[:, 0]
    mn, mx = float(np.min(vals)), float(np.max(vals))
    if mx <= SIGN_FIELD_TOL:
        cls = "nonpositive-everywhere"
    elif mn > SIGN_FIELD_TOL:
        cls = "positive-everywhere"
    else:
        cls = "positive-somewhere"
    return SignFieldReport(minimum=mn, maximum=mx, classification=cls,
                           samples=len(pts))


def criterion_range_unimodular(c2: float, c3: float):
    """Range of W - c1 g(tau(Z), nu_h) over all horizontal normal directions
    in a unimodular group; a vertical surface realizes some subset of it."""
    from .structures import unimodular_structure
    st = unimodular_structure(c2, c3)
    w = st.meta["webster_closed_form"]
    m = st.tau_matrix((0.0, 0.0, 0.0))
    psis = np.linspace(0.0, np.pi, 721)
    vals = []
    for psi in psis:
        nu = np.array([np.cos(psi), np.sin(psi)])
        z = np.array([-st.sgn_c1 * nu[1], st.sgn_c1 * nu[0]])
        vals.append(w - st.c1 * float(z @ m @ nu))
    return float(np.min(vals)), float(np.max(vals))
