"""Characteristic curves, sub-Riemannian geodesics and Jacobi-like fields.

Characteristic curves solve ``nabla_Z Z + c1 lambda J(Z) = 0``.  We integrate
them in (point, angle) form with Z = cos(phi) X + sin(phi) Y, which keeps the
horizontal speed exactly 1: the angle equation is

    dphi/ds = -|c1| lambda - Gamma(p, phi),

where Gamma collects the connection coefficients
``g(nabla_Z(cos phi X + sin phi Y), Zperp)`` and Zperp = -sin(phi) X +
cos(phi) Y.  With this form the residual of the characteristic equation
against J(Z) vanishes identically.

Geodesics augment the system with ``dlambda/ds = -(1/c1) g(tau(Z), Z)``.

The vertical Jacobi equation integrated here is

    y''' + beta1(s) y' + c1 beta2(s) y = 0,       y = g(V, T),

with  beta1 = W + c1 g(tau(Z), J(Z)) + c1^2 lambda^2  and
      beta2 = c1 lambda g(tau(Z), Z) + g(R(Z,T)Z, J(Z)) + d/ds g(tau(Z), J(Z)).

Note the signs of the tau terms: they follow from differentiating
``g(V,T)' = c1 g(J(Z), V)`` twice along the curve and are validated against
finite-difference curve families (see tests); on the roto-translation group
they reproduce the constant k = g(Z, X)^2 of the straight characteristic
foliations exactly.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from .structures import StructureSpec, StructureError


@dataclass(frozen=True)
class CharState:
    """Initial data for a characteristic curve: point, angle, curvature."""

    point: tuple
    phi: float
    lam: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "point", tuple(float(v) for v in self.point))
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "lam", float(self.lam))


@dataclass
class CurveTrace:
    s: np.ndarray
    points: np.ndarray          # shape (n, 3)
    phi: np.ndarray
    lam: np.ndarray
    truncated: bool = False

    def __len__(self):
        return len(self.s)

    def to_csv(self, extra=()) -> str:
        """CSV of s, x, y, t, phi, lambda and the (name, values) columns of
        ``extra``, each value as ``%.17g`` with a negative zero written as 0."""
        cols = ["s", "x", "y", "t", "phi", "lambda"]
        data = [self.s, self.points[:, 0], self.points[:, 1], self.points[:, 2],
                self.phi, self.lam]
        for name, values in extra:
            cols.append(name)
            data.append(values)
        buf = io.StringIO()
        buf.write(",".join(cols) + "\n")
        for row in zip(*data):
            buf.write(",".join("%.17g" % (v + 0.0) for v in row) + "\n")
        return buf.getvalue()


@dataclass
class JacobiTrace:
    s: np.ndarray
    vt: np.ndarray
    vt_prime: np.ndarray
    vt_second: np.ndarray
    base: CurveTrace | None = None
    gVZ: np.ndarray | None = None
    gVJZ: np.ndarray | None = None


def _require_chart(structure: StructureSpec):
    if structure.kind == "lie-group":
        raise StructureError(
            "curve integration needs a coordinate-frame structure; lie-group "
            "specs carry frame-level geometry only")


def _char_system(structure: StructureSpec) -> "_CharSystem":
    """The structure's right-hand-side system, built on first use and kept
    on the structure, so every curve on one structure shares its kernels."""
    sysm = getattr(structure, "_char_system", None)
    if sysm is None:
        sysm = structure._char_system = _CharSystem(structure)
    return sysm


class _CharSystem:
    """Right-hand sides shared by the characteristic, geodesic and Jacobi
    integrators.

    The coefficients come from two multi-output ``math`` kernels, each
    compiled once, on first use:

    * characteristic: the coordinate rows of X and Y, then the
      pseudo-hermitian Christoffels g(nabla_{E_a} E_b, E_k) for a, b, k < 2;
    * Jacobi: tau_00, tau_01, tau_11, their d/dx, d/dy, d/dt, the Webster
      curvature W, then g(R(E_a, T) E_c, E_d) for a, c, d < 2.

    A right-hand side makes one call per kernel it needs; the rest is float
    arithmetic, so the RK4 loops never walk expression trees.
    """

    def __init__(self, structure: StructureSpec):
        _require_chart(structure)
        self.st = structure
        self.c1 = structure.c1
        self.abs_c1 = abs(structure.c1)
        self.sgn_c1 = structure.sgn_c1

    @cached_property
    def _char_kernel(self):
        st = self.st
        ph = [st._ph[a][b][k] for a in range(2) for b in range(2) for k in range(2)]
        return ex.compiled_cse([*st.frame[0], *st.frame[1], *ph], "math")

    @cached_property
    def _jacobi_kernel(self):
        st = self.st
        tau = st.tau_matrix_exprs()
        m = (tau[0][0], tau[0][1], tau[1][1])
        rzt = [st.curvature_expr(a, 2, c, d)
               for a in range(2) for c in range(2) for d in range(2)]
        return ex.compiled_cse([*m, *(e.diff(k) for e in m for k in range(3)),
                                st.webster_expr(), *rzt], "math")

    def _char_terms(self, x, y, t, phi, lam):
        """cos(phi), sin(phi), the coordinate velocity cos(phi) X + sin(phi) Y
        and dphi/ds = -|c1| lam - Gamma(p, phi), from one kernel call."""
        k = self._char_kernel(x, y, t)
        c, s2 = math.cos(phi), math.sin(phi)
        dp = (c * k[0] + s2 * k[3], c * k[1] + s2 * k[4], c * k[2] + s2 * k[5])
        # Gamma = sum over a, b < 2 of w_a w_b g(nabla_{E_a} E_b, Zperp) with
        # w = (c, s2); starting from 0.0 makes a sum of zeros +0.0, not -0.0
        gamma = (0.0 + c * c * (-s2 * k[6] + c * k[7])
                 + c * s2 * (-s2 * k[8] + c * k[9])
                 + s2 * c * (-s2 * k[10] + c * k[11])
                 + s2 * s2 * (-s2 * k[12] + c * k[13]))
        return c, s2, dp, -self.abs_c1 * lam - gamma

    def _betas(self, j, c, s2, lam, dp, dphi):
        """(beta1, beta2) from the Jacobi kernel values j at a state whose
        flow is (dp, dphi)."""
        sgn, c1 = self.sgn_c1, self.c1
        m00, m01, m11 = j[0], j[1], j[2]
        tzz = m00 * c * c + 2 * m01 * c * s2 + m11 * s2 * s2      # g(tau(Z), Z)
        tzj = sgn * (m01 * (c * c - s2 * s2) + (m11 - m00) * c * s2)
        # d/ds g(tau(Z), J(Z)) along the flow
        cos2, sin2 = c * c - s2 * s2, 2 * c * s2
        spatial = 0.0
        for i in range(3):
            dm00, dm01, dm11 = j[3 + i], j[6 + i], j[9 + i]
            spatial += dp[i] * (dm01 * cos2 + 0.5 * (dm11 - dm00) * sin2)
        angular = (-2 * m01 * sin2 + (m11 - m00) * cos2) * dphi
        dtzj = sgn * (spatial + angular)
        # g(R(Z, T) Z, J(Z))
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
        """(x, y, t, phi)' on a characteristic curve of curvature lam."""
        x, y, t, phi = state
        _, _, dp, dphi = self._char_terms(x, y, t, phi, lam)
        return np.array([dp[0], dp[1], dp[2], dphi])

    def geodesic_rhs(self, state):
        """(x, y, t, phi, lam)' on a geodesic: lam' = -(1/c1) g(tau(Z), Z)."""
        x, y, t, phi, lam = state
        c, s2, dp, dphi = self._char_terms(x, y, t, phi, lam)
        m00, m01, m11 = self._jacobi_kernel(x, y, t)[:3]
        tzz = m00 * c * c + 2 * m01 * c * s2 + m11 * s2 * s2
        return np.array([dp[0], dp[1], dp[2], dphi, -tzz / self.c1])

    def jacobi_rhs(self, state, lam):
        """(x, y, t, phi, v, v', v'')' for a characteristic curve of
        curvature lam and the vertical Jacobi equation in v = g(V, T)."""
        x, y, t, phi, vt, vtp, vtpp = state
        c, s2, dp, dphi = self._char_terms(x, y, t, phi, lam)
        b1, b2 = self._betas(self._jacobi_kernel(x, y, t), c, s2, lam, dp, dphi)
        vtppp = -b1 * vtp - self.c1 * b2 * vt
        return np.array([dp[0], dp[1], dp[2], dphi, vtp, vtpp, vtppp])

    def beta_coeffs(self, p, phi, lam):
        """(beta1, beta2) at the point p and angle phi."""
        x, y, t = p
        c, s2, dp, dphi = self._char_terms(x, y, t, phi, lam)
        return self._betas(self._jacobi_kernel(x, y, t), c, s2, lam, dp, dphi)


def rk4_step(f, y, h):
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate_ode(f, y0, s_span, step):
    """Fixed-step RK4 over ``s_span``, the step shrunk to divide it evenly.

    Returns (s_values, states); deterministic for fixed seeds and steps.
    """
    s0, s1 = float(s_span[0]), float(s_span[1])
    if s1 == s0:
        return np.array([s0]), np.array([y0], dtype=float)
    n = max(int(round(abs(s1 - s0) / abs(step))), 1)
    h = (s1 - s0) / n
    s, y = s0, np.asarray(y0, dtype=float)
    ss, ys = [s], [y]
    for _ in range(n):
        y = rk4_step(f, y, h)
        s += h
        ss.append(s)
        ys.append(y)
    return np.array(ss), np.array(ys)


def _integrate(structure, point, rhs, y0, s_range, step):
    """RK4 of ``rhs`` from ``y0`` (whose first three entries are ``point``),
    cut before the first state outside the chart.

    Returns (s_values, states, truncated)."""
    structure.check_point(point)
    ss, ys = integrate_ode(rhs, y0, s_range, step)
    cut = _truncate_outside(structure, ys)
    return ss[:cut], ys[:cut], cut is not None


def _truncate_outside(structure, ys):
    """Index of the first state outside the chart (at least 1, so a trace
    keeps its start), or None; a NaN coordinate counts as outside."""
    lo, hi = np.array(structure.chart_domain).T
    p = ys[:, :3]
    outside = np.flatnonzero(~np.all((lo - 1e-9 <= p) & (p <= hi + 1e-9), axis=1))
    return max(int(outside[0]), 1) if len(outside) else None


def integrate_characteristic(structure: StructureSpec, init: CharState,
                             s_range=(0.0, 10.0), step=1e-3) -> CurveTrace:
    """Integrate a characteristic curve of curvature init.lam."""
    sysm = _char_system(structure)
    lam = init.lam
    ss, ys, cut = _integrate(structure, init.point, lambda y: sysm.char_rhs(y, lam),
                             np.array([*init.point, init.phi]), s_range, step)
    return CurveTrace(s=ss, points=ys[:, :3], phi=ys[:, 3],
                      lam=np.full(len(ss), lam), truncated=cut)


def integrate_geodesic(structure: StructureSpec, init: CharState,
                       s_range=(0.0, 10.0), step=1e-3) -> CurveTrace:
    """Integrate a sub-Riemannian geodesic: characteristic system plus
    dlambda/ds = -(1/c1) g(tau(Z), Z)."""
    sysm = _char_system(structure)
    ss, ys, cut = _integrate(structure, init.point, sysm.geodesic_rhs,
                             np.array([*init.point, init.phi, init.lam]), s_range, step)
    return CurveTrace(s=ss, points=ys[:, :3], phi=ys[:, 3], lam=ys[:, 4], truncated=cut)


def rt_characteristic_closed_form(init, t):
    """Closed-form zero-curvature characteristic curve of the roto-translation
    group from initial data (x0, y0, a0, dx0, dy0, da0).

    The radius R0 is taken with the sign of the Y-component of the initial
    velocity (the displayed formulas assume it positive) so that the formula
    reproduces the requested initial velocity exactly.  The initial velocity
    must be horizontal: sin(a0) dx0 - cos(a0) dy0 = 0.
    """
    x0, y0, a0, dx0, dy0, da0 = (float(v) for v in init)
    vert = np.sin(a0) * dx0 - np.cos(a0) * dy0
    if abs(vert) > 1e-9:
        raise ValueError(f"initial velocity not horizontal (g(v,T) = {vert:.3e})")
    r0 = np.cos(a0) * dx0 + np.sin(a0) * dy0
    t = np.asarray(t, dtype=float)
    if abs(da0) < 1e-15:
        return np.stack([x0 + r0 * np.cos(a0) * t,
                         y0 + r0 * np.sin(a0) * t,
                         np.broadcast_to(a0, t.shape).copy()], axis=-1)
    a_t = a0 + da0 * t
    return np.stack([x0 + (r0 / da0) * (np.sin(a_t) - np.sin(a0)),
                     y0 + (r0 / da0) * (np.cos(a0) - np.cos(a_t)),
                     a_t], axis=-1)


def jacobi_vertical_ode(structure: StructureSpec, init: CharState,
                        jacobi_init, s_range=(0.0, 10.0), step=1e-3) -> JacobiTrace:
    """Integrate the vertical Jacobi equation along a characteristic curve.

    ``jacobi_init`` is (g(V,T), g(V,T)', g(V,T)'') at s = 0.  The curve and
    the third-order scalar equation are integrated jointly so the
    coefficients beta1, beta2 are evaluated exactly along the curve; the run
    stops at the chart edge like the curve alone would, recorded in
    ``base.truncated``.
    """
    sysm = _char_system(structure)
    lam = init.lam
    ss, ys, cut = _integrate(structure, init.point, lambda y: sysm.jacobi_rhs(y, lam),
                             np.array([*init.point, init.phi, *jacobi_init]),
                             s_range, step)
    base = CurveTrace(s=ss, points=ys[:, :3], phi=ys[:, 3], lam=np.full(len(ss), lam),
                      truncated=cut)
    return JacobiTrace(s=ss, vt=ys[:, 4], vt_prime=ys[:, 5], vt_second=ys[:, 6],
                       base=base)


def jacobi_from_curve_family(structure: StructureSpec, transverse,
                             lam=0.0, s_range=(0.0, 10.0), step=1e-3,
                             eps=1e-4) -> JacobiTrace:
    """Finite-difference Jacobi oracle.

    ``transverse(e)`` returns the CharState of the family member at parameter
    e, curvature included; ``lam`` is not read.  The field V = dF/de at e = 0
    is approximated by central differences of the integrated curves and
    expressed in the frame along the base curve.
    """
    base = integrate_characteristic(structure, transverse(0.0), s_range, step)
    plus = integrate_characteristic(structure, transverse(+eps), s_range, step)
    minus = integrate_characteristic(structure, transverse(-eps), s_range, step)
    n = min(len(base), len(plus), len(minus))
    dcoord = (plus.points[:n] - minus.points[:n]) / (2.0 * eps)
    comps = structure.frame_components(base.points[:n], dcoord)
    c, s2 = np.cos(base.phi[:n]), np.sin(base.phi[:n])
    vt = comps[:, 2]
    gvz = comps[:, 0] * c + comps[:, 1] * s2
    gvjz = structure.sgn_c1 * (-comps[:, 0] * s2 + comps[:, 1] * c)
    vt_prime = np.gradient(vt, base.s[:n])
    vt_second = np.gradient(vt_prime, base.s[:n])
    trimmed = CurveTrace(s=base.s[:n], points=base.points[:n], phi=base.phi[:n],
                         lam=base.lam[:n])
    return JacobiTrace(s=base.s[:n], vt=vt, vt_prime=vt_prime, vt_second=vt_second,
                       base=trimmed, gVZ=gvz, gVJZ=gvjz)


def first_integral(trace: JacobiTrace) -> np.ndarray:
    """lambda g(V,T) + g(V, Z) along the family; constant on sub-Riemannian
    geodesics with g(tau(Z),Z) = 0."""
    if trace.gVZ is None:
        raise ValueError("first integral needs a curve-family trace with gVZ")
    return trace.base.lam * trace.vt + trace.gVZ
