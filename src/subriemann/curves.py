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


# rows per block of CurveTrace.to_csv: a 10^4-row table formatted whole
# raises the peak memory of `curve integrate` by about 10 %
_CSV_BLOCK = 512

# the most RK4 steps one integration may take: 100 times the longest run of
# the benchmark, 10^4 steps; a run inside the chart keeps every state
MAX_STEPS = 10 ** 6


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
        row = ",".join(["%.17g"] * len(cols)) + "\n"
        buf = io.StringIO()
        buf.write(",".join(cols) + "\n")
        for i in range(0, len(self.s), _CSV_BLOCK):
            block = np.column_stack([d[i:i + _CSV_BLOCK] for d in data]) + 0.0
            buf.writelines(row % tuple(r) for r in block.tolist())
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


def _char_kernel(structure: StructureSpec):
    """The characteristic coefficient kernel: the coordinate rows of X and Y,
    then the pseudo-hermitian Christoffels g(nabla_{E_a} E_b, E_k) for
    a, b, k < 2, as one ``math`` kernel.  ``compiled_cse`` keeps it, so every
    curve on equal frames shares it."""
    if structure.kind == "lie-group":
        raise StructureError(
            "curve integration needs a coordinate-frame structure; lie-group "
            "specs carry frame-level geometry only")
    ph = structure._ph
    return ex.compiled_cse([*structure.frame[0], *structure.frame[1],
                            *(ph[a][b][k] for a in range(2) for b in range(2)
                              for k in range(2))], "math")


def _jacobi_kernel(structure: StructureSpec):
    """The Jacobi coefficient kernel: tau_00, tau_01, tau_11, their d/dx,
    d/dy, d/dt, the Webster curvature W, then g(R(E_a, T) E_c, E_d) for
    a, c, d < 2."""
    tau = structure.tau_matrix_exprs()
    m = (tau[0][0], tau[0][1], tau[1][1])
    rzt = [structure.curvature_expr(a, 2, c, d)
           for a in range(2) for c in range(2) for d in range(2)]
    return ex.compiled_cse([*m, *(e.diff(k) for e in m for k in range(3)),
                            structure.webster_expr(), *rzt], "math")


# Each right-hand side below is one closure, built once per run with the
# curvature bound: it makes one call per kernel it needs and does the rest as
# float arithmetic, so the RK4 loop never walks expression trees.


def _char_flow(structure: StructureSpec, lam):
    """(x, y, t, phi) -> (x, y, t, phi)' on a characteristic curve of
    curvature lam, from one kernel call."""
    kernel, abs_c1 = _char_kernel(structure), abs(structure.c1)

    def rhs(state):
        x, y, t, phi = state
        return _char_terms(kernel(x, y, t), phi, lam, abs_c1)[2]
    return rhs


def _geodesic_flow(structure: StructureSpec):
    """(x, y, t, phi, lam) -> its derivative on a geodesic: the
    characteristic flow of curvature lam and lam' = -(1/c1) g(tau(Z), Z),
    from one call of each kernel."""
    ckernel, jkernel = _char_kernel(structure), _jacobi_kernel(structure)
    c1, abs_c1 = structure.c1, abs(structure.c1)

    def rhs(state):
        x, y, t, phi, lam = state
        c, s2, flow = _char_terms(ckernel(x, y, t), phi, lam, abs_c1)
        m00, m01, m11 = jkernel(x, y, t)[:3]
        return (*flow, -_tau_zz(m00, m01, m11, c, s2) / c1)
    return rhs


def _jacobi_flow(structure: StructureSpec, lam):
    """(x, y, t, phi, v, v', v'') -> its derivative for a characteristic
    curve of curvature lam and the vertical Jacobi equation in v = g(V, T),
    from one call of each kernel."""
    ckernel, jkernel = _char_kernel(structure), _jacobi_kernel(structure)
    c1, abs_c1, sgn = structure.c1, abs(structure.c1), structure.sgn_c1

    def rhs(state):
        x, y, t, phi, vt, vtp, vtpp = state
        c, s2, flow = _char_terms(ckernel(x, y, t), phi, lam, abs_c1)
        dx, dy, dt, dphi = flow
        (m00, m01, m11, m00x, m00y, m00t, m01x, m01y, m01t, m11x, m11y, m11t,
         webster, r000, r001, r010, r011, r100, r101, r110, r111) = jkernel(x, y, t)
        tzz = _tau_zz(m00, m01, m11, c, s2)
        tzj = sgn * (m01 * (c * c - s2 * s2) + (m11 - m00) * c * s2)
        # d/ds g(tau(Z), J(Z)) along the flow
        cos2, sin2 = c * c - s2 * s2, 2 * c * s2
        spatial = (0.0 + dx * (m01x * cos2 + 0.5 * (m11x - m00x) * sin2)
                   + dy * (m01y * cos2 + 0.5 * (m11y - m00y) * sin2)
                   + dt * (m01t * cos2 + 0.5 * (m11t - m00t) * sin2))
        angular = (-2 * m01 * sin2 + (m11 - m00) * cos2) * dphi
        dtzj = sgn * (spatial + angular)
        # g(R(Z, T) Z, J(Z)) with Z = (c, s2) and J(Z) = (jc, js)
        jc, js = -sgn * s2, sgn * c
        r_term = (0.0 + c * c * jc * r000 + c * c * js * r001
                  + c * s2 * jc * r010 + c * s2 * js * r011
                  + s2 * c * jc * r100 + s2 * c * js * r101
                  + s2 * s2 * jc * r110 + s2 * s2 * js * r111)
        beta1 = webster + c1 * tzj + c1 ** 2 * lam ** 2
        beta2 = c1 * lam * tzz + r_term + dtzj
        return (*flow, vtp, vtpp, -beta1 * vtp - c1 * beta2 * vt)
    return rhs


def _char_terms(k, phi, lam, abs_c1):
    """cos(phi), sin(phi) and the characteristic flow (x, y, t, phi)' of
    curvature lam from the characteristic kernel values k at the point: the
    coordinate velocity cos(phi) X + sin(phi) Y and
    dphi/ds = -|c1| lam - Gamma(p, phi)."""
    x0, x1, x2, y0, y1, y2, n000, n001, n010, n011, n100, n101, n110, n111 = k
    c, s2 = math.cos(phi), math.sin(phi)
    # Gamma = sum over a, b < 2 of w_a w_b g(nabla_{E_a} E_b, Zperp) with
    # w = (c, s2); starting from 0.0 makes a sum of zeros +0.0, not -0.0
    gamma = (0.0 + c * c * (-s2 * n000 + c * n001)
             + c * s2 * (-s2 * n010 + c * n011)
             + s2 * c * (-s2 * n100 + c * n101)
             + s2 * s2 * (-s2 * n110 + c * n111))
    return c, s2, (c * x0 + s2 * y0, c * x1 + s2 * y1, c * x2 + s2 * y2,
                   -abs_c1 * lam - gamma)


def _tau_zz(m00, m01, m11, c, s2):
    """g(tau(Z), Z) for Z = c X + s2 Y from the torsion entries."""
    return m00 * c * c + 2 * m01 * c * s2 + m11 * s2 * s2


# RK4 steps of y' = f(y) for the three state lengths in use (characteristic
# 4, geodesic 5, Jacobi 7), written out entry by entry


def _rk4_4(f, y, h):
    y0, y1, y2, y3 = y
    a0, a1, a2, a3 = f(y)
    hh = 0.5 * h
    b0, b1, b2, b3 = f((y0 + hh * a0, y1 + hh * a1, y2 + hh * a2, y3 + hh * a3))
    c0, c1, c2, c3 = f((y0 + hh * b0, y1 + hh * b1, y2 + hh * b2, y3 + hh * b3))
    d0, d1, d2, d3 = f((y0 + h * c0, y1 + h * c1, y2 + h * c2, y3 + h * c3))
    h6 = h / 6.0
    return (y0 + h6 * (((a0 + 2 * b0) + 2 * c0) + d0),
            y1 + h6 * (((a1 + 2 * b1) + 2 * c1) + d1),
            y2 + h6 * (((a2 + 2 * b2) + 2 * c2) + d2),
            y3 + h6 * (((a3 + 2 * b3) + 2 * c3) + d3))


def _rk4_5(f, y, h):
    y0, y1, y2, y3, y4 = y
    a0, a1, a2, a3, a4 = f(y)
    hh = 0.5 * h
    b0, b1, b2, b3, b4 = f((y0 + hh * a0, y1 + hh * a1, y2 + hh * a2, y3 + hh * a3,
                            y4 + hh * a4))
    c0, c1, c2, c3, c4 = f((y0 + hh * b0, y1 + hh * b1, y2 + hh * b2, y3 + hh * b3,
                            y4 + hh * b4))
    d0, d1, d2, d3, d4 = f((y0 + h * c0, y1 + h * c1, y2 + h * c2, y3 + h * c3,
                            y4 + h * c4))
    h6 = h / 6.0
    return (y0 + h6 * (((a0 + 2 * b0) + 2 * c0) + d0),
            y1 + h6 * (((a1 + 2 * b1) + 2 * c1) + d1),
            y2 + h6 * (((a2 + 2 * b2) + 2 * c2) + d2),
            y3 + h6 * (((a3 + 2 * b3) + 2 * c3) + d3),
            y4 + h6 * (((a4 + 2 * b4) + 2 * c4) + d4))


def _rk4_7(f, y, h):
    y0, y1, y2, y3, y4, y5, y6 = y
    a0, a1, a2, a3, a4, a5, a6 = f(y)
    hh = 0.5 * h
    b0, b1, b2, b3, b4, b5, b6 = f((y0 + hh * a0, y1 + hh * a1, y2 + hh * a2,
                                    y3 + hh * a3, y4 + hh * a4, y5 + hh * a5,
                                    y6 + hh * a6))
    c0, c1, c2, c3, c4, c5, c6 = f((y0 + hh * b0, y1 + hh * b1, y2 + hh * b2,
                                    y3 + hh * b3, y4 + hh * b4, y5 + hh * b5,
                                    y6 + hh * b6))
    d0, d1, d2, d3, d4, d5, d6 = f((y0 + h * c0, y1 + h * c1, y2 + h * c2,
                                    y3 + h * c3, y4 + h * c4, y5 + h * c5,
                                    y6 + h * c6))
    h6 = h / 6.0
    return (y0 + h6 * (((a0 + 2 * b0) + 2 * c0) + d0),
            y1 + h6 * (((a1 + 2 * b1) + 2 * c1) + d1),
            y2 + h6 * (((a2 + 2 * b2) + 2 * c2) + d2),
            y3 + h6 * (((a3 + 2 * b3) + 2 * c3) + d3),
            y4 + h6 * (((a4 + 2 * b4) + 2 * c4) + d4),
            y5 + h6 * (((a5 + 2 * b5) + 2 * c5) + d5),
            y6 + h6 * (((a6 + 2 * b6) + 2 * c6) + d6))


_RK4_BY_LENGTH = {4: _rk4_4, 5: _rk4_5, 7: _rk4_7}


def rk4_step(f, y, h):
    """One RK4 step of y' = f(y) on a sequence of 4, 5 or 7 floats, as a
    tuple.

    Each entry takes the operations, in the order, that numpy takes for the
    same step on a float64 array, so the result has the same bits; on the
    few entries of a curve state, plain floats in one straight-line pass per
    state length save numpy's per-call cost.
    """
    return _RK4_BY_LENGTH[len(y)](f, y, h)


def _rk4_run(f, y, s, h, n, box):
    """(s values, states, cut) of n RK4 steps from y at s, stopped before
    the first state whose point lies outside ``box``; a nan is outside."""
    (xlo, xhi), (ylo, yhi), (tlo, thi) = box
    ss, ys = [s], [y]
    for _ in range(n):
        y = rk4_step(f, y, h)
        if not (xlo <= y[0] <= xhi and ylo <= y[1] <= yhi and tlo <= y[2] <= thi):
            return ss, ys, True
        s += h
        ss.append(s)
        ys.append(y)
    return ss, ys, False


def integrate_ode(structure: StructureSpec, f, y0, s_span, step):
    """Fixed-step RK4 of y' = f(y) from ``y0``, whose first three entries are
    a chart point, over ``s_span``, the step shrunk to divide it evenly.
    A span of more than MAX_STEPS steps raises ValueError.

    The run stops before the first state whose point lies outside the
    structure's ``chart_domain`` by more than 1e-9 or holds a nan, so a
    span past the chart edge costs no step after the one that leaves it.

    The state steps as plain floats, which round as float64 arrays do.
    They differ only where a coefficient kernel divides by zero or raises a
    negative base to a fractional power: a float raises or turns complex
    where float64 gives inf or nan.  Such a run is stepped again from the
    start in np.float64 scalars, with numpy's floating-point warnings off,
    so every run gives the states a float64 array state would.

    Returns (s_values, states, truncated) with the states as an array;
    deterministic for fixed seeds and steps.
    """
    structure.check_point(y0[:3])
    s0, s1 = float(s_span[0]), float(s_span[1])
    steps = abs(s1 - s0) / abs(step)    # inf where the span overflows
    if steps > MAX_STEPS:
        raise ValueError(f"the span ({s0:g}, {s1:g}) at step {step:g} takes {steps:.7g} "
                         f"RK4 steps, above the cap of {MAX_STEPS:,}")
    n = max(int(round(steps)), 1) if s1 != s0 else 0
    h = (s1 - s0) / max(n, 1)
    box = [(lo - 1e-9, hi + 1e-9) for lo, hi in structure.chart_domain]
    try:
        ss, ys, cut = _rk4_run(f, tuple(float(v) for v in y0), s0, h, n, box)
        ys = np.array(ys)
    except (ArithmeticError, TypeError):   # TypeError: a complex in math.sin or in <=
        ys = None
    if ys is None or ys.dtype.kind == "c":
        with np.errstate(all="ignore"):     # the run stops at its first nan point
            ss, ys, cut = _rk4_run(f, tuple(np.float64(v) for v in y0), s0, h, n, box)
        ys = np.array(ys)
    return np.array(ss), ys, cut


def integrate_characteristic(structure: StructureSpec, init: CharState,
                             s_range=(0.0, 10.0), step=1e-3) -> CurveTrace:
    """Integrate a characteristic curve of curvature init.lam."""
    lam = init.lam
    ss, ys, cut = integrate_ode(structure, _char_flow(structure, lam),
                                (*init.point, init.phi), s_range, step)
    return CurveTrace(s=ss, points=ys[:, :3], phi=ys[:, 3],
                      lam=np.full(len(ss), lam), truncated=cut)


def integrate_geodesic(structure: StructureSpec, init: CharState,
                       s_range=(0.0, 10.0), step=1e-3) -> CurveTrace:
    """Integrate a sub-Riemannian geodesic: characteristic system plus
    dlambda/ds = -(1/c1) g(tau(Z), Z)."""
    ss, ys, cut = integrate_ode(structure, _geodesic_flow(structure),
                                (*init.point, init.phi, init.lam), s_range, step)
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
    lam = init.lam
    ss, ys, cut = integrate_ode(structure, _jacobi_flow(structure, lam),
                                (*init.point, init.phi, *jacobi_init), s_range, step)
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
                         lam=base.lam[:n],
                         truncated=base.truncated or plus.truncated or minus.truncated)
    return JacobiTrace(s=base.s[:n], vt=vt, vt_prime=vt_prime, vt_second=vt_second,
                       base=trimmed, gVZ=gvz, gVJZ=gvjz)


def first_integral(trace: JacobiTrace) -> np.ndarray:
    """lambda g(V,T) + g(V, Z) along the family; constant on sub-Riemannian
    geodesics with g(tau(Z),Z) = 0."""
    if trace.gVZ is None:
        raise ValueError("first integral needs a curve-family trace with gVZ")
    return trace.base.lam * trace.vt + trace.gVZ
