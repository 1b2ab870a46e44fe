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
import warnings
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


# rows per block of write_csv, which writes a file block by block:
# the 10^4-row table of `curve integrate` formatted from one list raised the
# command's peak memory by about 10 %
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

    def to_csv(self, extra=(), fh=None):
        """CSV of s, x, y, t, phi, lambda and the (name, values) columns of
        ``extra``, each value as ``%.17g`` with a negative zero written as 0.
        Given a text file ``fh``, writes it there block by block and returns
        None; otherwise returns it as one string."""
        cols = ["s", "x", "y", "t", "phi", "lambda"]
        data = [self.s, self.points[:, 0], self.points[:, 1], self.points[:, 2],
                self.phi, self.lam]
        for name, values in extra:
            cols.append(name)
            data.append(values)
        out = io.StringIO() if fh is None else fh
        write_csv(out, cols, data)
        return out.getvalue() if fh is None else None


def write_csv(out, cols, data):
    """Write to the text file ``out`` the header ``cols``, then one row per
    index of the equal-length columns ``data``, block by block, each value as
    ``%.17g`` with a negative zero written as 0.  No rows, no line after the
    header."""
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    out.write(",".join(cols) + "\n")
    for i in range(0, len(data[0]), _CSV_BLOCK):
        block = np.column_stack([d[i:i + _CSV_BLOCK] for d in data]) + 0.0
        out.writelines(row % tuple(r) for r in block.tolist())


@dataclass
class JacobiTrace:
    s: np.ndarray
    vt: np.ndarray
    vt_prime: np.ndarray
    vt_second: np.ndarray
    base: CurveTrace | None = None
    gVZ: np.ndarray | None = None
    gVJZ: np.ndarray | None = None


def _flow_exprs(structure: StructureSpec, kind):
    """A flow's coefficients: the coordinate rows of X and Y, then
    g(nabla_{E_a} E_b, E_k) for a, b, k < 2; for a geodesic or Jacobi flow
    then tau_00, tau_01, tau_11, their d/dx, d/dy, d/dt, the Webster
    curvature W and g(R(E_a, T) E_c, E_d) for a, c, d < 2."""
    if structure.kind == "lie-group":
        raise StructureError(
            "curve integration needs a coordinate-frame structure; lie-group "
            "specs carry frame-level geometry only")
    ph = structure._ph
    exprs = [*structure.frame[0], *structure.frame[1],
             *(ph[a][b][k] for a in range(2) for b in range(2) for k in range(2))]
    if kind != "char":
        tau = structure.tau_matrix_exprs()
        m = (tau[0][0], tau[0][1], tau[1][1])
        exprs += [*m, *(e.diff(k) for e in m for k in range(3)), structure.webster_expr(),
                  *(structure.curvature_expr(a, 2, c, d)
                    for a in range(2) for c in range(2) for d in range(2))]
    return exprs


def _times(*factors):
    """A product, left to right, of the factors other than 1.0: x * 1.0 is x."""
    return " * ".join(f for f in factors if f != "1.0") or "1.0"


_W, _JW = ("c", "s2"), ("jc", "js")      # Z = (c, s2) and J(Z) = (jc, js)


def _flow_source(kind, lines, k):
    """Source of ``_f(c1, sgn, lam=None)``, which returns the right-hand side of
    a flow (``"char"``, ``"geodesic"`` or ``"jacobi"``): the CSE ``lines``
    of its coefficients, whose values are named or written out in ``k``,
    then the flow arithmetic on them as plain floats.

    Two exact folds drop work.  A factor 1.0 is left out of a product.  A
    term is left out of the sums that start from 0.0 (Gamma, the spatial
    part of d/ds g(tau(Z), J(Z)) and g(R(Z, T) Z, J(Z))) when its
    coefficients are the literals 0.0 or -0.0: such a sum is never -0.0, so
    adding the term's +-0.0 leaves it as it is, and the term is +-0.0 as long
    as its other factors are finite.  They are, for a finite stage angle:
    the point velocity that multiplies a spatial term also enters the new
    point, so where it is not finite both the full and the folded step give
    a point off the chart, and where the angle is not finite both give a
    non-finite state, which the run cuts."""
    zero = [v in ("0.0", "-0.0") for v in k]
    k = [f"({v})" if v.startswith("-") else v for v in k]
    gamma = ["0.0"] + [
        f"{_W[a]} * {_W[b]} * ({_times('-s2', k[6 + 2 * i])} + {_times('c', k[7 + 2 * i])})"
        for i, (a, b) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1)))
        if not (zero[6 + 2 * i] and zero[7 + 2 * i])]
    flow = ", ".join(f"{_times('c', k[i])} + {_times('s2', k[3 + i])}"
                     for i in range(3)) + ", -abs_c1 * lam - gamma"
    body = [*lines, "c, s2 = _cos(phi), _sin(phi)", "gamma = " + " + ".join(gamma)]
    state, out = {"char": ("x, y, t, phi", flow),
                  "geodesic": ("x, y, t, phi, lam", "dx, dy, dt, dphi, -tzz / c1"),
                  "jacobi": ("x, y, t, phi, vt, vtp, vtpp",
                             "dx, dy, dt, dphi, vtp, vtpp, -beta1 * vtp - c1 * beta2 * vt")}[kind]
    if kind != "char":
        m00, m01, m11 = k[14:17]
        body += [f"dx, dy, dt, dphi = {flow}",
                 f"tzz = {m00} * c * c + 2 * {m01} * c * s2 + {m11} * s2 * s2"]
    if kind == "jacobi":
        # d/ds g(tau(Z), J(Z)) along the flow, then g(R(Z, T) Z, J(Z))
        spatial = ["0.0"] + [
            f"{d} * ({_times(k[20 + i], 'cos2')} + 0.5 * ({k[23 + i]} - {k[17 + i]}) * sin2)"
            for i, d in enumerate(("dx", "dy", "dt"))
            if not (zero[17 + i] and zero[20 + i] and zero[23 + i])]
        r_term = ["0.0"] + [_times(_W[a], _W[c], _JW[d], k[27 + 4 * a + 2 * c + d])
                            for a in range(2) for c in range(2) for d in range(2)
                            if not zero[27 + 4 * a + 2 * c + d]]
        body += [f"tzj = sgn * ({m01} * (c * c - s2 * s2) + ({m11} - {m00}) * c * s2)",
                 "cos2, sin2 = c * c - s2 * s2, 2 * c * s2",
                 "spatial = " + " + ".join(spatial),
                 f"angular = (-2 * {m01} * sin2 + ({m11} - {m00}) * cos2) * dphi",
                 "dtzj = sgn * (spatial + angular)",
                 "jc, js = -sgn * s2, sgn * c",
                 "r_term = " + " + ".join(r_term),
                 f"beta1 = {k[26]} + c1 * tzj + c1 ** 2 * lam ** 2",
                 "beta2 = c1 * lam * tzz + r_term + dtzj"]
    return ("def _f(c1, sgn, lam=None):\n    abs_c1 = abs(c1)\n    def rhs(state):\n"
            f"        {state} = state\n" + "".join(f"        {line}\n" for line in body)
            + f"        return ({out})\n    return rhs\n")


def _flow(structure: StructureSpec, kind, *lam):
    """A flow's right-hand side, compiled once per structure and kind."""
    make = ex.compiled_program(_flow_exprs(structure, kind), ("flow", kind),
                               lambda lines, k: _flow_source(kind, lines, k))
    return make(structure.c1, structure.sgn_c1, *lam)


def _char_flow(structure: StructureSpec, lam):
    """(x, y, t, phi) -> its derivative on a characteristic curve of
    curvature lam: Z = cos(phi) X + sin(phi) Y and -|c1| lam - Gamma(p, phi)."""
    return _flow(structure, "char", lam)


def _geodesic_flow(structure: StructureSpec):
    """(x, y, t, phi, lam) -> its derivative on a geodesic: the
    characteristic flow of curvature lam and lam' = -(1/c1) g(tau(Z), Z)."""
    return _flow(structure, "geodesic")


def _jacobi_flow(structure: StructureSpec, lam):
    """(x, y, t, phi, v, v', v'') -> its derivative for a characteristic
    curve of curvature lam and the vertical Jacobi equation in v = g(V, T)."""
    return _flow(structure, "jacobi", lam)


def _rk4_source(n):
    """Source of ``_f(f, y, h)``, one RK4 step of y' = f(y) on a state of n
    floats, written out entry by entry as one straight-line pass."""
    def each(form):
        return "".join(form.format(i=i) + ", " for i in range(n))

    return ("def _f(f, y, h):\n"
            f"    [{each('y{i}')}] = y\n"
            f"    [{each('a{i}')}] = f(y)\n"
            "    hh = 0.5 * h\n"
            f"    [{each('b{i}')}] = f(({each('y{i} + hh * a{i}')}))\n"
            f"    [{each('c{i}')}] = f(({each('y{i} + hh * b{i}')}))\n"
            f"    [{each('d{i}')}] = f(({each('y{i} + h * c{i}')}))\n"
            "    h6 = h / 6.0\n"
            f"    return ({each('y{i} + h6 * (((a{i} + 2 * b{i}) + 2 * c{i}) + d{i})')})\n")


# the RK4 step of each state length met so far
_RK4_BY_LENGTH: dict = {}


def rk4_step(f, y, h):
    """One RK4 step of y' = f(y) on a sequence of floats, as a tuple.

    Each entry takes the operations, in the order, that numpy takes for the
    same step on a float64 array, so the result has the same bits; on the
    few entries of a curve state, plain floats in one straight-line pass per
    state length save numpy's per-call cost.  The pass for a length is
    generated on its first use and compiled through
    ``expr.compiled_program``.
    """
    try:
        step = _RK4_BY_LENGTH[len(y)]
    except KeyError:
        n = len(y)
        step = _RK4_BY_LENGTH[n] = ex.compiled_program(
            (), ("rk4", n), lambda lines, k: _rk4_source(n))
    return step(f, y, h)


def _rk4_run(f, y, s, h, n, box):
    """(s values, states row after row, cut) of n RK4 steps from y at s, as
    flat float arrays, stopped before the first step that raises, leaves
    ``box`` (a nan point; a complex one raises) or holds a complex entry."""
    # imported on first use: loading this extension module raised the peak
    # memory of runs without a curve (rt-report, surface analyze) by 0.25 MB
    from array import array
    (xlo, xhi), (ylo, yhi), (tlo, thi) = box
    ss, ys = array("d", (s,)), array("d", y)
    try:
        with warnings.catch_warnings():
            # a complex entry raises TypeError in extend, a numpy one warns
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            for _ in range(n):
                y = rk4_step(f, y, h)
                if not (xlo <= y[0] <= xhi and ylo <= y[1] <= yhi and tlo <= y[2] <= thi):
                    return ss, ys, True
                ys.extend(y)
                s += h
                ss.append(s)
    except (ArithmeticError, ValueError, TypeError, np.exceptions.ComplexWarning):
        del ys[len(ss) * len(y):]     # the entries of a partly stored row
        return ss, ys, True
    return ss, ys, False


def integrate_ode(structure: StructureSpec, f, y0, s_span, step):
    """Fixed-step RK4 of y' = f(y) from ``y0``, whose first three entries are
    a chart point, over ``s_span``, the step shrunk to divide it evenly.
    A span of more than MAX_STEPS steps raises ValueError.

    The run stops before the first state whose point lies outside the
    structure's ``chart_domain`` by more than 1e-9 or holds a nan, so a
    span past the chart edge costs no step after the one that leaves it.

    The state steps as plain floats, which round as float64 arrays do.
    The run is truncated before a step with no float value: one that raises
    (a kernel divides by zero, overflows or takes the square root of a
    negative number; ``math.cos`` meets an infinite angle) or turns the point
    complex (a negative base under a fractional power).  The run also ends
    before a state complex elsewhere (angle, curvature, a Jacobi entry), a
    numpy complex too, and from the first non-finite state they are cut.

    A state of fewer than 3 entries, which holds no chart point, or a flow
    whose value at ``y0`` has another length than ``y0``, raises ValueError;
    a flow that raises there ends the run at ``y0``.

    Returns (s_values, states, truncated), the states as an (n, len(y0))
    array; both arrays view the flat float arrays the run filled, about 8
    bytes per entry.  Deterministic for fixed seeds and steps.
    """
    if len(y0) < 3:
        raise ValueError(f"a state of length {len(y0)} holds no chart point (x, y, t)")
    structure.check_point(y0[:3])
    s0, s1 = float(s_span[0]), float(s_span[1])
    steps = abs(s1 - s0) / abs(step)    # inf where the span overflows
    if steps > MAX_STEPS:
        raise ValueError(f"the span ({s0:g}, {s1:g}) at step {step:g} takes {steps:.7g} "
                         f"RK4 steps, above the cap of {MAX_STEPS:,}")
    n = max(int(round(steps)), 1) if s1 != s0 else 0
    h = (s1 - s0) / max(n, 1)
    y = tuple(float(v) for v in y0)
    try:
        dy = f(y)
    except (ArithmeticError, ValueError, TypeError):
        pass                            # the first step raises it again
    else:
        if len(dy) != len(y):
            raise ValueError(f"the flow gives {len(dy)} values for a state of {len(y)}")
    box = [(lo - 1e-9, hi + 1e-9) for lo, hi in structure.chart_domain]
    ss, ys, cut = _rk4_run(f, y, s0, h, n, box)
    ss, states = np.frombuffer(ss), np.frombuffer(ys).reshape(-1, len(y))
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        k = int(finite.argmin())
        ss, states, cut = ss[:k], states[:k], True
    return ss, states, cut


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
                             lam=0.0, s_range=(0.0, 10.0), step=1e-3) -> JacobiTrace:
    """Finite-difference Jacobi oracle.

    ``transverse(e)`` returns the CharState of the family member at parameter
    e, curvature included; ``lam`` is not read.  The field V = dF/de at e = 0
    is approximated by central differences of the integrated curves at
    e = +-1e-4 and expressed in the frame along the base curve.
    """
    base = integrate_characteristic(structure, transverse(0.0), s_range, step)
    plus = integrate_characteristic(structure, transverse(1e-4), s_range, step)
    minus = integrate_characteristic(structure, transverse(-1e-4), s_range, step)
    n = min(len(base), len(plus), len(minus))
    dcoord = (plus.points[:n] - minus.points[:n]) / 2e-4
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
