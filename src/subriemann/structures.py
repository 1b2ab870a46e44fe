"""Pseudo-hermitian structures on three-dimensional charts.

A structure is an orthonormal frame {X, Y, T} over a coordinate chart, with T
the Reeb field of the underlying contact form.  Everything downstream
(connections, torsion, curvature) is derived symbolically from the frame's
coefficient expressions, so second derivatives are exact.

Conventions, fixed once here and used everywhere:

* ``c1 = -g([X,Y], T)`` and must be a nonzero constant on the chart.
* ``J(X) = sgn(c1) Y``, ``J(Y) = -sgn(c1) X``, ``J(T) = 0``.
* ``sigma(V) = D_V T`` (Levi-Civita); the torsion ``tau`` is the symmetric
  part of sigma.  For ``c1 > 0`` (all structures shipped in the catalog) this
  equals ``sigma - (c1/2) J``.
* Curvature of the pseudo-hermitian connection:
  ``R(A,B)C = nabla_B nabla_A C - nabla_A nabla_B C + nabla_[A,B] C`` and the
  Webster scalar curvature is ``W = -g(R(X,Y)Y, X)``.

Lie-group structures are stored through the same machinery with constant
brackets.  Unimodular input constants (c2, c3) describe the algebra
``[X,Y] = -2T, [X,T] = c2 Y, [Y,T] = c3 X`` (so internally c1 = +2); the
non-unimodular input (alpha, gamma) is stored with the Reeb field orientation
that makes c1 = +2, i.e. ``[X,Y] = alpha Y - 2T, [X,T] = -gamma Y``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import Expr

_FRAME_NAMES = ("X", "Y", "T")

C1_CONSTANCY_TOL = 1e-9


class StructureError(ValueError):
    """Invalid structure specification (frame degenerate, Reeb violated...)."""


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector: chart point plus frame components (a, b, c).

    Components are coefficients along the orthonormal frame, so the metric is
    literally the Euclidean product of component triples.
    """

    point: tuple
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "point", tuple(float(v) for v in self.point))
        object.__setattr__(self, "components", tuple(float(v) for v in self.components))

    def __add__(self, other):
        return TangentVector(self.point, tuple(np.add(self.components, other.components)))

    def scale(self, k: float):
        return TangentVector(self.point, tuple(k * np.asarray(self.components)))


@dataclass(frozen=True)
class CurvatureSample:
    point: tuple
    webster: float
    tau_matrix: np.ndarray


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _adjugate3(m):
    """Adjugate of a 3x3 matrix of expressions: inv = adj / det."""
    cof = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != i]
            cols = [c for c in range(3) if c != j]
            minor = ex.sub(ex.mul(m[rows[0]][cols[0]], m[rows[1]][cols[1]]),
                           ex.mul(m[rows[0]][cols[1]], m[rows[1]][cols[0]]))
            cof[i][j] = minor if (i + j) % 2 == 0 else ex.neg(minor)
    # adj = cofactor transpose
    return [[cof[j][i] for j in range(3)] for i in range(3)]


class StructureSpec:
    """Orthonormal frame {X, Y, T} over a chart, with derived geometry.

    ``frame`` is a 3x3 nested sequence: frame[i][j] is the Expr coefficient of
    the j-th coordinate field in the i-th frame field (order X, Y, T).
    Instances are immutable after construction; all evaluation methods are
    pure functions of (self, point).
    """

    def __init__(self, frame, chart_domain=((-4, 4), (-4, 4), (-4, 4)),
                 name="", meta=None):
        self.kind = "coordinate-frame"
        self.name = name
        self.meta = dict(meta or {})
        self.chart_domain = tuple((float(lo), float(hi)) for lo, hi in chart_domain)
        self.frame = [[ex._as_expr(c) for c in row] for row in frame]

        # coframe[i][j]: frame component i of the coordinate field d/dx_j
        at = [[self.frame[j][i] for j in range(3)] for i in range(3)]
        adj_t = _adjugate3(at)
        det_t = _det3(at)
        if det_t.op is ex.Const and det_t.value == 0.0:
            raise StructureError("frame degenerate everywhere: the determinant of "
                                 "(X, Y, T) is identically zero")
        self._det = _det3(self.frame)
        self._coframe = [[ex.div(adj_t[i][j], det_t) for j in range(3)] for i in range(3)]

        self._brackets = self._compute_brackets()
        self._c1_expr = ex.neg(self._brackets[0][1][2])
        self._validate()
        self._derive_geometry()

    # -- construction helpers ---------------------------------------------

    def _derive_geometry(self):
        """c1 and the connection data, from the bracket table and c1's
        expression; both constructors end here."""
        center = np.array([self._chart_center()])
        self.c1 = float(ex.compiled_cse([self._c1_expr], "arrays")(center)[0, 0])
        self.sgn_c1 = 1.0 if self.c1 > 0 else -1.0
        self._lc = self._koszul_christoffels()
        self._sigma = [[self._lc[i][2][k] for k in range(2)] for i in range(2)]
        s = self._sigma
        off = ex.mul(0.5, ex.add(s[0][1], s[1][0]))
        self._tau = [[s[0][0], off], [off, s[1][1]]]
        self._ph = self._ph_christoffels()
        self._r_cache = {}
        self._webster = None

    def _chart_center(self):
        return tuple(0.5 * (lo + hi) for lo, hi in self.chart_domain)

    def frame_matrix(self, p) -> np.ndarray:
        """Coordinate coefficients of the frame at p; row i is frame field i."""
        return self.frame_matrices([p])[0]

    def frame_components(self, P, V) -> np.ndarray:
        """Frame components (a, b, c) of the coordinate vectors V at the
        points P, both (n, 3): V[k] = a X + b Y + c T at P[k].

        The frame matrices come from one call of a 9-output kernel and the
        systems are solved in one batch.  Row k equals solving
        ``frame_matrix(P[k]).T`` against V[k], bit for bit."""
        v = np.asarray(V, dtype=float)[..., None]
        return np.linalg.solve(np.swapaxes(self.frame_matrices(P), 1, 2), v)[..., 0]

    def frame_matrices(self, P) -> np.ndarray:
        """``frame_matrix`` at each row of the (n, 3) points P, from one call
        of a 9-output kernel: an (n, 3, 3) array."""
        kernel = ex.compiled_cse([c for row in self.frame for c in row], "arrays")
        return kernel(np.asarray(P, dtype=float)).reshape(-1, 3, 3)

    def frame_derivation(self, i: int, h: Expr) -> Expr:
        """The scalar field E_i(h), symbolically."""
        out = ex.ZERO
        for j in range(3):
            out = ex.add(out, ex.mul(self.frame[i][j], h.diff(j)))
        return out

    def direction_derivation(self, comps, h: Expr) -> Expr:
        """V(h) for V given by frame-component Exprs (comps: 3 Exprs)."""
        out = ex.ZERO
        for i in range(3):
            out = ex.add(out, ex.mul(comps[i], self.frame_derivation(i, h)))
        return out

    def coordinate_to_frame(self, coord_comps):
        """Frame-component Exprs of an ambient coordinate vector field."""
        return [sum_exprs(ex.mul(self._coframe[i][j], coord_comps[j]) for j in range(3))
                for i in range(3)]

    def frame_to_coordinate(self, comps):
        return [sum_exprs(ex.mul(comps[i], self.frame[i][j]) for i in range(3))
                for j in range(3)]

    def _compute_brackets(self):
        """brackets[i][j][k] = g([E_i, E_j], E_k) as Exprs."""
        coord = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                comps = []
                for k in range(3):
                    term = ex.ZERO
                    for m in range(3):
                        term = ex.add(term, ex.mul(self.frame[i][m], self.frame[j][k].diff(m)))
                        term = ex.sub(term, ex.mul(self.frame[j][m], self.frame[i][k].diff(m)))
                    comps.append(term)
                coord[i][j] = comps
        out = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                out[i][j] = self.coordinate_to_frame(coord[i][j])
        return out

    def _validate(self):
        """c1, det(X, Y, T) and the two Reeb brackets g([X,T],T), g([Y,T],T)
        at the 4^3 interior points of a 6^3 grid over the chart, from one
        kernel call."""
        axes = [np.linspace(lo, hi, 6)[1:-1] for lo, hi in self.chart_domain]
        pts = np.array(list(itertools.product(*axes)))
        exprs = [self._c1_expr, self._det, self._brackets[0][2][2], self._brackets[1][2][2]]
        with np.errstate(all="ignore"):
            vals = ex.compiled_cse(exprs, "arrays")(pts)
        bad = np.argwhere(~np.isfinite(vals))
        if len(bad):
            k, j = bad[0]
            names = ("c1 = -g([X,Y],T)", "det(X, Y, T)", "g([X,T],T)", "g([Y,T],T)")
            raise StructureError(f"{names[j]} is {vals[k, j]} at {tuple(pts[k].tolist())}: "
                                 f"the frame and its brackets must be finite on the chart")
        c1s = vals[:, 0]
        if c1s.max() - c1s.min() > C1_CONSTANCY_TOL:
            raise StructureError(
                f"c1 = -g([X,Y],T) varies over the chart "
                f"(range [{c1s.min():.3e}, {c1s.max():.3e}]); only constant-c1 "
                f"structures are supported")
        if abs(c1s[0]) < 1e-12:
            raise StructureError("c1 vanishes: the bracket [X,Y] has no Reeb component")
        for p, (_, det, *reeb) in zip(pts.tolist(), vals.tolist()):
            if abs(det) < 1e-10:
                raise StructureError(f"frame degenerate at {tuple(p)}")
            # Reeb conditions: [X,T] and [Y,T] stay horizontal
            for name, v in zip(_FRAME_NAMES, reeb):
                if abs(v) > 1e-9:
                    raise StructureError(
                        f"Reeb condition violated: g([{name},T],T) = {v:.3e} at {tuple(p)}")

    def _koszul_christoffels(self):
        """lc[i][j][k] = g(D_{E_i} E_j, E_k), bracket-only Koszul formula."""
        b = self._brackets
        lc = [[[None] * 3 for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    term = ex.sub(b[i][j][k], b[j][k][i])
                    term = ex.add(term, b[k][i][j])
                    lc[i][j][k] = ex.mul(0.5, term)
        return lc

    def tau_matrix_exprs(self):
        return self._tau

    def tau_matrix(self, p) -> np.ndarray:
        kernel = ex.compiled_cse([e for row in self._tau for e in row], "arrays")
        return kernel(np.array([p], dtype=float))[0].reshape(2, 2)

    def j_apply(self, comps):
        """J on frame components (Exprs, or floats of one vector (3,) or of a
        stack (..., 3)): (a,b,c) -> s(-b, a, 0)."""
        s = self.sgn_c1
        if isinstance(comps[0], Expr):
            return [ex.mul(-s, comps[1]), ex.mul(s, comps[0]), ex.ZERO]
        c = np.asarray(comps, dtype=float)
        return np.stack([-s * c[..., 1], s * c[..., 0], np.zeros_like(c[..., 0])], axis=-1)

    def torsion_tensor_exprs(self, i, j):
        """Tor(E_i, E_j) frame components (Exprs), from tau and J."""
        tau = self._tau
        c1 = self._c1_expr
        comps = [ex.ZERO, ex.ZERO, ex.ZERO]
        # g(E_i,T) tau(E_j) - g(E_j,T) tau(E_i)
        if i == 2 and j < 2:
            for k in range(2):
                comps[k] = ex.add(comps[k], tau[j][k])
        if j == 2 and i < 2:
            for k in range(2):
                comps[k] = ex.sub(comps[k], tau[i][k])
        # c1 g(J(E_i), E_j) T
        if i < 2 and j < 2 and i != j:
            sign = self.sgn_c1 if (i, j) == (0, 1) else -self.sgn_c1
            comps[2] = ex.mul(ex.mul(sign, c1), ex.ONE)
        return comps

    def _ph_christoffels(self):
        """ph[i][j][k] = g(nabla_{E_i} E_j, E_k) for the pseudo-hermitian
        connection, via 2 g(D_XY - nabla_XY, Z) = g(Tor(X,Z),Y) + g(Tor(Y,Z),X)
        - g(Tor(X,Y),Z)."""
        tor = [[self.torsion_tensor_exprs(i, j) for j in range(3)] for i in range(3)]
        ph = [[[None] * 3 for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    delta = ex.sub(ex.add(tor[i][k][j], tor[j][k][i]), tor[i][j][k])
                    ph[i][j][k] = ex.sub(self._lc[i][j][k], ex.mul(0.5, delta))
        return ph

    # -- public operations ---------------------------------------------------

    def lie_bracket(self, v, w, p=None) -> TangentVector:
        """[V, W](p).  V, W may be frame-field names ('X','Y','T') or ambient
        fields given as triples of frame-component Exprs."""
        if isinstance(v, str) and isinstance(w, str):
            i, j = _FRAME_NAMES.index(v), _FRAME_NAMES.index(w)
            p = self._require_point(p)
            kernel = ex.compiled_cse(self._brackets[i][j], "arrays")
            return TangentVector(p, kernel(np.array([p]))[0])
        vc = self._field_components(v)
        wc = self._field_components(w)
        p = self._require_point(p)
        comps = []
        for k in range(3):
            term = ex.ZERO
            for i in range(3):
                term = ex.add(term, ex.mul(vc[i], self.frame_derivation(i, wc[k])))
                term = ex.sub(term, ex.mul(wc[i], self.frame_derivation(i, vc[k])))
                for j in range(3):
                    term = ex.add(term, ex.mul(ex.mul(vc[i], wc[j]), self._brackets[i][j][k]))
            comps.append(term)
        return TangentVector(p, ex.compiled_cse(comps, "arrays")(np.array([p]))[0])

    def _field_components(self, v):
        if isinstance(v, str):
            i = _FRAME_NAMES.index(v)
            return [ex.ONE if k == i else ex.ZERO for k in range(3)]
        return [ex._as_expr(c) for c in v]

    def _require_point(self, p):
        if p is None:
            raise ValueError("a chart point is required")
        self.check_point(p)
        return tuple(float(c) for c in p)

    def check_point(self, p):
        for c, (lo, hi) in zip(p, self.chart_domain):
            if not (lo - 1e-9 <= c <= hi + 1e-9):
                raise StructureError(f"point {tuple(p)} outside chart domain {self.chart_domain}")

    def _connection(self, table, v, w, p):
        """The field formula _cov_field_exprs evaluated at p.  A TangentVector
        V enters numerically: one kernel per (table, W) gives E_i(W_k), W_j and
        table[i][j][k] at p, and V's components contract them term by term in
        the formula's order, so a new direction compiles nothing."""
        p = self._require_point(p)
        wc = self._field_components(w)
        if not isinstance(v, TangentVector):
            comps = self._cov_field_exprs(table, self._field_components(v), wc)
            # 0.0 + c writes a zero sum as +0.0
            return TangentVector(p, 0.0 + ex.compiled_cse(comps, "arrays")(np.array([p]))[0])
        exprs = ([self.frame_derivation(i, wc[k]) for i in range(3) for k in range(3)] + wc
                 + [table[i][j][k] for i in range(3) for j in range(3) for k in range(3)])
        vals = ex.compiled_cse(exprs, "arrays")(np.array([p]))[0].tolist()
        dw, wv, tab = vals[:9], vals[9:12], vals[12:]
        out = [0.0, 0.0, 0.0]
        for k in range(3):
            for i, c in enumerate(v.components):
                if c != 0.0:
                    out[k] += c * dw[3 * i + k]
                    for j in range(3):
                        out[k] += c * wv[j] * tab[9 * i + 3 * j + k]
        return TangentVector(p, out)

    def connection_lc(self, v, w, p=None) -> TangentVector:
        """Levi-Civita derivative D_V W at p (W a frame name or ambient field)."""
        return self._connection(self._lc, v, w, p)

    def connection_ph(self, v, w, p=None) -> TangentVector:
        """Pseudo-hermitian derivative nabla_V W at p."""
        return self._connection(self._ph, v, w, p)

    def _cov_field_exprs(self, table, vc, wc):
        out = []
        for k in range(3):
            term = ex.ZERO
            for i in range(3):
                term = ex.add(term, ex.mul(vc[i], self.frame_derivation(i, wc[k])))
                for j in range(3):
                    term = ex.add(term, ex.mul(ex.mul(vc[i], wc[j]), table[i][j][k]))
            out.append(term)
        return out

    def nabla_field_exprs(self, vc, wc):
        """Frame components of nabla_V W for ambient fields (Expr triples)."""
        return self._cov_field_exprs(self._ph, vc, wc)

    def lc_field_exprs(self, vc, wc):
        """Frame components of the Levi-Civita derivative D_V W for fields."""
        return self._cov_field_exprs(self._lc, vc, wc)

    def torsion_tau(self, v: TangentVector) -> TangentVector:
        """tau(V): symmetric part of sigma = D.T applied to V; horizontal."""
        p = v.point
        m = self.tau_matrix(p)
        ab = m @ np.asarray(v.components[:2])
        return TangentVector(p, [ab[0], ab[1], 0.0])

    def curvature_expr(self, a, b, c, d) -> Expr:
        """g(R(E_a,E_b)E_c, E_d) with R(A,B)C = nabla_B nabla_A C
        - nabla_A nabla_B C + nabla_[A,B] C."""
        key = (a, b, c, d)
        if key not in self._r_cache:
            ph = self._ph
            term = ex.ZERO
            # nabla_B (nabla_A C) component d
            term = ex.add(term, self.frame_derivation(b, ph[a][c][d]))
            for m in range(3):
                term = ex.add(term, ex.mul(ph[a][c][m], ph[b][m][d]))
            # - nabla_A (nabla_B C)
            term = ex.sub(term, self.frame_derivation(a, ph[b][c][d]))
            for m in range(3):
                term = ex.sub(term, ex.mul(ph[b][c][m], ph[a][m][d]))
            # + nabla_[A,B] C
            for m in range(3):
                term = ex.add(term, ex.mul(self._brackets[a][b][m], ph[m][c][d]))
            self._r_cache[key] = term
        return self._r_cache[key]

    def coordinate_christoffels(self):
        """Christoffel symbols of g in chart coordinates: gamma[k][i][j] Exprs.

        Used for the second-order geodesic correction of straight-ray
        deformations.  The coordinate metric is G = C^T C with C the coframe
        matrix, and its inverse is A^T A with A the frame coefficient matrix.
        """
        if getattr(self, "_coord_gamma", None) is None:
            C = self._coframe
            A = self.frame
            G = [[sum_exprs(ex.mul(C[i][a], C[i][b]) for i in range(3))
                  for b in range(3)] for a in range(3)]
            Ginv = [[sum_exprs(ex.mul(A[i][a], A[i][b]) for i in range(3))
                     for b in range(3)] for a in range(3)]
            gamma = [[[None] * 3 for _ in range(3)] for _ in range(3)]
            for k in range(3):
                for i in range(3):
                    for j in range(3):
                        acc = ex.ZERO
                        for c in range(3):
                            term = ex.add(G[c][j].diff(i), G[c][i].diff(j))
                            term = ex.sub(term, G[i][j].diff(c))
                            acc = ex.add(acc, ex.mul(Ginv[k][c], term))
                        gamma[k][i][j] = ex.mul(0.5, acc)
            self._coord_gamma = gamma
        return self._coord_gamma

    def webster_expr(self) -> Expr:
        if self._webster is None:
            self._webster = ex.neg(self.curvature_expr(0, 1, 1, 0))
        return self._webster

    def webster_curvature(self, p) -> float:
        """Webster scalar curvature W at p.

        Lie-group structures return the closed form recorded at construction;
        the tensor path is always available via webster_curvature_tensor.
        """
        if "webster_closed_form" in self.meta:
            return float(self.meta["webster_closed_form"])
        return self.webster_curvature_tensor(p)

    def webster_curvature_tensor(self, p) -> float:
        kernel = ex.compiled_cse([self.webster_expr()], "arrays")
        return float(kernel(np.array([self._require_point(p)]))[0, 0])

    def curvature_sample(self, p) -> CurvatureSample:
        p = self._require_point(p)
        return CurvatureSample(point=tuple(p), webster=self.webster_curvature(p),
                               tau_matrix=self.tau_matrix(p))

    def tau_norm(self, p) -> float:
        """Operator norm of tau on the horizontal plane."""
        return float(max(abs(np.linalg.eigvalsh(self.tau_matrix(p)))))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "lie-group":
            out = {"kind": "lie-group"}
            out.update({k: self.meta[k] for k in ("c2", "c3", "alpha", "gamma")
                        if k in self.meta})
            return out
        return {
            "kind": self.kind,
            "chart_domain": [list(b) for b in self.chart_domain],
            "frame": {name: [str(c) for c in row]
                      for name, row in zip(_FRAME_NAMES, self.frame)},
        }


def sum_exprs(terms):
    out = ex.ZERO
    for t in terms:
        out = ex.add(out, t)
    return out


# ---------------------------------------------------------------------------
# Constructors


def coordinate_structure(x_coeffs, y_coeffs, t_coeffs, chart_domain, name="", meta=None):
    frame = [[ex._as_expr(c) for c in coeffs] for coeffs in (x_coeffs, y_coeffs, t_coeffs)]
    for row in frame:
        for c in row:
            ex.validate_on_box(c, chart_domain)
    return StructureSpec(frame, chart_domain, name=name, meta=meta)


def _constant_bracket_structure(bracket_table, name, meta):
    """Build a StructureSpec whose frame realizes given constant brackets.

    Uses the standard trick of a coordinate frame on R^3 whose bracket table
    is exactly the requested one; here we bypass coordinates and construct the
    spec directly by overriding the symbolic bracket table (the frame itself
    is declared abstract).
    """
    spec = StructureSpec.__new__(StructureSpec)
    spec.kind = "lie-group"
    spec.name = name
    spec.meta = dict(meta or {})
    spec.chart_domain = ((-4.0, 4.0),) * 3
    spec.frame = [[ex.ONE if i == j else ex.ZERO for j in range(3)] for i in range(3)]
    spec._det = ex.ONE
    spec._coframe = [[ex.ONE if i == j else ex.ZERO for j in range(3)] for i in range(3)]
    spec._brackets = [[[ex._as_expr(bracket_table[i][j][k]) for k in range(3)]
                       for j in range(3)] for i in range(3)]
    spec._c1_expr = ex.neg(spec._brackets[0][1][2])
    spec._derive_geometry()
    if abs(spec.c1) < 1e-12:
        raise StructureError("lie-group structure must have [X,Y] with a Reeb component")
    return spec


def unimodular_structure(c2: float, c3: float) -> StructureSpec:
    """Unimodular Lie-group structure [X,Y] = -2T, [X,T] = c2 Y, [Y,T] = c3 X.

    The bracket normalization follows the classification table (structure
    constant of [X,Y] equal to -2); internally c1 = -g([X,Y],T) = +2.  The
    closed forms W = c1s (c3 - c2)/2 with c1s = -2 and |tau| = |c2 + c3|/2 are
    recorded in the metadata.
    """
    z = ex.ZERO
    table = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    table[0][1] = [z, z, ex.Const(-2.0)]
    table[1][0] = [z, z, ex.Const(2.0)]
    table[0][2] = [z, ex.Const(c2), z]
    table[2][0] = [z, ex.Const(-c2), z]
    table[1][2] = [ex.Const(c3), z, z]
    table[2][1] = [ex.Const(-c3), z, z]
    w = -2.0 * (c3 - c2) / 2.0
    meta = {"c2": c2, "c3": c3, "webster_closed_form": w,
            "tau_norm_closed_form": abs(c2 + c3) / 2.0}
    return _constant_bracket_structure(table, f"unimodular({c2},{c3})", meta)


def nonunimodular_structure(alpha: float, gamma: float) -> StructureSpec:
    """Non-unimodular structure with algebra [X,Y] = alpha Y + 2T, [X,T] =
    gamma Y, [Y,T] = 0 (alpha != 0).

    Stored with the Reeb orientation flipped (T -> -T) so that the internal
    convention c1 = -g([X,Y],T) = +2 and J(X) = Y hold; this leaves the
    geometry unchanged.  W = -alpha^2 - gamma exactly (closed form and tensor
    path agree); the structure is Sasakian iff gamma = 0.
    """
    if alpha == 0:
        raise StructureError("non-unimodular structure requires alpha != 0")
    z = ex.ZERO
    table = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    table[0][1] = [z, ex.Const(alpha), ex.Const(-2.0)]
    table[1][0] = [z, ex.Const(-alpha), ex.Const(2.0)]
    table[0][2] = [z, ex.Const(-gamma), z]
    table[2][0] = [z, ex.Const(gamma), z]
    meta = {"alpha": alpha, "gamma": gamma,
            "webster_closed_form": -alpha * alpha - gamma,
            "tau_norm_closed_form": abs(gamma) / 2.0,
            "paper_tau_norm": abs(gamma)}
    return _constant_bracket_structure(table, f"nonunimodular({alpha},{gamma})", meta)


def torsion_in_rotated_frame(c2: float, c3: float, a1: float, a2: float) -> np.ndarray:
    """Torsion matrix of a unimodular structure in the rotated horizontal
    frame X1 = a1 X + a2 Y, Y1 = -a2 X + a1 Y (a1^2 + a2^2 = 1).

    tau is symmetric and traceless, so the rotated matrix is
    [[(c2+c3) a1 a2, (c2+c3)(a1^2-a2^2)/2],
     [(c2+c3)(a1^2-a2^2)/2, -(c2+c3) a1 a2]];
    identical to conjugating the base matrix by the rotation.
    """
    if abs(a1 * a1 + a2 * a2 - 1.0) > 1e-12:
        raise ValueError("rotation coefficients must satisfy a1^2 + a2^2 = 1")
    s = c2 + c3
    diag = s * a1 * a2
    off = 0.5 * s * (a1 * a1 - a2 * a2)
    return np.array([[diag, off], [off, -diag]])


def rotate_tau_matrix(tau: np.ndarray, a1: float, a2: float) -> np.ndarray:
    """Conjugate a 2x2 torsion matrix by the rotation (a1, a2); must agree
    with torsion_in_rotated_frame for unimodular inputs."""
    rot = np.array([[a1, a2], [-a2, a1]])
    return rot @ tau @ rot.T


# ---------------------------------------------------------------------------
# JSON interface


def json_object(data, what: str) -> dict:
    """``data`` if it is a JSON object; ``what`` names it in the error."""
    if not isinstance(data, dict):
        raise StructureError(f"{what} must be a JSON object, got {data!r}")
    return data


def json_list(value, name: str, n: int) -> list:
    """The field ``name``: a list of n entries."""
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise StructureError(f"field {name!r} must be a list of {n} entries, got {value!r}")
    return value


def json_float(value, name: str) -> float:
    """The field ``name`` as a finite float (a number or a numeric string)."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        v = math.nan
    if not math.isfinite(v):
        raise StructureError(f"field {name!r} must be a finite number, got {value!r}")
    return v


def json_expr(value, name: str) -> Expr:
    """The field ``name``: an expression string, parsed."""
    if not isinstance(value, str):
        raise StructureError(f"field {name!r} must be an expression string, got {value!r}")
    return ex.parse(value)


def json_box(value, name: str, axes: int) -> tuple:
    """The field ``name``: ``axes`` [lo, hi] pairs of numbers."""
    return tuple(tuple(json_float(v, name) for v in json_list(b, name, 2))
                 for b in json_list(value, name, axes))


def structure_from_json(data) -> StructureSpec:
    """Build a StructureSpec from its JSON description.

    Accepts {"kind": "coordinate-frame", "chart_domain": ..., "frame": {...}}
    or {"kind": "lie-group", "c2": ..., "c3": ...} /
    {"kind": "lie-group", "alpha": ..., "gamma": ...}.  A field of the
    wrong type raises StructureError naming it.
    """
    if isinstance(data, str):
        data = json.loads(data)
    data = json_object(data, "a structure spec")
    kind = data.get("kind")
    if kind == "lie-group":
        if "c2" in data and "c3" in data:
            return unimodular_structure(json_float(data["c2"], "c2"),
                                        json_float(data["c3"], "c3"))
        if "alpha" in data and "gamma" in data:
            return nonunimodular_structure(json_float(data["alpha"], "alpha"),
                                           json_float(data["gamma"], "gamma"))
        raise StructureError("lie-group spec needs (c2, c3) or (alpha, gamma)")
    if kind != "coordinate-frame":
        raise StructureError(f"unknown structure kind {kind!r}")
    try:
        box = json_box(data["chart_domain"], "chart_domain", 3)
        frame = json_object(data["frame"], "field 'frame'")
        rows = [[json_expr(c, f"frame.{name}")
                 for c in json_list(frame[name], f"frame.{name}", 3)]
                for name in _FRAME_NAMES]
    except KeyError as e:
        raise StructureError(f"missing field in structure spec: {e}") from e
    return coordinate_structure(rows[0], rows[1], rows[2], box,
                                name=data.get("name", ""))
