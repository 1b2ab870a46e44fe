"""Reproduction runners: the roto-translation report, the stability-quadratic
searches, and the payloads the command-line verbs write.

Every function here returns plain data (dicts, lists, traces); the CLI
parses arguments, loads the references, calls one of them and writes what
it returns.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from . import catalog as cat
from .structures import StructureSpec, StructureError, unimodular_structure
from .curves import (CharState, integrate_characteristic, integrate_geodesic,
                     rt_characteristic_closed_form)
from .surfaces import (ImplicitSurface, GraphSurface, singular_set_detect,
                       stationarity_at_singular_curve, grid_points)
from .variation import (CharPatch, ParamPatch, VariationField, index_form,
                        second_variation_numeric, first_variation_formula,
                        first_variation_numeric, stability_quadratic_Q,
                        stability_sign_field, l_of_nh)

MAX_SURFACE_SAMPLES = 400   # frame rows of ``surface analyze``
# the singular-set search region of each rt-report surface check
RT_REPORT_REGIONS = {"sigma_c": ((-2, 2), (-2, 2), (-2, 2)),
                     "plane_y0": ((-2, 2), (-2, 2), (-0.8, 4.0)),
                     "x_plus_sin": ((-2, 2), (-2, 2), (0.3, 5.9))}


# ---------------------------------------------------------------------------
# structure info


def structure_info(st: StructureSpec, ref: str) -> dict:
    """Invariants, brackets and identity residuals of ``st`` at the centre
    of its chart."""
    p = tuple(0.5 * (lo + hi) for lo, hi in st.chart_domain)
    sample = st.curvature_sample(p)
    brackets = {}
    for a, b in (("X", "Y"), ("X", "T"), ("Y", "T")):
        v = st.lie_bracket(a, b, p)
        brackets[f"[{a},{b}]"] = [float(c) for c in v.components]
    return {
        "name": st.name or ref,
        "kind": st.kind,
        "c1": st.c1,
        "W": st.webster_curvature(p),
        "tau_norm": st.tau_norm(p),
        "tau_matrix": sample.tau_matrix.tolist(),
        "brackets": brackets,
        "residuals": _structure_residuals(st),
        "config": {"ref": ref},
    }


def _structure_residuals(st: StructureSpec, n: int = 5) -> dict:
    rng = np.random.default_rng(0)
    names = ("X", "Y", "T")
    worst = {"nabla_T": 0.0, "reeb": 0.0, "metric_compat": 0.0,
             "J_antisymmetry": 0.0, "tau_symmetry": 0.0}
    pts = [tuple(rng.uniform(lo * 0.5, hi * 0.5) for lo, hi in st.chart_domain)
           for _ in range(n)]
    for p in pts:
        for nm in names:
            worst["nabla_T"] = max(worst["nabla_T"],
                                   float(np.max(np.abs(st.connection_ph(nm, "T", p).components))))
        for i in (0, 1):
            worst["reeb"] = max(worst["reeb"],
                                abs(st.lie_bracket(names[i], "T", p).components[2]))
        m = st.tau_matrix(p)
        worst["tau_symmetry"] = max(worst["tau_symmetry"], abs(m[0, 1] - m[1, 0]))
        a, b = rng.uniform(-1, 1, 2)
        v = np.array([a, b, 0.0])
        jv = st.j_apply(v)
        worst["J_antisymmetry"] = max(worst["J_antisymmetry"], abs(float(jv @ v)))
        # metric compatibility of nabla: V g(W,U) = g(nabla_V W, U) + g(W, nabla_V U)
        for (vn, wn, un) in (("X", "Y", "T"), ("Y", "X", "X")):
            lhs = 0.0  # constant inner products of frame fields
            rhs = (st.connection_ph(vn, wn, p).components[names.index(un)]
                   + st.connection_ph(vn, un, p).components[names.index(wn)])
            worst["metric_compat"] = max(worst["metric_compat"], abs(lhs - rhs))
    return worst


# ---------------------------------------------------------------------------
# curve integrate


def integrate_curve(st: StructureSpec, init_point, phi, lam, s_range, step,
                    geodesic=False, oracle=False):
    """(trace, closed, max_dev): the characteristic curve (or geodesic) from
    ``init_point`` at angle ``phi`` and curvature ``lam``.  With ``oracle``,
    ``closed`` holds the RT closed form at the trace's s values and
    ``max_dev`` its largest distance from the trace; otherwise both are
    None."""
    state = CharState(init_point, phi, lam)
    integrate = integrate_geodesic if geodesic else integrate_characteristic
    trace = integrate(st, state, s_range, step)
    if not oracle:
        return trace, None, None
    if st.name != "rt":
        raise StructureError("--oracle requires the rt structure")
    if lam != 0.0:
        raise StructureError("the closed-form oracle covers curvature 0 only")
    m = st.frame_matrix(init_point)
    vel = np.cos(phi) * m[0] + np.sin(phi) * m[1]
    closed = rt_characteristic_closed_form((*init_point, vel[0], vel[1], vel[2]),
                                           trace.s)
    max_dev = float(np.max(np.linalg.norm(closed - trace.points, axis=1))) \
        if len(trace) else 0.0
    return trace, closed, max_dev


# ---------------------------------------------------------------------------
# surface analyze


def _surface_sample_points(impl, region, grid):
    """The projections of the grid points near the surface that land inside
    the region, at most MAX_SURFACE_SAMPLES of them in grid order."""
    grid_pts = grid_points(*(np.linspace(lo, hi, grid) for lo, hi in region))
    vals = np.abs(ex.compiled_cse([impl.f], "arrays")(grid_pts)[:, 0])
    cell = max(hi - lo for lo, hi in region) / grid
    q = impl.project(grid_pts[vals < 2 * cell])
    lo, hi = np.array(region).T
    inside = np.all((lo - 1e-9 <= q) & (q <= hi + 1e-9), axis=1)
    return [tuple(p) for p in q[inside][:MAX_SURFACE_SAMPLES]]


def surface_analysis(st: StructureSpec, surf, region=None, grid=13):
    """(rows, summary) of ``surface analyze``.  Each row holds x, y, t, |N_h|,
    g(N,T), H, theta(S), tau(Z,Z) and tau(Z,nu) at a regular sample point.
    ``region`` is six values x0, x1, y0, y1, t0, t1; by default the chart
    domain clipped to [-3, 3].  A graph surface brings its own structure,
    and its singular set is searched over the whole graph."""
    graph = isinstance(surf, GraphSurface)
    if graph:
        st = surf.structure()
        impl = surf.to_implicit()
    else:
        impl = surf
    geom = impl.geometry(st)
    if region is None:
        region = tuple((max(lo, -3.0), min(hi, 3.0)) for lo, hi in st.chart_domain)
    else:
        region = tuple(zip(region[0::2], region[1::2]))
    loci = singular_set_detect(st, surf, region=None if graph else region, grid=grid)
    pts = np.reshape(_surface_sample_points(impl, region, grid), (-1, 3))
    fields, regular = geom.frame_values(pts)
    table = np.column_stack([pts] + [fields[k] for k in (
        "nh", "gNT", "H", "thetaS", "tauZZ", "tauZnu")])
    rows = [tuple(r) for r in table[regular].tolist()]
    summary = {
        "surface": getattr(surf, "name", ""), "samples": len(rows),
        "singular_loci": [{"kind": l.kind, "n_points": len(l.points),
                           "representative": l.points[0].tolist()} for l in loci],
        "max_abs_H": max((abs(r[5]) for r in rows), default=0.0),
        "config": {"grid": grid},
    }
    return rows, summary


# ---------------------------------------------------------------------------
# classify and catalog


def classify(c2: float, c3: float) -> dict:
    """Class, Webster curvature and |tau| of the unimodular algebra (c2, c3)."""
    name = cat.classify_unimodular(c2, c3)
    st = unimodular_structure(c2, c3)
    return {"c2": c2, "c3": c3, "class": name,
            "W": st.meta["webster_closed_form"],
            "tau_norm": st.meta["tau_norm_closed_form"]}


def catalog_list() -> list:
    return [{"name": e.name, "kind": e.kind, "description": e.description}
            for e in cat.catalog_structures() + cat.catalog_rt_surfaces()]


def catalog_show(name: str | None) -> dict:
    try:
        entry = cat.find_entry(name)
    except KeyError:
        raise StructureError(f"no catalog entry named {name!r}") from None
    return {"name": entry.name, "kind": entry.kind,
            "description": entry.description, "expected": entry.expected,
            "spec": entry.make().to_json()}


# ---------------------------------------------------------------------------
# variation first / second


def first_variation_report(surf, u: str, eps: float) -> dict:
    """First variation of the area of a graph along u nu_h: the displayed
    formula against the central difference of the area."""
    if not isinstance(surf, GraphSurface):
        raise StructureError("variation first expects a graph surface")
    st = surf.structure()
    geom = surf.to_implicit().geometry(st)
    U = VariationField.normal(geom, ex.parse(u))
    patch = ParamPatch.from_graph(st, surf)
    formula = first_variation_formula(geom, U, patch)
    numeric = first_variation_numeric(patch, U, eps=eps)
    denom = max(abs(numeric), 1e-14)
    return {"formula": formula, "numeric": numeric,
            "rel_difference": abs(formula - numeric) / denom,
            "config": {"u": u, "eps": eps}}


def second_variation_vertical_plane(width: float) -> dict:
    """Index form vs numeric second difference on the RT vertical plane."""
    rt = cat.rt_structure()
    a0 = 0.0
    vert = ImplicitSurface(ex.T, name="sigma_a")
    geom = vert.geometry(rt)
    w = float(width)
    sa0, ca0 = np.sin(a0), np.cos(a0)
    eps_e = ex.add(ex.mul(-sa0, ex.X), ex.mul(ca0, ex.Y))
    s_e = ex.add(ex.mul(ca0, ex.X), ex.mul(sa0, ex.Y))

    def cos2(v, half):
        return ex.mul(ex.cos(ex.mul(np.pi / (2 * half), v)),
                      ex.cos(ex.mul(np.pi / (2 * half), v)))

    u_amb = ex.mul(cos2(eps_e, w), cos2(s_e, w))
    U = VariationField.normal(geom, u_amb)
    ppatch = ParamPatch(rt, [ex.add(ex.mul(-sa0, ex.X), ex.mul(ca0, ex.Y)),
                             ex.add(ex.mul(ca0, ex.X), ex.mul(sa0, ex.Y)), a0],
                        ((-w, w), (-w, w)))
    numeric = second_variation_numeric(ppatch, U, eps=1e-3)
    patch = CharPatch.from_base_point(rt, vert, (0.0, 0.0, a0), (-w, w), (-w, w),
                                      n_eps=41, n_s=161)

    def u_fn(e, s):
        return (np.cos(np.pi * e / (2 * w)) * np.cos(np.pi * s / (2 * w))) ** 2

    r = index_form(patch, u_fn)
    return {"surface": "sigma_a", "index_form": r.value,
            "operator_form": r.operator_value, "numeric": numeric,
            "rel_difference": abs(r.value - numeric) / max(abs(numeric), 1e-14),
            "config": {"width": w}}


# ---------------------------------------------------------------------------
# Q runners (shared with rt-report)


def helicoid_q_samples(n_samples=50, seed=0, tube=0.15):
    """Q(u) over a seeded family of admissible bumps on the right helicoid."""
    rt = cat.rt_structure()
    heli = cat.find_entry("sigma_c").make()
    [(sp, sm, gpts)] = CharPatch.fan_from_curve(
        rt, heli, [(lambda e: (0.0, 0.0, e), (-2.0, 2.0))], 3.0, n_eps=41, n_s=121)
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(n_samples):
        width_e = rng.uniform(0.8, 1.9)
        center_e = rng.uniform(-0.4, 0.4)
        cut = rng.uniform(1.2, 2.7)

        def u_fn(e, s, we=width_e, ce=center_e, L=cut):
            s = np.abs(s)
            arg = np.clip((e - ce) / we, -1.0, 1.0)
            phi = np.cos(np.pi * arg / 2.0) ** 2
            rho = np.where(s <= tube, 1.0,
                           np.where(s < L, np.cos(np.pi * (np.minimum(s, L) - tube)
                                                  / (2 * (L - tube))) ** 2, 0.0))
            return phi * rho

        rep = stability_quadratic_Q((sp, sm), gpts, u_fn, tube_radius=tube)
        values.append(rep.value)
    return values


def plane_q_search(widths=(2.5, 5.0, 10.0, 20.0), tube=0.15):
    """Search for a negative Q direction on the plane y = 0 with the
    separated cosine ansatz u = cos(pi x / (2 x0)), constant along
    characteristic curves, widening x0 per the prescribed schedule."""
    rt = cat.rt_structure()
    plane = cat.find_entry("plane_y0").make()
    # both singular lines alpha = 0, pi at every width, in one fan flow
    curves = [(lambda e, a=alpha0: (e, 0.0, a), (-x0, x0))
              for x0 in widths for alpha0 in (0.0, np.pi)]
    fans = CharPatch.fan_from_curve(rt, plane, curves, np.pi / 2 - 0.05,
                                    n_eps=61, n_s=61)
    results = []
    for k, x0 in enumerate(widths):

        def u_fn(e, s, w=x0):
            arg = np.clip(e / w, -1.0, 1.0)
            return np.cos(np.pi * arg / 2.0) * np.ones_like(s)

        total = 0.0
        parts = []
        for sp, sm, gpts in fans[2 * k:2 * k + 2]:
            rep = stability_quadratic_Q((sp, sm), gpts, u_fn, tube_radius=tube)
            total += rep.value
            parts.append({"bulk": rep.bulk, "u2": rep.boundary_u2,
                          "Su2": rep.boundary_su2})
        results.append({"width": x0, "Q": total, "per_curve": parts})
    min_q = min(r["Q"] for r in results)
    return {"results": results, "min_Q": min_q,
            "negative_direction_found": bool(min_q < 0.0)}


def _surface_stability_samples(rt, surf, points) -> dict:
    """q, L(|N_h|) and the sign criterion sampled over surface points."""
    geom = surf.geometry(rt)
    q_fn = ex.compiled_cse([geom.q_expr()])
    qs = [float(q_fn(*p)[0]) for p in points]
    ls = [l_of_nh(geom, p)[0] for p in points]
    sign = stability_sign_field(geom, np.asarray(points))
    return {"q_samples": qs, "L_nh_samples": ls,
            "criterion_minmax": [sign.minimum, sign.maximum]}


def run_Q(surface: str, width=10.0, n_samples=1, seed=0) -> dict:
    rt = cat.rt_structure()
    if surface in ("sigma_c", "helicoid"):
        vals = helicoid_q_samples(n_samples=max(1, n_samples), seed=seed)
        surf = cat.find_entry("sigma_c").make()
        pts = [(r * np.cos(a), r * np.sin(a), a)
               for r in (0.5, 1.5) for a in np.linspace(-1.5, 1.5, 5)]
        rep = {"surface": "sigma_c", "Q_values": vals, "min_Q": min(vals),
               "verdict": "nonnegative" if min(vals) >= -1e-8 else "negative",
               "config": {"seed": seed, "n_samples": n_samples}}
        rep.update(_surface_stability_samples(rt, surf, pts))
        return rep
    if surface in ("plane_y0", "plane-y0"):
        rep = plane_q_search(widths=(width,))
        surf = cat.find_entry("plane_y0").make()
        pts = [(x, 0.0, a) for x in (-1.0, 1.0)
               for a in np.linspace(0.4, 2.7, 5)]
        rep["surface"] = "plane_y0"
        rep["Q_values"] = [r["Q"] for r in rep["results"]]
        rep["verdict"] = ("negative" if rep["negative_direction_found"]
                          else "nonnegative in the modeled class")
        # the search is deterministic; the seed is echoed for a uniform config
        rep["config"] = {"seed": seed, "width": width}
        rep.update(_surface_stability_samples(rt, surf, pts))
        return rep
    raise StructureError(f"variation Q supports sigma_c and plane_y0, not {surface!r}")


# ---------------------------------------------------------------------------
# rt-report


def rt_report(q_samples=50, seed=0) -> dict:
    """The roto-translation classification checks, run in order, each with
    its verdict and whether it matches the source table."""
    rt = cat.rt_structure()
    results = {
        "structure": _rt_structure_check(rt),
        "sigma_a": _rt_sigma_a(rt),
        "sigma_b": _rt_sigma_b(rt),
        "sigma_c": _rt_sigma_c(rt, q_samples, seed),
        "plane_y0": _rt_plane(rt),
        "x_plus_sin": _rt_x_plus_sin(rt),
    }
    all_ok = all(r.get("matches_source", True) for r in results.values())
    return {"checks": results, "all_match_source_table": all_ok,
            "config": {"q_samples": q_samples, "seed": seed}}


def _rt_structure_check(rt) -> dict:
    p = (0.2, -0.3, 0.4)
    tau = rt.tau_matrix(p)
    ok = (abs(rt.webster_curvature_tensor(p) - 0.5) < 1e-12
          and np.max(np.abs(tau - np.array([[0, .5], [.5, 0]]))) < 1e-12
          and abs(rt.c1 - 1.0) < 1e-12)
    return {"W": rt.webster_curvature_tensor(p), "c1": rt.c1,
            "tau_matrix": tau.tolist(), "matches_source": bool(ok),
            "verdict": "W = 1/2, c1 = 1, tau = [[0,1/2],[1/2,0]]"}


def _rt_sigma_a(rt) -> dict:
    vert = ImplicitSurface(ex.T, name="sigma_a")
    geom = vert.geometry(rt)
    xs = np.linspace(-2, 2, 13)
    pts = np.array([(x, y, 0.0) for x in xs for y in xs])
    sign = stability_sign_field(geom, pts)
    patch = CharPatch.from_base_point(rt, vert, (0.0, 0.0, 0.0),
                                      (-1.0, 1.0), (-1.0, 1.0),
                                      n_eps=31, n_s=121)
    vals = []
    for k in (1, 2):
        def u_fn(e, s, k=k):
            return (np.cos(np.pi * e / 2) * np.cos(np.pi * s / 2)) ** (2 * k)

        vals.append(index_form(patch, u_fn).value)
    ok = max(abs(sign.minimum), abs(sign.maximum)) <= 1e-10 and min(vals) >= -1e-10
    return {"criterion_minmax": [sign.minimum, sign.maximum],
            "index_form_samples": vals, "verdict": "stable",
            "matches_source": bool(ok)}


def _rt_sigma_b(rt) -> dict:
    surf = cat.find_entry("sigma_b").make()
    geom = surf.geometry(rt)
    pts = []
    for r in (0.3, 1.0, 2.0):
        for al in np.linspace(-3, 3, 11):
            # points on sigma_b: cos(a) x + sin(a) y = 0
            pts.append((-np.sin(al) * r, np.cos(al) * r, al))
    sign = stability_sign_field(geom, np.array(pts))
    ok = sign.minimum > 0.0
    return {"criterion_minmax": [sign.minimum, sign.maximum],
            "verdict": "unstable (criterion positive off the axis)",
            "matches_source": bool(ok)}


def _rt_sigma_c(rt, q_samples, seed) -> dict:
    surf = cat.find_entry("sigma_c").make()
    loci = singular_set_detect(rt, surf, region=RT_REPORT_REGIONS["sigma_c"], grid=13)
    curves = [l for l in loci if l.kind == "curve"]
    stat = stationarity_at_singular_curve(rt, surf, curves[0]) if curves else None
    q_vals = helicoid_q_samples(n_samples=q_samples, seed=seed)
    ok = (stat is not None and stat.orthogonal
          and min(q_vals) >= -1e-8)
    return {"singular_curves": len(curves),
            "orthogonality_dev_rad": stat.max_angle_dev if stat else None,
            "Q_values": q_vals, "min_Q": min(q_vals),
            "verdict": "stable, area-stationary",
            "matches_source": bool(ok)}


def _rt_plane(rt) -> dict:
    surf = cat.find_entry("plane_y0").make()
    loci = singular_set_detect(rt, surf, region=RT_REPORT_REGIONS["plane_y0"], grid=13)
    curves = [l for l in loci if l.kind == "curve"]
    stat_ok = bool(curves)
    devs = []
    for c in curves:
        rep = stationarity_at_singular_curve(rt, surf, c)
        devs.append(rep.max_angle_dev)
        stat_ok = stat_ok and rep.orthogonal
    search = plane_q_search()
    # the source classification tags the plane unstable; report whether the
    # engine found the negative direction it predicts
    return {"singular_curves": len(curves), "orthogonality_dev_rad": devs,
            "stationary": stat_ok, "Q_search": search,
            "verdict": ("negative direction found"
                        if search["negative_direction_found"]
                        else "no negative direction in the modeled class"),
            "matches_source": bool(search["negative_direction_found"])}


def _rt_x_plus_sin(rt) -> dict:
    surf = cat.find_entry("x_plus_sin").make()
    loci = singular_set_detect(rt, surf, region=RT_REPORT_REGIONS["x_plus_sin"], grid=13)
    curves = [l for l in loci if l.kind == "curve"]
    not_orth = []
    for c in curves:
        rep = stationarity_at_singular_curve(rt, surf, c)
        not_orth.append(not rep.orthogonal and rep.max_angle_dev > 1e-3)
    ok = bool(curves) and all(not_orth)
    return {"singular_curves": len(curves),
            "verdict": "minimal but not area-stationary",
            "matches_source": bool(ok)}
