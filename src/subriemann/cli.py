"""Command-line front end.

Verbs: ``structure info``, ``curve integrate``, ``surface analyze``,
``variation first|second|Q``, ``classify``, ``rt-report`` and
``catalog list|show``.  Every verb has a ``--json`` machine mode; numeric
defaults are surfaced as flags and echoed into the output metadata so runs
are reproducible byte-for-byte from their configuration and seed.

Exit codes: 0 success, 1 property failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import expr as ex
from . import catalog as cat
from .structures import StructureSpec, StructureError, structure_from_json
from .curves import (CharState, integrate_characteristic, integrate_geodesic,
                     rt_characteristic_closed_form)
from .surfaces import (ImplicitSurface, GraphSurface, surface_from_json,
                       singular_set_detect, stationarity_at_singular_curve,
                       SingularPointSignal)
from .variation import (CharPatch, ParamPatch, VariationField, index_form,
                        second_variation_numeric, first_variation_formula,
                        first_variation_numeric, stability_quadratic_Q,
                        stability_sign_field, AdmissibilityError)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2

MAX_SURFACE_SAMPLES = 400   # frame rows of ``surface analyze``


def _threads() -> int:
    try:
        return max(1, int(os.environ.get("SUBRIEMANN_THREADS", "0"))) or os.cpu_count() or 1
    except ValueError:
        return os.cpu_count() or 1


def _fmt(v) -> str:
    v = float(v)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return "%.17g" % v


def _load_structure(ref: str) -> StructureSpec:
    try:
        return cat.structure_by_name(ref)
    except KeyError:
        pass
    try:
        with open(ref) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise StructureError(f"no catalog structure or file named {ref!r}")
    except json.JSONDecodeError as e:
        raise StructureError(f"malformed JSON in {ref!r}: {e}")
    return structure_from_json(data)


def _load_surface(ref: str):
    try:
        entry = cat.find_entry(ref)
        if entry.kind == "surface":
            return entry.make()
        raise StructureError(f"{ref!r} names a structure, not a surface")
    except KeyError:
        pass
    try:
        with open(ref) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise StructureError(f"no catalog surface or file named {ref!r}")
    except json.JSONDecodeError as e:
        raise StructureError(f"malformed JSON in {ref!r}: {e}")
    return surface_from_json(data)


def _emit(payload, args, text_fn=None):
    if getattr(args, "json", False) or text_fn is None:
        out = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    else:
        out = text_fn(payload)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(out if out.endswith("\n") else out + "\n")
    else:
        print(out)


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


# ---------------------------------------------------------------------------
# structure info


def cmd_structure_info(args) -> int:
    st = _load_structure(args.ref)
    p = tuple(0.5 * (lo + hi) for lo, hi in st.chart_domain)
    sample = st.curvature_sample(p)
    brackets = {}
    for a, b in (("X", "Y"), ("X", "T"), ("Y", "T")):
        v = st.lie_bracket(a, b, p)
        brackets[f"[{a},{b}]"] = [float(c) for c in v.components]
    residuals = _structure_residuals(st)
    payload = {
        "name": st.name or args.ref,
        "kind": st.kind,
        "c1": st.c1,
        "W": st.webster_curvature(p),
        "tau_norm": st.tau_norm(p),
        "tau_matrix": sample.tau_matrix.tolist(),
        "brackets": brackets,
        "residuals": residuals,
        "config": {"ref": args.ref},
    }

    def text(d):
        lines = [f"structure {d['name']} ({d['kind']})",
                 f"  c1      = {_fmt(d['c1'])}",
                 f"  W       = {_fmt(d['W'])}",
                 f"  |tau|   = {_fmt(d['tau_norm'])}",
                 "  tau     = " + json.dumps(d["tau_matrix"]),
                 "  brackets:"]
        for k, v in d["brackets"].items():
            lines.append(f"    {k} = ({', '.join(_fmt(c) for c in v)})")
        lines.append("  invariant residuals:")
        for k, v in d["residuals"].items():
            lines.append(f"    {k:24s} {v:.3e}")
        return "\n".join(lines)

    _emit(payload, args, text)
    return EXIT_OK


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


def cmd_curve_integrate(args) -> int:
    st = _load_structure(args.structure)
    init_point = _floats(args.init)
    s0, s1 = _floats(args.range)
    state = CharState(init_point, args.phi, args.lam)
    if args.geodesic:
        trace = integrate_geodesic(st, state, (s0, s1), args.step)
    else:
        trace = integrate_characteristic(st, state, (s0, s1), args.step)
    max_dev = None
    extra = ()
    if args.oracle:
        if st.name != "rt":
            raise StructureError("--oracle requires the rt structure")
        if args.lam != 0.0:
            raise StructureError("the closed-form oracle covers curvature 0 only")
        m = st.frame_matrix(init_point)
        vel = np.cos(args.phi) * m[0] + np.sin(args.phi) * m[1]
        init6 = (*init_point, vel[0], vel[1], vel[2])
        closed = rt_characteristic_closed_form(init6, trace.s)
        max_dev = float(np.max(np.linalg.norm(closed - trace.points, axis=1))) \
            if len(trace) else 0.0
        extra = [(name, closed[:, j])
                 for j, name in enumerate(("x_oracle", "y_oracle", "t_oracle"))]
    csv = trace.to_csv(extra=extra, extra_fmt=_fmt)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    config = {"structure": args.structure, "init": args.init, "phi": args.phi,
              "lambda": args.lam, "range": args.range, "step": args.step,
              "geodesic": args.geodesic, "truncated": trace.truncated}
    print("# config: " + json.dumps(config, sort_keys=True), file=sys.stderr)
    if max_dev is not None:
        print(f"# max oracle deviation: {max_dev:.3e}", file=sys.stderr)
        if max_dev > args.oracle_tol:
            return EXIT_PROPERTY
    return EXIT_OK


# ---------------------------------------------------------------------------
# surface analyze


def cmd_surface_analyze(args) -> int:
    st = _load_structure(args.structure)
    surf = _load_surface(args.surface)
    if isinstance(surf, GraphSurface):
        st = surf.structure()
        impl = surf.to_implicit()
    else:
        impl = surf
    geom = impl.geometry(st)
    region = args_region(args, st)
    loci = singular_set_detect(st, surf if isinstance(surf, GraphSurface) else impl,
                               region=region if not isinstance(surf, GraphSurface) else None,
                               grid=args.grid)
    rows = []
    pts = _surface_sample_points(st, impl, region, args.grid)
    for p in pts:
        try:
            fp = geom.frame_point(p)
        except SingularPointSignal:
            continue
        rows.append((p[0], p[1], p[2], fp.nh, fp.gNT, fp.H, fp.thetaS,
                     fp.tauZZ, fp.tauZnu))
    header = "x,y,t,nh,gNT,H,thetaS,tauZZ,tauZnu"
    csv = header + "\n" + "\n".join(",".join(_fmt(v) for v in r) for r in rows) + "\n"
    summary = {
        "surface": getattr(surf, "name", ""), "samples": len(rows),
        "singular_loci": [{"kind": l.kind, "n_points": len(l.points),
                           "representative": l.points[0].tolist()} for l in loci],
        "max_abs_H": max((abs(r[5]) for r in rows), default=0.0),
        "config": {"grid": args.grid},
    }
    if args.csv_out:
        with open(args.csv_out, "w") as fh:
            fh.write(csv)
    _emit(summary, args)
    return EXIT_OK


def args_region(args, st):
    if getattr(args, "region", None):
        vals = [float(v) for v in args.region.split(",")]
        return ((vals[0], vals[1]), (vals[2], vals[3]), (vals[4], vals[5]))
    return tuple((max(lo, -3.0), min(hi, 3.0)) for lo, hi in st.chart_domain)


def _surface_sample_points(st, impl, region, grid):
    axes = [np.linspace(lo, hi, grid) for lo, hi in region]
    gx, gy, gt = np.meshgrid(*axes, indexing="ij")
    vals = np.abs(np.broadcast_to(impl.f.eval(gx, gy, gt), gx.shape))
    cell = max(hi - lo for lo, hi in region) / grid
    idx = np.where(vals < 2 * cell)
    pts = []
    for i in zip(*idx):
        try:
            q = impl.project(np.array([gx[i], gy[i], gt[i]]))
        except ValueError:
            continue
        if all(lo - 1e-9 <= c <= hi + 1e-9 for c, (lo, hi) in zip(q, region)):
            pts.append(tuple(q))
            if len(pts) == MAX_SURFACE_SAMPLES:
                break
    return pts


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    name = cat.classify_unimodular(args.c2, args.c3)
    from .structures import unimodular_structure
    st = unimodular_structure(args.c2, args.c3)
    payload = {"c2": args.c2, "c3": args.c3, "class": name,
               "W": st.meta["webster_closed_form"],
               "tau_norm": st.meta["tau_norm_closed_form"]}
    _emit(payload, args, lambda d: f"{d['class']}  (W = {_fmt(d['W'])}, "
                                   f"|tau| = {_fmt(d['tau_norm'])})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# variation verbs


def cmd_variation(args) -> int:
    if args.which == "first":
        surf = _load_surface(args.surface)
        if not isinstance(surf, GraphSurface):
            raise StructureError("variation first expects a graph surface")
        st = surf.structure()
        geom = surf.to_implicit().geometry(st)
        u = ex.parse(args.u)
        U = VariationField.normal(geom, u)
        patch = ParamPatch.from_graph(st, surf)
        formula = first_variation_formula(geom, U, patch)
        numeric = first_variation_numeric(patch, U, eps=args.eps)
        denom = max(abs(numeric), 1e-14)
        payload = {"formula": formula, "numeric": numeric,
                   "rel_difference": abs(formula - numeric) / denom,
                   "config": {"u": args.u, "eps": args.eps}}
        _emit(payload, args)
        return EXIT_OK
    if args.which == "second":
        report = _second_variation_vertical_plane(args.width)
        _emit(report, args)
        return EXIT_OK
    # Q
    report = run_Q(args.surface, width=args.width, n_samples=1, seed=args.seed)
    _emit(report, args)
    return EXIT_OK


def _second_variation_vertical_plane(width: float) -> dict:
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


def _helicoid_fan(rt, s_max=3.0, n_eps=41, n_s=121):
    heli = cat.find_entry("sigma_c").make()
    gamma = lambda e: (0.0, 0.0, e)
    return CharPatch.fan_from_curve(rt, heli, gamma, (-2.0, 2.0), s_max,
                                    n_eps=n_eps, n_s=n_s), heli


def _plane_fans(rt, width, n_eps=61, n_s=61):
    plane = cat.find_entry("plane_y0").make()
    fans = []
    for alpha0 in (0.0, np.pi):
        gamma = lambda e, a=alpha0: (e, 0.0, a)
        fans.append(CharPatch.fan_from_curve(rt, plane, gamma,
                                             (-width, width), np.pi / 2 - 0.05,
                                             n_eps=n_eps, n_s=n_s))
    return fans, plane


def helicoid_q_samples(n_samples=50, seed=0, tube=0.15):
    """Q(u) over a seeded family of admissible bumps on the right helicoid."""
    rt = cat.rt_structure()
    (sp, sm, gpts), _ = _helicoid_fan(rt)
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


def plane_q_search(widths=(2.5, 5.0, 10.0, 20.0), seed=0, tube=0.15):
    """Search for a negative Q direction on the plane y = 0 with the
    separated cosine ansatz u = cos(pi x / (2 x0)), constant along
    characteristic curves, widening x0 per the prescribed schedule."""
    rt = cat.rt_structure()
    results = []
    for x0 in widths:
        fans, plane = _plane_fans(rt, width=x0)
        total = 0.0
        parts = []
        for (sp, sm, gpts) in fans:
            def u_fn(e, s, w=x0):
                arg = np.clip(e / w, -1.0, 1.0)
                return np.cos(np.pi * arg / 2.0) * np.ones_like(s)

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
    from .variation import l_of_nh
    geom = surf.geometry(rt)
    qs, ls = [], []
    for p in points:
        qs.append(geom.q_expr().at(p))
        ls.append(l_of_nh(geom, p)[0])
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
        rep = plane_q_search(widths=(width,), seed=seed)
        surf = cat.find_entry("plane_y0").make()
        pts = [(x, 0.0, a) for x in (-1.0, 1.0)
               for a in np.linspace(0.4, 2.7, 5)]
        rep["surface"] = "plane_y0"
        rep["Q_values"] = [r["Q"] for r in rep["results"]]
        rep["verdict"] = ("negative" if rep["negative_direction_found"]
                          else "nonnegative in the modeled class")
        rep["config"] = {"seed": seed, "width": width}
        rep.update(_surface_stability_samples(rt, surf, pts))
        return rep
    raise StructureError(f"variation Q supports sigma_c and plane_y0, not {surface!r}")


# ---------------------------------------------------------------------------
# rt-report


def cmd_rt_report(args) -> int:
    report = rt_report(q_samples=args.q_samples, seed=args.seed)
    _emit(report, args, _rt_report_text)
    return EXIT_OK if report["all_match_source_table"] else EXIT_PROPERTY


def rt_report(q_samples=50, seed=0) -> dict:
    rt = cat.rt_structure()
    tasks = {
        "structure": lambda: _rt_structure_check(rt),
        "sigma_a": lambda: _rt_sigma_a(rt),
        "sigma_b": lambda: _rt_sigma_b(rt),
        "sigma_c": lambda: _rt_sigma_c(rt, q_samples, seed),
        "plane_y0": lambda: _rt_plane(rt, seed),
        "x_plus_sin": lambda: _rt_x_plus_sin(rt),
    }
    with ThreadPoolExecutor(max_workers=_threads()) as pool:
        futures = {k: pool.submit(fn) for k, fn in tasks.items()}
        results = {k: f.result() for k, f in futures.items()}
    all_ok = all(r.get("matches_source", True) for r in results.values())
    return {"checks": results, "all_match_source_table": all_ok,
            "config": {"q_samples": q_samples, "seed": seed,
                       "threads": _threads()}}


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
    loci = singular_set_detect(rt, surf, region=((-2, 2), (-2, 2), (-2, 2)),
                               grid=13)
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


def _rt_plane(rt, seed) -> dict:
    surf = cat.find_entry("plane_y0").make()
    loci = singular_set_detect(rt, surf, region=((-2, 2), (-2, 2), (-0.8, 4.0)),
                               grid=13)
    curves = [l for l in loci if l.kind == "curve"]
    stat_ok = bool(curves)
    devs = []
    for c in curves:
        rep = stationarity_at_singular_curve(rt, surf, c)
        devs.append(rep.max_angle_dev)
        stat_ok = stat_ok and rep.orthogonal
    search = plane_q_search(seed=seed)
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
    loci = singular_set_detect(rt, surf, region=((-2, 2), (-2, 2), (0.3, 5.9)),
                               grid=13)
    curves = [l for l in loci if l.kind == "curve"]
    not_orth = []
    for c in curves:
        rep = stationarity_at_singular_curve(rt, surf, c)
        not_orth.append(not rep.orthogonal and rep.max_angle_dev > 1e-3)
    ok = bool(curves) and all(not_orth)
    return {"singular_curves": len(curves),
            "verdict": "minimal but not area-stationary",
            "matches_source": bool(ok)}


def _rt_report_text(report) -> str:
    lines = ["roto-translation report"]
    for name, res in report["checks"].items():
        flag = "ok " if res.get("matches_source", True) else "FAIL"
        lines.append(f"  [{flag}] {name}: {res.get('verdict', '')}")
    lines.append("  all match source table: "
                 + str(report["all_match_source_table"]))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# catalog verbs


def cmd_catalog(args) -> int:
    entries = cat.catalog_structures() + cat.catalog_rt_surfaces()
    if args.which == "list":
        payload = [{"name": e.name, "kind": e.kind, "description": e.description}
                   for e in entries]
        _emit(payload, args, lambda d: "\n".join(
            f"{r['name']:16s} {r['kind']:9s} {r['description']}" for r in d))
        return EXIT_OK
    entry = cat.find_entry(args.name)
    obj = entry.make()
    payload = {"name": entry.name, "kind": entry.kind,
               "description": entry.description, "expected": entry.expected,
               "spec": obj.to_json()}
    _emit(payload, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _positive(kind):
    """argparse type: a finite number of ``kind`` (float or int) above 0."""
    def parse(text: str):
        try:
            v = kind(text)
        except ValueError:
            v = None
        if v is None or not (math.isfinite(v) and v > 0):
            raise argparse.ArgumentTypeError(
                f"must be a positive finite {kind.__name__}, got {text!r}")
        return v
    return parse


def _finite_float(text: str) -> float:
    """argparse type: a finite float."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"must be a finite float, got {text!r}")
    return v


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _finite_floats(count: int):
    """argparse type: ``count`` comma-separated finite floats.  The text is
    kept as given, since the run config echoes it; read it with _floats."""
    def parse(text: str) -> str:
        try:
            vals = _floats(text)
        except ValueError:
            vals = ()
        if len(vals) != count or not all(map(math.isfinite, vals)):
            raise argparse.ArgumentTypeError(
                f"must be {count} comma-separated finite floats, got {text!r}")
        return text
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="subriemann",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("structure", help="structure inspection")
    ssub = p.add_subparsers(dest="action", required=True)
    pi = ssub.add_parser("info")
    pi.add_argument("ref", help="catalog name or JSON file")
    pi.add_argument("--json", action="store_true")
    pi.add_argument("--out")
    pi.set_defaults(fn=cmd_structure_info)

    p = sub.add_parser("curve", help="curve integration")
    csub = p.add_subparsers(dest="action", required=True)
    ci = csub.add_parser("integrate")
    ci.add_argument("--structure", required=True)
    ci.add_argument("--init", type=_finite_floats(3), required=True, help="x,y,t")
    ci.add_argument("--phi", type=_finite_float, default=0.0)
    ci.add_argument("--lambda", dest="lam", type=_finite_float, default=0.0)
    ci.add_argument("--range", type=_finite_floats(2), default="0,10", help="s0,s1")
    ci.add_argument("--step", type=_positive(float), default=1e-3)
    ci.add_argument("--geodesic", action="store_true")
    ci.add_argument("--oracle", action="store_true")
    ci.add_argument("--oracle-tol", type=_positive(float), default=1e-8)
    ci.add_argument("--out")
    ci.set_defaults(fn=cmd_curve_integrate)

    p = sub.add_parser("surface", help="surface analysis")
    fsub = p.add_subparsers(dest="action", required=True)
    fa = fsub.add_parser("analyze")
    fa.add_argument("--structure", default="rt")
    fa.add_argument("--surface", required=True)
    fa.add_argument("--grid", type=_positive(int), default=13)
    fa.add_argument("--region")
    fa.add_argument("--csv-out")
    fa.add_argument("--json", action="store_true")
    fa.add_argument("--out")
    fa.set_defaults(fn=cmd_surface_analyze)

    p = sub.add_parser("variation", help="variation computations")
    p.add_argument("which", choices=["first", "second", "Q"])
    p.add_argument("--surface", default="sigma_c")
    p.add_argument("--u", default="(1-x*x)^2*(1-y*y)^2")
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--width", type=_positive(float), default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_variation)

    p = sub.add_parser("classify", help="unimodular Lie-group classifier")
    p.add_argument("--c2", type=float, required=True)
    p.add_argument("--c3", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("rt-report", help="full roto-translation verdict suite")
    p.add_argument("--q-samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_rt_report)

    p = sub.add_parser("catalog", help="catalog listing")
    p.add_argument("which", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_catalog)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (StructureError, ex.DomainError, AdmissibilityError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
