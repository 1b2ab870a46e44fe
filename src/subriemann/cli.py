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
import re
import sys

import numpy as np

from . import expr as ex
from . import catalog as cat
from .structures import StructureSpec, StructureError, structure_from_json
from .surfaces import surface_from_json
from .variation import AdmissibilityError
from .reproduce import (structure_info, integrate_curve, surface_analysis, classify,
                        catalog_list, catalog_show, first_variation_report,
                        second_variation_vertical_plane, run_Q, rt_report)
# bench/layers.py times these two runners by looking them up on this module
from .reproduce import helicoid_q_samples, plane_q_search  # noqa: F401

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2


def _fmt(v) -> str:
    v = float(v)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return "%.17g" % v


def _load_json(ref: str, what: str):
    try:
        with open(ref) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise StructureError(f"no catalog {what} or file named {ref!r}")
    except json.JSONDecodeError as e:
        raise StructureError(f"malformed JSON in {ref!r}: {e}")


def _load_structure(ref: str) -> StructureSpec:
    try:
        return cat.structure_by_name(ref)
    except KeyError:
        pass
    return structure_from_json(_load_json(ref, "structure"))


def _load_surface(ref: str):
    try:
        entry = cat.find_entry(ref)
        if entry.kind == "surface":
            return entry.make()
        raise StructureError(f"{ref!r} names a structure, not a surface")
    except KeyError:
        pass
    return surface_from_json(_load_json(ref, "surface"))


def _emit(payload, args, text_fn=None):
    if getattr(args, "json", False) or text_fn is None:
        out = json.dumps(_no_negative_zero(payload), indent=2, sort_keys=True,
                         default=_json_default)
    else:
        out = text_fn(payload)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(out if out.endswith("\n") else out + "\n")
    else:
        print(out)


def _no_negative_zero(o):
    """The payload with every -0.0 written as 0.0, as _fmt does for text."""
    if isinstance(o, float):
        return o + 0.0   # -0.0 + 0.0 is 0.0; every other float is unchanged
    if isinstance(o, dict):
        return {k: _no_negative_zero(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_no_negative_zero(v) for v in o]
    if isinstance(o, np.ndarray):
        return _no_negative_zero(o.tolist())
    return o


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return float(o) + 0.0
    raise TypeError(f"not JSON serializable: {type(o)}")


# ---------------------------------------------------------------------------
# verbs


def cmd_structure_info(args) -> int:
    payload = structure_info(_load_structure(args.ref), args.ref)

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


def cmd_curve_integrate(args) -> int:
    st = _load_structure(args.structure)
    trace, closed, max_dev = integrate_curve(
        st, _floats(args.init), args.phi, args.lam, _floats(args.range), args.step,
        geodesic=args.geodesic, oracle=args.oracle)
    extra = () if closed is None else [
        (name, closed[:, j]) for j, name in enumerate(("x_oracle", "y_oracle", "t_oracle"))]
    csv = trace.to_csv(extra=extra)
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


def cmd_surface_analyze(args) -> int:
    rows, summary = surface_analysis(
        _load_structure(args.structure), _load_surface(args.surface),
        region=_floats(args.region) if args.region else None, grid=args.grid)
    if args.csv_out:
        with open(args.csv_out, "w") as fh:
            fh.write("x,y,t,nh,gNT,H,thetaS,tauZZ,tauZnu\n"
                     + "\n".join(",".join(_fmt(v) for v in r) for r in rows) + "\n")
    _emit(summary, args)
    return EXIT_OK


def cmd_classify(args) -> int:
    _emit(classify(args.c2, args.c3), args,
          lambda d: f"{d['class']}  (W = {_fmt(d['W'])}, |tau| = {_fmt(d['tau_norm'])})")
    return EXIT_OK


def cmd_variation(args) -> int:
    if args.which == "first":
        report = first_variation_report(_load_surface(args.surface), args.u, args.eps)
    elif args.which == "second":
        report = second_variation_vertical_plane(args.width)
    else:
        report = run_Q(args.surface, width=args.width, n_samples=1, seed=args.seed)
    _emit(report, args)
    return EXIT_OK


def cmd_rt_report(args) -> int:
    report = rt_report(q_samples=args.q_samples, seed=args.seed)
    _emit(report, args, _rt_report_text)
    return EXIT_OK if report["all_match_source_table"] else EXIT_PROPERTY


def _rt_report_text(report) -> str:
    lines = ["roto-translation report"]
    for name, res in report["checks"].items():
        flag = "ok " if res.get("matches_source", True) else "FAIL"
        lines.append(f"  [{flag}] {name}: {res.get('verdict', '')}")
    lines.append("  all match source table: "
                 + str(report["all_match_source_table"]))
    return "\n".join(lines)


def cmd_catalog(args) -> int:
    if args.which == "list":
        _emit(catalog_list(), args, lambda d: "\n".join(
            f"{r['name']:16s} {r['kind']:9s} {r['description']}" for r in d))
    else:
        _emit(catalog_show(args.name), args)
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


def _grid_size(text: str) -> int:
    """argparse type: points per axis of a sample grid, an int of at least 2
    (one point would sample only the lower corner of the region)."""
    try:
        v = int(text)
    except ValueError:
        v = 0
    if v < 2:
        raise argparse.ArgumentTypeError(f"must be an int of at least 2, got {text!r}")
    return v


def _region(text: str) -> str:
    """argparse type: x0,x1,y0,y1,t0,t1, six finite floats with lo < hi on
    every axis.  The text is kept as given, like _finite_floats."""
    vals = _floats(_finite_floats(6)(text))
    for axis, lo, hi in zip("xyt", vals[0::2], vals[1::2]):
        if not lo < hi:
            raise argparse.ArgumentTypeError(
                f"the {axis} interval must have lo < hi, got {text!r}")
    return text


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
    fa.add_argument("--grid", type=_grid_size, default=13)
    fa.add_argument("--region", type=_region, help="x0,x1,y0,y1,t0,t1")
    fa.add_argument("--csv-out")
    fa.add_argument("--json", action="store_true")
    fa.add_argument("--out")
    fa.set_defaults(fn=cmd_surface_analyze)

    p = sub.add_parser("variation", help="variation computations")
    p.add_argument("which", choices=["first", "second", "Q"])
    p.add_argument("--surface", default="sigma_c")
    p.add_argument("--u", default="(1-x*x)^2*(1-y*y)^2")
    p.add_argument("--eps", type=_positive(float), default=1e-4)
    p.add_argument("--width", type=_positive(float), default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_variation)

    p = sub.add_parser("classify", help="unimodular Lie-group classifier")
    p.add_argument("--c2", type=_finite_float, required=True)
    p.add_argument("--c3", type=_finite_float, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("rt-report", help="full roto-translation verdict suite")
    p.add_argument("--q-samples", type=_positive(int), default=50)
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


def _join_negative_values(argv):
    """argv with ``--opt -1,0`` as ``--opt=-1,0``: argparse reads a token that
    starts with '-' and is no plain number (-1,0,0 or -1e-3) as an option."""
    out = []
    for tok in argv:
        if out and re.fullmatch(r"--[^=]+", out[-1]) and re.match(r"-[\d.]", tok):
            tok = out.pop() + "=" + tok
        out.append(tok)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except (StructureError, ex.DomainError, AdmissibilityError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
