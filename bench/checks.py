"""Output checks of the benchmark ops.

Each check compares what the program wrote with a closed form evaluated
here, or with a property the method must have.  None compares with a stored
copy of an earlier output.  A check returns the list of its failures; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

RT_EXIT_OK, RT_EXIT_MISMATCH = 0, 1


def _close(a, b, tol):
    return abs(a - b) <= tol


def check_rt_report(report: dict, exit_code: int, q_samples: int) -> list:
    """The roto-translation report against the source table's invariants."""
    bad = []
    checks = report.get("checks", {})
    expected = {"structure", "sigma_a", "sigma_b", "sigma_c", "plane_y0", "x_plus_sin"}
    if set(checks) != expected:
        return [f"report checks {sorted(checks)} are not {sorted(expected)}"]

    st = checks["structure"]
    tau = np.asarray(st["tau_matrix"], dtype=float)
    if not (_close(st["W"], 0.5, 1e-12) and _close(st["c1"], 1.0, 1e-12)
            and tau.shape == (2, 2)
            and np.max(np.abs(tau - [[0.0, 0.5], [0.5, 0.0]])) <= 1e-12):
        bad.append(f"structure: W={st['W']}, c1={st['c1']}, tau={st['tau_matrix']}")

    sa = checks["sigma_a"]
    if max(abs(v) for v in sa["criterion_minmax"]) > 1e-10:
        bad.append(f"sigma_a: criterion {sa['criterion_minmax']} is not 0 within 1e-10")
    if not sa["index_form_samples"] or min(sa["index_form_samples"]) < 0.0:
        bad.append(f"sigma_a: index form samples {sa['index_form_samples']} not >= 0")

    sb = checks["sigma_b"]
    if not sb["criterion_minmax"][0] > 0.0:
        bad.append(f"sigma_b: criterion minimum {sb['criterion_minmax'][0]} is not > 0")

    sc = checks["sigma_c"]
    if sc["singular_curves"] != 1:
        bad.append(f"sigma_c: {sc['singular_curves']} singular curves, expected 1")
    dev = sc["orthogonality_dev_rad"]
    if dev is None or dev > 1e-6:
        bad.append(f"sigma_c: orthogonality deviation {dev} > 1e-6")
    qv = sc["Q_values"]
    if len(qv) != q_samples or min(qv) < -1e-8:
        bad.append(f"sigma_c: {len(qv)} Q values (expected {q_samples}), "
                   f"min {min(qv) if qv else None} < -1e-8")

    pl = checks["plane_y0"]
    if pl["singular_curves"] != 2:
        bad.append(f"plane_y0: {pl['singular_curves']} singular curves, expected 2")
    results = pl["Q_search"]["results"]
    if not results:
        bad.append("plane_y0: empty Q search")
    for rec in results:
        # u = cos(pi e / (2w)) on [-w, w]: int S(u)^2 = pi^2/(4w) on each curve
        w = rec["width"]
        su2 = sum(part["Su2"] for part in rec["per_curve"])
        expect = math.pi ** 2 / (2.0 * w)
        if abs(su2 - expect) > 1e-5 * expect:
            bad.append(f"plane_y0: width {w}: S(u)^2 term {su2!r} != pi^2/(2w) "
                       f"= {expect!r} within 1e-5 relative")

    xs = checks["x_plus_sin"]
    if xs["singular_curves"] != 2:
        bad.append(f"x_plus_sin: {xs['singular_curves']} singular curves, expected 2")
    if xs["matches_source"] is not True:
        bad.append("x_plus_sin: a singular curve is met orthogonally")

    all_match = report.get("all_match_source_table")
    if all_match != all(c.get("matches_source", True) for c in checks.values()):
        bad.append("all_match_source_table disagrees with the per-check verdicts")
    want = RT_EXIT_OK if all_match else RT_EXIT_MISMATCH
    if exit_code != want:
        bad.append(f"exit code {exit_code}, expected {want} "
                   f"(all_match_source_table = {all_match})")
    return bad


def rt_characteristic(x0, y0, a0, phi, s):
    """Zero-curvature RT characteristic from (x0, y0, a0) with Z = cos(phi) X
    + sin(phi) Y, X = d/da, Y = cos(a) d/dx + sin(a) d/dy: a' = cos(phi),
    radius r0 = sin(phi)."""
    r0, da = math.sin(phi), math.cos(phi)
    s = np.asarray(s, dtype=float)
    a = a0 + da * s
    if abs(da) < 1e-12:
        return np.stack([x0 + r0 * math.cos(a0) * s, y0 + r0 * math.sin(a0) * s,
                         np.full_like(s, a0)], axis=-1)
    return np.stack([x0 + (r0 / da) * (np.sin(a) - math.sin(a0)),
                     y0 + (r0 / da) * (math.cos(a0) - np.cos(a)), a], axis=-1)


def check_curve_csv(text: str, init, phi: float, n_steps: int, s_end: float,
                    tol: float = 1e-8) -> list:
    """`curve integrate --oracle` CSV against the closed-form characteristic."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:4] != ["s", "x", "y", "t"]:
        return [f"unexpected CSV header {rows[0] if rows else None}"]
    data = np.array([[float(v) for v in r[:4]] for r in rows[1:]])
    bad = []
    if data.shape[0] != n_steps + 1:
        bad.append(f"{data.shape[0]} CSV rows, expected {n_steps + 1}")
        return bad
    if not (_close(data[0, 0], 0.0, 1e-12) and _close(data[-1, 0], s_end, 1e-9)):
        bad.append(f"s runs from {data[0, 0]} to {data[-1, 0]}, expected 0 to {s_end}")
    ref = rt_characteristic(*init, phi, data[:, 0])
    dev = float(np.max(np.linalg.norm(data[:, 1:4] - ref, axis=1)))
    if not dev <= tol:
        bad.append(f"curve deviates from the closed form by {dev:.3e} > {tol:g}")
    return bad


def check_jacobi(s, vt, k: float, tol: float = 1e-6) -> list:
    """Vertical Jacobi field from (0, -1, 0) against -sin(sqrt(k) s)/sqrt(k)."""
    s = np.asarray(s, dtype=float)
    rk = math.sqrt(k)
    expect = -np.sin(rk * s) / rk if rk > 0 else -s
    dev = float(np.max(np.abs(np.asarray(vt) - expect)))
    if not dev <= tol:
        return [f"Jacobi trace (k = {k:.6g}) deviates by {dev:.3e} > {tol:g}"]
    return []


def check_family(s, vt, a0: float, phi: float, tol: float = 1e-4) -> list:
    """x-translation family of RT characteristics: V = d/dx, so g(V, T) =
    sin(a(s)) with a(s) = a0 + s cos(phi), the solution of y''' + k y' = 0
    (k = cos^2 phi) with y(0) = sin a0, y'(0) = cos(phi) cos a0,
    y''(0) = -cos^2(phi) sin a0."""
    expect = np.sin(a0 + np.asarray(s, dtype=float) * math.cos(phi))
    dev = float(np.max(np.abs(np.asarray(vt) - expect)))
    if not dev <= tol:
        return [f"family trace deviates from the Jacobi solution by {dev:.3e} > {tol:g}"]
    return []


def check_surface_frames(text: str, summary: dict, tol: float = 1e-10) -> list:
    """Adapted frames of the right helicoid x sin t - y cos t = 0 in RT.

    With r = x cos t + y sin t: Xf = r, Yf = 0, Tf = 1, so |N_h| = |r| /
    sqrt(1 + r^2), g(N, T)^2 + |N_h|^2 = 1; the helicoid is minimal with
    tau(Z, nu) = 1/2, tau(Z, Z) = 0, and its singular set is x = y = 0.
    """
    rows = list(csv.reader(io.StringIO(text)))
    header = ["x", "y", "t", "nh", "gNT", "H", "thetaS", "tauZZ", "tauZnu"]
    if not rows or rows[0] != header:
        return [f"unexpected CSV header {rows[0] if rows else None}"]
    bad = []
    data = np.array([[float(v) for v in r] for r in rows[1:]]).reshape(-1, 9)
    if data.shape[0] == 0 or data.shape[0] != summary.get("samples"):
        bad.append(f"{data.shape[0]} CSV rows, summary says {summary.get('samples')}")
    x, y, t, nh, gnt, h, _, tzz, tzn = data.T
    r = x * np.cos(t) + y * np.sin(t)
    worst = {
        "surface equation": (np.abs(x * np.sin(t) - y * np.cos(t)), 1e-8),
        "nh": (np.abs(nh - np.abs(r) / np.sqrt(1.0 + r * r)), tol),
        "gNT^2 + nh^2 - 1": (np.abs(gnt ** 2 + nh ** 2 - 1.0), tol),
        "H": (np.abs(h), tol),
        "tau(Z,nu) - 1/2": (np.abs(tzn - 0.5), tol),
        "tau(Z,Z)": (np.abs(tzz), tol),
    }
    for name, (dev, lim) in worst.items():
        if dev.size and not float(np.max(dev)) <= lim:
            i = int(np.argmax(dev))
            bad.append(f"{name}: {float(dev[i]):.3e} > {lim:g} at row {i + 1}")
    loci = summary.get("singular_loci", [])
    if len(loci) != 1 or loci[0].get("kind") != "curve":
        bad.append(f"singular loci {[l.get('kind') for l in loci]}, expected one curve")
    else:
        rep = loci[0]["representative"]
        if max(abs(rep[0]), abs(rep[1])) > 1e-8:
            bad.append(f"singular curve point {rep} is not on x = y = 0")
    return bad
