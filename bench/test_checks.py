"""Self-tests of the benchmark's output checks and tracer; no op is run.

    python3 -m pytest -q bench/test_checks.py

Each check must accept an output that satisfies its oracle and reject a
copy with one value corrupted.
"""

import copy
import math
import os
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import layers  # noqa: E402


# -- rt-report ----------------------------------------------------------------


def _plane_record(w):
    su2 = math.pi ** 2 / (4.0 * w)  # per singular curve
    part = {"Su2": su2, "bulk": 1e-16, "u2": -1e-16}
    return {"width": w, "Q": 2 * su2, "per_curve": [dict(part), dict(part)]}


def _report():
    checks_ = {
        "structure": {"W": 0.5, "c1": 1.0, "tau_matrix": [[0.0, 0.5], [0.5, 0.0]],
                      "matches_source": True},
        "sigma_a": {"criterion_minmax": [0.0, 0.0],
                    "index_form_samples": [1.85, 1.69], "matches_source": True},
        "sigma_b": {"criterion_minmax": [0.2, 0.92], "matches_source": True},
        "sigma_c": {"singular_curves": 1, "orthogonality_dev_rad": 8e-17,
                    "Q_values": [7.5 + 0.1 * i for i in range(50)], "min_Q": 7.5,
                    "matches_source": True},
        "plane_y0": {"singular_curves": 2, "orthogonality_dev_rad": [0.0, 0.0],
                     "Q_search": {"results": [_plane_record(w)
                                              for w in (2.5, 5.0, 10.0, 20.0)]},
                     "matches_source": False},
        "x_plus_sin": {"singular_curves": 2, "matches_source": True},
    }
    return {"checks": checks_, "all_match_source_table": False}


def test_rt_report_accepts_source_invariants():
    assert checks.check_rt_report(_report(), 1, 50) == []


def test_rt_report_rejects_plane_su2_off_by_1e3():
    bad = _report()
    bad["checks"]["plane_y0"]["Q_search"]["results"][2]["per_curve"][0]["Su2"] += 1e-3
    msgs = checks.check_rt_report(bad, 1, 50)
    assert len(msgs) == 1 and "S(u)^2" in msgs[0]


@pytest.mark.parametrize("path,value", [
    (("structure", "W"), 0.5 + 1e-9),
    (("sigma_a", "criterion_minmax"), [0.0, 1e-9]),
    (("sigma_b", "criterion_minmax"), [0.0, 0.9]),
    (("sigma_c", "orthogonality_dev_rad"), 2e-6),
    (("sigma_c", "Q_values"), [1.0] * 49),
    (("plane_y0", "singular_curves"), 1),
    (("x_plus_sin", "matches_source"), False),
])
def test_rt_report_rejects_each_corrupted_invariant(path, value):
    bad = _report()
    bad["checks"][path[0]][path[1]] = value
    assert checks.check_rt_report(bad, 1, 50)


def test_rt_report_exit_code_follows_the_table_verdict():
    rep = _report()
    assert checks.check_rt_report(rep, 0, 50)
    rep["checks"]["plane_y0"]["matches_source"] = True
    rep["all_match_source_table"] = True
    assert checks.check_rt_report(rep, 0, 50) == []
    assert checks.check_rt_report(rep, 1, 50)


# -- curves ----------------------------------------------------------------------


def test_rt_characteristic_solves_the_frame_ode():
    # X = d/da, Y = cos a d/dx + sin a d/dy: the velocity of cos(phi) X +
    # sin(phi) Y is (sin(phi) cos a, sin(phi) sin a, cos(phi))
    phi, a0, h = 0.9, -1.3, 1e-5
    s = np.array([0.7, 3.1])
    d = (checks.rt_characteristic(0.2, -0.4, a0, phi, s + h)
         - checks.rt_characteristic(0.2, -0.4, a0, phi, s - h)) / (2 * h)
    p = checks.rt_characteristic(0.2, -0.4, a0, phi, s)
    want = np.stack([math.sin(phi) * np.cos(p[:, 2]), math.sin(phi) * np.sin(p[:, 2]),
                     np.full(2, math.cos(phi))], axis=-1)
    assert np.max(np.abs(d - want)) < 1e-8
    assert np.allclose(checks.rt_characteristic(0.2, -0.4, a0, phi, 0.0), [0.2, -0.4, a0])


def _curve_csv(phi, a0, n, s_end):
    s = np.linspace(0.0, s_end, n + 1)
    pts = checks.rt_characteristic(0.0, 0.0, a0, phi, s)
    lines = ["s,x,y,t,phi,lambda"]
    lines += [",".join("%.17g" % v for v in (si, *p, phi, 0.0)) for si, p in zip(s, pts)]
    return "\n".join(lines) + "\n"


def test_curve_csv_accepts_closed_form_and_rejects_moved_point():
    text = _curve_csv(0.7, 0.4, 200, 2.0)
    assert checks.check_curve_csv(text, (0.0, 0.0, 0.4), 0.7, 200, 2.0) == []
    rows = text.splitlines()
    cells = rows[57].split(",")
    cells[2] = "%.17g" % (float(cells[2]) + 1e-6)
    rows[57] = ",".join(cells)
    bad = "\n".join(rows) + "\n"
    assert checks.check_curve_csv(bad, (0.0, 0.0, 0.4), 0.7, 200, 2.0)


def test_jacobi_accepts_closed_form_and_rejects_shift_1e5():
    s = np.linspace(0.0, 2.0, 2001)
    for k in (math.cos(0.7) ** 2, 4.0):
        vt = -np.sin(math.sqrt(k) * s) / math.sqrt(k)
        assert checks.check_jacobi(s, vt, k) == []
        assert checks.check_jacobi(s, vt + 1e-5, k)


def test_family_solution_satisfies_the_jacobi_ode():
    phi, a0 = 0.6, 1.1
    s = np.linspace(0.0, 2.0, 4001)
    y = np.sin(a0 + s * math.cos(phi))
    h = s[1] - s[0]
    d1 = np.gradient(y, h)
    d3 = np.gradient(np.gradient(d1, h), h)
    inner = slice(10, -10)
    assert np.max(np.abs(d3 + math.cos(phi) ** 2 * d1)[inner]) < 1e-5
    assert checks.check_family(s, y, a0, phi) == []
    assert checks.check_family(s, y + 2e-4, a0, phi)


# -- surface frames ------------------------------------------------------------


def _helicoid_rows():
    rows = []
    for rho in (-2.5, -0.4, 0.3, 1.7):
        for t in (-2.0, 0.1, 2.9):
            x, y = rho * math.cos(t), rho * math.sin(t)
            nh = abs(rho) / math.sqrt(1 + rho * rho)
            gnt = 1.0 / math.sqrt(1 + rho * rho)
            rows.append([x, y, t, nh, gnt, 0.0, 0.5 * nh, 0.0, 0.5])
    return rows


def _frames(rows):
    head = "x,y,t,nh,gNT,H,thetaS,tauZZ,tauZnu\n"
    return head + "".join(",".join("%.17g" % v for v in r) + "\n" for r in rows)


_SUMMARY = {"samples": 12, "singular_loci": [
    {"kind": "curve", "n_points": 601, "representative": [5e-17, -1.6e-16, -3.0]}]}


def test_surface_frames_accepts_helicoid_and_rejects_h_1e3():
    rows = _helicoid_rows()
    assert checks.check_surface_frames(_frames(rows), _SUMMARY) == []
    bad = copy.deepcopy(rows)
    bad[5][5] = 1e-3
    msgs = checks.check_surface_frames(_frames(bad), _SUMMARY)
    assert len(msgs) == 1 and msgs[0].startswith("H:")


def test_surface_frames_rejects_off_axis_singular_curve_and_row_count():
    rows = _helicoid_rows()
    off = copy.deepcopy(_SUMMARY)
    off["singular_loci"][0]["representative"] = [0.0, 1e-3, 0.0]
    assert checks.check_surface_frames(_frames(rows), off)
    assert checks.check_surface_frames(_frames(rows[:-1]), _SUMMARY)


# -- tracer ------------------------------------------------------------------------


def test_tracer_self_time_and_outermost_calls():
    tr = layers.Tracer()

    def leaf(n):
        if n:
            return tr.call("expr.diff", "expr", False, leaf, (n - 1,), {})
        time.sleep(0.02)

    def outer():
        time.sleep(0.02)
        return tr.call("expr.diff", "expr", False, leaf, (3,), {})

    tr.call("cli.main", "cli", True, outer, (), {})
    assert tr.totals["expr.diff"][0] == 1  # recursion counted once
    assert tr.self_s["expr"] == pytest.approx(0.02, abs=0.015)
    assert tr.self_s["cli"] == pytest.approx(0.02, abs=0.015)
    assert [s[1] for s in tr.spans] == ["cli.main"]


def test_tracer_reports_missing_names(monkeypatch):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    monkeypatch.syspath_prepend(src)
    monkeypatch.setattr(layers, "TARGETS", (
        ("expr.gone", "subriemann.expr", "no_such_function", "expr", "hot"),
        ("expr.gone", "subriemann.expr", "Expr.no_such_method", "expr", "hot"),
        ("expr.gone", "subriemann.no_such_module", "f", "expr", "hot"),
    ))
    tr = layers.Tracer()
    tr.install()
    assert tr.missing == ["subriemann.expr.no_such_function",
                          "subriemann.expr.Expr.no_such_method",
                          "subriemann.no_such_module.f"]
