import json
import subprocess
import sys

import numpy as np
import pytest

from subriemann.cli import main


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_structure_info_rt(capsys):
    code, out, _ = run_cli(["structure", "info", "rt", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["c1"] == pytest.approx(1.0)
    assert data["W"] == pytest.approx(0.5)
    assert data["tau_matrix"] == [[0.0, 0.5], [0.5, 0.0]]


def test_structure_info_heisenberg(capsys):
    code, out, _ = run_cli(["structure", "info", "heisenberg", "--json"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["W"] == pytest.approx(0.0, abs=1e-12)
    assert data["tau_norm"] == pytest.approx(0.0, abs=1e-12)


def test_structure_info_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "coordinate-frame", "frame": {')
    code, out, err = run_cli(["structure", "info", str(bad)], capsys)
    assert code == 2
    assert "malformed JSON" in err


def test_structure_info_missing_field(tmp_path, capsys):
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps({"kind": "coordinate-frame",
                               "chart_domain": [[-1, 1], [-1, 1], [-1, 1]]}))
    code, out, err = run_cli(["structure", "info", str(bad)], capsys)
    assert code == 2
    assert "frame" in err


def test_curve_integrate_zero_range(tmp_path, capsys):
    out_file = tmp_path / "trace.csv"
    code, _, _ = run_cli(["curve", "integrate", "--structure", "rt",
                          "--init", "0,0,0", "--phi", "0.3",
                          "--range", "0,0", "--step", "1e-3",
                          "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0].startswith("s,x,y,t")


def test_curve_integrate_oracle_pass(tmp_path, capsys):
    out_file = tmp_path / "trace.csv"
    code, _, err = run_cli(["curve", "integrate", "--structure", "rt",
                            "--init", "0,0,0", "--phi", "1.5707963267948966",
                            "--range", "0,2", "--step", "1e-3", "--oracle",
                            "--out", str(out_file)], capsys)
    assert code == 0
    assert "max oracle deviation" in err


def test_curve_integrate_outside_domain(capsys):
    code, _, err = run_cli(["curve", "integrate", "--structure", "rt",
                            "--init", "1000,0,0", "--range", "0,1"], capsys)
    assert code == 2
    assert "outside chart domain" in err


def test_classify_verb(capsys):
    code, out, _ = run_cli(["classify", "--c2", "1", "--c3", "-2", "--json"],
                           capsys)
    assert code == 0
    data = json.loads(out)
    assert data["class"] == "SU(2)"
    assert data["W"] == pytest.approx(3.0)


def test_catalog_list_and_show(capsys):
    code, out, _ = run_cli(["catalog", "list", "--json"], capsys)
    assert code == 0
    names = [r["name"] for r in json.loads(out)]
    assert "rt" in names and "sigma_c" in names
    code, out, _ = run_cli(["catalog", "show", "sigma_c", "--json"], capsys)
    data = json.loads(out)
    assert data["expected"]["stable"] is True
    assert data["spec"]["kind"] == "implicit"


def test_surface_analyze_graph(tmp_path, capsys):
    spec = tmp_path / "graph.json"
    spec.write_text(json.dumps({"kind": "graph", "expr": "0",
                                "domain": [[-1, 1], [-1, 1]],
                                "name": "flat"}))
    csv_out = tmp_path / "frame.csv"
    code, out, _ = run_cli(["surface", "analyze", "--structure", "heisenberg",
                            "--surface", str(spec), "--grid", "9",
                            "--csv-out", str(csv_out), "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["max_abs_H"] < 1e-10
    kinds = [l["kind"] for l in data["singular_loci"]]
    assert "isolated-point" in kinds
    header = csv_out.read_text().split("\n")[0]
    assert header == "x,y,t,nh,gNT,H,thetaS,tauZZ,tauZnu"


def test_variation_first_verb(capsys):
    code, out, _ = run_cli(["variation", "first", "--surface",
                            "__graph__", "--json"], capsys)
    assert code == 2  # unknown surface name is an input error


def test_variation_first_with_graph_file(tmp_path, capsys):
    spec = tmp_path / "graph.json"
    spec.write_text(json.dumps({"kind": "graph", "expr": "x^3 + y^2",
                                "domain": [[0.2, 1.2], [0.2, 1.2]]}))
    code, out, _ = run_cli(["variation", "first", "--surface", str(spec),
                            "--u", "((x-0.2)*(1.2-x)*(y-0.2)*(1.2-y))^2",
                            "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["rel_difference"] < 1e-4


def test_cli_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        code, _, _ = run_cli(["classify", "--c2", "0.5", "--c3", "0.25",
                              "--json", "--out", str(f)], capsys)
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_cli_entrypoint_subprocess():
    proc = subprocess.run([sys.executable, "-m", "subriemann.cli",
                           "classify", "--c2", "0", "--c3", "0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Heisenberg" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["curve", "integrate", "--structure", "rt", "--init", "0,0,0", "--step"],
    ["variation", "second", "--width"],
    ["surface", "analyze", "--surface", "sigma_c", "--grid"],
])
@pytest.mark.parametrize("value", ["0", "nan", "inf", "-1"])
def test_numeric_arguments_must_be_positive_and_finite(argv, value, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv + [value])
    assert info.value.code == 2
    _, err = capsys.readouterr()
    assert "error: argument" in err and "Traceback" not in err


_CURVE = ["curve", "integrate", "--structure", "rt"]


@pytest.mark.parametrize("args", [
    ["--init", "0,0,0", "--phi", "inf"], ["--init", "0,0,0", "--phi", "nan"],
    ["--init", "0,0,0", "--lambda", "inf"], ["--init", "0,0,0", "--lambda", "nan"],
    ["--init", "0,0,inf"], ["--init", "nan,0,0"], ["--init", "0,0"], ["--init", "0,0,0,0"],
    ["--init", "0,0,0", "--range", "0,inf"], ["--init", "0,0,0", "--range", "nan,1"],
    ["--init", "0,0,0", "--range", "1"], ["--init", "0,0,0", "--range", "0,1,2"],
    ["--init", "0,0,0", "--oracle", "--oracle-tol", "nan"],
])
def test_curve_inputs_must_be_finite_with_the_right_count(args, capsys):
    with pytest.raises(SystemExit) as info:
        main(_CURVE + args)
    assert info.value.code == 2
    _, err = capsys.readouterr()
    assert "error: argument --" in err and "Traceback" not in err


def test_curve_oracle_columns_follow_the_trace_columns(tmp_path, capsys):
    from subriemann import catalog as cat
    from subriemann.cli import _fmt
    from subriemann.curves import (CharState, integrate_characteristic,
                                   rt_characteristic_closed_form)
    out_file = tmp_path / "trace.csv"
    code, _, _ = run_cli(_CURVE + ["--init", "0,0,0.5", "--phi", "0.3", "--range", "0,0.5",
                                   "--oracle", "--out", str(out_file)], capsys)
    assert code == 0
    rt = cat.rt_structure()
    trace = integrate_characteristic(rt, CharState((0, 0, 0.5), 0.3), (0.0, 0.5), 1e-3)
    m = rt.frame_matrix((0, 0, 0.5))
    vel = np.cos(0.3) * m[0] + np.sin(0.3) * m[1]
    closed = rt_characteristic_closed_form((0, 0, 0.5, *vel), trace.s)
    rows = trace.to_csv().strip().split("\n")
    expected = [rows[0] + ",x_oracle,y_oracle,t_oracle"] + [
        row + "," + ",".join(_fmt(v) for v in c) for row, c in zip(rows[1:], closed)]
    assert out_file.read_text() == "\n".join(expected) + "\n"


def test_surface_sample_points_stop_at_the_cap():
    from subriemann import catalog as cat
    from subriemann.cli import MAX_SURFACE_SAMPLES, _surface_sample_points
    rt = cat.rt_structure()
    surf = cat.find_entry("sigma_c").make()
    region = ((-3.0, 3.0),) * 3
    calls = []
    project = surf.project
    surf.project = lambda q: calls.append(1) or project(q)
    pts = _surface_sample_points(rt, surf, region, 13)
    del surf.project
    # reference: project every candidate, keep those in the region, cut
    axes = [np.linspace(lo, hi, 13) for lo, hi in region]
    gx, gy, gt = np.meshgrid(*axes, indexing="ij")
    idx = np.where(np.abs(surf.f.eval(gx, gy, gt)) < 2 * 6.0 / 13)
    ref = [tuple(q) for q in (surf.project(np.array([gx[i], gy[i], gt[i]]))
                              for i in zip(*idx))
           if all(lo - 1e-9 <= c <= hi + 1e-9 for c, (lo, hi) in zip(q, region))]
    assert len(ref) > MAX_SURFACE_SAMPLES
    assert pts == ref[:MAX_SURFACE_SAMPLES]
    assert len(calls) < len(idx[0])
