import ast
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

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


def test_structure_info_on_a_chart_not_centred_on_zero(tmp_path, capsys):
    # the residual points lie in the chart's middle half, here x in [0.875, 1.625]
    spec = tmp_path / "heisenberg_off_centre.json"
    spec.write_text(json.dumps({"kind": "coordinate-frame",
                                "chart_domain": [[0.5, 2], [-1, 1], [-1, 1]],
                                "frame": {"X": ["1", "0", "y"], "Y": ["0", "1", "-x"],
                                          "T": ["0", "0", "1"]}}))
    code, out, err = run_cli(["structure", "info", str(spec), "--json"], capsys)
    assert code == 0, err
    assert max(json.loads(out)["residuals"].values()) < 1e-12


_STRUCTURE_VERBS = (["structure", "info", "{}"],
                    ["surface", "analyze", "--structure", "{}", "--surface", "sigma_c",
                     "--grid", "3"])
_SURFACE_VERBS = (["surface", "analyze", "--surface", "{}", "--grid", "3"],
                  ["variation", "first", "--surface", "{}"])
_FRAME = {"X": ["1", "0", "y"], "Y": ["0", "1", "-x"], "T": ["0", "0", "1"]}
_WRONG_SHAPES = [
    ([1, 2], "JSON object", _STRUCTURE_VERBS + _SURFACE_VERBS),
    ({"kind": "coordinate-frame", "chart_domain": 5, "frame": _FRAME}, "chart_domain",
     _STRUCTURE_VERBS),
    ({"kind": "coordinate-frame", "chart_domain": [[-1, 1]] * 3,
      "frame": {**_FRAME, "X": [1, 0, "y"]}}, "frame.X", _STRUCTURE_VERBS),
    ({"kind": "lie-group", "c2": [1], "c3": 0}, "c2", _STRUCTURE_VERBS),
    ({"kind": "implicit", "expr": 5}, "expr", _SURFACE_VERBS),
    ({"kind": "implicit"}, "expr", _SURFACE_VERBS),
    ({"kind": "graph", "expr": "x*y", "domain": 3}, "domain", _SURFACE_VERBS),
]


@pytest.mark.parametrize("spec, field, argv", [
    (spec, field, argv) for spec, field, verbs in _WRONG_SHAPES for argv in verbs])
def test_json_of_the_wrong_shape_is_an_input_error(spec, field, argv, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli([a.format(path) for a in argv], capsys)
    assert code == 2
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


_GRAPH = {"kind": "graph", "expr": "x*y", "domain": [[0.2, 1.2], [0.2, 1.2]]}


@pytest.mark.parametrize("spec, argv, message", [
    ({"kind": "implicit", "expr": "x/0"}, ["surface", "analyze", "--grid", "3"],
     "identically zero"),
    ({"kind": "implicit", "expr": "x/(y-y)"}, ["surface", "analyze", "--grid", "3"],
     "identically zero"),
    (_GRAPH, ["variation", "first", "--u", "1/(x-x)"], "identically zero"),
    # the horizontal gradient of f is the zero expression
    ({"kind": "implicit", "expr": "1"}, ["surface", "analyze", "--grid", "3"],
     "every point is singular"),
    ({"kind": "implicit", "expr": "t"},
     ["surface", "analyze", "--structure", "su2", "--grid", "3"], "every point is singular"),
])
def test_a_divisor_that_is_identically_zero_is_an_input_error(spec, argv, message,
                                                              tmp_path, capsys):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli([*argv, "--surface", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", _STRUCTURE_VERBS)
def test_a_degenerate_frame_is_named_as_the_input_error(argv, tmp_path, capsys):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps({"kind": "coordinate-frame", "chart_domain": [[-1, 1]] * 3,
                                "frame": {**_FRAME, "X": ["1", "0", "0"],
                                          "Y": ["1", "0", "0"]}}))
    code, _, err = run_cli([a.format(path) for a in argv], capsys)
    assert code == 2
    assert err.startswith("error: frame degenerate") and "identically zero" in err
    assert "division" not in err and "Traceback" not in err


@pytest.mark.parametrize("span, step, count", [("0,1", "1e-300", "1e+300"),
                                              ("-1e308,1e308", "1", "inf")])
def test_a_step_too_small_for_the_span_is_an_input_error(span, step, count, capsys,
                                                        monkeypatch):
    import subriemann.curves as curves

    def never(f, y, h):
        pytest.fail("a refused span took a step")

    monkeypatch.setattr(curves, "rk4_step", never)
    code, out, err = run_cli([*_CURVE, "--init", "0,0,0", f"--range={span}",
                              "--step", step], capsys)
    assert code == 2 and out == ""
    assert f"takes {count} RK4 steps" in err and "cap of 1,000,000" in err
    assert "Traceback" not in err


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


def _pole_frame(tmp_path, height):
    spec = tmp_path / "pole.json"
    spec.write_text(json.dumps({"kind": "coordinate-frame",
                                "chart_domain": [[-1, 1], [-1, 1], [-1, 1]],
                                "frame": {"X": ["1", "0", "y"],
                                          "Y": ["0", "1", "-x + " + height],
                                          "T": ["0", "0", "1"]}}))
    return str(spec)


@pytest.mark.parametrize("structure, init, phi, lam, span", [
    # phi' = -|c1| lambda overflows to -inf, where math.cos raises
    (None, "0.1,0.2,0.3", "0.3", "1e308", "0,0.05"),
    ("sqrt(y + 1)", "0,-0.999,0", "-1.5707", "0", "0,1"),   # sqrt of a negative
    ("exp(1000*y)", "0,0.709,0", "1.5707", "0", "0,1"),     # exp overflows
])
def test_a_curve_that_meets_a_pole_ends_truncated(structure, init, phi, lam, span,
                                                  tmp_path, capsys):
    ref = "rt" if structure is None else _pole_frame(tmp_path, structure)
    code, out, err = run_cli(["curve", "integrate", "--structure", ref, "--init", init,
                              "--phi", phi, "--lambda", lam, "--range", span,
                              "--step", "0.01" if structure is None else "0.001"], capsys)
    assert code == 0 and '"truncated": true' in err
    for text in (out, err):
        assert "Traceback" not in text
        assert "math domain error" not in text and "math range error" not in text
    assert all(math.isfinite(float(cell)) for row in out.splitlines()[1:]
               for cell in row.split(","))


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


@pytest.mark.parametrize("argv", [["catalog", "show"], ["catalog", "show", "nope"]])
def test_catalog_show_needs_a_known_name(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: no catalog entry named ") and "Traceback" not in err


def test_json_output_writes_no_negative_zero(capsys):
    code, out, _ = run_cli(["structure", "info", "heisenberg", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["W"] == 0.0 and "-0.0" not in out
    from subriemann.cli import _no_negative_zero
    payload = {"a": -0.0, "b": [np.float64(-0.0), (1.5, -2.0)], "c": np.array([-0.0, 3.0]),
               "d": 7, "e": "x"}
    assert json.dumps(_no_negative_zero(payload)) == \
        '{"a": 0.0, "b": [0.0, [1.5, -2.0]], "c": [0.0, 3.0], "d": 7, "e": "x"}'


def test_curve_csv_writes_no_negative_zero(capsys):
    code, out, _ = run_cli(["curve", "integrate", "--structure", "rt", "--init=-0.0,0,0",
                            "--phi=-0.0", "--range", "0,0.002", "--step", "0.001"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert rows[0] == ["0"] * 6
    assert len(rows) == 3 and all("-0" not in row for row in rows)


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


def test_surface_analyze_writes_null_for_a_non_finite_max_h(tmp_path, capsys):
    # x^1.5 is nan where x < 0, and its second derivative is inf on x = 0,
    # where some regular sample rows lie: H is nan there
    spec = tmp_path / "level.json"
    spec.write_text(json.dumps({"kind": "implicit", "expr": "x^1.5 + y - t^3"}))
    csv_out = tmp_path / "frame.csv"

    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["surface", "analyze", "--structure", "heisenberg",
                                  "--surface", str(spec), "--csv-out", str(csv_out)],
                                 capsys)
    assert code == 0 and err == ""
    data = json.loads(out, parse_constant=no_constant)
    assert data["max_abs_H"] is None and data["samples"] > 0
    h_cells = [row.split(",")[5] for row in csv_out.read_text().splitlines()[1:]]
    assert "nan" in h_cells


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
    # the child does not inherit pytest's pythonpath, so it is given the
    # source tree explicitly
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "subriemann.cli",
                           "classify", "--c2", "0", "--c3", "0"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0
    assert "Heisenberg" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["curve", "integrate", "--structure", "rt", "--init", "0,0,0", "--step"],
    ["variation", "second", "--width"],
    ["surface", "analyze", "--surface", "sigma_c", "--grid"],
    ["rt-report", "--q-samples"],
    ["variation", "first", "--eps"],
])
@pytest.mark.parametrize("value", ["0", "nan", "inf", "-1"])
def test_numeric_arguments_must_be_positive_and_finite(argv, value, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv + [value])
    assert info.value.code == 2
    _, err = capsys.readouterr()
    assert "error: argument" in err and "Traceback" not in err


_CURVE = ["curve", "integrate", "--structure", "rt"]
_REGION = ["surface", "analyze", "--surface", "sigma_c", "--region"]


@pytest.mark.parametrize("args", [_CURVE + a for a in [
    ["--init", "0,0,0", "--phi", "inf"], ["--init", "0,0,0", "--phi", "nan"],
    ["--init", "0,0,0", "--lambda", "inf"], ["--init", "0,0,0", "--lambda", "nan"],
    ["--init", "0,0,inf"], ["--init", "nan,0,0"], ["--init", "0,0"], ["--init", "0,0,0,0"],
    ["--init", "0,0,0", "--range", "0,inf"], ["--init", "0,0,0", "--range", "nan,1"],
    ["--init", "0,0,0", "--range", "1"], ["--init", "0,0,0", "--range", "0,1,2"],
    ["--init", "0,0,0", "--oracle", "--oracle-tol", "nan"],
]] + [
    ["classify", "--c2", "nan", "--c3", "1"], ["classify", "--c2", "inf", "--c3", "1"],
    ["classify", "--c2", "1", "--c3", "nan"], ["classify", "--c2", "1", "--c3", "inf"],
    _REGION + ["0,1,0,1,0"], _REGION + ["0,1,0,1,0,1,0"], _REGION + ["0,1,0,1,0,nan"],
])
def test_curve_inputs_must_be_finite_with_the_right_count(args, capsys):
    with pytest.raises(SystemExit) as info:
        main(args)
    assert info.value.code == 2
    _, err = capsys.readouterr()
    assert "error: argument --" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    _REGION + ["2,1,-1,1,-1,1"], _REGION + ["-1,1,1,-1,-1,1"], _REGION + ["-1,1,-1,1,1,1"],
    ["surface", "analyze", "--surface", "sigma_c", "--grid", "1"],
])
def test_surface_analyze_rejects_an_empty_sample_grid(args, capsys):
    # an inverted or empty interval, or one point per axis, used to exit 0
    # with "samples": 0
    with pytest.raises(SystemExit) as info:
        main(args)
    assert info.value.code == 2
    _, err = capsys.readouterr()
    assert "error: argument --" in err and "Traceback" not in err


def test_lists_that_begin_with_a_minus_parse_like_the_equals_form(tmp_path, capsys):
    written = []
    for region in (["--region", "-2.8,3.2,-3.1,2.9,-2.9,3.1"],
                   ["--region=-2.8,3.2,-3.1,2.9,-2.9,3.1"]):
        csv, summary = tmp_path / "frame.csv", tmp_path / "summary.json"
        code, _, _ = run_cli(["surface", "analyze", "--surface", "sigma_c", *region,
                              "--csv-out", str(csv), "--json", "--out", str(summary)], capsys)
        assert code == 0
        written.append((csv.read_bytes(), summary.read_bytes()))
    assert written[0] == written[1]

    # the run config echoes the lists as typed
    code, _, err = run_cli(_CURVE + ["--init", "-1,0,0", "--range", "-0.05,0",
                                     "--step", "0.01"], capsys)
    assert code == 0
    config = json.loads(err.split("# config: ")[1])
    assert (config["init"], config["range"]) == ("-1,0,0", "-0.05,0")

    # a value that is really missing is still an input error
    with pytest.raises(SystemExit) as info:
        main(_REGION + ["--grid", "3"])
    assert info.value.code == 2
    _, err = capsys.readouterr()
    assert "argument --region: expected one argument" in err and "Traceback" not in err


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


def test_curve_integrate_writes_its_csv_in_blocks(capsys, monkeypatch):
    # the --out file gets the table in pieces of at most a row, never the
    # whole text in one write, and the same text as stdout gets
    import io
    import subriemann.cli as cli
    argv = _CURVE + ["--init", "0,0,0.5", "--phi", "0.3", "--range", "0,2", "--oracle"]
    code, text, _ = run_cli(argv, capsys)
    assert code == 0 and text.count("\n") == 2002
    writes = []

    class Recorder(io.StringIO):
        def write(self, piece):
            writes.append(len(piece))
            return super().write(piece)

        def close(self):
            self.text = self.getvalue()
            super().close()

    fh = Recorder()
    monkeypatch.setattr(cli, "open", lambda path, mode: fh, raising=False)
    code, _, _ = run_cli(argv + ["--out", "trace.csv"], capsys)
    assert code == 0 and fh.text == text
    assert max(writes) < 1000


def test_curve_integrate_stops_quietly_when_the_reader_goes():
    # the child writes about 1.7 MB, far more than a pipe holds, after the
    # reader has closed its end; the rest of the table is dropped
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen([sys.executable, "-m", "subriemann.cli", *_CURVE,
                             "--init", "0,0,0", "--phi", "0.3", "--range", "0,20"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=str(src)))
    try:
        assert proc.stdout.readline() == b"s,x,y,t,phi,lambda\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert err.startswith("# config: ") and err.count("\n") == 1, err


def test_surface_sample_points_stop_at_the_cap():
    from subriemann import catalog as cat
    from subriemann.reproduce import MAX_SURFACE_SAMPLES, _surface_sample_points
    surf = cat.find_entry("sigma_c").make()
    region = ((-3.0, 3.0),) * 3
    calls = []
    project = surf.project
    surf.project = lambda q: calls.append(1) or project(q)
    pts = _surface_sample_points(surf, region, 13)
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


def test_rt_report_config_has_no_threads(capsys):
    code, out, _ = run_cli(["rt-report", "--json", "--q-samples", "1"], capsys)
    assert code in (0, 1)
    assert json.loads(out)["config"] == {"q_samples": 1, "seed": 0}


# seeds of one to seven 32-bit words (SeedSequence mixes the words past its
# pool of four in a loop of their own): edge values, a 140-bit seed and 100
# drawn seeds of 2 to 200 bits
STREAM_SEEDS = [0, 1, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3,
                (1 << 139) + 0x5DEECE66D, *(random.Random(26).getrandbits(bits)
                                           for bits in range(2, 202, 2))]


def test_uniform_stream_is_numpys_default_rng_bit_for_bit():
    from subriemann.reproduce import uniform_stream
    ranges = [(0.8, 1.9), (-0.4, 0.4), (1.2, 2.7), (-1.0, 1.0)]
    for seed in STREAM_SEEDS:
        ours, rng = uniform_stream(seed), np.random.default_rng(seed)
        for lo, hi in ranges * 3:
            got, want = ours(lo, hi), rng.uniform(lo, hi)
            assert type(got) is float and got.hex() == want.hex(), (seed, lo, hi)


def test_a_negative_seed_raises_numpys_message():
    from subriemann.reproduce import uniform_stream
    with pytest.raises(ValueError) as want:
        np.random.default_rng(-1)
    with pytest.raises(ValueError) as got:
        uniform_stream(-1)
    assert str(got.value) == str(want.value) == "expected non-negative integer"


def test_rt_report_with_a_negative_seed_is_an_input_error(capsys):
    code, out, err = run_cli(["rt-report", "--seed", "-1", "--q-samples", "1",
                              "--json"], capsys)
    assert code == 2 and out == ""
    assert "error: expected non-negative integer" in err and "Traceback" not in err


def test_the_verbs_that_draw_import_no_numpy_random(tmp_path):
    # numpy.random pulls in secrets, hmac and OpenSSL's _hashlib: about 5 MB
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "from subriemann.cli import main\n"
            f"out = {str(tmp_path / 'out.json')!r}\n"
            "for argv in (['rt-report', '--q-samples', '2', '--json'],\n"
            "             ['variation', 'Q', '--json'],\n"
            "             ['structure', 'info', 'rt', '--json']):\n"
            "    assert main(argv + ['--out', out]) in (0, 1), argv\n"
            "print('numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_singular_set_verbs_import_no_numpy_ma(tmp_path):
    # numpy.ma costs about 1.5 MB and 15 ms per process; np.unique imports it
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "from subriemann.cli import main\n"
            f"out = {str(tmp_path / 'out.json')!r}\n"
            "for argv in (['surface', 'analyze', '--structure', 'rt', '--surface', 'sigma_c'],\n"
            "             ['rt-report', '--seed', '1', '--json']):\n"
            "    assert main(argv + ['--out', out]) in (0, 1), argv\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_the_library_source_names_no_numpy_random():
    pkg = Path(__file__).resolve().parents[1] / "src" / "subriemann"
    files = sorted(pkg.rglob("*.py"))
    assert files
    for path in files:
        text = path.read_text()
        assert "np.random" not in text and "numpy.random" not in text, path


def test_the_library_source_has_one_exec_in_compiled_program():
    # every generated function (kernel, curve flow, RK4 step) is compiled
    # through expr.compiled_program
    pkg = Path(__file__).resolve().parents[1] / "src" / "subriemann"
    calls = []
    for path in sorted(pkg.rglob("*.py")):
        assert path.read_text().count("exec(") == (path.name == "expr.py"), path
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                calls += [(path.name, fn.name) for node in ast.walk(fn)
                          if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "exec"]
    assert calls == [("expr.py", "compiled_program")]


def test_the_library_source_calls_no_tree_walk():
    # every library evaluation is a compiled kernel; Expr.at, defined in
    # expr.py, is the tests' independent oracle
    pkg = Path(__file__).resolve().parents[1] / "src" / "subriemann"
    files = sorted(p for p in pkg.glob("*.py") if p.name != "expr.py")
    assert len(files) > 1
    for path in files:
        assert ".at(" not in path.read_text(), path


def test_the_library_runs_with_the_tree_walk_broken(monkeypatch):
    from subriemann import catalog as cat
    from subriemann import expr as ex
    from subriemann.reproduce import integrate_curve, structure_info, surface_analysis
    from subriemann.surfaces import (GraphSurface, mean_curvature_frame,
                                     mean_curvature_graph, rt_minimal_residual)

    def walk(self, p):
        raise AssertionError(f"the library walked the tree of {self}")

    monkeypatch.setattr(ex.Expr, "at", walk)
    for ref in ("rt", "su2"):
        assert structure_info(cat.structure_by_name(ref), ref)["brackets"]
    rt = cat.rt_structure()
    sigma_c = cat.find_entry("sigma_c").make()
    graph = GraphSurface(ex.parse("x*y"), domain=((0.2, 1.2), (0.2, 1.2)),
                         metric=((2.0, 0.5), (0.5, 1.0)))
    for surf in (sigma_c, graph):
        rows, _ = surface_analysis(rt, surf, grid=4)
        assert rows
    assert mean_curvature_graph(graph, (0.7, 0.6)).mu is not None
    assert abs(rt_minimal_residual(sigma_c.f, (0.3, 0.2, 0.5))) < 1e-10
    p = (0.7 * math.cos(0.5), 0.7 * math.sin(0.5), 0.5)
    assert abs(mean_curvature_frame(rt, sigma_c, p)) < 1e-10
    _, _, max_dev = integrate_curve(rt, (0.0, 0.0, 0.3), 0.4, 0.0, (0.0, 0.5), 1e-2,
                                    oracle=True)
    assert max_dev < 1e-8


@pytest.mark.parametrize("argv", [["rt-report", "--q-samples", "1"],
                                  ["variation", "Q"],
                                  ["variation", "Q", "--surface", "plane_y0"]])
def test_a_negative_seed_is_refused_before_any_work(argv, capsys, monkeypatch):
    from subriemann import catalog as cat

    def no_work():
        pytest.fail("a refused seed built the structure")

    monkeypatch.setattr(cat, "rt_structure", no_work)
    code, out, err = run_cli([*argv, "--seed", "-1", "--json"], capsys)
    assert code == 2 and out == ""
    assert err == "error: expected non-negative integer\n"


def test_a_frame_with_a_pole_on_the_validation_grid_is_an_input_error(tmp_path, capsys):
    # x = 0.8000000000000007 is np.linspace(-4, 4, 6)[3]: the validation
    # grid lands on the removable pole of Y's t-component, where every
    # derived quantity is nan
    pole = "x-0.8000000000000007"
    spec = tmp_path / "pole.json"
    spec.write_text(json.dumps({"kind": "coordinate-frame",
                                "chart_domain": [[-4, 4]] * 3,
                                "frame": {**_FRAME, "Y": ["0", "1", f"-x*({pole})/({pole})"]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["structure", "info", str(spec)], capsys)
    assert code == 2 and out == ""
    assert err == ("error: c1 = -g([X,Y],T) is nan at (0.8000000000000007, -2.4, -2.4): "
                   "the frame and its brackets must be finite on the chart\n")


def test_bench_tracer_finds_every_target():
    # the per-layer benchmark wraps package names from outside; a name it
    # cannot find silently drops its metrics
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "bench"),
                                                       str(root / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import layers; t = layers.Tracer(); t.install(); print(t.missing)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
