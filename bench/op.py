"""One benchmark op, run in a fresh process.

    python3 bench/op.py <workload> '<inputs as JSON>' <out_dir> [<trace_file>]

Times the import of ``subriemann`` and ``subriemann.cli`` (set-up), runs the
op through the package's public entry points, reads the peak RSS, then
checks the outputs.  An exception, or an exit code the op does not allow,
fails the op; an output that breaks a check makes it wrong.  With a trace
file the op runs under the tracer of ``layers.py`` and writes its spans
there.  Prints one JSON line.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")

# curves workload: 10^4 steps of the CLI curve, 2000-step Jacobi runs
CURVE_RANGE, CURVE_STEP, CURVE_STEPS = (0.0, 10.0), 1e-3, 10_000
JACOBI_RANGE, JACOBI_STEP = (0.0, 2.0), 1e-3
HEIS_LAMBDA, HEIS_K = 1.0, 4.0
RT_Q_SAMPLES = 50


def run_rt_report(sr, inputs, out):
    path = os.path.join(out, "report.json")
    argv = ["rt-report", "--json", "--seed", str(inputs["q_seed"]), "--out", path]
    t0 = time.perf_counter()
    code = sr.cli.main(argv)
    t1 = time.perf_counter()

    def check():
        import checks
        with open(path) as fh:
            report = json.load(fh)
        return checks.check_rt_report(report, code, RT_Q_SAMPLES)

    return t1 - t0, code, (0, 1), check


def run_curves(sr, inputs, out):
    phi, a0, phi_h = inputs["phi"], inputs["a0"], inputs["phi_h"]
    path = os.path.join(out, "curve.csv")
    argv = ["curve", "integrate", "--structure", "rt", "--init", f"0,0,{a0!r}",
            "--phi", repr(phi), "--oracle", "--out", path]
    cat = sr.catalog
    t0 = time.perf_counter()
    code = sr.cli.main(argv)
    rt = cat.structure_by_name("rt")
    heis = cat.structure_by_name("heisenberg")
    jac_rt = sr.jacobi_vertical_ode(rt, sr.CharState((0.0, 0.0, a0), phi, 0.0),
                                    (0.0, -1.0, 0.0), JACOBI_RANGE, JACOBI_STEP)
    jac_h = sr.jacobi_vertical_ode(heis, sr.CharState((0.0, 0.0, 0.0), phi_h, HEIS_LAMBDA),
                                   (0.0, -1.0, 0.0), JACOBI_RANGE, JACOBI_STEP)
    fam = sr.jacobi_from_curve_family(
        rt, lambda e: sr.CharState((e, 0.0, a0), phi, 0.0), 0.0,
        JACOBI_RANGE, JACOBI_STEP)
    t1 = time.perf_counter()

    def check():
        import checks
        with open(path) as fh:
            text = fh.read()
        return (checks.check_curve_csv(text, (0.0, 0.0, a0), phi, CURVE_STEPS,
                                       CURVE_RANGE[1])
                + checks.check_jacobi(jac_rt.s, jac_rt.vt, math.cos(phi) ** 2)
                + checks.check_jacobi(jac_h.s, jac_h.vt, HEIS_K)
                + checks.check_family(fam.s, fam.vt, a0, phi))

    return t1 - t0, code, (0,), check


def run_surface_frames(sr, inputs, out):
    csv_path = os.path.join(out, "frame.csv")
    summary_path = os.path.join(out, "summary.json")
    region = ",".join(repr(v) for v in inputs["region"])
    argv = ["surface", "analyze", "--structure", "rt", "--surface", "sigma_c",
            f"--region={region}", "--csv-out", csv_path, "--out", summary_path]
    t0 = time.perf_counter()
    code = sr.cli.main(argv)
    t1 = time.perf_counter()

    def check():
        import checks
        with open(csv_path) as fh:
            text = fh.read()
        with open(summary_path) as fh:
            summary = json.load(fh)
        return checks.check_surface_frames(text, summary)

    return t1 - t0, code, (0,), check


OPS = {"rt_report": run_rt_report, "curves": run_curves,
       "surface_frames": run_surface_frames}


def main(argv):
    workload, inputs, out = argv[0], json.loads(argv[1]), argv[2]
    trace_file = argv[3] if len(argv) > 3 else None
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import subriemann
    import subriemann.cli  # noqa: F401
    setup = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(subriemann.__file__)) != os.path.join(SRC, "subriemann"):
        raise RuntimeError(f"imported subriemann from {subriemann.__file__}, not {SRC}")
    import numpy

    tracer = None
    if trace_file:
        import layers
        tracer = layers.Tracer()
        tracer.install()
        cache_before = len(getattr(subriemann.expr, "_FAST_CACHE", ()))

    op_s, code, allowed, check = OPS[workload](subriemann, inputs, out)
    if code not in allowed:
        raise RuntimeError(f"{workload}: exit code {code}, expected one of {allowed}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"setup_s": setup, "op_s": op_s, "rss_mb": rss_mb,
              "numpy": numpy.__version__}
    if tracer is not None:
        cache = getattr(subriemann.expr, "_FAST_CACHE", None)
        if cache is None:
            tracer.missing.append("subriemann.expr._FAST_CACHE")
        growth = len(cache) - cache_before if cache is not None else 0
        result["layers"] = tracer.metrics(growth)
        result["missing"] = tracer.missing
        with open(trace_file, "w") as fh:
            json.dump({"workload": workload, "inputs": inputs, "op_s": op_s,
                       "missing": tracer.missing, "layers": result["layers"],
                       "span_fields": ["id", "name", "layer", "start_s", "end_s",
                                       "parent"],
                       "spans": tracer.spans}, fh)
    try:
        result["check_failures"] = check()
    except Exception:  # an output the checks cannot read is a wrong output
        result["check_failures"] = [traceback.format_exc()]
    return result


if __name__ == "__main__":
    sys.path.insert(0, BENCH)
    try:
        res = main(sys.argv[1:])
    except Exception:  # reported to the parent as a failed op
        res = {"error": traceback.format_exc()}
    sys.stdout.flush()
    print(json.dumps(res))
