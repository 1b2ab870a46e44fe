"""End-to-end and per-layer benchmark of subriemann.

    python3 bench/run.py --workload rt_report --seed 1 --seconds 44 --trace 0

Runs from the root of a source checkout.  Each op is a fresh Python process
(``bench/op.py``) that imports the package from ``src/``, runs the
workload's op through the public entry points and checks its outputs.  One
client, closed loop: the next op starts when the previous one has ended, so
there is never more than one op process.  The op inputs are drawn from
``--seed``; the program gets only the drawn inputs.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced ops and reports the per-layer metrics of
the traced ones and the tracing overhead.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.  Per-op records
and the traced spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import layers  # noqa: E402

# a run must end within 180 s; an op that runs past this is killed and failed
RUN_LIMIT_S = 170.0

END_TO_END = {"op_s": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def rt_report_inputs(rng):
    return {"q_seed": rng.randrange(2 ** 31)}


def curves_inputs(rng):
    # |cos phi| >= cos(1.2): the RT curve turns, and its radius stays small
    phi = rng.uniform(-1.2, 1.2) + rng.choice((0.0, math.pi))
    return {"phi": phi, "a0": rng.uniform(-math.pi, math.pi),
            "phi_h": rng.uniform(-math.pi, math.pi)}


def surface_frames_inputs(rng):
    # a shifted box that still holds the singular line x = y = 0; the CLI
    # keeps at most 400 sample points, so every box costs about the same
    dx, dy, dt = (rng.uniform(-0.3, 0.3) for _ in range(3))
    return {"region": [-3.0 + dx, 3.0 + dx, -3.0 + dy, 3.0 + dy, -3.0 + dt, 3.0 + dt]}


WORKLOADS = {"rt_report": rt_report_inputs, "curves": curves_inputs,
             "surface_frames": surface_frames_inputs}

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNSET = ("SUBRIEMANN_THREADS",)


def op_env():
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env.update(PINNED)
    env.pop("PYTHONPATH", None)  # op.py puts src/ first on its own path
    return env


def run_op(workload, inputs, env, trace_file, deadline):
    """Run one op process; return its record (with ``wall_s``)."""
    tmp = tempfile.mkdtemp(prefix="op-", dir=OUT)
    argv = [sys.executable, os.path.join(BENCH, "op.py"), workload,
            json.dumps(inputs), tmp]
    if trace_file:
        argv.append(trace_file)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
        lines = proc.stdout.strip().splitlines()
        rec = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not lines:
            rec.setdefault("error", f"op exited {proc.returncode}: {proc.stderr[-2000:]}")
    except subprocess.TimeoutExpired:
        rec = {"error": "op timed out"}
    except json.JSONDecodeError:
        rec = {"error": f"unreadable op output: {proc.stdout[-500:]}"}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    rec["wall_s"] = time.perf_counter() - t0
    rec["inputs"] = inputs
    return rec


def measure(workload, seed, seconds, trace):
    """Closed loop of whole rounds until the next one would overrun."""
    rng = random.Random(f"{workload}:{seed}")
    env = op_env()
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    rounds = []
    while True:
        round_start = time.perf_counter()
        inputs = WORKLOADS[workload](rng)
        recs = [run_op(workload, inputs, env, None, deadline)]
        if trace:
            n = len(rounds)
            trace_file = os.path.join(OUT, f"trace-{workload}-seed{seed}-{n}.json")
            recs.append(run_op(workload, inputs, env, trace_file, deadline))
        rounds.append(recs)
        took = time.perf_counter() - round_start
        elapsed = time.perf_counter() - start
        print(f"[{workload}] round {len(rounds)}: "
              + " ".join(f"{r.get('op_s', float('nan')):.3f}s" for r in recs),
              file=sys.stderr)
        if elapsed + took > seconds or elapsed + 2 * took > RUN_LIMIT_S:
            return rounds


def median(values):
    return statistics.median(values) if values else 0.0


def summarize(rounds, trace):
    recs = [r for rnd in rounds for r in rnd]
    ok = [r for r in recs if "error" not in r]
    for r in recs:
        if "error" in r:
            print(f"failed op {r['inputs']}: {r['error']}", file=sys.stderr)
        for msg in r.get("check_failures", []):
            print(f"wrong output {r['inputs']}: {msg}", file=sys.stderr)
    result = {"correct": all(not r["check_failures"] for r in ok),
              "attempted": len(recs), "failed": len(recs) - len(ok)}
    plain = [rnd[0] for rnd in rounds if "error" not in rnd[0]]
    if not trace:
        times = [r["op_s"] for r in plain]
        values = {"op_s": median(times),
                  "ops_per_s": len(times) / sum(times) if times else 0.0,
                  "setup_s": median([r["setup_s"] for r in plain]),
                  "peak_rss_mb": median([r["rss_mb"] for r in plain])}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        traced = [rnd[1] for rnd in rounds if "error" not in rnd[1]]
        values = {k: median([r["layers"][k] for r in traced])
                  for k in layers.METRICS if not k.startswith("trace.")}
        values["trace.op_s"] = median([r["op_s"] for r in traced])
        values["trace.overhead_s"] = values["trace.op_s"] - median(
            [r["op_s"] for r in plain])
        metrics = {k: {"value": values[k], "unit": layers.METRICS[k][0]}
                   for k in layers.METRICS}
        missing = sorted({m for r in traced for m in r.get("missing", [])})
        if missing:
            print("traced names missing: " + ", ".join(missing), file=sys.stderr)
    result["metrics"] = metrics
    return result, ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "subriemann", "__init__.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'subriemann')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    rounds = measure(args.workload, args.seed, args.seconds, args.trace)
    result, ok = summarize(rounds, args.trace)
    if not ok:
        print("error: every op failed", file=sys.stderr)
        return 1
    env = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": ok[0]["numpy"],
           "pinned": PINNED, "unset": list(UNSET), "clients": 1,
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace}
    record = os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"env": env, "result": result, "rounds": rounds}, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
