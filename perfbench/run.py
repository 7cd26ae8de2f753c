"""hodgeheat benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload report-torus-12x12 --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/``.  The workload runs in a fresh child process (``worker.py``) at one
BLAS thread, and repeats whole operations until ``--seconds`` have passed.
One operation is one report: ``run_pipeline`` on the workload's input, then
``emit_report`` of its JSON; its checks run afterwards, untimed.

With ``--trace 0`` it prints the end-to-end metrics: ``report_s``, the
median wall time of an operation; ``setup_s``, the median time a fresh
interpreter takes to import ``hodgeheat`` and ``hodgeheat.cli``; and
``peak_rss_mb``, the peak resident set of the worker.  With ``--trace 1``
it prints the per-layer metrics from spans around hodgeheat's public
calls.  The last line of the output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import torus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
SETUP_RUNS_PER_SIDE = 5
# The worker must end early enough for the imports after it.
TIME_LIMIT_S = 160.0
# Per-library thread variables would override HODGEHEAT_NUM_THREADS.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
PER_LAYER_UNITS = dict.fromkeys(spans.LAYERS, "s") | {
    "decomposition.quadrature_nodes": "count",
    "decomposition.route_b_margin": "ratio",
    "cli.unaccounted_s": "s",
}


def child_env():
    """The environment of every child: one BLAS thread, the checkout's src first.

    PYTHONDONTWRITEBYTECODE is dropped so that the untimed first import
    leaves byte code behind and ``setup_s`` times an import, not a compile.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_THREAD_VARS and k != "PYTHONDONTWRITEBYTECODE"}
    env["HODGEHEAT_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_seconds(env):
    """Wall time of a fresh interpreter that imports hodgeheat and its CLI.

    No timeout: with one, subprocess polls for the exit in steps of up to
    50 ms, which would quantize the measurement.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hodgeheat, hodgeheat.cli"],
                   env=env, check=True)
    return time.perf_counter() - start


def run_worker(args, env, budget):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=budget)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the worker
        sys.exit(f"run: worker still running after {budget:.0f} s; stopped it")
    if proc.returncode != 0:
        sys.exit(f"run: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(torus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hodgeheat" / "__init__.py").is_file():
        sys.exit(f"run: no hodgeheat package under {ROOT / 'src'}; "
                 "run the benchmark from a checkout of the repository")
    OUT.mkdir(exist_ok=True)
    env = child_env()

    # The host's speed drifts over tens of seconds, so the import timings
    # are taken on both sides of the workload, after one untimed import
    # that byte-compiles the package.
    setup = []
    if not args.trace:
        import_seconds(env)
        setup += [import_seconds(env) for _ in range(SETUP_RUNS_PER_SIDE)]
    raw = run_worker(args, env, TIME_LIMIT_S - (time.perf_counter() - started))
    if not args.trace:
        setup += [import_seconds(env) for _ in range(SETUP_RUNS_PER_SIDE)]
    for message in raw["messages"]:
        print(f"failed {message}", file=sys.stderr)

    if args.trace:
        if raw["layers"] is None:
            sys.exit("run: no traced and untraced operation both succeeded")
        overhead = statistics.median(raw["traced_s"]) - statistics.median(raw["report_s"])
        print(f"# tracing overhead: {raw['spans_per_op']:.0f} spans per operation at "
              f"{raw['span_s'] * 1e6:.2f} us each, {raw['spans_per_op'] * raw['span_s']:.2e} s; "
              f"traced minus untraced wall time {overhead:+.4f} s")
        metrics = {name: {"value": raw["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        if not raw["report_s"]:
            sys.exit("run: no operation succeeded")
        metrics = {
            "report_s": {"value": statistics.median(raw["report_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
    print(f"# {args.workload}, seed {args.seed}: {raw['attempted']} operations attempted, "
          f"{raw['failed']} failed, OpenBLAS threads {raw['threads']}")
    print("# operation wall times (s): " + " ".join(f"{t:.3f}" for t in raw["report_s"]))
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:14.6f} {metric['unit']}")
    print(json.dumps({
        "correct": raw["wrong"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
