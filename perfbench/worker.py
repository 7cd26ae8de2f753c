"""One workload in one process: timed reports, their checks, optional spans.

Started by ``run.py`` with HODGEHEAT_NUM_THREADS=1 and no per-library BLAS
thread variables.  hodgeheat is imported before numpy so its thread cap
reaches OpenBLAS; the worker reads OpenBLAS's pool size back and refuses to
report unless it is 1.  Prints one JSON line with the raw measurements.
"""

import sys

if "numpy" in sys.modules:
    sys.exit("worker: numpy was imported before hodgeheat; the thread cap would not apply")

import hodgeheat  # noqa: E402  (must come first: applies the BLAS thread cap)
import hodgeheat.cli  # noqa: E402
import hodgeheat.io  # noqa: E402

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import torus  # noqa: E402

WARMUP = (4, 4)


def openblas_threads():
    """Pool size of numpy's bundled OpenBLAS, read through ctypes, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                query = getattr(lib, symbol)
                query.argtypes, query.restype = [], ctypes.c_int
                return query()
    return None


def write_input(path, nx, ny, seed):
    doc = torus.input_document(nx, ny, seed)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return doc["cochain"]["values"]


def run_operation(input_path, report_path, full):
    """One report: run_pipeline on the input, then emit_report of its JSON."""
    config = hodgeheat.cli.RunConfig(input_path=str(input_path))
    if not full:
        config.p_list = ()
    report, code = hodgeheat.cli.run_pipeline(config)
    hodgeheat.io.emit_report(report, str(report_path))
    return code


def checked_operation(input_path, report_path, nx, ny, cochain, full, recorder=None):
    """Run one operation, traced into recorder if given, then check its report.

    Returns (seconds, failure messages, whether the output was wrong).
    """
    start = time.perf_counter()
    try:
        if recorder is None:
            code = run_operation(input_path, report_path, full)
        else:
            with spans.traced(recorder), recorder.span(spans.ROOT):
                code = run_operation(input_path, report_path, full)
    except Exception as exc:  # an operation that raises is a failed operation
        return time.perf_counter() - start, [f"raised {exc!r}"], False
    seconds = time.perf_counter() - start
    if code != 0:
        return seconds, [f"exit code {code}"], False
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    failures = checks.check_report(report, nx, ny, cochain, full)
    return seconds, failures, bool(failures)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(torus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="directory for inputs, reports, spans")
    args = parser.parse_args(argv)

    threads = openblas_threads()
    if threads != 1:
        sys.exit(f"worker: OpenBLAS runs {threads} threads, not 1; refusing to report")

    out = Path(args.out)
    nx, ny, full = torus.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}"
    input_path, report_path = out / f"{tag}.input.json", out / f"{tag}.report.json"
    cochain = write_input(input_path, nx, ny, args.seed)

    # Untimed warm-up on a small torus: lazy imports and first-call set-up.
    warm_in, warm_out = out / "warmup.input.json", out / "warmup.report.json"
    write_input(warm_in, *WARMUP, args.seed)
    run_operation(warm_in, warm_out, True)

    recorder = spans.SpanRecorder()
    untraced, traced_ops, messages = [], [], []
    attempted = failed = wrong = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        # A round is one untraced operation, plus one traced operation in trace mode.
        for is_traced in ((False, True) if args.trace else (False,)):
            recorder.op = attempted
            seconds, failures, is_wrong = checked_operation(
                input_path, report_path, nx, ny, cochain, full,
                recorder if is_traced else None)
            if failures:
                failed += 1
                wrong += is_wrong
                messages.append(f"operation {attempted}: " + "; ".join(failures))
            elif is_traced:
                traced_ops.append(attempted)
            else:
                untraced.append(seconds)
            attempted += 1
        if time.perf_counter() >= deadline:
            break

    result = {
        "threads": threads,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "messages": messages,
        "report_s": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        recorder.write(out / f"{tag}.spans.json")
        result["traced_s"] = [end - start for name, start, end, _, op in recorder.spans
                              if name == spans.ROOT and op in traced_ops]
        result["spans_per_op"] = (sum(s[4] in traced_ops for s in recorder.spans)
                                  / max(1, len(traced_ops)))
        result["span_s"] = spans.span_seconds()
        result["layers"] = layer_metrics(recorder, traced_ops, untraced, report_path)
    print(json.dumps(result))


def layer_metrics(recorder, traced_ops, untraced, report_path):
    """Median self time per layer over the traced operations, plus counts."""
    if not traced_ops or not untraced:
        return None
    per_op = [recorder.self_times(op) for op in traced_ops]
    metrics = {name: statistics.median(t[name] for t in per_op) for name in spans.LAYERS}
    top_level = statistics.median(recorder.top_level_time(op) for op in traced_ops)
    metrics["cli.unaccounted_s"] = statistics.median(untraced) - top_level
    with open(report_path, encoding="utf-8") as fh:
        uniq = json.load(fh)["uniqueness"]
    metrics["decomposition.quadrature_nodes"] = (
        uniq["quadrature"]["nodes_evaluated"] if uniq else 0)
    metrics["decomposition.route_b_margin"] = (
        uniq["tol"] / uniq["max_rel_diff"] if uniq else 0.0)
    return metrics


if __name__ == "__main__":
    main()
