"""Run every workload once and print its metrics.

    python3 perfbench/all.py --seed 1 --trace 0

Runs ``run.py`` on each workload in ``torus.WORKLOADS``: the two that
``BENCHMARK.json`` lists and ``report-strip-48x3``, each for the
``run_seconds`` that ``BENCHMARK.json`` gives.  For each it prints whether
the outputs were correct, the operations attempted and failed, and every
metric by name and unit.  Exits 1 if any run failed or gave a wrong output.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import torus

HERE = Path(__file__).resolve().parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    all_good = True
    for workload in torus.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"## {workload}: run.py exited with code {proc.returncode}")
            all_good = False
            continue
        *lines, last = proc.stdout.strip().splitlines()
        result = json.loads(last)
        all_good &= result["correct"] and result["failed"] == 0
        print(f"## {workload}: correct {result['correct']}")
        print("\n".join(lines))
    sys.exit(0 if all_good else 1)


if __name__ == "__main__":
    main()
