"""Every metric of every workload in one table.

Usage: python3 perfbench/report.py [--seed N] [--seconds S] [--json PATH]

Runs perfbench/run.py once per workload with tracing off (end-to-end
metrics) and once with tracing on (per-layer metrics), prints each metric
with its unit per workload, and can save the raw results as JSON.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--json", type=Path, help="also write the raw results here")
    args = parser.parse_args(argv)

    results = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=180)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            lines = done.stdout.strip().splitlines()
            print("\n".join(line for line in lines if line.startswith("#")))
            results[(workload, trace)] = json.loads(lines[-1])

    print(f"\n| metric | unit | {' | '.join(workloads.WORKLOADS)} |")
    print(f"|---|---|{'---:|' * len(workloads.WORKLOADS)}")
    for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        for name, unit in units.items():
            cells = [f"{results[(w, trace)]['metrics'][name]['value']:.6g}"
                     for w in workloads.WORKLOADS]
            print(f"| {name} | {unit} | {' | '.join(cells)} |")
    for workload in workloads.WORKLOADS:
        result = results[(workload, 0)]
        print(f"{workload}: failed_frac = {result['failed'] / result['attempted']:g} "
              f"({result['failed']} of {result['attempted']} jobs)")
    if args.json:
        args.json.write_text(json.dumps(
            {f"{w}/trace{t}": r for (w, t), r in results.items()}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
