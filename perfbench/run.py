"""vmfcorr benchmark: one workload, one run, one JSON result line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from anywhere inside a checkout; vmfcorr is imported from the checkout's
src/. The run makes the workload's jobs from the seed, times set-up in fresh
processes, runs the timed passes in a worker process, checks every distinct
output against the mpmath reference, and prints human-readable lines
followed by one JSON object as the last line of standard output.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from a run that alternates traced and untraced passes.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracing import BRANCHES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
# Half of the set-up probes run before the timed passes and half after, so
# that the median spans two moments of a host whose speed drifts.
SETUP_PROBES = 8
# Set-up and timed passes must end by then; the checks fit in the rest of 180 s.
RUN_BUDGET_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "wall_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.parse_config.s": "s",
    "cli.run.self_s": "s",
    "cli.output_bytes": "bytes",
    "correlation.points": "count",
    "correlation.ns_per_point": "ns",
    **{f"correlation.branch.{b}.{m}": u for b in BRANCHES
       for m, u in (("calls", "count"), ("ns_per_point", "ns"))},
    "correlation.scf_multicluster.self_s": "s",
    "correlation.acf.calls": "count",
    "correlation.acf_per_decorrelation": "count",
    "correlation.decorrelation_time.self_s": "s",
    "vmf.csinc_sqrt.calls": "count",
    "vmf.csinc_sqrt.self_s": "s",
    "vmf.sample_vmf.directions": "count",
    "vmf.sample_vmf.ns_per_direction": "ns",
    "vmf.vmf_pdf.nodes": "count",
    "vmf.vmf_pdf.self_s": "s",
    "oracles.scf_quadrature.points": "count",
    "oracles.scf_quadrature.ms_per_point": "ms",
    "oracles.scf_montecarlo.realizations": "count",
    "oracles.scf_montecarlo.ms_per_realization": "ms",
    "arrays.correlation_matrix.pairs": "count",
    "arrays.correlation_matrix.self_s": "s",
    "arrays.scf_along_path.self_s": "s",
    "radar.decorrelation_table.cells": "count",
    "radar.decorrelation_table.self_s": "s",
    "process.cpu_per_wall": "ratio",
    "trace.overhead": "ratio",
    "trace.uncovered_s": "s",
}


def tail(times):
    """(value, passes beyond it): the highest order statistic with at least
    ten passes beyond it. A run with fewer than 21 passes has no such
    statistic above its median; it then reports the one with half of the
    other passes beyond it, the (upper) median."""
    ordered = sorted(times)
    beyond = min(10, (len(ordered) - 1) // 2)
    return ordered[len(ordered) - 1 - beyond], beyond


def spread_line(label, times):
    quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return f"{label} min/q1/median/q3/max: " + "/".join(
        f"{t:.4f}" for t in (min(times), *quartiles, max(times)))


def end_to_end(result, setup_times):
    walls = [p["scaled"] for p in result["passes"]]
    tail_value, beyond = tail(walls)
    info = [f"{len(walls)} timed passes; wall_tail_s has {beyond} passes beyond it",
            spread_line("pass time at reference speed (s)", walls),
            spread_line("pass time as measured (s)", [p["wall"] for p in result["passes"]]),
            f"set-up probes (s): {', '.join(f'{t:.4f}' for t in setup_times)}"]
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_tail_s": tail_value,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    return metrics, info


def per_layer(result, jobs):
    passes, summaries = result["passes"], result["summaries"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    def per_pass(get):
        return statistics.median(get(s) for s in summaries)

    def ratio(num, den, scale):
        d = sum(den(s) for s in summaries)
        return scale * sum(num(s) for s in summaries) / d if d else 0.0

    def inclusive(name):
        return lambda s: s["inclusive"].get(name, 0.0)

    def own(name):
        return lambda s: s["self"].get(name, 0.0)

    def calls(name):
        return lambda s: s["calls"].get(name, 0)

    def count(name):
        return lambda s: s["counts"].get(name, 0)

    metrics = {
        "cli.parse_config.s": per_pass(inclusive("cli.parse_config")),
        "cli.run.self_s": per_pass(own("cli.run")),
        "cli.output_bytes": statistics.median(p["output_bytes"] for p in passes),
        "correlation.points": per_pass(calls("correlation.scf")),
        "correlation.ns_per_point": ratio(inclusive("correlation.scf"),
                                          calls("correlation.scf"), 1e9),
        "correlation.scf_multicluster.self_s": per_pass(own("correlation.scf_multicluster")),
        "correlation.acf.calls": per_pass(calls("correlation.acf")),
        "correlation.acf_per_decorrelation": ratio(lambda s: sum(s["acf_per_decorrelation"]),
                                                   lambda s: len(s["acf_per_decorrelation"]), 1),
        "correlation.decorrelation_time.self_s": per_pass(own("correlation.decorrelation_time")),
        "vmf.csinc_sqrt.calls": per_pass(calls("vmf.csinc_sqrt")),
        "vmf.csinc_sqrt.self_s": per_pass(own("vmf.csinc_sqrt")),
        "vmf.sample_vmf.directions": per_pass(count("vmf.sample_vmf.directions")),
        "vmf.sample_vmf.ns_per_direction": ratio(inclusive("vmf.sample_vmf"),
                                                 count("vmf.sample_vmf.directions"), 1e9),
        "vmf.vmf_pdf.nodes": per_pass(count("vmf.vmf_pdf.nodes")),
        "vmf.vmf_pdf.self_s": per_pass(own("vmf.vmf_pdf")),
        "oracles.scf_quadrature.points": per_pass(calls("oracles.scf_quadrature")),
        "oracles.scf_quadrature.ms_per_point": ratio(inclusive("oracles.scf_quadrature"),
                                                     calls("oracles.scf_quadrature"), 1e3),
        "oracles.scf_montecarlo.realizations":
            per_pass(count("oracles.scf_montecarlo.realizations")),
        "oracles.scf_montecarlo.ms_per_realization":
            ratio(inclusive("oracles.scf_montecarlo"),
                  count("oracles.scf_montecarlo.realizations"), 1e3),
        "arrays.correlation_matrix.pairs": per_pass(count("arrays.correlation_matrix.pairs")),
        "arrays.correlation_matrix.self_s": per_pass(own("arrays.correlation_matrix")),
        "arrays.scf_along_path.self_s": per_pass(own("arrays.scf_along_path")),
        "radar.decorrelation_table.cells": per_pass(count("radar.decorrelation_table.cells")),
        "radar.decorrelation_table.self_s": per_pass(own("radar.decorrelation_table")),
        "process.cpu_per_wall": sum(p["cpu"] for p in untraced) / sum(p["wall"] for p in untraced),
        "trace.overhead": (statistics.median(p["scaled"] for p in traced)
                           / statistics.median(p["scaled"] for p in untraced)),
        "trace.uncovered_s": per_pass(lambda s: s["uncovered"]),
    }
    for b in BRANCHES:
        metrics[f"correlation.branch.{b}.calls"] = per_pass(count(f"branch.{b}"))
        metrics[f"correlation.branch.{b}.ns_per_point"] = ratio(
            lambda s, b=b: s["branch_s"].get(f"branch.{b}", 0.0), count(f"branch.{b}"), 1e9)

    info = [f"{len(untraced)} untraced and {len(traced)} traced passes"]
    if result["absent"]:
        info.append(f"absent from vmfcorr, reported as 0: {', '.join(result['absent'])}")
    wall = statistics.median(s["wall"] for s in summaries)
    self_sum = statistics.median(s["self_sum"] for s in summaries)
    info.append(f"traced pass {wall:.4f} s: self times sum to {self_sum:.4f} s, "
                f"uncovered {metrics['trace.uncovered_s']:.4f} s")
    radar = [j for j in jobs if j.get("config", {}).get("mode") == "radar-table"]
    if radar and summaries and summaries[0]["acf_per_decorrelation"]:
        config = radar[0]["config"]
        cells = [f"{w:g} deg/{v:g} km/h: {n}" for (w, v), n in zip(
            [(w, v) for w in config["widths_deg"] for v in config["speeds_kmh"]],
            summaries[0]["acf_per_decorrelation"])]
        info.append("acf calls per decorrelation time: " + "; ".join(cells))
    return metrics, info


def setup_times(jobs_file, count, deadline):
    times = []
    for _ in range(count):
        started = time.perf_counter()
        probe = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(jobs_file)],
                               stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                               timeout=deadline - started)
        times.append(time.perf_counter() - started)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {probe.stderr.decode()[-2000:]}")
    return times


def check_outputs(result, jobs, seed):
    """Failed-job count over all passes, and one message per distinct failure."""
    by_name = {job["name"]: job for job in jobs}
    verdicts = {}
    for key, entry in result["distinct"].items():
        job = by_name[entry["job"]]
        output = Path(entry["file"]).read_bytes() if "file" in entry else entry["value"]
        verdicts[key] = checks.check(job, output, seed)
    failed = 0
    messages = []
    for outcome in result["outcomes"]:
        problem = outcome["error"]
        if problem is None and outcome["status"] != 0:
            problem = f"{outcome['job']}: exit status {outcome['status']}"
        if problem is None:
            problem = verdicts[outcome["key"]]
        if problem is not None:
            failed += 1
            if problem not in messages:
                messages.append(problem)
    return failed, messages


def run(args, workdir):
    deadline = time.perf_counter() + RUN_BUDGET_S
    jobs = workloads.make_jobs(args.workload, args.seed, str(workdir / "out"), args.size)
    (workdir / "out").mkdir(parents=True)
    jobs_file = workdir / "jobs.json"
    jobs_file.write_text(json.dumps(jobs))
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup = setup_times(jobs_file, probes, deadline)

    spec_file = workdir / "spec.json"
    result_file = workdir / "result.json"
    spec_file.write_text(json.dumps({
        "jobs": jobs, "seconds": args.seconds, "trace": bool(args.trace),
        "workdir": str(workdir), "result": str(result_file),
    }))
    worker = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_file)],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            timeout=deadline - time.perf_counter())
    if worker.returncode != 0:
        raise RuntimeError(f"worker failed ({worker.returncode}): "
                           f"{worker.stderr.decode()[-2000:]}")
    result = json.loads(result_file.read_text())
    setup += setup_times(jobs_file, probes, deadline)

    failed, messages = check_outputs(result, jobs, args.seed)
    if args.trace:
        metrics, info = per_layer(result, jobs)
        units = PER_LAYER
    else:
        metrics, info = end_to_end(result, setup)
        units = END_TO_END
        job_lines = [f"{name} {statistics.median(p['jobs'][name] for p in result['passes']):.4f}"
                     for name in result["passes"][0]["jobs"]]
        info.append("job median at reference speed (s): " + ", ".join(job_lines))
    attempted = len(result["outcomes"])
    header = f"# {args.workload} seed {args.seed} trace {args.trace}"
    print(f"{header}: {attempted} jobs attempted, {failed} failed, "
          f"failed_frac = {failed / attempted:g}")
    for line in info + messages:
        print(f"# {line}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny sizes only exercise the harness")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vmfcorr" / "__init__.py").is_file():
        print(f"error: no vmfcorr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        run(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
