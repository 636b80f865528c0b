"""Timed passes over one workload's jobs, in a process of their own.

Usage: python3 perfbench/worker.py SPEC.json

The spec names the jobs, the measuring time, whether to trace, and where to
write the result. One caller runs the jobs in a closed loop: each job starts
when the previous one has finished, after the calibration kernel has timed
the host's current speed. After an untimed warm-up pass, passes repeat until
the next one would end past the measuring time. With tracing on, untraced
and traced passes alternate, so the run also measures the tracing overhead.

Outputs are not checked here. After each pass, outside the timed region, the
worker hashes each job's output and keeps one copy of every distinct output;
the caller checks those and counts a failure for every pass that produced a
failing one.
"""

import gc
import hashlib
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

import bootstrap
import calibration
from tracing import Tracer, summarize_pass

MIN_PASSES = 2


class Job:
    def __init__(self, spec, vmfcorr):
        self.name = spec["name"]
        self.kind = spec["kind"]
        self.vmfcorr = vmfcorr
        if self.kind == "cli":
            self.text = spec["text"]
            self.out = Path(spec["config"]["out"])
        else:
            c = spec["cluster"]
            self.cluster = vmfcorr.vmf.VmfCluster(
                math.radians(c["mu_phi_deg"]), math.radians(c["mu_psi_deg"]), c["kappa"])
            self.d = spec["d"]
            self.options = {k: spec[k] for k in ("n_paths", "n_realizations", "seed")}
            self.wavelength = spec["wavelength"]

    def __call__(self):
        # Look the functions up on every call, so that tracing wrappers apply.
        if self.kind == "cli":
            cli = self.vmfcorr.cli
            return cli.run(cli.parse_config(self.text))
        return self.vmfcorr.oracles.scf_montecarlo(
            self.cluster, self.d, self.wavelength, **self.options)


def timed_pass(jobs):
    """Run every job once, each between two calibration kernels. Returns the
    results, the pass time (the jobs' times added up), the same at the
    reference host speed, the jobs' CPU time and each job's scaled time."""
    results = []
    job_times = {}
    wall = scaled = cpu = 0.0
    kernel = calibration.measure()
    for job in jobs:
        cpu0 = time.process_time()
        started = time.perf_counter()
        try:
            results.append((job, job(), None))
        except Exception as exc:  # a failing job is counted, not fatal
            results.append((job, None, f"{type(exc).__name__}: {exc}"))
        elapsed = time.perf_counter() - started
        cpu += time.process_time() - cpu0
        after = calibration.measure()
        job_times[job.name] = calibration.scale(elapsed, kernel, after)
        wall += elapsed
        scaled += job_times[job.name]
        kernel = after
    return results, wall, scaled, cpu, job_times


class Recorder:
    """Keys each job outcome and keeps one copy of each distinct output."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.directory.mkdir(parents=True, exist_ok=True)
        self.outcomes = []
        self.distinct = {}

    def record(self, results) -> int:
        """Record one pass; returns the bytes of data files it wrote."""
        written = 0
        for job, value, error in results:
            key = None
            if error is None and job.kind == "cli":
                try:
                    data = job.out.read_bytes()
                except OSError as exc:
                    error = f"output missing: {exc}"
                else:
                    written += len(data)
                    key = f"{job.name}:{hashlib.sha256(data).hexdigest()[:20]}"
                    if key not in self.distinct:
                        copy = self.directory / f"{key.replace(':', '-')}{job.out.suffix}"
                        shutil.copyfile(job.out, copy)
                        self.distinct[key] = {"job": job.name, "file": str(copy)}
            elif error is None:
                try:
                    estimate, std_error = value
                    record = [complex(estimate).real, complex(estimate).imag, float(std_error)]
                except (TypeError, ValueError) as exc:
                    error = f"unexpected result {value!r}: {exc}"
                else:
                    key = f"{job.name}:{json.dumps(record)}"
                    self.distinct.setdefault(key, {"job": job.name, "value": record})
            status = value if job.kind == "cli" and error is None else 0
            self.outcomes.append({"job": job.name, "key": key, "status": status, "error": error})
        return written


def measure(jobs, seconds, trace, recorder):
    tracer = Tracer() if trace else None
    recorder.record(timed_pass(jobs)[0])  # warm-up: checked, not timed
    passes = []
    summaries = []
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        same_kind = [p for p in passes if p["traced"] == traced]
        enough = len(same_kind) >= MIN_PASSES and (not trace or len(passes) >= 2 * MIN_PASSES)
        estimate = same_kind[-1]["elapsed"] if same_kind else 0.0
        if enough and time.perf_counter() - started + estimate > seconds:
            break
        gc.collect()  # every pass starts from the same heap state
        if traced:
            tracer.install()
        pass_started = time.perf_counter()
        try:
            results, wall, scaled, cpu, job_times = timed_pass(jobs)
        finally:
            elapsed = time.perf_counter() - pass_started
            if traced:
                tracer.uninstall()
        if traced:
            summaries.append(summarize_pass(tracer, tracer.take(), wall))
        output_bytes = recorder.record(results)
        passes.append({"wall": wall, "scaled": scaled, "cpu": cpu, "elapsed": elapsed,
                       "traced": traced, "jobs": job_times, "output_bytes": output_bytes})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return passes, summaries, peak_kb, (tracer.absent if tracer else [])


def main(argv):
    spec = json.loads(Path(argv[1]).read_text())
    vmfcorr = bootstrap.import_vmfcorr()
    jobs = [Job(job, vmfcorr) for job in spec["jobs"]]
    recorder = Recorder(Path(spec["workdir"]) / "distinct")
    passes, summaries, peak_kb, absent = measure(jobs, spec["seconds"], spec["trace"], recorder)
    result = {
        "passes": passes,
        "summaries": summaries,
        "absent": absent,
        "peak_rss_kb": peak_kb,
        "outcomes": recorder.outcomes,
        "distinct": recorder.distinct,
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
