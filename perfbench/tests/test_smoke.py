"""Smoke checks of the benchmark harness at tiny sizes; nothing here gates on timing.

Run with: python3 -m pytest -q perfbench/tests
"""

import csv
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bootstrap  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

vmfcorr = bootstrap.import_vmfcorr()


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_schema(workload, trace):
    done = _run("--workload", workload, "--seed", "5", "--seconds", "0.2",
                "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _benchmark()["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: value["unit"] for name, value in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_declared_metrics_match_the_harness():
    benchmark = _benchmark()
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == run.PER_LAYER


def test_same_seed_same_jobs():
    first = workloads.make_jobs("oracles", 9, "out")
    assert first == workloads.make_jobs("oracles", 9, "out")
    assert first != workloads.make_jobs("oracles", 10, "out")
    for workload in workloads.WORKLOADS:
        for job in workloads.make_jobs(workload, 9, "out"):
            if job["kind"] == "cli":
                assert not {"threads", "seed"} & set(job["config"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _run("--workload", "radar-chain", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _cli_output(tmp_path, workload, name):
    job = next(j for j in workloads.make_jobs(workload, 4, str(tmp_path), "tiny")
               if j["name"] == name)
    assert vmfcorr.cli.run(vmfcorr.cli.parse_config(job["text"])) == 0
    return job, Path(job["config"]["out"]).read_bytes()


def _edit_csv(data, edit):
    rows = list(csv.reader(io.StringIO(data.decode())))
    for row in rows[1:]:
        edit(row)
    return "".join(",".join(row) + "\n" for row in rows).encode()


def test_checks_pass_correct_outputs(tmp_path):
    for workload in workloads.WORKLOADS:
        for job in workloads.make_jobs(workload, 4, str(tmp_path), "tiny"):
            if job["kind"] == "cli":
                _, data = _cli_output(tmp_path, workload, job["name"])
                assert checks.check(job, data) is None, job["name"]


def test_checks_reject_a_conjugated_curve(tmp_path):
    job, data = _cli_output(tmp_path, "bulk-sweep", "scf-curve")

    def conjugate(row):
        row[4] = repr(-float(row[4]))

    assert "scf-curve" in checks.check(job, _edit_csv(data, conjugate))


def test_checks_reject_a_wrong_branch(tmp_path):
    job, data = _cli_output(tmp_path, "bulk-sweep", "scf-curve")
    config = job["config"]
    cluster = vmfcorr.VmfCluster(0.0, 0.0, 10.0)

    def large_kappa_form(row):
        # serve kappa = 10 with the large-kappa form, which drops exp(-2 kappa) terms
        if float(row[0]) == 10.0 and float(row[2]) > 0.0:
            beta = math.radians(float(row[1]))
            fraction = float(row[2])
            d = (fraction * config["wavelength"] * math.cos(beta),
                 fraction * config["wavelength"] * math.sin(beta), 0.0)
            value = vmfcorr.scf_large_kappa(cluster, d, config["wavelength"])
            row[3], row[4] = repr(value.real), repr(value.imag)

    assert "kappa=10.0" in checks.check(job, _edit_csv(data, large_kappa_form))


def test_checks_reject_a_radar_time_off_the_crossing(tmp_path):
    job, data = _cli_output(tmp_path, "radar-chain", "radar-table")

    def stretch(row):
        row[2] = repr(float(row[2]) * 1.001)

    assert "does not bracket" in checks.check(job, _edit_csv(data, stretch))


def test_checks_reject_validate_over_tolerance(tmp_path):
    job, data = _cli_output(tmp_path, "oracles", "validate")

    def inflate(row):
        row[7] = "1e-06"

    assert "reported error" in checks.check(job, _edit_csv(data, inflate))


def test_checks_reject_a_montecarlo_estimate_off_by_five_sigma():
    job = workloads.make_jobs("oracles", 4, "out", "tiny")[1]
    cluster = job["cluster"]
    exact = vmfcorr.scf(vmfcorr.VmfCluster(math.radians(cluster["mu_phi_deg"]),
                                           math.radians(cluster["mu_psi_deg"]), cluster["kappa"]),
                        job["d"], job["wavelength"])
    assert checks.check(job, [exact.real + 0.003, exact.imag, 0.001]) is None
    assert "standard errors" in checks.check(job, [exact.real + 0.005, exact.imag, 0.001])


def test_tracer_wraps_every_binding_and_restores_them():
    original = vmfcorr.correlation.scf
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert vmfcorr.cli.scf is vmfcorr.correlation.scf is vmfcorr.scf
        assert vmfcorr.cli.scf is not original
        assert vmfcorr.arrays.scf_multicluster is vmfcorr.correlation.scf_multicluster
        vmfcorr.arrays.scf_multicluster([vmfcorr.VmfCluster(0.0, 0.0, 5.0)], (0.01, 0, 0), 0.1)
    finally:
        tracer.uninstall()
    assert vmfcorr.cli.scf is original
    assert tracer.absent == []
    names = [span[tracing.NAME] for span in tracer.take()]
    assert names == ["correlation.scf_multicluster", "correlation.scf", "vmf.csinc_sqrt"]


def test_self_time_subtracts_the_union_of_children():
    parent = ["p", None, 0.0, 10.0, None]
    spans = [parent, ["a", parent, 1.0, 4.0, None], ["b", parent, 3.0, 6.0, None],
             ["c", parent, 8.0, 12.0, None]]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 4.0]


@pytest.mark.parametrize("kappa, d, branch", [
    (0.0, (0.05, 0.0, 0.0), "isotropic"),
    (5.0, (0.0, 0.0, 0.0), "zero_d"),
    (800.0, (0.05, 0.0, 0.0), "large_kappa"),
    (0.1, (0.001, 0.0, 0.0), "series"),
    (5.0, (0.05, 0.0, 0.0), "direct"),
])
def test_branch_classification(kappa, d, branch):
    cluster = vmfcorr.VmfCluster(0.0, 0.0, kappa)
    assert tracing.scf_branch({"cluster": cluster, "d": d, "wavelength": 0.1}) == branch


def test_tail_has_ten_passes_beyond_or_is_the_median():
    assert run.tail(list(range(100))) == (89, 10)
    assert run.tail(list(range(13))) == (6, 6)
    assert run.tail([1.0]) == (1.0, 0)
