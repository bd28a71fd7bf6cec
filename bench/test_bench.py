"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest bench/test_bench.py

They run every workload for one pass, traced and untraced, so they take
about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
INTERACTIONS = json.loads((BENCH / "interactions.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
SEED = 3


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    # --seconds 0 still runs the job list once (traced: once each way)
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"),
                           "--workload", workload, "--seed", str(SEED),
                           "--seconds", "0", "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    workload = request.param
    plain = result(bench(ROOT, workload, 0))
    traced = result(bench(ROOT, workload, 1))
    detail = json.loads((ROOT / ".bench_out" / f"trace-{workload}-seed{SEED}.json").read_text())
    return plain, traced, detail


@pytest.fixture(scope="module")
def oq():
    return run.import_oqwalk()


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in END_TO_END.values())
    assert END_TO_END["setup_s"]["bound"] == max(m["bound"] for m in END_TO_END.values())


def test_interaction_map_matches_per_layer_metrics():
    declared = set()
    for name, entry in {**INTERACTIONS["functions"], **INTERACTIONS["counts"]}.items():
        for workload, metrics in entry["moves"].items():
            assert workload in WORKLOADS and set(metrics) <= set(END_TO_END), name
        assert set(entry["flat"]) <= set(WORKLOADS), name
        assert not set(entry["flat"]) & set(entry["moves"]), name
    for name in INTERACTIONS["functions"]:
        declared |= {f"{name}.calls", f"{name}.self_s", f"{name}.errors"}
    declared |= set(INTERACTIONS["counts"])
    declared |= {f"share.{layer}" for layer in tracer.LAYERS}
    declared |= {"tracing.wall_s", "tracing.overhead_s"}
    assert declared == set(PER_LAYER)


def test_every_metric_is_emitted_and_every_job_passes(runs):
    plain, traced, _ = runs
    for res, declared in ((plain, END_TO_END), (traced, PER_LAYER)):
        assert set(res["metrics"]) == set(declared)
        for name, metric in res["metrics"].items():
            assert metric["unit"] == declared[name]["unit"], name
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 100
    for name in END_TO_END:
        assert plain["metrics"][name]["value"] > 0, name


def test_self_times_fit_in_wall_time(runs):
    _, _, detail = runs
    for self_s, wall_s in zip(detail["self_total_s"], detail["traced_pass_wall_s"]):
        assert 0 < self_s <= wall_s
    assert sum(detail["layer_share_pct"].values()) <= 100.0
    assert detail["stdout_identical"] is True
    spans = detail["spans_first_traced_pass"]
    ids = {s[5] for s in spans}
    assert spans and all(s[3] is None or s[3] in ids for s in spans)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_stdout_byte_identical(workload, oq, tmp_path):
    jobs = workloads.build(workload, SEED, oq, tmp_path)
    plain = [workloads.execute(job, oq) for job in jobs]
    trace = tracer.Tracer([oq.package] + [getattr(oq, layer) for layer in tracer.LAYERS])
    with trace.installed():
        traced = [workloads.execute(job, oq) for job in jobs]
    assert trace.stats
    for job, a, b in zip(jobs, plain, traced):
        assert a[0] == b[0] == 0, job.argv
        assert a[1].encode() == b[1].encode(), job.argv or job.kind
    # uninstall put every original back
    assert all(not hasattr(getattr(oq.core, name), "__wrapped__") for name in vars(oq.core))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_reject_a_truncated_output(workload, oq, tmp_path):
    jobs = workloads.build(workload, SEED, oq, tmp_path)
    first = {}
    for job in jobs:
        first.setdefault(job.kind, job)
    for job in first.values():
        job.expected = workloads.reference(job, oq)
        code, out, _ = workloads.execute(job, oq)
        assert code == 0 and workloads.check(job, out) is None, job.kind
        cut = "".join(out.splitlines(keepends=True)[:-1])
        assert workloads.check(job, cut) is not None, job.kind


def test_checks_reject_a_small_numeric_error(oq, tmp_path):
    jobs = workloads.build("chain_dynamics", SEED, oq, tmp_path)
    for kind in ("steady", "evolve"):
        job = next(j for j in jobs if j.kind == kind)
        job.expected = workloads.reference(job, oq)
        _, out, _ = workloads.execute(job, oq)
        lines = out.splitlines()
        fields = lines[1].split(",")
        fields[-1] = repr(float(fields[-1]) + 1e-9)
        lines[1] = ",".join(fields)
        assert workloads.check(job, "\n".join(lines) + "\n") is not None, kind


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_live_qubits_of_a_reused_ancilla_pair(oq):
    chain = oq.core.LinearChainSpec(5, 0.7, [oq.matrixkit.X] * 4)
    walk = oq.circuit.build_walk(chain, 3, "reuse")
    fresh = oq.circuit.build_walk(chain, 3, "fresh")
    # walker 1 qubit, node 3 qubits, one (direction, flag) pair live at a time
    assert tracer.live_qubits_max(walk) == tracer.live_qubits_max(fresh) == 1 + 3 + 2
