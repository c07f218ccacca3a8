"""Self-tests of the benchmark harness, at smoke size.

    python3 -m pytest perfbench/test_harness.py -q

They run the real measuring code of run.py on tiny inputs (about half a minute in all).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _metric_names(kind: str) -> set[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def _dump(jobs) -> str:
    return json.dumps([j.to_dict() for j in jobs])


def test_seed_changes_parameters_deterministically():
    for name in workloads.WORKLOADS:
        assert _dump(workloads.make_jobs(name, 11)) == _dump(workloads.make_jobs(name, 11))
        drawn = {_dump(workloads.make_jobs(name, seed)) for seed in range(1, 6)}
        assert len(drawn) > 1
        # the strata stay fixed: same job kinds and sizes for every seed
        shape = [(j.id, j.kind, j.params.get("length")) for j in workloads.make_jobs(name, 0)]
        for seed in range(1, 6):
            jobs = workloads.make_jobs(name, seed)
            assert [(j.id, j.kind, j.params.get("length")) for j in jobs] == shape


def test_default_seed_gives_documented_parameters():
    recur = {j.id: j.params for j in workloads.make_jobs("factor_reports", 0)}
    assert [recur[f"recur{i}"]["period"] for i in range(1, 5)] == [
        [1, 2], [2, 1], [1, 2, 3], [6, 10, 14, 2],
    ]
    expand = {j.id: j.params for j in workloads.make_jobs("expand", 0)}
    assert expand["chain"]["chain"] == [1, 2] * 16
    assert workloads.chain_expansion([1, 2] * 16, [2, 1], [1, 2]).size == 858_964


def test_corrupted_digest_and_crashing_job_count_as_failed():
    jobs = workloads.make_jobs("expand", 0, "smoke")
    crash = workloads.Job("crash", "subst_primitive", {"order": [1, 2, 4]})  # no family
    record = run.run_benchmark(
        "expand", 0, 0.1, False, "smoke", jobs=jobs + [crash], expected={"chain": "0" * 64},
    )
    failures = {j["id"]: j["failure"] for j in record["passes"][0]["jobs"] if j["failure"]}
    assert set(failures) == {"chain", "crash"}
    assert "digest" in failures["chain"] and "exit code 1" in failures["crash"]
    assert record["attempted"] == len(jobs) + 1 and record["failed"] == 2


def test_printed_metric_names_are_in_benchmark_json(capsys):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", "generate", "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace), "--scale", "smoke"]
        assert run.main(argv) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == _metric_names(kind)
        assert result["correct"] and result["failed"] == 0


def test_traced_pass_reproduces_untraced_outputs():
    for name in ("factor_reports", "expand"):
        record = run.run_benchmark(name, 5, 0.1, True, "smoke")
        assert record["failed"] == 0
        traced = [p for p in record["passes"] if p["kind"] == "traced"]
        assert traced and all(j["digest"] == record["digests"][j["id"]]
                               for p in traced for j in p["jobs"])
