"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository: python3 -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run  # puts src/ on sys.path
import spinhl.cli  # noqa: F401  (every spinhl module loaded before the snapshots)
import tracer
import workloads

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _bindings():
    """Every global of every spinhl module, and every attribute of every
    class defined in one, by identity."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key != "spinhl" and not key.startswith("spinhl."):
            continue
        for name, value in vars(module).items():
            out[(key, name)] = value
            if isinstance(value, type) and value.__module__.startswith("spinhl"):
                for attr, member in vars(value).items():
                    out[(key, name, attr)] = member
    return out


@pytest.fixture(scope="module")
def declared():
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    return spec


def test_declared_metrics_match_the_benchmark(declared):
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(tracer.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric_and_restores_spinhl(workload, trace):
    before = _bindings()
    record, passes, failures, setup_samples, metrics = run.run_benchmark(workload, 3, 1, trace, size="tiny")
    after = _bindings()

    out = run.result(passes, failures, metrics)
    expected = tracer.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in out["metrics"].items()} == dict(expected)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert record["trace"] == bool(trace) and record["seed"] == 3
    assert sum(p.layers is not None for p in passes) == (record["passes"] // 2 if trace else 0)

    assert [k for k in after if k not in before] == []
    changed = [k for k, v in before.items() if after.get(k) is not v]
    assert changed == []
    assert not [k for k, v in after.items() if hasattr(v, tracer.MARKER)]


def test_traced_pass_sees_the_series_hot_path():
    wl = workloads.setup("sum_identities", 3, "tiny")
    p = run.run_pass(wl, tracer.Tracer())
    layers = p.layers
    assert layers["series.mul.calls"] > 0 and layers["series.mul.term_products"] > 0
    assert 0 < layers["series.mul.useful_ratio"] <= 1
    assert 0 < layers["series.f_lambda_series.repeat_ratio"] < 1  # the stabilization sum reuses F
    assert layers["identities.lhs_sum.calls"] == 4  # two checks, budget B and B + 1
    assert layers["identities.check_s.main1"] > 0 and layers["identities.check_s.rec1"] == 0
    assert all(r.ok for r in p.results)


def test_verify_all_concurrency_is_measured_on_pool_threads():
    wl = workloads.setup("verify_all", 3, "tiny")
    p = run.run_pass(wl, tracer.Tracer())
    threads = {span[4] for span in p.spans}
    assert len(threads) >= 2 or os.cpu_count() == 1
    assert p.layers["identities.run_all.wall_s"] > 0
    assert p.layers["identities.run_all.concurrency"] > 0
    assert p.layers["cli.stdout_bytes"] > 0
    assert [r.label for r in p.results][-1] == "stdout"


def test_digest_mismatch_counts_as_failure():
    good = workloads.JobResult("job", 1.0, True, "abc", "pass")
    assert run.grade([good], {"job": "abc"}, {}) == []
    assert run.grade([good], {"job": "xyz"}, {}) == [good]
    first_seen = {}
    assert run.grade([good], None, first_seen) == []
    other = good._replace(digest="def")
    assert run.grade([other], None, first_seen) == [other]


def test_tail_percentile():
    assert run.tail_percentile(range(10)) is None
    assert run.tail_percentile(range(20)) == (50.0, 9)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point_oracles", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
