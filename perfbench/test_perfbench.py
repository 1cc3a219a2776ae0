"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import des  # noqa: E402
from gates import des_accounting, des_digest, response_problem  # noqa: E402
from harness import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    TooFewSamples,
    check_metric_name,
    percentile,
    poisson_offsets,
    zipf_sample,
)
from repro.search.topk import SearchHit  # noqa: E402
from run import WORKLOADS  # noqa: E402


def test_percentile_reports_value_and_sample_counts():
    p = percentile(np.arange(200.0), 90)
    assert p.value == pytest.approx(179.1)
    assert (p.samples, p.above) == (200, 20)
    assert "n=200, 20 above" in p.describe("ms")


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(TooFewSamples):
        percentile(np.arange(50.0), 90)
    with pytest.raises(TooFewSamples):
        percentile([], 50)
    assert percentile(np.arange(50.0), 50).above == 25


def test_zipf_sample_keeps_traffic_shares():
    queries = [SimpleNamespace(text=t) for t in "abc"]

    class Log:
        def __len__(self):
            return 3

        def popularity(self, i):
            return [0.5, 0.3, 0.2][i]

        def __getitem__(self, i):
            return queries[i]

    sample = zipf_sample(Log(), 100, np.random.default_rng(1))
    assert (sample.count("a"), sample.count("b"), sample.count("c")) == (50, 30, 20)
    assert sample == zipf_sample(Log(), 100, np.random.default_rng(1))
    assert sample != zipf_sample(Log(), 100, np.random.default_rng(2))


def test_poisson_offsets_keep_the_rate_and_vary_by_seed():
    offsets = poisson_offsets(10.0, 400, np.random.default_rng(1))
    gaps = np.diff(offsets, prepend=0.0)
    assert np.all(gaps > 0)
    assert gaps.mean() == pytest.approx(0.1, rel=0.03)
    assert np.median(gaps) == pytest.approx(0.1 * np.log(2), rel=0.03)
    assert np.array_equal(offsets, poisson_offsets(10.0, 400, np.random.default_rng(1)))
    assert not np.array_equal(offsets, poisson_offsets(10.0, 400, np.random.default_rng(2)))


@pytest.mark.parametrize("name", ["a b", "x/y", "", ".lead", "é", "n" * 65])
def test_metric_name_charset_rejects(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_declared_metrics_match_the_tables():
    for name in [*END_TO_END, *PER_LAYER]:
        assert check_metric_name(name) == name
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def _response(pairs, coverage=1.0):
    hits = [SearchHit(score=score, doc_id=doc) for doc, score in pairs]
    return SimpleNamespace(hits=hits, coverage=coverage)


def test_correctness_gate_catches_a_perturbed_score():
    want = [(3, 2.5), (7, 1.25)]
    assert response_problem(_response(want), want) == ""
    nudged = [(3, 2.5), (7, float(np.nextafter(1.25, 2.0)))]
    assert response_problem(_response(nudged), want)
    assert response_problem(_response(want[::-1]), want)
    assert response_problem(_response(want, coverage=0.75), want)
    shed = SimpleNamespace(shed=True, coverage=0.0)
    assert response_problem(shed, want) == "shed"


@pytest.mark.parametrize("driver", des.DES_DRIVERS)
def test_des_accounting_holds_and_catches_a_dropped_record(driver):
    records = des.run_driver(des.build_fleet(), driver, 40, seed=5)
    assert des_accounting(records, 40) == []
    assert des_accounting(records[:-1], 40)
    again = des.run_driver(des.build_fleet(), driver, 40, seed=5)
    assert des_digest(again) == des_digest(records)


def _session_members(sid):
    """Pids of live or unreaped processes in session ``sid``."""
    members = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except (OSError, ValueError):
            continue
        # Fields after the parenthesised command: state ppid pgrp session.
        if entry.name.isdigit() and int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            members.append(int(entry.name))
    return members


def _run(args, cwd=ROOT, timeout=300):
    """Run the benchmark in a session of its own; ``leftovers`` lists the
    processes of that session still present once it has exited."""
    with subprocess.Popen(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as popen:
        stdout, stderr = popen.communicate(timeout=timeout)
        leftovers = _session_members(popen.pid) if Path("/proc").is_dir() else []
    return SimpleNamespace(
        returncode=popen.returncode, stdout=stdout, stderr=stderr, leftovers=leftovers
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_mode_of_each_workload(workload, trace, tmp_path):
    proc = _run(
        [
            "--workload", workload, "--seed", "3", "--seconds", "2",
            "--trace", str(trace), "--quick", "--out", str(tmp_path),
        ]
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.leftovers == []
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert (tmp_path / f"{workload}-seed3-trace{trace}.json").exists()
    if trace:
        spans = (tmp_path / f"{workload}-seed3-trace1.jsonl").read_text().splitlines()
        assert {"trace_id", "parent_id", "name"} <= set(json.loads(spans[0]))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(
        ["--workload", "page-threads", "--seed", "1", "--seconds", "1"], cwd=tmp_path
    )
    assert proc.returncode != 0
    assert proc.leftovers == []
    assert '"metrics"' not in proc.stdout
