"""Tests of the benchmark's own pieces.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import run
from spans import Tracer, covered_length, self_times, tail_percentile

sys.path.insert(0, str(run.SRC))

import chatstub  # noqa: E402
import flowstub  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length(0.0, 10.0, []) == 0.0
    assert covered_length(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert covered_length(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0


def test_self_time_subtracts_children_once():
    spans = [
        (0, "root", 0.0, 10.0, None, 0),
        (1, "child", 1.0, 4.0, 0, 0),
        (2, "child", 3.0, 6.0, 0, 0),  # overlaps its sibling, as pool work does
        (3, "grandchild", 1.5, 2.5, 1, 0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0})


def test_tracer_records_parents_and_generation():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.generation = 7
    assert outer(1) == 4
    by_name = {s[1]: s for s in tracer.spans}
    assert by_name["inner"][4] == by_name["outer"][0]
    assert by_name["outer"][4] is None
    assert {s[5] for s in tracer.spans} == {7}
    assert self_times(tracer.spans)[by_name["outer"][0]] == 2.0


def test_tracer_counts_and_spans_survive_concurrent_threads():
    from concurrent.futures import ThreadPoolExecutor

    tracer = Tracer()
    work = tracer.wrap("work", lambda: tracer.add("calls"))
    pool_call = tracer.wrap("pool", lambda: list(pool.map(lambda _: work(), range(4000))))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            pool_call()
    finally:
        sys.setswitchinterval(interval)
    pool_id = next(s[0] for s in tracer.spans if s[1] == "pool")
    workers = [s for s in tracer.spans if s[1] == "work"]
    assert tracer.counts["calls"] == len(workers) == 4000
    assert all(s[4] == pool_id for s in workers)


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(11, 9, 10), (12, 16, 10), (40, 75, 10), (100, 90, 10), (1600, 99, 16)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile, beyond):
    values = [float(v) for v in range(n)]
    value, pct, count = tail_percentile(values[::-1])
    assert (pct, count) == (percentile, n)
    assert sum(v > value for v in values) == beyond
    # one percentile higher would leave fewer than ten samples beyond it
    assert n * (100 - (pct + 1)) / 100 < 10


def test_tail_without_ten_beyond_is_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100, 3)
    assert tail_percentile([float(v) for v in range(10)]) == (9.0, 100, 10)


def test_chat_reply_is_log_rank_recombination():
    import numpy as np
    from shapeopt.evolution import Bounds, ScoredRecord
    from shapeopt.llm import build_prompt, mock_propose

    bounds = Bounds.uniform(3, -1.0, 1.0)
    rng = np.random.default_rng(0)
    records = [
        ScoredRecord(rng.uniform(-1, 1, 3), float(rng.normal()), 0) for _ in range(6)
    ]
    prompt = build_prompt(records, bounds, "test").text
    body = {"messages": [{"role": "system", "content": "x"}, {"role": "user", "content": prompt}]}
    assert chatstub.recombine(prompt) == mock_propose(records, bounds).tolist()
    assert chatstub.reply_text(body, 1) == chatstub.reply_text(body, 1)
    assert "[" not in chatstub.reply_text(body, chatstub.BAD_EVERY)


def _chat_session(tmp_path: Path, name: str, bodies: list[dict]) -> tuple[list[str], dict]:
    stats = tmp_path / f"{name}.json"
    proc = subprocess.Popen(
        [sys.executable, str(run.BENCH_DIR / "chatstub.py"), "--stats", str(stats)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        port = int(proc.stdout.readline())
        replies = []
        for body in bodies:
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/chat/completions",
                data=json.dumps(body).encode(), headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                replies.append(response.read().decode())
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
    return replies, json.loads(stats.read_text())


def test_chat_stub_is_deterministic_and_counts(tmp_path):
    prompt = "values: [1, 2], score: -3\nvalues: [10, 20], score: -1\nvalues: [5, 5], score: -2"
    n = chatstub.BAD_EVERY + 1
    bodies = [{"messages": [{"role": "user", "content": prompt}]}] * n
    first, stats = _chat_session(tmp_path, "a", bodies)
    second, _ = _chat_session(tmp_path, "b", bodies)
    assert first == second
    contents = [json.loads(r)["choices"][0]["message"]["content"] for r in first]
    bad = chatstub.BAD_EVERY - 1
    assert contents[bad] == chatstub.NO_VECTOR_REPLY
    assert len(set(contents[:bad] + contents[bad + 1:])) == 1
    assert "[" in contents[0]
    assert stats["requests"] == stats["connections"] == n
    assert stats["service_s"] > 0


def test_flow_stub_is_deterministic(tmp_path):
    circle = [(math.cos(t), math.sin(t)) for t in (2 * math.pi * k / 256 for k in range(256))]
    circle.append(circle[0])
    perf = flowstub.performance(circle, 100.0)
    assert perf["lift"] == pytest.approx(1.0, rel=1e-3)
    assert perf["ratio"] < math.sqrt(100.0) / 2

    geometry = tmp_path / "geometry.txt"
    geometry.write_text("".join(f"{x:.6g} {y:.6g}\n" for x, y in circle))
    outputs = []
    for k in range(2):
        out = tmp_path / f"out{k}.json"
        subprocess.run(
            [*map(str, (sys.executable, run.BENCH_DIR / "flowstub.py", geometry)), "--re", "100", "--out", str(out)],
            check=True, timeout=30,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


SMOKE_SIZES = {
    "drag_mock": ({"budget": 3, "n_elements": 24}, None),
    "drag_ga_fine": ({"budget": 2, "n_elements": 32}, None),
    "llm_long": ({"budget": 8}, 4),
    "airfoil_ga": ({"budget": 2}, None),
}

# Name prefixes of the per-layer metrics each workload must read above 0;
# the rest are layers it does not run, or failures that need not happen.
RUN_EVERYWHERE = (
    "problems.evaluate_ms", "evolution.loop_self_ms", "evolution.pool_efficiency",
    "cli.write_records_ms", "cli.records_bytes", "cli.finalize_ms", "trace.overhead",
)
LAYERS_RUN = {
    "drag_mock": RUN_EVERYWHERE + (
        "stokesbem.", "axisym.", "evolution.select_ms", "evolution.sample_ms",
        "llm.mock_propose_ms",
    ),
    "drag_ga_fine": RUN_EVERYWHERE + ("stokesbem.", "axisym.", "ga.step_ms"),
    "llm_long": RUN_EVERYWHERE + (
        "evolution.select_ms", "evolution.sample_ms", "llm.propose_ms", "llm.prompt_ms",
        "llm.parse_ms", "llm.endpoint_", "llm.attempts_per_proposal", "llm.connections",
        "llm.audit_bytes", "cli.load_records_ms",
    ),
    "airfoil_ga": RUN_EVERYWHERE + (
        "ga.step_ms", "airfoil.curve_ms", "airfoil.is_simple_ms", "airfoil.external_ms",
        "airfoil.evaluator_calls",
    ),
}


@pytest.mark.parametrize("name", sorted(SMOKE_SIZES))
def test_workload_smoke(name, tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    overrides, resume_at = SMOKE_SIZES[name]
    base = WORKLOADS[name]
    workload = dataclasses.replace(
        base,
        config={**base.config, **overrides},
        resume_at=resume_at if base.resume_at is not None else None,
    )
    # Two repeats, so each generation time is a median over repeats.
    seconds = 2 * workload.campaign_s
    result = run.run_workload(workload, seed=3, seconds=seconds, trace=True, work=tmp_path)
    assert result["problems"] == []
    assert result["details"]["repeats"] == 2
    assert result["details"]["generations"] == workload.budget
    assert set(result["metrics"]) == set(run.metric_units("end_to_end"))
    assert all(value > 0 for value in result["metrics"].values())
    layer = {k: v["value"] for k, v in result["layer_metrics"].items()}
    assert set(layer) == set(run.metric_units("per_layer"))
    assert all(value >= 0 for value in layer.values())
    ran = [k for k in layer if k.startswith(LAYERS_RUN[name])]
    assert len(ran) >= len(LAYERS_RUN[name])
    assert [k for k in ran if not layer[k] > 0] == []
    if workload.config["problem"].startswith("axisym"):
        n = workload.config["n_elements"]
        assert layer["stokesbem.kernel_pairs"] == 8 * n * n + 64 * (n - 1) + 24 * n
    if workload.uses_chat:
        assert layer["llm.attempts_per_proposal"] > 1
