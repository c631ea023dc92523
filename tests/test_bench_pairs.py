import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(**values):
    return {"correct": True, "metrics": {k: {"value": v, "unit": "1"} for k, v in values.items()}}


def test_order_alternates_which_side_runs_first():
    order = _load().order
    assert [order(i) for i in range(4)] == [
        ("parent", "child"), ("child", "parent"), ("parent", "child"), ("child", "parent"),
    ]


def test_summary_gives_medians_quartiles_change_and_wins_in_the_better_direction():
    summarize = _load().summarize
    metrics = [
        {"name": "probes_per_s", "unit": "1/s", "better": "higher"},
        {"name": "probe_p50_ms", "unit": "ms", "better": "lower"},
    ]
    parent = [_result(probes_per_s=v, probe_p50_ms=m) for v, m in ((100, 8), (110, 7), (120, 6), (130, 5), (140, 4))]
    # The child is faster in four pairs; pair 2 is a tie on both metrics.
    child = [_result(probes_per_s=v, probe_p50_ms=m) for v, m in ((125, 6), (130, 6), (120, 6), (150, 4), (160, 3))]
    lines = summarize({"parent": parent, "child": child}, metrics)
    assert len(lines) == 3
    rate, latency = lines[1].split(), lines[2].split()
    assert rate[0] == "probes_per_s" and latency[0] == "probe_p50_ms"
    # Medians 120 -> 130 with quartiles [110, 130] and [125, 150]: +8.3%.
    assert " ".join(rate[1:5]) == "120 [110, 130] 1/s"
    assert " ".join(rate[5:9]) == "130 [125, 150] 1/s"
    assert rate[9:] == ["+8.3%", "4/5"]
    # Lower is better: medians 6 -> 6, four wins.
    assert latency[9:] == ["+0.0%", "4/5"]


def test_summary_reads_the_metrics_benchmark_json_declares():
    summarize = _load().summarize
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    run = _result(**{m["name"]: 1.0 for m in metrics})
    lines = summarize({"parent": [run, run], "child": [run, run]}, metrics)
    assert [line.split()[0] for line in lines[1:]] == [m["name"] for m in metrics]
    assert all(line.split()[-2:] == ["+0.0%", "0/2"] for line in lines[1:])


def test_verdict_holds_each_metric_to_its_bound_in_the_better_direction():
    verdict = _load().verdict
    seconds = {"name": "setup_s", "better": "lower", "bound": 0.25}
    rate = {"name": "probes_per_s", "better": "higher", "bound": 0.2}
    steady = np.array([0.50, 0.50, 0.51, 0.51, 0.52])
    # A setup time that rose by a third (0.508 -> 0.678 s) on steady runs.
    assert verdict(seconds, np.array([0.50, 0.505, 0.508, 0.51, 0.515]),
                   np.array([0.66, 0.67, 0.678, 0.68, 0.69])) == "worse beyond bound"
    assert verdict(rate, np.full(5, 100.0), np.full(5, 79.0)) == "worse beyond bound"
    assert verdict(seconds, steady, steady * 1.2) == "within bound"
    assert verdict(rate, np.full(5, 100.0), np.full(5, 81.0)) == "within bound"
    # The parent's quartiles span 0.40-0.60 s, wider than 25% of 0.50 s:
    # a child median within the bound does not settle it ...
    wide = np.array([0.35, 0.40, 0.50, 0.60, 0.70])
    assert verdict(seconds, wide, np.array([0.45, 0.50, 0.55, 0.60, 0.30])) == "unresolved"
    assert verdict(rate, 100 * wide, 100 * wide) == "unresolved"
    # ... unless every child run beats every parent run.
    assert verdict(seconds, wide, np.array([0.30, 0.31, 0.32, 0.33, 0.34])) == "within bound"
    assert verdict(rate, 100 * wide, np.full(5, 71.0)) == "within bound"


def test_summary_puts_the_verdict_beside_each_bounded_metric():
    summarize = _load().summarize
    metrics = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    parent = [_result(setup_s=v) for v in (0.500, 0.505, 0.508, 0.510, 0.515)]
    child = [_result(setup_s=v) for v in (0.660, 0.670, 0.678, 0.680, 0.690)]
    header, line = summarize({"parent": parent, "child": child}, metrics)
    assert header.split()[:2] == ["metric", "verdict"]
    assert line.split()[:4] == ["setup_s", "worse", "beyond", "bound"]
    assert line.split()[-2:] == ["+33.5%", "0/5"]


def test_a_run_that_is_not_correct_fails_the_comparison(monkeypatch, capsys):
    module = _load()
    results = iter([_result(probes_per_s=1.0), {"correct": False, "metrics": {}}])
    monkeypatch.setattr(module, "run_once", lambda *args: next(results))
    assert module.main(["p", "c", "--workload", "small_watchlist", "--seed", "1", "--pairs", "1"]) == 1
    assert "not correct" in capsys.readouterr().out


@pytest.mark.parametrize("pairs", [1, 2])
def test_every_pair_runs_both_sides_once(monkeypatch, pairs):
    module = _load()
    calls = []
    monkeypatch.setattr(
        module, "run_once", lambda checkout, *args: calls.append(checkout.name) or _result()
    )
    monkeypatch.setattr(module, "summarize", lambda runs, metrics: [])
    assert module.main(["parent_dir", "child_dir", "--workload", "w", "--seed", "1",
                        "--pairs", str(pairs)]) == 0
    assert calls == ["parent_dir", "child_dir", "child_dir", "parent_dir"][: 2 * pairs]
