import importlib.util
import json
from pathlib import Path

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
