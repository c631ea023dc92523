import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_decisions.py"


def _load(monkeypatch):
    # The script pins BLAS threads in the environment when imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("compare_decisions", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dump(iterations, objective, evaluations=7, optimality=1e-7):
    probe = {
        "predicted": 2, "residuals": np.array([0.5, 0.25]), "sci": 0.75, "accepted": True,
        "converged": True, "iterations": iterations, "evaluations": evaluations,
        "objective": objective, "optimality": optimality,
        "alpha": np.array([0.0, 1.0]), "beta": np.array([0.5]),
        "active_sets": np.array([[1]], dtype=np.int64),
    }
    return {"small_watchlist": {
        "eta": 1.0, "exemplars": np.array([0, 3]), "gallery": np.eye(2), "variational": np.ones((2, 1)),
        "probes": [probe],
    }}


def test_fewer_iterations_read_as_work_not_as_a_decision(monkeypatch, capsys):
    compare = _load(monkeypatch).compare
    assert compare(_dump(240, 0.5), _dump(240, 0.5)) == 0
    assert compare(_dump(240, 0.5), _dump(40, 0.5 - 1e-11)) == 2
    out = capsys.readouterr().out
    assert "decisions identical on every probe" in out
    assert "iterations per probe: mean 240.00 -> 40.00" in out
    assert "child objective minus parent's: at most -1e-11" in out
    assert "iterations: 1 probes, max |diff| 200" in out


def test_fewer_evaluations_read_as_work_and_count_as_a_difference(monkeypatch, capsys):
    compare = _load(monkeypatch).compare
    assert compare(_dump(240, 0.5, evaluations=9), _dump(240, 0.5, evaluations=6)) == 1
    out = capsys.readouterr().out
    assert "decisions identical on every probe" in out
    assert "evaluations per probe: mean 9.00 -> 6.00" in out
    assert "evaluations: 1 probes, max |diff| 3" in out


def test_optimality_is_a_value_field_with_its_relative_gap(monkeypatch, capsys):
    compare = _load(monkeypatch).compare
    assert compare(_dump(240, 0.5, optimality=4e-7), _dump(240, 0.5, optimality=1e-7)) == 1
    out = capsys.readouterr().out
    assert "decisions identical on every probe" in out
    assert "optimality 0.75" in out
    assert "optimality: 1 probes, max |diff| 3e-07" in out


def test_pair_counters_are_reported_with_a_dash_for_a_missing_one(monkeypatch, capsys):
    compare = _load(monkeypatch).compare
    parent, child = _dump(240, 0.5), _dump(240, 0.5)
    # A parent that predates the spectra counter.
    parent["small_watchlist"]["counters"] = {
        "built": 3, "projections": 3, "spectra": None, "nbytes": 3 * 2**19,
    }
    child["small_watchlist"]["counters"] = {
        "built": 3, "projections": 3, "spectra": 4, "nbytes": 2**21,
    }
    assert compare(parent, child) == 0
    out = capsys.readouterr().out
    assert ("pair tables: parent built 3, projections 3, spectra -, nbytes 1.50 MiB; "
            "child built 3, projections 3, spectra 4, nbytes 2.00 MiB") in out
    # A dump made before the counters were recorded at all.
    del parent["small_watchlist"]["counters"]
    assert compare(parent, child) == 0
    assert "parent built -, projections -, spectra -, nbytes -;" in capsys.readouterr().out


def test_counters_read_the_pair_the_gallery_keeps(monkeypatch):
    counters = _load(monkeypatch).counters

    class Pair:
        built, projections, nbytes = 2, 1, 64

    class Gallery:
        def paired(self, variational):
            assert variational == "v"
            return Pair()

    assert counters(Gallery(), "v") == {"built": 2, "projections": 1, "spectra": None, "nbytes": 64}
    assert counters(object(), "v") == dict.fromkeys(("built", "projections", "spectra", "nbytes"))
