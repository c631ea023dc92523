import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

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
    assert "optimality 0.3" in out
    assert "optimality: 1 probes, max |diff| 3e-07" in out


def test_optimality_at_rounding_level_reads_as_a_rounding_gap(monkeypatch, capsys):
    module = _load(monkeypatch)
    assert module.compare(_dump(240, 0.5, optimality=1.2e-15),
                          _dump(240, 0.5, optimality=9e-16)) == 1
    out = capsys.readouterr().out
    gaps = dict(cell.rsplit(" ", 1) for cell in
                out.split("largest relative gap: ")[1].splitlines()[0].split(", "))
    assert float(gaps["optimality"]) < 1e-8
    # Other value fields keep their own magnitude as the scale.
    assert module.relative_gap(1.2e-15, 9e-16) > 0.2


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


def test_each_workload_is_decided_by_spv_with_and_without_v_by_esrc_and_by_src(monkeypatch, capsys):
    module = _load(monkeypatch)
    calls = []

    class Pair:
        built, projections, spectra, nbytes = 2, 1, 3, 64

    class Gallery:
        matrix = np.eye(2)

        def paired(self, variational):
            return Pair()

    gallery, variational = Gallery(), SimpleNamespace(matrix=np.ones((2, 1)))
    code = SimpleNamespace(
        converged=True, iterations=4, evaluations=0, objective=0.5, optimality=0.0,
        alpha=np.zeros(2), beta=np.zeros(1), active_sets=(),
    )

    config = SimpleNamespace(tol=1e-6)

    def classify(method, g, v, y, given):
        assert g is gallery and given is config
        calls.append((method, v))
        return SimpleNamespace(predicted=1, residuals=np.ones(2), sci=0.5, accepted=False, code=code)

    spv = SimpleNamespace(
        ModelConfig=lambda: config, ToySynthesizer=None,
        classifier=SimpleNamespace(classify=classify),
    )
    inputs = SimpleNamespace(
        WORKLOADS={"small_watchlist": "workload"},
        generate=lambda workload, seed, synthesizer: SimpleNamespace(probes=np.ones((2, 3))),
    )
    run = SimpleNamespace(enroll=lambda spv, data, config: {
        "eta": 1.0, "clustering": SimpleNamespace(exemplar_indices=[0, 3]),
        "gallery": gallery, "variational": variational,
    })
    monkeypatch.setattr(module, "load_spv", lambda checkout: spv)
    monkeypatch.setattr(module, "WORKLOADS", ("small_watchlist",))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "inputs", inputs)
    monkeypatch.setitem(sys.modules, "run", run)

    result = module.outputs(Path("checkout"), 401)
    assert list(result) == ["small_watchlist", "small_watchlist (no variational)",
                            "small_watchlist (esrc)", "small_watchlist (src)"]
    assert calls == ([("spv", variational)] * 3 + [("spv", None)] * 3
                     + [("esrc", variational)] * 3 + [("src", None)] * 3)
    assert result["small_watchlist"]["counters"]["spectra"] == 3
    assert "counters" not in result["small_watchlist (esrc)"]
    assert "counters" not in result["small_watchlist (src)"]
    assert result["small_watchlist (esrc)"]["variational"] is variational.matrix
    assert result["small_watchlist (src)"]["variational"].shape == (2, 0)
    assert module.compare(result, result) == 0
    out = capsys.readouterr().out
    assert "small_watchlist (esrc): enrollment identical; 3 of 3 probes identical" in out
    assert "small_watchlist (src): enrollment identical; 3 of 3 probes identical" in out
    assert "parent built -, projections -, spectra -, nbytes -;" in out
