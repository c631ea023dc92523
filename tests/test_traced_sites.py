"""The benchmark's traced call sites stay on the program's call paths.

``screenbench/tracing.py`` counts work per layer by wrapping module
attributes (``tracing.SITES``). A caller that stops looking a function up
through its module (a local alias, an inlined body) would zero that count
without any error, so this test installs the tracer, enrolls a tiny site
the way the benchmark does, classifies two probes on the greedy search
path, and checks that every site is called, the nested ones from inside
their program caller, and that the second probe reuses the first's
block-union bases, projected galleries, refit spectra and admissible
sets.
"""

import sys
from pathlib import Path

import numpy as np

import spv

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "screenbench"))
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

# Site -> the sites that call it inside the program.
NESTED = {
    "exemplars.eta_max": {"exemplars.eta_for_cluster_count"},
    "exemplars.select_exemplars": {"exemplars.eta_max", "exemplars.eta_for_cluster_count"},
    "exemplars.extract_clustering": {"exemplars.eta_max", "exemplars.eta_for_cluster_count"},
    "classifier.paired_solve": {"classifier.spv_classify"},
    "solvers.extended_solve": {"classifier.paired_solve"},
    "solvers.restricted_least_squares": {"classifier.paired_solve"},
    "dictionaries.synthesize": {"dictionaries.build_augmented_gallery"},
}


def test_every_traced_site_is_called_from_its_program_caller(monkeypatch):
    data = inputs.generate(inputs.WORKLOADS["small_watchlist"], 1, spv.ToySynthesizer)
    config = spv.ModelConfig()
    admissible = []
    enumerate_sets = spv.solvers.admissible_active_sets
    monkeypatch.setattr(
        spv.solvers, "admissible_active_sets",
        lambda *args: admissible.append(args) or enumerate_sets(*args),
    )
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    tracer = tracing.Tracer()
    tracer.install(spv, data.synthesizer)
    try:
        enrolled = run.enroll(spv, data, config)
        enrolling = len(eighs)
        y = np.ascontiguousarray(data.probes[:, 0])
        decision = spv.classifier.spv_classify(
            enrolled["gallery"], enrolled["variational"], y, config
        )
        pair = enrolled["gallery"].paired(enrolled["variational"])
        first, built = set(pair._unions), pair.built
        spectra, factored = set(pair._spectra), pair.spectra
        enumerated, calls = len(admissible), len(eighs)
        spv.classifier.spv_classify(
            enrolled["gallery"], enrolled["variational"], data.probes[:, 1], config
        )
        run.summarize(spv.metrics, [-decision.min_residual, 0.0], [True, False])
    finally:
        tracer.uninstall()

    # The scan's enrollment-only work belongs to the session: the second
    # probe builds only the block unions and projected galleries the first
    # did not use, and enumerates no admissible sets.
    assert enrolled["gallery"].paired(enrolled["variational"]) is pair
    assert built == len(first) > 0
    assert pair.built - built == len(set(pair._unions) - first)
    # The refit's union spectra too: eigh runs once per union per pair.
    assert factored == len(spectra) == calls - enrolling > 0
    assert pair.spectra - factored == len(set(pair._spectra) - spectra) == len(eighs) - calls
    held = [a for table in pair._spectra.values() for a in table]
    held += [a for entry in pair._unions.values() for a in entry]
    assert pair.nbytes > sum(a.nbytes for a in held)
    assert enumerated == len(admissible) == 1

    names = [f"{module}.{attr}" for module, attr in tracing.SITES]
    assert all(tracer.calls(name) >= 1 for name in names + ["dictionaries.synthesize"]), {
        name: tracer.calls(name) for name in names
    }
    callers = {name: set() for name in NESTED}
    for name, _, _, parent, _ in tracer.spans:
        if name in callers and parent >= 0:
            callers[name].add(tracer.spans[parent][0])
    for name, expected in NESTED.items():
        assert callers[name] & expected, (name, callers[name])
