"""Span tracing at the program's layer boundaries, installed from outside.

Wrappers go on the module attribute where the caller looks a function up
(``spv.solvers.extended_solve`` is looked up by the solver's own refit,
``spv.classifier.paired_solve`` by ``spv_classify``), so calls made inside
the program are traced without changing it. Spans are kept in memory and
written out once the session ends.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter

# (module, attribute) pairs wrapped in a traced run; the span name is
# "<module>.<attribute>" and the module is the span's layer.
SITES = (
    ("exemplars", "pose_dissimilarities"),
    ("exemplars", "eta_for_cluster_count"),
    ("exemplars", "eta_max"),
    ("exemplars", "select_exemplars"),
    ("exemplars", "extract_clustering"),
    ("dictionaries", "build_variational_dictionary"),
    ("dictionaries", "build_augmented_gallery"),
    ("classifier", "spv_classify"),
    ("classifier", "paired_solve"),
    ("solvers", "extended_solve"),
    ("solvers", "restricted_least_squares"),
    ("metrics", "roc_curve"),
    ("metrics", "pr_curve"),
    ("metrics", "pauc20"),
    ("metrics", "aupr"),
)

# Layer a wrapped function belongs to, where it differs from the module
# that looks it up.
LAYER = {"classifier.paired_solve": "solvers"}
ENROLLMENT = -1


class Tracer:
    """Records (name, start, end, parent, probe) per wrapped call."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.probe = ENROLLMENT
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.probe)
            if counter is not None:
                counter(self.counts, result)
            return result

        return traced

    def install(self, spv, synthesizer) -> None:
        for module_name, attr in SITES:
            module = getattr(spv, module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(f"{module_name}.{attr}", original))
        # The gallery builder calls the renderer through the instance.
        synthesizer.synthesize = self.wrap("dictionaries.synthesize", synthesizer.synthesize)
        self._restore.append((synthesizer, "synthesize", None))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            if original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: Counter = Counter()
        for span, value in zip(self.spans, own):
            totals[span[0]] += value
        return totals

    def time_in(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            json.dump({**header, "fields": ["name", "start", "end", "parent", "probe"],
                       "spans": self.spans}, out)


def _layer(name: str) -> str:
    return LAYER.get(name, name.split(".", 1)[0])


def _count_select(counts, result):
    counts["exemplars.iterations"] += result.iterations


def _count_refit(counts, result):
    counts["solvers.refit_iterations"] += result.iterations
    counts["solvers.nonconverged"] += not result.converged


_COUNTERS = {
    "exemplars.select_exemplars": _count_select,
    "solvers.extended_solve": _count_refit,
}


def per_layer_metrics(tracer: Tracer, n_probes: int) -> dict:
    """Enrollment figures are per session; stream figures are per probe,
    averaged over whole passes of the probe pool, so counts repeat exactly
    (an exact integer total divided by the probe count rounds the same way
    whatever the number of passes)."""
    own = tracer.self_times()

    def layer_self(layer):
        return sum(value for name, value in own.items() if _layer(name) == layer)

    ls, refit = "solvers.restricted_least_squares", "solvers.extended_solve"
    values = {
        "exemplars.select_calls": (tracer.calls("exemplars.select_exemplars"), "count"),
        "exemplars.iterations": (tracer.counts["exemplars.iterations"], "count"),
        "exemplars.self_s": (layer_self("exemplars"), "s"),
        "dictionaries.synth_calls": (tracer.calls("dictionaries.synthesize"), "count"),
        "dictionaries.self_s": (layer_self("dictionaries"), "s"),
        "solvers.ls_calls": (tracer.calls(ls) / n_probes, "count"),
        "solvers.ls_s": (tracer.time_in(ls) / n_probes, "s"),
        "solvers.paired_self_s": (own["classifier.paired_solve"] / n_probes, "s"),
        "solvers.refit_calls": (tracer.calls(refit) / n_probes, "count"),
        "solvers.refit_iterations": (tracer.counts["solvers.refit_iterations"] / n_probes, "count"),
        "solvers.refit_s": (tracer.time_in(refit) / n_probes, "s"),
        "solvers.nonconverged": (tracer.counts["solvers.nonconverged"] / n_probes, "count"),
        "classifier.self_s": (own["classifier.spv_classify"] / n_probes, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
