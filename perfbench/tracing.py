"""Outside-in tracing of one benchmark process.

The tracer wraps public functions of the program at the name their
caller looks up (a module attribute or a class attribute), so the
program itself is not edited.  Two kinds of wrap exist:

* a span records (run id, span id, parent span id, name, start, end) and
  accumulates calls and self time, which is the span's duration minus
  the time its child spans cover;
* a counter only counts calls: of functions called tens of thousands
  of times per run, where a span would cost more than the work, and of
  a class's ``__post_init__``, which counts the objects built.

A wrap target that does not exist is recorded as absent and skipped, so
a program that no longer makes a call reads as a zero count.  Spans are
kept in memory and written out once, by ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import Counter
from time import perf_counter_ns

_MISSING = object()


def _sequence_rows(args, kwargs, result):
    rows = kwargs["rows"] if "rows" in kwargs else (args[2] if len(args) > 2 else None)
    return {"outputs.write_csv.rows": len(rows)} if hasattr(rows, "__len__") else {}


def _file_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    return {"outputs.sha256_file.bytes": os.path.getsize(path)}


def _materialised_values(args, kwargs, result):
    # Python values held in tuples or lists of the returned trajectory.
    fields = getattr(result, "__dict__", {}).values()
    return {"feedback.values": sum(len(v) for v in fields if isinstance(v, (tuple, list)))}


_PRESETS = "forensic_bias.presets"

# name -> (targets as (module, attribute path), measure hook or None)
SPANS = {
    "cli.main": ((("forensic_bias.cli", "main"),), None),
    "presets.run_preset": ((("forensic_bias.cli", "run_preset"),), None),
    "config.resolve": ((("forensic_bias.config", "PresetSchema.resolve"),), None),
    "fingerprints.sample_delta_impute": (((_PRESETS, "sample_delta_impute"),), None),
    "fingerprints.generate_print": ((("forensic_bias.fingerprints", "generate_print"),), None),
    "fingerprints.mask_missing": ((("forensic_bias.fingerprints", "mask_missing"),), None),
    "fingerprints.delta_impute_exact": (
        (("forensic_bias.fingerprints", "delta_impute_exact"), (_PRESETS, "delta_impute_exact")),
        None,
    ),
    "propagation.monte_carlo_chains": (((_PRESETS, "monte_carlo_chains"),), None),
    "propagation.run_chain_pair": ((("forensic_bias.propagation", "run_chain_pair"),), None),
    "seeding.substream": (
        ((_PRESETS, "substream"), ("forensic_bias.propagation", "substream"), ("forensic_bias.feedback", "substream")),
        None,
    ),
    "feedback.run_paired_feedback": (((_PRESETS, "run_paired_feedback"),), None),
    "feedback.simulate_feedback": (
        ((_PRESETS, "simulate_feedback"), ("forensic_bias.feedback", "simulate_feedback")),
        _materialised_values,
    ),
    "outputs.write_csv": (((_PRESETS, "write_csv"),), _sequence_rows),
    "outputs.write_json": (((_PRESETS, "write_json"),), None),
    "outputs.sha256_file": (((_PRESETS, "sha256_file"),), _file_bytes),
    "outputs.write_manifest": (((_PRESETS, "write_manifest"),), None),
    "relevance.load_builtin_joint": (((_PRESETS, "load_builtin_joint"),), None),
    "relevance.classify_relevance": (((_PRESETS, "classify_relevance"),), None),
    "trier.case_report": (((_PRESETS, "case_report"),), None),
}

COUNTERS = {
    "contextual.apply_bias": (("forensic_bias.propagation", "apply_bias"),),
    "contextual.race_example_delta": (
        ("forensic_bias.propagation", "race_example_delta"),
        (_PRESETS, "race_example_delta"),
    ),
    "odds.posterior_odds": (("forensic_bias.propagation", "posterior_odds"), (_PRESETS, "posterior_odds")),
    "fingerprints.vectors": (
        ("forensic_bias.fingerprints", "MinutiaVector.__post_init__"),
        ("forensic_bias.fingerprints", "LatentVector.__post_init__"),
    ),
    "contextual.ledgers": (("forensic_bias.contextual", "BiasLedger.__post_init__"),),
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value), or None when the target is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self.run_id = -1
        self._stack: list = []
        self._saved: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, measure):
        spans, stack, calls, self_ns, counts = (
            self.spans, self._stack, self.calls, self.self_ns, self.counts,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_ns[name] += duration - frame[1]
                spans[span_id] = (self.run_id, span_id, parent, name, start, end)
            if measure is not None:
                counts.update(measure(args, kwargs, result))
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / remove ---------------------------------------------------

    def _patch(self, module_name, path, make):
        found = _resolve(module_name, path)
        if found is None:
            self.absent.add(f"{module_name}.{path}")
            return
        owner, attr, value = found
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, make(value))

    def install(self, run_id: int) -> None:
        """Wrap every target; the spans recorded until ``remove`` carry run_id."""
        self.run_id = run_id
        for name, (targets, measure) in SPANS.items():
            for module_name, path in targets:
                self._patch(module_name, path, lambda fn, n=name, m=measure: self._span(n, fn, m))
        for name, targets in COUNTERS.items():
            for module_name, path in targets:
                self._patch(module_name, path, lambda fn, n=name: self._counter(n, fn))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id,span_id,parent_id,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")
