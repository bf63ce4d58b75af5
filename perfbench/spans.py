"""In-memory timing spans recorded from outside the program.

A Tracer replaces a function at the module attribute where its caller looks
it up (for example ``labeldp.pipeline.optimize_bins``) with a wrapper that
records a span: name, key, start, end, parent span and the time its direct
children took.  Nothing inside the program changes, and ``restore`` puts the
original attributes back.  A target attribute that no longer exists is listed
in ``missing`` instead of failing, so renames in the program show up as
missing spans.

Functions called once per label (PER_LABEL_TARGETS, the scalar samplers) add
to a (name, key) -> [calls, seconds] total and to their parent's child time
instead of storing one span per call.
"""
from __future__ import annotations

import importlib
import json
import re
import statistics
import time


def _layout_facts(layout) -> dict:
    """Bins d and universe size k of a returned BinLayout."""
    return {"d": layout.d, "k": layout.labels.k}


# Call sites wrapped by every traced pass: (module, attribute, key, attrs).
# key(args) labels the span; attrs(result) adds measured facts to it.
TARGETS = (
    ("labeldp.cli", "main", lambda a: _flag(a[0], "--mechanism", "--mechanisms"), None),
    ("labeldp.cli", "read_labels", None, None),
    ("labeldp.cli", "parse_universe", None, None),
    ("labeldp.cli", "label_randomizer", None, None),
    ("labeldp.cli", "snap_to_universe", None, None),
    ("labeldp.cli", "laplace_sample", None, None),
    ("labeldp.cli", "staircase_sample", None, None),
    ("labeldp.cli", "discrete_laplace_sample", None, None),
    ("labeldp.cli", "discrete_staircase_sample", None, None),
    ("labeldp.pipeline", "snap_to_universe", None, None),
    ("labeldp.pipeline", "laplace_histogram", None,
     lambda est: {"n_zero_cells": sum(1 for c in est.noised_counts if c == 0.0)}),
    ("labeldp.pipeline", "optimize_bins", None, _layout_facts),
    ("labeldp.pipeline", "rr_on_bins_randomize", None, None),
    ("labeldp.binopt", "optimize_bins", lambda a: f"{a[2].kind}.eps{a[1]:g}", _layout_facts),
)
# Per-label call sites, totalled instead of stored, keyed by the eps found at
# the given positional argument.
PER_LABEL_TARGETS = (
    ("labeldp.cli", "exponential_mechanism_sample", 3),
)

NAME, KEY, START, END, PARENT, CHILD_S, ATTRS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.totals: dict[tuple[str, float], list] = {}
        self.missing: list[str] = []
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> "Tracer":
        for mod, attr, key, attrs in TARGETS:
            self._wrap(mod, attr, self._span_wrapper, key, attrs)
        for mod, attr, key in PER_LABEL_TARGETS:
            self._wrap(mod, attr, self._total_wrapper, key)
        return self

    def restore(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def _wrap(self, mod, attr, make, *extra):
        try:
            module = importlib.import_module(mod)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(f"{mod}.{attr}")
            return
        name = f"{fn.__module__.removeprefix('labeldp.')}.{fn.__name__}"
        self._undo.append((module, attr, fn))
        setattr(module, attr, make(fn, name, *extra))

    def _span_wrapper(self, fn, name, key, attrs):
        spans, opened, clock = self.spans, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, _key(key, args), clock(), None,
                    opened[-1] if opened else None, 0.0, {}]
            spans.append(span)
            opened.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                opened.pop()
                if span[PARENT] is not None:
                    spans[span[PARENT]][CHILD_S] += span[END] - span[START]
            if attrs:
                try:
                    span[ATTRS] = attrs(result)
                except (AttributeError, TypeError):
                    span[ATTRS] = {"attrs_missing": True}
            return result

        return wrapper

    def _total_wrapper(self, fn, name, eps_at):
        spans, opened, clock, totals = self.spans, self._open, time.perf_counter, self.totals

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                eps = args[eps_at] if len(args) > eps_at else kwargs.get("eps")
                slot = totals.get((name, eps))
                if slot is None:
                    slot = totals[(name, eps)] = [0, 0.0]
                slot[0] += 1
                slot[1] += dt
                if opened:
                    spans[opened[-1]][CHILD_S] += dt

        return wrapper

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "totals": [[n, None if eps is None else f"eps{eps:g}", c, s]
                       for (n, eps), (c, s) in self.totals.items()],
            "missing": self.missing,
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)


def _flag(argv, *names):
    """Value after the first of the given flags in an argv list."""
    for i, arg in enumerate(argv[:-1]):
        if arg in names:
            return argv[i + 1]
    return None


def _key(key, args):
    try:
        return key(args) if key else None
    except (AttributeError, IndexError, TypeError, ValueError):
        return None


def seconds(span) -> float:
    return span[END] - span[START]


def self_seconds(span) -> float:
    """Span duration minus the time its direct children took."""
    return seconds(span) - span[CHILD_S]


def named(spans, name, key=None):
    return [s for s in spans if s[NAME] == name and (key is None or s[KEY] == key)]


def children(spans, parent_idx, name):
    return [s for s in spans if s[PARENT] == parent_idx and s[NAME] == name]


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_breakdown(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output:
    'labeldp_s' for the whole ``import labeldp.cli`` and 'scipy_stats_s' for
    scipy.stats (0 when the import no longer pulls it in)."""
    cumulative = {}
    for m in _IMPORT_LINE.finditer(stderr):
        cumulative.setdefault(m.group(4), int(m.group(2)) * 1e-6)
    return {
        "labeldp_s": cumulative.get("labeldp.cli", float("nan")),
        "scipy_stats_s": cumulative.get("scipy.stats", 0.0),
    }


def median(values):
    values = list(values)
    return statistics.median(values) if values else None
