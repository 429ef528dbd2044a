"""Per-layer spans recorded from outside apolar.

`Tracer.installed()` wraps the public functions and methods listed in
`FUNCTIONS` and `METHODS`, and restores the originals when it exits.  A
function is replaced in every `apolar.*` namespace that holds the same
object, because modules re-import each other's names (`hilbert_function`
lives in `duality`, `lefschetz`, `catalog`, `cli` and the package itself).

Each call leaves a span `[name, start, end, parent, item, excluded]` in
memory.  `excluded` is the time the tracer's own counter hooks spent inside
that span, so a layer's self time is its duration minus its children's
durations minus `excluded`.  Counters that need the call's arguments or
result (matrix cells, term pairs, repeats within one item) are taken in
hooks that run after the span has ended.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import apolar.cli  # loads every namespace that gets patched
from apolar.catalog import QuadricWeb
from apolar.fields import PrimeField
from apolar.linalg import ExactMatrix
from apolar.poly import LinearChange, Poly


def _poly_key(p: Poly):
    return p.n, p.field, frozenset(p.terms.items())


def _parse_hook(tracer, args, result):
    tracer.counters["grammar.parse_poly.terms"] += len(result.terms)


def _catalecticant_hook(tracer, args, result):
    form, i = args[0], args[1]
    counters = tracer.counters
    counters["duality.catalecticant.cells"] += result.rows * result.cols
    counters["duality.catalecticant.max_rows"] = max(
        counters["duality.catalecticant.max_rows"], result.rows)
    counters["duality.catalecticant.max_cols"] = max(
        counters["duality.catalecticant.max_cols"], result.cols)
    tracer.repeat("duality.catalecticant", (_poly_key(form.poly), frozenset((i, form.degree - i))))


def _pairing_hook(tracer, args, result):
    tracer.counters["duality.pairing_rows.cells"] += result.rows * result.cols


def _rank_name(args):
    return "linalg.rank.fp" if isinstance(args[0].field, PrimeField) else "linalg.rank.qq"


def _rank_hook(tracer, args, result):
    tracer.counters[_rank_name(args) + ".cells"] += args[0].rows * args[0].cols


def _mul_hook(tracer, args, result):
    tracer.counters["poly.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _pow_hook(tracer, args, result):
    tracer.repeat("poly.pow", (_poly_key(args[0]), args[1]))


def _diff_hook(tracer, args, result):
    tracer.counters["poly.diff_action.term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _verdict_hook(tracer, args, result):
    tracer.counters["lefschetz.trials"] += result.trials_used
    tracer.counters["lefschetz.verdicts"] += 1


# (module, attribute, span name, hook); the span name is a string or a
# function of the call's arguments.
FUNCTIONS = (
    ("apolar.cli", "main", "cli.main", None),
    ("apolar.grammar", "parse_poly", "grammar.parse_poly", _parse_hook),
    ("apolar.grammar", "format_poly", "grammar.format_poly", None),
    ("apolar.duality", "catalecticant", "duality.catalecticant", _catalecticant_hook),
    ("apolar.duality", "hilbert_function", "duality.hilbert_function", None),
    ("apolar.duality", "pairing_rows", "duality.pairing_rows", _pairing_hook),
    ("apolar.duality", "ann_degree", "duality.ann_degree", None),
    ("apolar.duality", "quotient_basis", "duality.quotient_basis", None),
    ("apolar.poly", "diff_action", "poly.diff_action", _diff_hook),
    ("apolar.lefschetz", "wlp_check", "lefschetz.wlp_check", _verdict_hook),
    ("apolar.lefschetz", "slp_check", "lefschetz.slp_check", _verdict_hook),
    ("apolar.lefschetz", "snake_consistency", "lefschetz.snake_consistency", None),
    ("apolar.catalog", "gin2", "catalog.gin2", None),
    # classify_web is a thin wrapper of classify_web_report, which the
    # benchmark calls to read the evidence; both count as one layer
    ("apolar.catalog", "classify_web_report", "catalog.classify_web", None),
    ("apolar.catalog", "quadric_ideal_hf", "catalog.quadric_ideal_hf", None),
    ("apolar.catalog", "inverse_system_sample", "catalog.inverse_system_sample", None),
)

METHODS = (
    (ExactMatrix, "rank", _rank_name, _rank_hook),
    (ExactMatrix, "det", "linalg.det", None),
    (ExactMatrix, "kernel_basis", "linalg.kernel_basis", None),
    (ExactMatrix, "pivot_columns", "linalg.pivot_columns", None),
    (Poly, "__mul__", "poly.mul", _mul_hook),
    (Poly, "__pow__", "poly.pow", _pow_hook),
    (LinearChange, "apply", "poly.linear_change_apply", None),
    (QuadricWeb, "transformed", "catalog.transformed", None),
)

#: hook counters, reported as 0 on a workload that never reaches them
COUNTERS = (
    "grammar.parse_poly.terms",
    "duality.catalecticant.cells",
    "duality.catalecticant.max_rows",
    "duality.catalecticant.max_cols",
    "duality.pairing_rows.cells",
    "linalg.rank.fp.cells",
    "linalg.rank.qq.cells",
    "poly.mul.term_pairs",
    "poly.diff_action.term_pairs",
)

NAME, START, END, PARENT, ITEM, EXCLUDED = range(6)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.items: list[tuple[str, float, float]] = []  # (class, start, end)
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.repeats: defaultdict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._stack: list[int] = []
        self._item: int | None = None
        self._seen: set = set()

    def repeat(self, layer: str, key) -> None:
        """Count a call, and a repeat when the item already made this call."""
        tally = self.repeats[layer]
        tally[1] += 1
        key = (layer, key)
        if key in self._seen:
            tally[0] += 1
        else:
            self._seen.add(key)

    @contextmanager
    def item(self, klass: str):
        self._item = len(self.items)
        self._seen = set()
        start = perf_counter()
        try:
            yield
        finally:
            self.items.append((klass, start, perf_counter()))
            self._item = None

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name(args) if callable(name) else name, 0.0, 0.0, parent, tracer._item, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
                if parent is not None:
                    spans[parent][EXCLUDED] += perf_counter() - span[END]
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced function and method; restore them on exit."""
        undo = []
        try:
            modules = [m for name, m in list(sys.modules.items())
                       if m is not None and (name == "apolar" or name.startswith("apolar."))]
            for module_name, attr, name, hook in FUNCTIONS:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(original, name, hook)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapper)
            for cls, attr, name, hook in METHODS:
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    # -- aggregation ---------------------------------------------------------

    def layer_totals(self, scales: list[float]) -> dict[str, dict[str, float]]:
        """Calls and self seconds per span name, self times scaled per item."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child_time[span[PARENT]] += span[END] - span[START]
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for span, children in zip(self.spans, child_time):
            entry = totals[span[NAME]]
            entry["calls"] += 1
            own = span[END] - span[START] - children - span[EXCLUDED]
            entry["self_s"] += own * scales[span[ITEM]]
        return totals

    def unspanned_share(self) -> float:
        """Share of item wall time that no span covers."""
        item_time = sum(end - start for _, start, end in self.items)
        covered = sum(s[END] - s[START] for s in self.spans if s[PARENT] is None)
        return (item_time - covered) / item_time

    def write(self, path) -> None:
        """Spans as JSON lines, one `[name, start, end, parent, item]` each."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"items": self.items}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span[:EXCLUDED]) + "\n")


def layer_metrics(tracer: Tracer, scales: list[float]) -> dict[str, float]:
    """Every per-layer metric the benchmark reports, from one traced run.

    `scales[i]` converts the times of item i to the reference host speed.
    """
    totals = tracer.layer_totals(scales)
    out: dict[str, float] = dict.fromkeys(COUNTERS, 0)
    for name in ([n for _, _, n, _ in FUNCTIONS] + ["linalg.rank.fp", "linalg.rank.qq"]
                 + [n for _, _, n, _ in METHODS if isinstance(n, str)]):
        entry = totals.get(name, {"calls": 0, "self_s": 0.0})
        out[name + ".calls"] = entry["calls"]
        out[name + ".self_s"] = entry["self_s"]
    out.update(tracer.counters)
    for layer in ("duality.catalecticant", "poly.pow"):
        repeated, calls = tracer.repeats[layer]
        out[layer + ".repeat_ratio"] = repeated / calls if calls else 0.0
    verdicts = tracer.counters["lefschetz.verdicts"]
    out["lefschetz.trials_per_verdict"] = (
        tracer.counters["lefschetz.trials"] / verdicts if verdicts else 0.0)
    out["trace.unspanned_share"] = tracer.unspanned_share()
    return out
