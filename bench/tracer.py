"""Spans and counters for the traced benchmark run.

The library is instrumented from outside: each function below is
replaced at every module or class attribute of ``veechlab`` that binds
it, so a caller that imported it by name (``from .coset import
coset_enumerate``) is traced too, and an alias such as
``CycloNumber.__rmul__ = __mul__`` is traced with its original.
``Tracer.uninstall`` puts the originals back.

Three kinds of record, all kept in memory until the run ends:

* SPAN: coarse layers, one record per call with its id, name, parent
  span, start, end and self time (duration minus the time covered by
  child spans and aggregated calls);
* AGG: hot functions (field arithmetic, separatrix germs), summed per
  (name, parent span) as calls, total time and self time;
* COUNT: functions only counted, with no clock read.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

SPAN, AGG, COUNT = "span", "agg", "count"


def _note_filter(tracer, args, result):
    if result is not None:
        tracer.bump("field.sign.filter_hits")


def _note_interval(tracer, args, result):
    prec = args[2]
    tracer.maxima["field.sign.max_prec"] = max(tracer.maxima.get("field.sign.max_prec", 0), prec)


def _note_validate(tracer, args, result):
    tracer.bump("surface.validate.polygons", len(args[0].polygons))


def _note_enumerate(tracer, args, result):
    tracer.bump("coset.index_sum", result.index)


# (module, attribute path, record name, kind, note); a note sees the
# arguments and result of every call that returned normally
INSTRUMENTS = (
    ("veechlab.field", "CycloNumber.__mul__", "field.mul", AGG, None),
    ("veechlab.field", "CycloNumber.__add__", "field.addsub", AGG, None),
    ("veechlab.field", "CycloNumber.__sub__", "field.addsub", AGG, None),
    ("veechlab.field", "CycloNumber.inverse", "field.inverse", AGG, None),
    ("veechlab.field", "RealAlg.sign", "field.sign", COUNT, None),
    ("veechlab.field", "_float_sign_filter", "field.sign.filter", COUNT, _note_filter),
    ("veechlab.field", "_interval_value", "field.sign.interval", COUNT, _note_interval),
    ("veechlab.field", "RealAlg.approx", "field.approx", AGG, None),
    ("veechlab.field", "RealAlg.from_json", "field.parse", AGG, None),
    ("veechlab.cylinders", "decompose", "cylinders.decompose", SPAN, None),
    ("veechlab.cylinders", "_Tracer.trace_germ", "cylinders.trace_germ", AGG, None),
    ("veechlab.cylinders", "_Tracer.exit_from", "cylinders.exit_from", COUNT, None),
    ("veechlab.covering", "base_decomposition", "covering.base_decomposition", AGG, None),
    ("veechlab.covering", "build_cover", "covering.build_cover", SPAN, None),
    ("veechlab.covering", "Monodromy.eval_word", "covering.eval_word", COUNT, None),
    ("veechlab.surface", "TranslationSurface.validate", "surface.validate", SPAN, _note_validate),
    ("veechlab.zcover", "ZMonodromy.eval_word", "zcover.eval_word", AGG, None),
    ("veechlab.certificates", "verify_theorem", "certificates.verify_theorem", SPAN, None),
    ("veechlab.certificates", "_finite_profile", "certificates.finite_profile", SPAN, None),
    ("veechlab.certificates", "Certificate.to_json", "certificates.emit", SPAN, None),
    ("veechlab.cli", "_emit", "certificates.emit", SPAN, None),
    ("veechlab.certificates", "revalidate", "certificates.revalidate", SPAN, None),
    ("veechlab.veech", "presentation_for", "veech.presentation_for", SPAN, None),
    ("veechlab.coset", "coset_enumerate", "coset.enumerate", SPAN, _note_enumerate),
    ("veechlab.coset", "_Enumerator.define", "coset.cosets_defined", COUNT, None),
    ("veechlab.quotient", "quotient_invariants", "quotient.invariants", SPAN, None),
    ("veechlab.cli", "main", "cli.main", SPAN, None),
    ("veechlab.perms", "compose", "perms.compose", COUNT, None),
)


class Tracer:
    """In-memory spans, aggregates and counters of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (id, name, parent id, start, end, self_s, error type or None)
        self.aggregates = {}  # (name, parent id) -> [calls, total_s, self_s]
        self.counts = {}
        self.maxima = {}
        # one frame per active call: [id of the enclosing span, time covered by children]
        self._stack = [[0, 0.0]]
        self._next_id = 1
        self._installed = []
        self._misses_at_install = None  # cache misses are counted from the first install

    def bump(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, kind, note=None):
        """A drop-in replacement for fn that records name."""
        if kind == COUNT:
            def wrapper(*args, **kwargs):
                self.bump(name)
                result = fn(*args, **kwargs)
                if note is not None:
                    note(self, args, result)
                return result
            return functools.wraps(fn)(wrapper)

        stack = self._stack
        clock = self.clock
        spans = self.spans
        aggregates = self.aggregates

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if kind == SPAN:
                sid = self._next_id
                self._next_id = sid + 1
            else:
                sid = parent[0]
            frame = [sid, 0.0]
            stack.append(frame)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                if kind == SPAN:
                    spans.append((sid, name, parent[0], start, end, duration - frame[1], error))
                else:
                    rec = aggregates.get((name, sid))
                    if rec is None:
                        rec = aggregates[(name, sid)] = [0, 0.0, 0.0]
                    rec[0] += 1
                    rec[1] += duration
                    rec[2] += duration - frame[1]
            if note is not None:
                note(self, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- installation --------------------------------------------------------

    def install(self):
        """Replace every instrumented function wherever veechlab binds it."""
        for module_name, path, name, kind, note in INSTRUMENTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            replacement = self.wrap(name, fn, kind, note)
            if is_static:
                replacement = staticmethod(replacement)
            for target in _binders(owner):
                for key, value in list(vars(target).items()):
                    if value is raw:
                        self._installed.append((target, key, raw))
                        setattr(target, key, replacement)
        if self._misses_at_install is None:
            from veechlab.covering import _base_decomposition

            self._misses_at_install = _base_decomposition.cache_info().misses

    def uninstall(self):
        for target, key, raw in reversed(self._installed):
            setattr(target, key, raw)
        self._installed = []

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals: calls and self time, counters and maxima."""
        from veechlab.covering import _base_decomposition

        calls = {}
        self_s = {}
        for _sid, name, _parent, _start, _end, own, error in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if error == "BoundExceeded" and name == "cylinders.decompose":
                calls["cylinders.bound_retries"] = calls.get("cylinders.bound_retries", 0) + 1
        for (name, _parent), (n_calls, _total, own) in self.aggregates.items():
            calls[name] = calls.get(name, 0) + n_calls
            self_s[name] = self_s.get(name, 0.0) + own
        calls.update(self.counts)
        if self._misses_at_install is not None:
            calls["covering.base_decomposition.misses"] = (
                _base_decomposition.cache_info().misses - self._misses_at_install
            )
        return {"calls": calls, "self_s": self_s, "maxima": dict(self.maxima)}

    def records(self) -> dict:
        """Everything recorded, in a JSON-ready form."""
        return {
            "spans": [list(s) for s in self.spans],
            "aggregates": [[name, parent, *rec] for (name, parent), rec in self.aggregates.items()],
            "summary": self.summary(),
        }


def _binders(owner):
    """Where an instrumented function may be bound: its class, or every
    loaded veechlab module for a module-level function."""
    if isinstance(owner, type):
        return [owner]
    return [
        module
        for mod_name, module in sorted(sys.modules.items())
        if module is not None and (mod_name == "veechlab" or mod_name.startswith("veechlab."))
    ]


def merge_summaries(summaries) -> dict:
    """Sum per-name totals over processes (maxima take the maximum)."""
    out = {"calls": {}, "self_s": {}, "maxima": {}}
    for s in summaries:
        for key in ("calls", "self_s"):
            for name, value in s[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for name, value in s["maxima"].items():
            out["maxima"][name] = max(out["maxima"].get(name, 0), value)
    return out


def layer_metrics(summary: dict, overhead_ratio: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from a summary."""
    calls = summary["calls"]
    own = summary["self_s"]
    maxima = summary["maxima"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return own.get(name, 0.0)

    filter_calls = c("field.sign.filter")
    values = {
        "field.mul.calls": c("field.mul"),
        "field.mul.self_s": s("field.mul"),
        "field.addsub.calls": c("field.addsub"),
        "field.addsub.self_s": s("field.addsub"),
        "field.inverse.calls": c("field.inverse"),
        "field.inverse.self_s": s("field.inverse"),
        "field.sign.calls": c("field.sign"),
        "field.sign.interval_calls": c("field.sign.interval"),
        "field.sign.filter_hit_ratio": (
            c("field.sign.filter_hits") / filter_calls if filter_calls else 0.0
        ),
        "field.sign.max_prec": maxima.get("field.sign.max_prec", 0),
        "field.approx.calls": c("field.approx"),
        "field.approx.self_s": s("field.approx"),
        "field.parse.calls": c("field.parse"),
        "field.parse.self_s": s("field.parse"),
        "cylinders.decompose.calls": c("cylinders.decompose"),
        "cylinders.decompose.self_s": s("cylinders.decompose"),
        "cylinders.trace_germ.calls": c("cylinders.trace_germ"),
        "cylinders.trace_germ.self_s": s("cylinders.trace_germ"),
        "cylinders.exit_from.calls": c("cylinders.exit_from"),
        "cylinders.bound_retries": c("cylinders.bound_retries"),
        "covering.base_decomposition.calls": c("covering.base_decomposition"),
        "covering.base_decomposition.misses": c("covering.base_decomposition.misses"),
        "covering.build_cover.calls": c("covering.build_cover"),
        "covering.build_cover.self_s": s("covering.build_cover"),
        "covering.eval_word.calls": c("covering.eval_word"),
        "surface.validate.calls": c("surface.validate"),
        "surface.validate.self_s": s("surface.validate"),
        "surface.validate.polygons": c("surface.validate.polygons"),
        "zcover.eval_word.calls": c("zcover.eval_word"),
        "zcover.eval_word.self_s": s("zcover.eval_word"),
        "certificates.verify_theorem.self_s": s("certificates.verify_theorem"),
        "certificates.finite_profile.self_s": s("certificates.finite_profile"),
        "certificates.emit.self_s": s("certificates.emit"),
        "certificates.revalidate.calls": c("certificates.revalidate"),
        "certificates.revalidate.self_s": s("certificates.revalidate"),
        "veech.presentation_for.calls": c("veech.presentation_for"),
        "veech.presentation_for.self_s": s("veech.presentation_for"),
        "coset.enumerate.calls": c("coset.enumerate"),
        "coset.enumerate.self_s": s("coset.enumerate"),
        "coset.cosets_defined": c("coset.cosets_defined"),
        # every enumeration starts from one coset and each coincidence
        # removes one, so coincidences = defined + enumerations - index
        "coset.coincidences": (
            c("coset.cosets_defined") + c("coset.enumerate") - c("coset.index_sum")
        ),
        "quotient.invariants.self_s": s("quotient.invariants"),
        "cli.main.self_s": s("cli.main"),
        "perms.compose.calls": c("perms.compose"),
        "trace.overhead_ratio": overhead_ratio,
    }
    return values
