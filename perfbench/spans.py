"""Span tracing of the superchar layers, installed from outside the program.

`install()` wraps every public function and method defined in each layer
module, plus the constructors of its classes and the arithmetic of
`Cyclotomic`, and rebinds every reference to them inside the package.
Each wrapper is attributed to the module that defines the function, so a
function that is deleted or moved simply stops being traced.

A span opens when a call crosses from one layer into another; calls inside
a layer are counted but not spanned.  A layer's self time is the time of
its spans minus the time of the spans they caused.  Spans are aggregated
in memory and written once, as JSON, by `Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("groups", "cyclotomic", "chartab", "supertheory", "structure",
          "vanishing", "verifier", "cli")
CYCLOTOMIC_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__neg__", "__truediv__")
_SPANNED_DUNDERS = ("__init__", "__eq__", "__hash__", "__bool__") + CYCLOTOMIC_OPS
# functions whose inclusive time (outermost activations) is reported
INCLUSIVE = frozenset({
    "chartab.validate_table",
    "supertheory.sct_from_class_partition",
    "supertheory.sct_from_character_partition",
    "supertheory.SuperTheory.validate",
    "supertheory.star_construct",
    "supertheory.enumerate_scts",
    "structure.s_normal_subgroups",
    "structure.lower_series",
    "structure.upper_series",
    "vanishing.is_camina_pair",
    "verifier.run_suite",
})


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [layer, time covered by child spans]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.incl_s: dict[str, float] = defaultdict(float)  # outermost activations only
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self._seen: dict[str, set] = defaultdict(set)
        self._keep: list = []  # holds objects whose ids are used as keys

    def wrap(self, layer: str, name: str, fn):
        stack, self_s, calls, incl_s, active = (
            self.stack, self.self_s, self.calls, self.incl_s, self.active)
        after = _AFTER.get(name)
        watched = after is not None or name in INCLUSIVE
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if not watched and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            outermost = not active[name]
            active[name] += 1
            boundary = not stack or stack[-1][0] != layer
            if boundary:
                frame = [layer, 0.0]
                stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                active[name] -= 1
                if outermost and watched:
                    incl_s[name] += dt
                if boundary:
                    stack.pop()
                    self_s[layer] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt
            if after is not None:
                after(self, outermost, args + tuple(kwargs.values()), result)
            return result

        return traced

    def seen_first(self, kind: str, key, keep) -> bool:
        seen = self._seen[kind]
        if key in seen:
            return False
        seen.add(key)
        self._keep.append(keep)
        return True

    def dump(self, path: str) -> None:
        payload = {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)


# ---------------------------------------------------------------------------
# counters that look at a call's arguments or result


def _derivation(tr, outermost, args, result):
    table, yparts = args[0], args[1]
    if tr.seen_first("derivation", (id(table), yparts), table):
        tr.counts["derivations_distinct"] += 1


def _enumerated(tr, outermost, args, result):
    if outermost:
        tr.counts["theories_found"] += len(result)


def _s_normal(tr, outermost, args, result):
    if tr.seen_first("s_normal", id(args[0]), args[0]):
        tr.counts["s_normal_found"] += len(result)


def _suite(tr, outermost, args, result):
    tr.counts["reports"] += len(result)


def _in_enumeration(tr, outermost, args, result):
    if tr.active["supertheory.enumerate_scts"]:
        tr.counts["enumerate_derivations"] += 1


_AFTER = {
    "supertheory.sct_from_class_partition": lambda tr, o, a, r: (
        _derivation(tr, o, a, r), _in_enumeration(tr, o, a, r)),
    "supertheory.sct_from_character_partition": _in_enumeration,
    "supertheory.enumerate_scts": _enumerated,
    "structure.s_normal_subgroups": _s_normal,
    "verifier.run_suite": _suite,
}


def _wrap_corpus(run_corpus, tr: Tracer):
    """Parent-side idle time of the corpus driver: wall minus this process's CPU."""

    @functools.wraps(run_corpus)
    def timed(*args, **kwargs):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            return run_corpus(*args, **kwargs)
        finally:
            tr.counts["pool_idle_s"] += (time.perf_counter() - w0) - (time.process_time() - c0)

    return timed


def _public(name: str) -> bool:
    return not name.startswith("_")


def install() -> Tracer:
    """Wrap the layers of the imported `superchar` package; returns the tracer."""
    tr = Tracer()
    replaced = {}
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"superchar.{layer}")
        except ImportError:
            continue
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and _public(attr) and not inspect.isgeneratorfunction(obj):
                replaced[obj] = tr.wrap(layer, f"{layer}.{attr}", obj)
                if f"{layer}.{attr}" == "verifier.run_corpus":
                    replaced[obj] = _wrap_corpus(replaced[obj], tr)
            elif inspect.isclass(obj):
                _wrap_class(tr, layer, obj)
    for name, module in list(sys.modules.items()):
        if name == "superchar" or name.startswith("superchar."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])
    return tr


def _wrap_class(tr: Tracer, layer: str, cls) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr in _SPANNED_DUNDERS:
            if attr != "__init__" and cls.__name__ != "Cyclotomic":
                continue
        elif not _public(attr):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, (staticmethod, classmethod)):
            fn = raw.__func__
            if inspect.isfunction(fn):
                setattr(cls, attr, type(raw)(tr.wrap(layer, name, fn)))
        elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
            setattr(cls, attr, tr.wrap(layer, name, raw))


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one round, from the dumps of its operations."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    incl: Counter = Counter()
    counts: Counter = Counter()
    for t in traces:
        self_s.update(t["self_s"])
        calls.update(t["calls"])
        incl.update(t["incl_s"])
        counts.update(t["counts"])

    def calls_of(*names):
        return sum(calls[n] for n in names)

    def incl_of(*names):
        return sum(incl[n] for n in names)

    ops = sum(calls[f"cyclotomic.Cyclotomic.{op}"] for op in CYCLOTOMIC_OPS)
    derivations = calls["supertheory.sct_from_class_partition"]
    distinct = counts["derivations_distinct"]
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update({
        "groups.tables_built": calls_of("groups.GroupTable.__init__"),
        "groups.quotient_calls": calls_of("groups.quotient_group"),
        "cyclotomic.ops": ops,
        "chartab.tables": calls_of("chartab.CharacterTable.__init__"),
        "chartab.validate_calls": calls_of("chartab.validate_table"),
        "chartab.validate_incl_s": incl_of("chartab.validate_table"),
        "supertheory.derivations": derivations,
        "supertheory.derivations_distinct": distinct,
        "supertheory.derivation_distinct_ratio": distinct / derivations if derivations else 1.0,
        "supertheory.derive_incl_s": incl_of("supertheory.sct_from_class_partition",
                                             "supertheory.sct_from_character_partition"),
        "supertheory.validate_incl_s": incl_of("supertheory.SuperTheory.validate"),
        "supertheory.star_incl_s": incl_of("supertheory.star_construct"),
        "supertheory.enumerate_incl_s": incl_of("supertheory.enumerate_scts"),
        "supertheory.enumerate_derivations": counts["enumerate_derivations"],
        "supertheory.theories_found": counts["theories_found"],
        "structure.s_normal_incl_s": incl_of("structure.s_normal_subgroups"),
        "structure.s_normal_found": counts["s_normal_found"],
        "structure.series_incl_s": incl_of("structure.lower_series", "structure.upper_series"),
        "vanishing.verdicts": calls_of("vanishing.CaminaVerdict.__init__"),
        "vanishing.camina_pair_incl_s": incl_of("vanishing.is_camina_pair"),
        "verifier.suite_incl_s": incl_of("verifier.run_suite"),
        "verifier.reports": counts["reports"],
        "verifier.theories": calls_of("verifier.run_suite"),
        "verifier.pool_idle_s": counts["pool_idle_s"],
    })
    return out
