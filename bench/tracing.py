"""Traced runs: spans around the library's public functions.

`Tracer.install` replaces each traced function wherever it is looked up:
in its defining module, in every `topologic` module that imported it, and
for `Evaluator` methods on the class.  Each call records a span (id,
parent, operation id, name, start, end); self time is the span's duration
minus the time its child spans cover.  Totals per name are kept for every
span; span records are kept for the first `SPAN_CAP` spans of each name,
so that the hot evaluator spans do not fill memory, and written out by
`write_spans`.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

# Traced functions by defining module.
FUNCTIONS = {
    "formula": ("parse", "subformulas"),
    "space": ("make_space", "make_model", "interior", "heyting_implication",
              "close_under_intersection", "close_under_union"),
    "semantics": ("find_counterexample",),
    "splitting": ("build_splitting", "partition", "is_stable"),
    "finitemodel": ("extract_finite_model", "point_quotient",
                    "basis_equivalent"),
    "decide": ("enumerate_topologies", "decide_valid", "decide_sat",
               "find_subset_space_countermodel", "axiom_soundness_sweep"),
    "modelfile": ("load_model", "save_model"),
    "cli": ("main",),
}
EVALUATOR_METHODS = ("__init__", "extension", "satisfies")
GENERATORS = {"decide.enumerate_topologies"}
SPAN_CAP = 2000


def _count_results(name: str, result, counters: dict) -> None:
    """Work counts read off a traced function's result."""
    if name == "decide.axiom_soundness_sweep":
        counters["decide.instance_checks"] += sum(result.checked.values())
    elif name == "splitting.build_splitting":
        counters["splitting.family_opens"] += sum(
            len(sp.family) for sp in result.splittings.values())
    elif name == "finitemodel.point_quotient":
        counters["finitemodel.quotient_points"] += len(
            result.model.space.point_names)


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []   # [span id, child time] per open span
        self.totals: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counters = {"decide.topologies": 0, "decide.models_built": 0,
                         "decide.instance_checks": 0,
                         "splitting.family_opens": 0,
                         "finitemodel.quotient_points": 0}
        self.records: list[tuple] = []
        self.op_id = 0
        self._next_id = 0
        self.origin = perf_counter()

    def span(self, name: str, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        frame = [sid, 0.0]
        stack = self.stack
        parent = stack[-1] if stack else None
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent[1] += dur
            tot = self.totals.get(name)
            if tot is None:
                tot = self.totals[name] = [0, 0.0]
            tot[0] += 1
            tot[1] += dur - frame[1]
            if tot[0] <= SPAN_CAP:
                self.records.append((sid, -1 if parent is None else parent[0],
                                     self.op_id, name, t0 - self.origin,
                                     t1 - self.origin))

    def _wrapper(self, name: str, site: str, fn):
        tracer = self
        if name in GENERATORS:
            def traced_generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = tracer.span(name, next, (it,), {})
                    except StopIteration:
                        return
                    tracer.counters["decide.topologies"] += 1
                    yield item
            return traced_generator
        counted = name in ("decide.axiom_soundness_sweep",
                           "splitting.build_splitting",
                           "finitemodel.point_quotient")
        models_built = name == "space.make_model" and site == "decide"

        def traced(*args, **kwargs):
            result = tracer.span(name, fn, args, kwargs)
            if counted:
                _count_results(name, result, tracer.counters)
            elif models_built:
                tracer.counters["decide.models_built"] += 1
            return result
        return traced

    def install(self) -> None:
        lib = self.lib
        modules = {site: getattr(lib, site) for site in FUNCTIONS}
        modules["topologic"] = lib
        originals = {}
        for mod, names in FUNCTIONS.items():
            for fname in names:
                originals[id(getattr(modules[mod], fname))] = f"{mod}.{fname}"
        for site, module in modules.items():
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, self._wrapper(name, site, value))
        cls = lib.semantics.Evaluator
        for meth in EVALUATOR_METHODS:
            value = cls.__dict__[meth]
            self._patches.append((cls, meth, value))
            setattr(cls, meth, self._wrapper(f"semantics.Evaluator.{meth}",
                                             "semantics", value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def calls(self, *names: str) -> int:
        return sum(self.totals.get(n, (0, 0.0))[0] for n in names)

    def self_s(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0))[1] for n in names)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of the spans recorded since the last reset."""
        c, s = self.calls, self.self_s
        return {
            "semantics.evaluators": c("semantics.Evaluator.__init__"),
            "semantics.extension.calls": c("semantics.Evaluator.extension"),
            "semantics.extension.self_s": s("semantics.Evaluator.extension"),
            "semantics.find_counterexample.calls": c("semantics.find_counterexample"),
            "semantics.find_counterexample.self_s": s("semantics.find_counterexample"),
            "semantics.pairs_checked": c("semantics.Evaluator.satisfies"),
            "decide.enumerate_topologies.self_s": s("decide.enumerate_topologies"),
            "decide.topologies": self.counters["decide.topologies"],
            "decide.models_built": self.counters["decide.models_built"],
            "decide.search.self_s": s("decide.decide_valid", "decide.decide_sat",
                                      "decide.find_subset_space_countermodel",
                                      "decide.axiom_soundness_sweep"),
            "space.make_model.calls": c("space.make_model"),
            "space.make_model.self_s": s("space.make_model"),
            "space.make_space.calls": c("space.make_space"),
            "space.make_space.self_s": s("space.make_space"),
            "decide.instance_checks": self.counters["decide.instance_checks"],
            "splitting.build_splitting.calls": c("splitting.build_splitting"),
            "splitting.build_splitting.self_s": s("splitting.build_splitting"),
            "splitting.family_opens": self.counters["splitting.family_opens"],
            "splitting.partition.self_s": s("splitting.partition"),
            "splitting.is_stable.calls": c("splitting.is_stable"),
            "splitting.is_stable.self_s": s("splitting.is_stable"),
            "finitemodel.extract_finite_model.self_s": s("finitemodel.extract_finite_model"),
            "finitemodel.quotient_points": self.counters["finitemodel.quotient_points"],
            "finitemodel.basis_equivalent.self_s": s("finitemodel.basis_equivalent"),
            "space.interior.calls": c("space.interior"),
            "space.interior.self_s": s("space.interior"),
            "space.heyting_implication.calls": c("space.heyting_implication"),
            "space.heyting_implication.self_s": s("space.heyting_implication"),
            "space.close.self_s": s("space.close_under_intersection",
                                    "space.close_under_union"),
            "formula.parse.calls": c("formula.parse"),
            "formula.parse.self_s": s("formula.parse"),
            "formula.subformulas.calls": c("formula.subformulas"),
            "formula.subformulas.self_s": s("formula.subformulas"),
            "modelfile.load_model.self_s": s("modelfile.load_model"),
            "modelfile.save_model.self_s": s("modelfile.save_model"),
            "cli.main.self_s": s("cli.main"),
        }

    def write_spans(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        total = sum(calls for calls, _ in self.totals.values())
        with path.open("w") as out:
            out.write(json.dumps({**header, "spans_total": total,
                                  "spans_written": len(self.records),
                                  "cap_per_name": SPAN_CAP}) + "\n")
            for sid, parent, op, name, start, end in self.records:
                out.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                      "name": name, "start": round(start, 9),
                                      "end": round(end, 9)}) + "\n")
