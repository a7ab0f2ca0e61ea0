"""Outside-in tracing: spans around calls into the library's layers.

The tracer replaces the module attributes listed in ``LAYERS`` with
wrappers for the duration of a traced pass and restores them afterwards,
so untraced passes run the library untouched.  Spans live in memory as
``[name, start, end, parent, instance]`` records (parent is the index of
the enclosing span, -1 at top level) and are written out when the run
ends.  Counts that belong to a layer (LP shape, HiGHS iterations, causal
rows, attack blocks) are taken in the same wrappers.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional

# (module, attribute, span name) of every traced library function.
LAYERS = (
    ("nsrand.lp", "solve", "lp.solve"),
    ("nsrand.lp", "verify_certificate", "lp.verify_certificate"),
    ("scipy.optimize", "linprog", "lp.highs"),
    ("nsrand.nsvalues", "ns_value", "nsvalues.ns_value"),
    ("nsrand.nsvalues", "eps_ns_value", "nsvalues.eps_ns_value"),
    ("nsrand.nsvalues", "single_round_guessing",
     "nsvalues.single_round_guessing"),
    ("nsrand.tons", "tons_guessing_probability",
     "tons.tons_guessing_probability"),
    ("nsrand.tons", "build_guessing_lp", "tons.build_guessing_lp"),
    ("nsrand.tons", "build_causal_constraints",
     "tons.build_causal_constraints"),
    ("nsrand.games", "product_behavior", "games.product_behavior"),
    ("nsrand.ksattack", "tripartite_attack", "ksattack.tripartite_attack"),
    ("nsrand.ksattack", "verify_behavior", "ksattack.verify_behavior"),
    ("nsrand.ksattack", "build_orth_graph", "ksattack.build_orth_graph"),
    ("nsrand.ksattack", "bipartite_from_assignment",
     "ksattack.bipartite_from_assignment"),
    ("nsrand.ksattack", "attack_affine_dimension",
     "ksattack.attack_affine_dimension"),
)

# Per-layer metrics: name -> (unit, spans whose presence it needs).
PER_LAYER = {
    "lp.solve.calls": ("count", ("lp.solve",)),
    "lp.solve.s": ("s", ("lp.solve",)),
    "lp.solve.self_s": ("s", ("lp.solve",)),
    "lp.highs.calls": ("count", ("lp.highs",)),
    "lp.highs.s": ("s", ("lp.highs",)),
    "lp.highs.nit": ("count", ("lp.highs",)),
    "lp.highs.crossover_nit": ("count", ("lp.highs",)),
    "lp.verify_certificate.calls": ("count", ("lp.verify_certificate",)),
    "lp.verify_certificate.s": ("s", ("lp.verify_certificate",)),
    "lp.certified_per_verify": ("ratio", ("lp.solve", "lp.verify_certificate")),
    "lp.float_assisted_frac": ("ratio", ("lp.solve", "lp.highs")),
    "lp.vars": ("count", ("lp.solve",)),
    "lp.rows": ("count", ("lp.solve",)),
    "lp.nnz": ("count", ("lp.solve",)),
    "nsvalues.ns_value.s": ("s", ("nsvalues.ns_value",)),
    "nsvalues.ns_value.self_s": ("s", ("nsvalues.ns_value",)),
    "nsvalues.eps_ns_value.s": ("s", ("nsvalues.eps_ns_value",)),
    "nsvalues.eps_ns_value.self_s": ("s", ("nsvalues.eps_ns_value",)),
    "nsvalues.single_round_guessing.s": (
        "s", ("nsvalues.single_round_guessing",)),
    "nsvalues.single_round_guessing.self_s": (
        "s", ("nsvalues.single_round_guessing",)),
    "tons.tons_guessing_probability.s": (
        "s", ("tons.tons_guessing_probability",)),
    "tons.build_guessing_lp.s": ("s", ("tons.build_guessing_lp",)),
    "tons.build_guessing_lp.self_s": ("s", ("tons.build_guessing_lp",)),
    "tons.build_causal_constraints.s": (
        "s", ("tons.build_causal_constraints",)),
    "tons.build_causal_constraints.rows": (
        "count", ("tons.build_causal_constraints",)),
    "games.product_behavior.s": ("s", ("games.product_behavior",)),
    "ksattack.tripartite_attack.s": ("s", ("ksattack.tripartite_attack",)),
    "ksattack.tripartite_attack.self_s": (
        "s", ("ksattack.tripartite_attack",)),
    "ksattack.verify_behavior.s": ("s", ("ksattack.verify_behavior",)),
    "ksattack.verify_behavior.self_s": ("s", ("ksattack.verify_behavior",)),
    "ksattack.build_orth_graph.calls": (
        "count", ("ksattack.build_orth_graph",)),
    "ksattack.build_orth_graph.s": ("s", ("ksattack.build_orth_graph",)),
    "ksattack.bipartite_from_assignment.calls": (
        "count", ("ksattack.bipartite_from_assignment",)),
    "ksattack.bipartite_from_assignment.s": (
        "s", ("ksattack.bipartite_from_assignment",)),
    "ksattack.blocks_per_attempt": (
        "ratio", ("ksattack.tripartite_attack",
                  "ksattack.bipartite_from_assignment")),
    "ksattack.attack_affine_dimension.s": (
        "s", ("ksattack.attack_affine_dimension",)),
    "trace.overhead_frac": ("ratio", ()),
    "trace.top_span_coverage": ("ratio", ()),
}


def _ratio(num: float, den: float) -> float:
    # A ratio over zero attempts reads 0; its base is reported beside it.
    return num / den if den else 0.0


def _on_solve(tracer: "Tracer", idx: int, args, kwargs, sol) -> None:
    lp = args[0]
    c = tracer.counts
    c["lp.vars"] += lp.num_vars
    c["lp.rows"] += len(lp.constraints) + len(lp.upper)
    c["lp.nnz"] += sum(len(con.coeffs) for con in lp.constraints) \
        + len(lp.upper)
    if kwargs.get("mode", args[1] if len(args) > 1 else "exact") == "exact":
        c["lp.exact_solves"] += 1
        c["lp.certified_solves"] += bool(sol.certified)
        c["lp.float_assisted"] += any(
            s[0] == "lp.highs" for s in tracer.spans[idx + 1:])


def _on_highs(tracer: "Tracer", idx: int, args, kwargs, res) -> None:
    tracer.counts["lp.highs.nit"] += int(res.get("nit") or 0)
    tracer.counts["lp.highs.crossover_nit"] += int(
        res.get("crossover_nit") or 0)


def _on_causal(tracer: "Tracer", idx: int, args, kwargs, rows) -> None:
    tracer.counts["tons.build_causal_constraints.rows"] += len(rows)


def _on_attack(tracer: "Tracer", idx: int, args, kwargs, attack) -> None:
    tracer.counts["ksattack.blocks"] += len(attack.blocks)


ON_EXIT: dict[str, Callable] = {
    "lp.solve": _on_solve,
    "lp.highs": _on_highs,
    "tons.build_causal_constraints": _on_causal,
    "ksattack.tripartite_attack": _on_attack,
}


class Tracer:
    """Span recorder for the traced passes of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.instance: Optional[str] = None
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        on_exit = ON_EXIT.get(name)

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, perf_counter(), 0.0,
                   self._stack[-1] if self._stack else -1, self.instance]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if on_exit is not None:
                on_exit(self, idx, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every listed layer function until the block ends."""
        originals = []
        self.missing = []
        for module_name, attr, name in LAYERS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        try:
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def top_level_seconds(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] == -1)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, time (outermost spans only) and self time."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        totals: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += end - start - child[i]
            # A recursive call is already inside its outer span's time.
            outer, nested = parent, False
            while outer >= 0 and not nested:
                nested = self.spans[outer][0] == name
                outer = self.spans[outer][3]
            if not nested:
                t["s"] += end - start
        return totals

    def metrics(self, passes: int, traced_s: float, untraced_s: float
                ) -> dict[str, Optional[float]]:
        """Per-layer metrics per pass; None for a layer that is missing."""
        totals = self.layer_totals()
        c = self.counts
        values: dict[str, float] = {}
        for name, _, span in LAYERS:
            t = totals.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field in ("calls", "s", "self_s"):
                values[f"{span}.{field}"] = t[field] / passes
        for key in ("lp.vars", "lp.rows", "lp.nnz", "lp.highs.nit",
                    "lp.highs.crossover_nit",
                    "tons.build_causal_constraints.rows"):
            values[key] = c[key] / passes
        values["lp.certified_per_verify"] = _ratio(
            c["lp.certified_solves"],
            totals.get("lp.verify_certificate", {}).get("calls", 0))
        values["lp.float_assisted_frac"] = _ratio(c["lp.float_assisted"],
                                                  c["lp.exact_solves"])
        values["ksattack.blocks_per_attempt"] = _ratio(
            c["ksattack.blocks"],
            totals.get("ksattack.bipartite_from_assignment", {}).get(
                "calls", 0))
        values["trace.overhead_frac"] = _ratio(traced_s - untraced_s,
                                               untraced_s)
        values["trace.top_span_coverage"] = _ratio(self.top_level_seconds(),
                                                   traced_s)
        out: dict[str, Optional[float]] = {}
        for metric, (_, needs) in PER_LAYER.items():
            gone = any(span in self.missing for span in needs)
            out[metric] = None if gone else values[metric]
        return out

    def write(self, path) -> None:
        """Write the spans, one JSON object a line."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, inst) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "instance": inst}) + "\n")
