"""Spans around calls into deplogic's layers, recorded from outside.

`Instrumented` replaces each listed public function, wherever a deplogic
module holds a reference to it, by a wrapper that records a span: name,
start, end, parent span and verdict id.  Calls between modules of the
program therefore show up as nested spans, and a layer's self time is its
span minus its child spans.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, function, span name)
TARGETS = [
    ("surface", "parse_formula", "surface.parse"),
    ("surface", "parse_model", "surface.parse"),
    ("surface", "parse_proof", "surface.parse"),
    ("surface", "parse_team", "surface.parse"),
    ("surface", "parse_vocabulary", "surface.parse"),
    ("surface", "parse_hypotheses", "surface.parse"),
    ("normalform", "preprocess", "normalform.preprocess"),
    ("normalform", "to_prenex", "normalform.prenex"),
    ("normalform", "hoist_dep_atoms", "normalform.hoist"),
    ("normalform", "pull_existentials_left", "normalform.pull"),
    ("approximation", "build_approximation", "approximation.build"),
    ("approximation", "build_omega", "approximation.build"),
    ("semantics", "sentence_true", "semantics.sentence"),
    ("semantics", "equiv_on_small_models", "semantics.equiv"),
    ("proofs", "check_proof", "proofs.check"),
    ("proofs", "apply_rule8", "proofs.rule8"),
    ("cli", "main", "cli.main"),
]


def formula_nodes(phi) -> int:
    """Formula nodes of a deplogic AST, terms not counted."""
    from deplogic.syntax import Formula

    count, stack = 0, [phi]
    while stack:
        node = stack.pop()
        count += 1
        for attr in ("left", "right", "body"):
            child = getattr(node, attr, None)
            if isinstance(child, Formula):
                stack.append(child)
    return count


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    verdict: object = None
    info: dict = field(default_factory=dict)
    extra: float = 0.0  # recording cost spent inside the parent, after this span


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.verdict = None
        self.counters: dict = defaultdict(float)
        self.finished: list[tuple[list[Span], dict]] = []  # one entry per round

    def wrap(self, name, fn):
        annotate = ANNOTATIONS.get(name)

        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=self.stack[-1] if self.stack else -1,
                        verdict=self.verdict)
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if annotate is not None:
                span.info = annotate(args, result)
                span.extra = time.perf_counter() - span.end
            return result

        traced.__wrapped__ = fn
        return traced

    def end_round(self) -> None:
        self.finished.append((self.spans, dict(self.counters)))
        self.spans, self.counters = [], defaultdict(float)

    def write(self, path) -> None:
        rounds = [
            {"counters": counters,
             "spans": [[s.name, s.start, s.end, s.parent, s.verdict, s.info] for s in spans]}
            for spans, counters in self.finished
        ]
        with open(path, "w") as out:
            json.dump(rounds, out, default=str)


def _source_chars(args, result):
    src = args[0] if args else ""
    return {"chars": len(getattr(src, "text", src))}


def _sentence_kind(args, result):
    from deplogic.syntax import is_first_order

    return {"fo": bool(is_first_order(args[1]))}


ANNOTATIONS = {
    "surface.parse": _source_chars,
    "approximation.build": lambda args, result: {"nodes": formula_nodes(result)},
    "semantics.sentence": _sentence_kind,
    "proofs.check": lambda args, result: {"steps": len(args[0].steps)},
}


class Instrumented:
    """Context manager: wrap every target in every loaded deplogic module."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "deplogic" or n.startswith("deplogic."))]
        for module_name, func_name, span_name in TARGETS:
            home = sys.modules.get(f"deplogic.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                continue
            traced = self.tracer.wrap(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self.patched.append((module, attr, original))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its direct children's (and their recording)."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= (s.end - s.start) + s.extra
    return own
