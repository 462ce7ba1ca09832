"""Spans around the library's layers, installed from outside the library.

``Tracer.install()`` replaces every public function of the traced
modules with a span-recording wrapper, everywhere the function is bound:
in its own module and in the modules that imported it by name (so
``deltasolver.extended_euclid`` is traced too).  ``RationalFunction``
construction becomes the span ``hermite.canon``.  ``Poly`` arithmetic
gets no spans; its multiplications, divisions and evaluations are
counted and timed on the enclosing span.  ``uninstall()`` restores the
originals, so untraced passes run the unmodified library.

A span records name, start, end, parent and request id.  Spans stay in
memory until the run writes them out.  A span's self time is its
duration minus its child spans and minus the ``Poly`` operations
counted on it, so ``exactpoly`` is a layer of its own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

TRACED_MODULES = ("exactpoly", "hermite", "eea", "deltasolver", "kappasolver", "mubasis", "cli")
SKIPPED = {"exactpoly.as_fraction", "exactpoly.monomial"}  # per-coefficient helpers
POLY_OPS = {"__mul__": "mul", "__rmul__": "mul", "div_rem": "div_rem", "__call__": "eval"}


class Span:
    __slots__ = ("id", "name", "parent", "request", "start", "end", "ops", "info")

    def __init__(self, span_id, name, parent, request, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = None
        self.ops = {}  # op -> [calls, seconds]
        self.info = None

    def to_json(self) -> dict:
        out = {
            "id": self.id, "name": self.name, "parent": self.parent,
            "request": self.request, "start": self.start, "end": self.end,
        }
        if self.ops:
            out["ops"] = self.ops
        if self.info:
            out["info"] = self.info
        return out


def _coeff_bits(trace) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for row in trace.rows for poly in row for c in poly.coeffs),
        default=0,
    )


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.request = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, parent, self.request, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def op(self, name: str, seconds: float) -> None:
        if self.stack:
            counter = self.stack[-1].ops.setdefault(name, [0, 0.0])
            counter[0] += 1
            counter[1] += seconds

    def begin_request(self, request_id, kind: str) -> Span:
        self.request = request_id
        return self.open(f"request.{kind}")

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if name == "eea.extended_euclid":
                span.info = {
                    "trace_len": result.N,
                    "max_quotient_degree": max(int(q.degree) for q in result.quotients),
                    "max_coeff_bits": _coeff_bits(result),
                }
            elif name == "exactpoly.gcd":
                p, q = args
                span.info = {
                    "input_degree": int(max(p.degree, q.degree)),
                    "nontrivial": result.degree > 0,
                }
            return result

        return traced

    def _op_wrapper(self, fn, op: str):
        tracer = self

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.op(op, time.perf_counter() - start)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"ratinterp.{m}") for m in TRACED_MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if attr.startswith("_") or name in SKIPPED:
                    continue
                # functions, and the lru_cache wrappers around them; not the
                # callable Poly constants ZERO, ONE and X
                function = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                if function and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self._span_wrapper(obj, name)
        for module in [importlib.import_module("ratinterp"), *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
        rational = modules["hermite"].RationalFunction
        self._patch(rational, "__init__", self._span_wrapper(rational.__init__, "hermite.canon"))
        poly = modules["exactpoly"].Poly
        mul = self._op_wrapper(poly.__mul__, "mul")
        for attr, op in POLY_OPS.items():
            self._patch(poly, attr, mul if op == "mul" else self._op_wrapper(getattr(poly, attr), op))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _layer(name: str) -> str:
    return "bench" if name.startswith("request.") else name.split(".")[0]


def layer_metrics(spans: list[Span], requests: int, cache: dict) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and a report of the traced pass."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    layers: dict[str, dict] = {}
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    ops: dict[str, list] = {}
    total = 0.0
    eea, gcds, per_request = [], [], {}
    sample_attempts = {"deltasolver": 0, "kappasolver": 0}
    for s in spans:
        dur = s.end - s.start
        op_s = 0.0
        for op, (count, seconds) in s.ops.items():
            agg = ops.setdefault(op, [0, 0.0])
            agg[0] += count
            agg[1] += seconds
            op_s += seconds
        layer = _layer(s.name)
        row = layers.setdefault(layer, {"spans": 0, "ms": 0.0, "self_ms": 0.0})
        row["spans"] += 1
        row["self_ms"] += 1000 * (dur - child_s[s.id] - op_s)
        parent = spans[s.parent] if s.parent is not None else None
        if parent is None or _layer(parent.name) != layer:
            row["ms"] += 1000 * dur
        calls[s.name] = calls.get(s.name, 0) + 1
        inclusive[s.name] = inclusive.get(s.name, 0.0) + dur
        if parent is None:
            total += dur
            per_request[s.request] = {"kind": s.name[len("request."):], **(s.info or {}),
                                      "eea_runs": 0, "max_quotient_degree": 0}
        elif s.name == "hermite.canon" and parent.name.startswith(
                ("deltasolver.sample_", "kappasolver.sample_")):
            sample_attempts[_layer(parent.name)] += 1
        if s.name == "eea.extended_euclid":
            rec = per_request[s.request]
            rec["eea_runs"] += 1
            if s.info is not None:  # None: the call raised, as for g = 0
                eea.append(s.info)
                rec["max_quotient_degree"] = max(rec["max_quotient_degree"],
                                                 s.info["max_quotient_degree"])
        elif s.name == "exactpoly.gcd":
            gcds.append(s.info)
    op_ms = {op: 1000 * seconds for op, (_, seconds) in ops.items()}
    exactpoly = layers.setdefault("exactpoly", {"spans": 0, "ms": 0.0, "self_ms": 0.0})
    exactpoly["ops_ms"] = sum(op_ms.values())
    exactpoly["self_ms"] += exactpoly["ops_ms"]

    def pct(ms: float) -> float:
        return 100 * ms / (1000 * total)

    def self_pct(layer: str) -> float:
        return pct(layers.get(layer, {}).get("self_ms", 0.0))

    count = lambda op: ops.get(op, [0, 0.0])[0]  # noqa: E731
    metrics = {
        "cli.self_pct": (self_pct("cli"), "%"),
        "deltasolver.self_pct": (self_pct("deltasolver"), "%"),
        "kappasolver.self_pct": (self_pct("kappasolver"), "%"),
        "mubasis.self_pct": (self_pct("mubasis"), "%"),
        "eea.self_pct": (self_pct("eea"), "%"),
        "exactpoly.self_pct": (self_pct("exactpoly"), "%"),
        "eea.ms": (1000 * inclusive.get("eea.extended_euclid", 0.0), "ms"),
        "eea.runs_per_request": (calls.get("eea.extended_euclid", 0) / requests, "1/req"),
        "eea.trace_len": (sum(e["trace_len"] for e in eea) / len(eea) if eea else 0, "rows"),
        "eea.max_coeff_bits": (max((e["max_coeff_bits"] for e in eea), default=0), "bits"),
        "eea.max_quotient_degree": (max((e["max_quotient_degree"] for e in eea), default=0), "degree"),
        "deltasolver.minimal_basis.calls": (calls.get("deltasolver.minimal_basis", 0), "count"),
        "deltasolver.sample.attempts": (sample_attempts["deltasolver"], "count"),
        "kappasolver.sample.attempts": (sample_attempts["kappasolver"], "count"),
        "hermite.canon.calls": (calls.get("hermite.canon", 0), "count"),
        "hermite.canon.pct": (pct(1000 * inclusive.get("hermite.canon", 0.0)), "%"),
        "hermite.hermite_polynomial.ms": (1000 * inclusive.get("hermite.hermite_polynomial", 0.0), "ms"),
        "hermite.cache.hits": (cache["hits"], "count"),
        "hermite.cache.misses": (cache["misses"], "count"),
        "hermite.cache.size": (cache["size"], "count"),
        "exactpoly.gcd.calls": (len(gcds), "count"),
        "exactpoly.gcd.pct": (pct(1000 * inclusive.get("exactpoly.gcd", 0.0)), "%"),
        "exactpoly.gcd.max_input_degree": (max((g["input_degree"] for g in gcds), default=0), "degree"),
        "exactpoly.gcd.nontrivial_frac": (
            sum(g["nontrivial"] for g in gcds) / len(gcds) if gcds else 0, "fraction"),
        "exactpoly.mul.calls": (count("mul"), "count"),
        "exactpoly.mul.ms": (op_ms.get("mul", 0.0), "ms"),
        "exactpoly.div_rem.calls": (count("div_rem"), "count"),
        "exactpoly.div_rem.ms": (op_ms.get("div_rem", 0.0), "ms"),
        "exactpoly.eval.calls": (count("eval"), "count"),
    }
    by_kind: dict[str, set] = {}
    for rec in per_request.values():
        by_kind.setdefault(f"{rec['kind']} [{rec.get('family')}]", set()).add(rec["eea_runs"])
    report = {
        "requests": requests,
        "request_ms": 1000 * total,
        "layers": layers,
        "span_calls": calls,
        "span_ms": {k: 1000 * v for k, v in inclusive.items()},
        "eea_runs_by_kind": {k: sorted(v) for k, v in sorted(by_kind.items())},
        "per_request": [per_request[k] for k in sorted(per_request)],
    }
    return metrics, report
