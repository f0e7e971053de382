"""Span recording for the traced benchmark mode.

Spans are kept in memory as ``[name, start, end, parent, job, info]`` lists
and written out once the run ends.  Wrappers are installed from here, around
public entry points only: operator attributes of backend instances (and of
the factors of a product and the base of a formal wrapper), module
attributes of ``equihodge.equivariant``, ``equihodge.cli`` and
``equihodge.serialization``, and the benchmark's own calls into the mesh
and DEC assembly.  Nothing is installed unless tracing is on.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

OPS = ("d", "star", "codifferential", "contraction", "inner_product",
       "green", "harmonic_projection")
FAMILIES = ("sphere", "torus", "product", "formal", "dec")
SOLVES = ("green", "harmonic_projection")


def family(backend) -> str:
    name = type(backend).__name__
    return {
        "SphereBackend": "sphere",
        "TorusBackend": "torus",
        "ProductBackend": "product",
        "FormalGeneratorBackend": "formal",
        "DecBackend": "dec",
    }[name]


class Tracer:
    """In-memory span recorder; ``job`` labels every span opened under it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = "setup"
        self.stages = defaultdict(int)
        self.off = False

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.off:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, info]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def call(self, name, fn, *args, info=None, **kwargs):
        return self.wrap(name, fn, info)(*args, **kwargs)

    # -- installation ------------------------------------------------------

    def instrument(self, backend, top=True):
        """Wrap the operator attributes of a backend instance in spans.

        On a top-level exact backend the first ``green`` or
        ``harmonic_projection`` call (which builds the lazy eigenbasis) is
        also recorded as an ``exact.first_solve`` span.
        """
        if "d" in vars(backend):  # already wrapped: the instance shadows d
            return backend
        fam = family(backend)
        first = [top and backend.is_exact and fam != "formal"]
        for op in OPS:
            inner = self.wrap("%s.%s" % (fam, op), getattr(backend, op))
            if op in SOLVES and first[0]:
                inner = self._first_solve(inner, first)
            setattr(backend, op, inner)
        if fam == "product":
            self.instrument(backend.b1, top=False)
            self.instrument(backend.b2, top=False)
        elif fam == "formal":
            self.instrument(backend.base, top=False)
        return backend

    def _first_solve(self, inner, first):
        outer = self.wrap("exact.first_solve", inner)

        def solve(w):
            if first[0]:
                first[0] = False
                return outer(w)
            return inner(w)

        return solve

    def install_modules(self):
        """Wrap the extension-loop and CLI module attributes."""
        from equihodge import cli, equivariant, serialization

        for name in ("partial_d", "cartan_d", "moment_map", "verify_extension"):
            traced = self.wrap("equivariant." + name, getattr(equivariant, name))
            setattr(equivariant, name, traced)
            if hasattr(cli, name):
                setattr(cli, name, traced)
        extend = self.wrap("equivariant.extend", equivariant.extend)

        def counted_extend(alpha):
            report = extend(alpha)
            self.stages[self.job] += len(report.stage_obstructions)
            return report

        equivariant.extend = counted_extend
        cli.extend = counted_extend

        from_tag = serialization.backend_from_tag

        def traced_from_tag(tag):
            return self.instrument(from_tag(tag))

        traced_from_tag = self.wrap("serialization.backend_from_tag",
                                    traced_from_tag)
        serialization.backend_from_tag = traced_from_tag
        cli.backend_from_tag = traced_from_tag
        cli.serialize_report = self.wrap("serialization.serialize_report",
                                         serialization.serialize_report)
        serialization.parse_report = self.wrap("serialization.parse_report",
                                               serialization.parse_report)
        cli.format_report = self.wrap("cli.format_report", cli.format_report)
        cli.main = self.wrap("cli.main", cli.main)

    # -- output ------------------------------------------------------------

    def dump(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, job, info in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7),
                                     parent, job, info]) + "\n")


def layer_metrics(tracer, rounds, observations, report_bytes, factor):
    """Per-layer metrics derived from the recorded spans.

    Times are milliseconds per round of the job list and counts are calls
    per round, both over the timed phase; ``exact.first_solve_ms``,
    ``mesh.build_ms`` and ``dec.assemble_ms`` average single calls over the
    whole run, set-up included, because on some workloads they happen only
    in set-up.  Times are scaled by the run's speed ``factor``, as the
    end-to-end times are.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, job, info in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    incl_ms = defaultdict(float)
    every = defaultdict(list)
    factor_calls = 0
    for i, (name, start, end, parent, job, info) in enumerate(spans):
        every[name].append((end - start, info))
        if job == "setup":
            continue
        self_ms[name] += (end - start - child[i]) * 1e3 * factor
        calls[name] += 1
        outer = parent < 0 or spans[parent][0] != name
        if outer:
            incl_ms[name] += (end - start) * 1e3 * factor
        if parent >= 0 and spans[parent][0].startswith("product.") \
                and not name.startswith("product."):
            factor_calls += 1

    def per_round(x):
        return x / rounds

    def count(x):
        # whole when every round makes the same calls, as it should
        v = x / rounds
        return int(v) if v.is_integer() else v

    def mean_ms(name):
        vals = [d for d, _ in every[name]]
        return 1e3 * factor * sum(vals) / len(vals) if vals else 0.0

    out = {}
    for fam in FAMILIES:
        for op in OPS:
            key = "%s.%s" % (fam, op)
            out[key + ".self_ms"] = (per_round(self_ms[key]), "ms")
            out[key + ".calls"] = (count(calls[key]), "count")
    out["product.factor_calls"] = (count(factor_calls), "count")
    out["exact.first_solve_ms"] = (mean_ms("exact.first_solve"), "ms")
    for name in ("extend", "partial_d", "cartan_d", "moment_map"):
        key = "equivariant." + name
        out[key + ".self_ms"] = (per_round(self_ms[key]), "ms")
    out["equivariant.extend.calls"] = (count(calls["equivariant.extend"]),
                                       "count")
    timed_stages = sum(v for k, v in tracer.stages.items() if k != "setup")
    out["equivariant.stages"] = (count(timed_stages), "count")
    for name in ("backend_from_tag", "serialize_report", "parse_report"):
        key = "serialization." + name
        out[key + "_ms"] = (per_round(incl_ms[key]), "ms")
    n_reports, n_bytes = report_bytes
    out["serialization.report_kb"] = (
        n_bytes / 1024.0 / n_reports if n_reports else 0.0, "KB")
    out["cli.main.self_ms"] = (per_round(self_ms["cli.main"]), "ms")
    out["cli.format_report_ms"] = (per_round(incl_ms["cli.format_report"]), "ms")
    out["mesh.build_ms"] = (mean_ms("mesh.build"), "ms")
    out["dec.assemble_ms"] = (mean_ms("dec.assemble"), "ms")
    by_level = defaultdict(list)
    for dur, level in every["dec.assemble"]:
        by_level[level].append(dur)
    growth = 0.0
    if len(by_level) >= 2:
        fine, coarse = sorted(by_level)[-1], sorted(by_level)[-2]
        growth = (sum(by_level[fine]) / len(by_level[fine])) / \
                 (sum(by_level[coarse]) / len(by_level[coarse]))
        observations["dec.assemble_growth.base"] = (
            "level %d (%d vertices) over level %d (%d vertices)"
            % (fine + coarse))
    out["dec.assemble_growth"] = (growth, "ratio")
    out["dec.green.rel_residual"] = (observations.get("dec.green.rel_residual", 0.0),
                                     "ratio")
    out["dec.extend.residual"] = (observations.get("dec.extend.residual", 0.0),
                                  "number")
    out["dec.moment_error"] = (observations.get("dec.moment_error", 0.0), "number")
    return out

