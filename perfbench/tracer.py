"""Span tracing for the benchmark's traced run.

The tracer replaces stage functions by timing wrappers in the module that
calls them (prove resolves creative_telescope, leading_coeff_check and the
others through gridproof's globals; creative_telescope resolves
solve_nullspace and verify_certificate through telescope's globals), so the
program itself is not edited.  Spans stay in memory until dump().
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter

# (module, attribute, span name).  The same span name may be installed in
# several modules when several modules call the same function.
STAGE_WRAPS = (
    ("cli", "load_identity", "cli.load"),
    ("gridproof", "normalize_and_delta", "gridproof.normalize"),
    ("gridproof", "_fast_path_feasible", "gridproof.fast_path_probe"),
    ("gridproof", "gosper_antidifference", "gosper.antidifference"),
    ("gridproof", "verify_certificate", "telescope.verify"),
    ("gridproof", "creative_telescope", "telescope.creative"),
    ("gridproof", "assemble", "telescope.assemble"),
    ("gridproof", "_rank_deficiency_test", "gridproof.grid"),
    ("gridproof", "leading_coeff_check", "gridproof.leading_coeff"),
    ("gridproof", "initial_conditions_check", "gridproof.initial_checks"),
    ("gridproof", "_compare_small_cases", "gridproof.finite_check"),
    ("telescope", "assemble", "telescope.assemble"),
    ("telescope", "solve_nullspace", "linalg.nullspace"),
    ("telescope", "verify_certificate", "telescope.verify"),
    ("gosper", "solve_nullspace", "linalg.nullspace"),
    ("polys", "poly_gcd", "polys.gcd"),
    ("linalg", "poly_gcd", "polys.gcd"),
)

# The per-point rank kernel of the grid.  It runs in worker processes when
# the grid is parallel, where spans cannot be collected, so it is wrapped
# only for in-process grids.
RANK_WRAP = ("gridproof", "_int_rank", "gridproof.rank")


def _cpu():
    """(CPU seconds of this process and its reaped children, of the children
    alone)."""
    t = os.times()
    children = t.children_user + t.children_system
    return time.process_time() + children, children


def _system_shape(system):
    m = system.matrix
    return {"rows": m.rows, "cols": m.cols,
            "terms": sum(len(e.terms) for row in m.entries for e in row)}


class Tracer:
    """Records (id, name, start, end, parent, proof, attrs) spans.

    A call to a span name that is already open (recursion, or a wrapped
    function calling another wrapper of itself) is passed straight through,
    so summed durations never count one interval twice.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.open_names = Counter()
        self.proof = None
        self.grid_order = None
        self.wrapped = []       # module.attribute labels installed
        self.missing = []       # module.attribute labels not found
        self.span_names = set()
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self, wraps):
        for mod_name, attr, span_name in wraps:
            module = importlib.import_module(f"hyperproof.{mod_name}")
            target = getattr(module, attr, None)
            label = f"{mod_name}.{attr}"
            if not callable(target):
                self.missing.append(label)
                continue
            setattr(module, attr, self._wrapper(target, span_name, mod_name))
            self._restore.append((module, attr, target))
            self.wrapped.append(label)
            self.span_names.add(span_name)

    def uninstall(self):
        for module, attr, target in reversed(self._restore):
            setattr(module, attr, target)
        self._restore.clear()

    def measured(self, span_name):
        """True when at least one wrapper for span_name is installed."""
        return span_name in self.span_names

    # -- spans -------------------------------------------------------------

    def _wrapper(self, fn, span_name, caller):
        tracer = self
        on_result = self._annotator(span_name, caller)
        # the grid span also records CPU time, own and of reaped workers
        with_cpu = span_name == "gridproof.grid"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.open_names[span_name]:
                return fn(*args, **kwargs)
            attrs = {}
            if with_cpu:
                cpu0, workers0 = _cpu()
            sid = tracer.begin(span_name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if with_cpu:
                cpu1, workers1 = _cpu()
                attrs.update(cpu_s=cpu1 - cpu0, worker_cpu_s=workers1 - workers0)
            if on_result is not None:
                on_result(attrs, args, kwargs, result)
            return result
        return wrapper

    def _annotator(self, span_name, caller):
        if span_name == "telescope.assemble":
            def note(attrs, args, kwargs, result):
                order = args[1] if len(args) > 1 else kwargs.get("J")
                attrs["J"] = order
                if caller == "gridproof":
                    self.grid_order = order
                if result is not None:
                    attrs.update(_system_shape(result))
            return note
        if span_name == "gridproof.grid":
            def note(attrs, args, kwargs, result):
                attrs.update(J=self.grid_order, passed=result.passed,
                             tested=result.grid_tested, total=result.grid_total)
            return note
        return None

    def begin(self, name, attrs=None):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent,
                           self.proof, attrs])
        self.stack.append(sid)
        self.open_names[name] += 1
        return sid

    def end(self, sid):
        span = self.spans[sid]
        span[3] = time.perf_counter()
        self.stack.pop()
        self.open_names[span[1]] -= 1

    # -- output ------------------------------------------------------------

    def dump(self, path, header):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, wrapped=self.wrapped,
                                     missing=self.missing)) + "\n")
            for sid, name, start, end, parent, proof, attrs in self.spans:
                rec = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "proof": proof}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")
