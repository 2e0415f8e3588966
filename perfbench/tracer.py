"""Outside-in span tracer for cuspext, installed by patching at run time.

The library carries no instrumentation of its own, so this module wraps
its public functions from the outside while a traced pass runs and puts
the originals back afterwards:

- module-level functions are replaced in every ``cuspext`` module that
  holds them, including modules that bound the name with
  ``from ... import`` (for example ``extension.forward_map`` and
  ``cli.hat_values``);
- the ``value`` method of each profile class is replaced on the class;
- ``fn`` and ``grad`` of every field returned by ``fields.make_field``
  (library fields) and ``extension.extend_lipschitz`` (extension fields)
  are wrapped on the returned object;
- numpy's ``leggauss`` gets no span of its own: each call is counted
  against the layer of the span that made it, and its time stays in
  that span's self time.

A span is ``[name, start, end, parent, pass_id, points]``; ``parent``
indexes the span list (-1 for a root).  Spans stay in memory and are
written once, by ``Tracer.dump``.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np

# Span names whose calls each solve one batch of boundary pairs.
SOLVE_SPANS = ("lipschitzify.hat_values", "lipschitzify.LipschitzizedProfile.value")
HAT_SOLVE_SPANS = SOLVE_SPANS + ("lipschitzify.hat_profile",
                                 "lipschitzify.verify_monotone_quotient",
                                 "lipschitzify.verify_doubling_transfer")
VERIFY_SPANS = ("trace_check", "boundary_decay_check", "seam_continuity_check",
                "linearity_check")
COMMANDS = ("lipschitzify", "transform-verify", "extend-verify", "admissibility-sweep")


def _rows(z) -> int:
    """Number of points in a (..., n) point array."""
    return math.prod(np.shape(z)[:-1])


def _size(t) -> int:
    return int(np.size(t))


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.pass_id = -1
        self._stack: list = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        rec = self._open(name, 0)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str, points: int) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.pass_id, points]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, points=None, result_points=None, after=None):
        """Traced stand-in for ``fn``.

        ``points(args)`` counts the points of a call from its arguments,
        ``result_points(result)`` from its result; ``after(args, kwargs,
        result)`` runs once the span has closed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, points(args) if points else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if result_points is not None:
                rec[5] = result_points(result)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _credit_leggauss(self, fn):
        def leggauss(deg):
            layer = self.spans[self._stack[-1]][0].split(".")[0] if self._stack else "none"
            self.counters[f"{layer}.leggauss_calls"] += 1
            return fn(deg)

        return leggauss

    # -- patching ----------------------------------------------------------

    def _patch_function(self, module, attr: str, span_name: str, **kw) -> None:
        original = getattr(module, attr)
        self._replace_everywhere(original, self.wrap(span_name, original, **kw))

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind ``original`` in every cuspext module that holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cuspext" or mod_name.startswith("cuspext.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, replacement)

    def _patch_method(self, cls, attr: str, span_name: str, **kw) -> None:
        self._set(cls, attr, self.wrap(span_name, cls.__dict__[attr], **kw))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _traced_field(self, prefix: str, f):
        """Copy of a ScalarField whose fn and grad open spans."""
        grad = f.grad
        if grad is not None:
            grad = self.wrap(f"{prefix}.grad", grad, points=lambda a: _rows(a[0]))
        return replace(f, fn=self.wrap(f"{prefix}.fn", f.fn, points=lambda a: _rows(a[0])),
                       grad=grad)

    def install(self) -> None:
        """Patch every traced entry point; ``uninstall`` reverts."""
        from cuspext import (admissibility, extension, fields, geometry,
                             lipschitzify, profiles, quadrature, transform, verify)

        value_points = {"points": lambda a: _size(a[1])}
        for cls in (profiles.PowerProfile, profiles.LinearProfile,
                    profiles.StepProfile, profiles._ScaledView):
            self._patch_method(cls, "value", "profiles.value", **value_points)
        self._patch_method(lipschitzify.LipschitzizedProfile, "value",
                           "lipschitzify.LipschitzizedProfile.value", **value_points)

        spec_points = {"points": lambda a: _rows(a[1])}
        for name in ("classify_extension_region", "classify_bilip_region"):
            self._patch_function(geometry, name, f"geometry.{name}", **spec_points)
        for name in ("hat_values", "hat_profile"):
            self._patch_function(lipschitzify, name, f"lipschitzify.{name}",
                                 points=lambda a: _size(a[1]))
        for name in ("verify_monotone_quotient", "verify_doubling_transfer"):
            self._patch_function(lipschitzify, name, f"lipschitzify.{name}")
        for name in ("forward_map", "inverse_map"):
            self._patch_function(transform, name, f"transform.{name}", **spec_points)
        for name in ("distortion_sample", "verify_image", "seam_continuity"):
            self._patch_function(transform, name, f"transform.{name}")

        self._patch_function(extension, "extend_general", "extension.extend_general")
        self._wrap_factory(fields, "make_field", "fields")
        self._wrap_factory(extension, "extend_lipschitz", "extension")

        self._patch_function(quadrature, "build_nodes", "quadrature.build_nodes",
                             result_points=lambda r: int(r[0].shape[0]))
        self._patch_function(quadrature, "w1p_norm", "quadrature.w1p_norm",
                             after=self._count_w1p_detail)
        for name in ("gradient_at", "extension_ratio"):
            self._patch_function(quadrature, name, f"quadrature.{name}")
        for name in VERIFY_SPANS:
            self._patch_function(verify, name, f"verify.{name}")
        for name in ("sweep_power_cusp", "check_inc1", "check_inc2"):
            self._patch_function(admissibility, name, f"admissibility.{name}")

        legendre = np.polynomial.legendre
        self._set(legendre, "leggauss", self._credit_leggauss(legendre.leggauss))

    def _wrap_factory(self, module, attr: str, prefix: str) -> None:
        """Make ``module.attr`` return fields whose fn and grad are traced."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def factory(*args, **kwargs):
            return self._traced_field(prefix, original(*args, **kwargs))

        self._replace_everywhere(original, factory)

    def _count_w1p_detail(self, args, kwargs, result) -> None:
        if not kwargs.get("with_detail", len(args) > 5 and args[5]):
            return
        _, detail = result
        self.counters["quadrature.w1p_nodes"] += detail["nodes"]
        self.counters["quadrature.dropped_gradient_nodes"] += detail["dropped_gradient_nodes"]
        if args[0].name.startswith("extend("):
            self.counters["quadrature.extension_nodes"] += detail["nodes"]

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summary -----------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span: duration minus its direct children."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        return [rec[2] - rec[1] - c for rec, c in zip(self.spans, child)]

    def per_name(self) -> dict:
        """{name: [calls, points, total_s, self_s]} over all spans.

        A span nested in a span of the same name (a scaled profile view
        calling its base) adds its time but no calls or points.
        """
        out = defaultdict(lambda: [0, 0, 0.0, 0.0])
        spans = self.spans
        for rec, self_s in zip(spans, self.self_times()):
            agg = out[rec[0]]
            if not self._has_ancestor(rec, (rec[0],)):
                agg[0] += 1
                agg[1] += rec[5]
            agg[2] += rec[2] - rec[1]
            agg[3] += self_s
        return out

    def _has_ancestor(self, rec: list, names) -> bool:
        parent = rec[3]
        while parent >= 0:
            up = self.spans[parent]
            if up[0] in names:
                return True
            parent = up[3]
        return False

    def inside_count(self, name: str, ancestors, field: int = 0) -> int:
        """Calls (field 0) or points (field 5) of ``name`` spans under ``ancestors``."""
        total = 0
        for rec in self.spans:
            if rec[0] == name and self._has_ancestor(rec, ancestors):
                total += 1 if field == 0 else rec[field]
        return total

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per traced pass; times in self seconds."""
        agg = self.per_name()
        c = self.counters

        def per_pass(x):
            return x / passes

        def self_s(names):
            return per_pass(sum(agg[n][3] for n in names if n in agg))

        def stat(name, i):
            return per_pass(agg[name][i]) if name in agg else 0.0

        m = {}
        m["profiles.value.calls"] = stat("profiles.value", 0)
        m["profiles.value.points"] = stat("profiles.value", 1)
        m["profiles.value.self_s"] = self_s(["profiles.value"])
        for name in ("classify_extension_region", "classify_bilip_region"):
            m[f"geometry.{name}.points"] = stat(f"geometry.{name}", 1)
            m[f"geometry.{name}.self_s"] = self_s([f"geometry.{name}"])
        solves = sum(agg[n][0] for n in SOLVE_SPANS if n in agg)
        m["lipschitzify.hat_solve.points"] = per_pass(sum(agg[n][1] for n in SOLVE_SPANS
                                                          if n in agg))
        m["lipschitzify.hat_solve.self_s"] = self_s(HAT_SOLVE_SPANS)
        in_solve = self.inside_count("profiles.value", SOLVE_SPANS)
        m["lipschitzify.profile_calls_per_solve"] = in_solve / solves if solves else 0.0
        for name in ("forward_map", "inverse_map"):
            m[f"transform.{name}.points"] = stat(f"transform.{name}", 1)
            m[f"transform.{name}.self_s"] = self_s([f"transform.{name}"])
        for name in ("distortion_sample", "verify_image"):
            m[f"transform.{name}.self_s"] = self_s([f"transform.{name}"])
        m["fields.fn.points"] = stat("fields.fn", 1)
        m["fields.grad.points"] = stat("fields.grad", 1)
        for name in ("fn", "grad"):
            m[f"extension.{name}.points"] = stat(f"extension.{name}", 1)
            m[f"extension.{name}.self_s"] = self_s([f"extension.{name}"])
        ext_nodes = c["quadrature.extension_nodes"]
        quad_fn_points = self.inside_count("extension.fn", ("quadrature.w1p_norm",), 5)
        m["extension.fn_points_per_node"] = quad_fn_points / ext_nodes if ext_nodes else 0.0
        m["quadrature.build_nodes.calls"] = stat("quadrature.build_nodes", 0)
        m["quadrature.build_nodes.nodes"] = stat("quadrature.build_nodes", 1)
        m["quadrature.build_nodes.self_s"] = self_s(["quadrature.build_nodes"])
        m["quadrature.w1p_norm.self_s"] = self_s(["quadrature.w1p_norm"])
        m["quadrature.gradient_at.self_s"] = self_s(["quadrature.gradient_at"])
        nodes = c["quadrature.w1p_nodes"]
        m["quadrature.kept_frac"] = (1.0 - c["quadrature.dropped_gradient_nodes"] / nodes
                                     if nodes else 1.0)
        m["quadrature.leggauss_calls"] = per_pass(c["quadrature.leggauss_calls"])
        for name in VERIFY_SPANS:
            m[f"verify.{name}.self_s"] = self_s([f"verify.{name}"])
        for name in ("check_inc1", "check_inc2"):
            m[f"admissibility.{name}.self_s"] = self_s([f"admissibility.{name}"])
        m["admissibility.leggauss_calls"] = per_pass(c["admissibility.leggauss_calls"])
        cli_spans = [f"cli.{cmd}" for cmd in COMMANDS]
        for name in cli_spans:
            m[f"{name}.s"] = stat(name, 2)
        m["cli.self_s"] = self_s(cli_spans)
        return m

    def dump(self, path: str) -> None:
        """Write every span once, times relative to the first span."""
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[r[0]], r[1] - t0, r[2] - t0, r[3], r[4], r[5]] for r in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "pass", "points"],
                       "names": names, "spans": rows}, fh)
            fh.write("\n")

