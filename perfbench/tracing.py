"""Per-layer spans around the package's functions, installed from outside.

Every traced function is replaced by one wrapper in every module namespace
that binds it: ``cli`` and ``abelian`` import names directly, so patching the
defining module alone would miss their calls.  The package itself is left
untouched on disk.

A span is (problem, id, parent, name, start, end).  Self time is a span's
duration minus the durations of its direct children, and it accrues to the
span's bucket, so buckets add up to the traced wall time.  Counts come from
arguments and return values only.  Spans of the latest traced pass are kept
in memory and written out by ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import coincidence_kit
from coincidence_kit.errors import SizeCapError
from coincidence_kit.reporting import STATUS_UNSUPPORTED

LAYERS = ("cli", "abelian", "exact_linalg", "finite", "nilpotent")
CLI_TRACED = (
    "main",
    "run_snf",
    "run_abelian",
    "run_finite",
    "run_nilpotent",
    "run_check",
    "_abelian_oracle",
    "_nilpotent_oracle",
    "_nilpotent_recount",
)
# The check subcommand and the --oracle cross-checks; their inclusive time
# is cli.oracle_s.
ORACLE_FUNCTIONS = {
    "cli.run_check",
    "cli._abelian_oracle",
    "cli._nilpotent_oracle",
    "cli._nilpotent_recount",
    "exact_linalg.elementary_divisors_via_minors",
}
# Functions whose inclusive time is reported under their own name.
INCLUSIVE = {
    "abelian.reid_multi": "abelian.reid_multi_s",
    "abelian.divisibility_report": "abelian.divisibility_s",
}
BUCKETS = {
    "exact_linalg.smith_normal_form": "snf",
    "exact_linalg.cokernel_order": "snf",
    "exact_linalg.determinant": "det",
    "exact_linalg.unimodular_inverse": "det",
    "exact_linalg.hermite_basis": "hnf",
    "exact_linalg.lattice_coordinates": "hnf",
    "exact_linalg.lattice_index": "hnf",
    "exact_linalg.rank": "hnf",
    "exact_linalg.kernel_basis": "kernel",
    "exact_linalg.enumerate_cokernel": "enum",
    "exact_linalg.cokernel_order_bruteforce": "enum",
    "exact_linalg.elementary_divisors_via_minors": "minors",
    "finite.close_group": "closure",
    "finite.binary_icosahedral_group": "closure",
    "finite.cyclic_group": "closure",
    "finite.direct_product": "product",
    "finite.pairwise_values": "pairwise",
    "nilpotent.central_extension_data": "extension",
    "nilpotent.central_reduction": "reduction",
    "nilpotent.delta_image_vectors": "delta",
}

# Every per-layer metric, in report order, with its unit.
METRICS = {
    "cli.self_s": "s",
    "cli.oracle_s": "s",
    "abelian.reid_multi_s": "s",
    "abelian.divisibility_s": "s",
    "abelian.self_s": "s",
    "exact_linalg.self_s": "s",
    "exact_linalg.snf_calls": "count",
    "exact_linalg.snf_cells": "count",
    "exact_linalg.snf_s": "s",
    "exact_linalg.hnf_s": "s",
    "exact_linalg.det_calls": "count",
    "exact_linalg.det_s": "s",
    "exact_linalg.kernel_s": "s",
    "exact_linalg.enum_classes": "count",
    "exact_linalg.enum_s": "s",
    "exact_linalg.minors_s": "s",
    "finite.self_s": "s",
    "finite.closure_s": "s",
    "finite.closure_elements": "count",
    "finite.product_s": "s",
    "finite.orbit_s": "s",
    "finite.tuples": "count",
    "finite.pairwise_s": "s",
    "finite.unionfind_s": "s",
    "finite.refused": "count",
    "nilpotent.self_s": "s",
    "nilpotent.extension_calls": "count",
    "nilpotent.extension_s": "s",
    "nilpotent.reduction_s": "s",
    "nilpotent.delta_s": "s",
    "nilpotent.pair_calls": "count",
    "nilpotent.unsupported": "count",
}


def _bucket(name: str, kwargs: dict, parent) -> str:
    layer = name.split(".", 1)[0]
    if name == "finite.twisted_reidemeister":
        if kwargs.get("algorithm") == "union-find":
            return "finite.unionfind"
        if parent is not None and parent[0] == "finite.pairwise_values":
            return "finite.pairwise"
        return "finite.orbit"
    return f"{layer}.{BUCKETS.get(name, 'other')}"


class Tracer:
    """Installs wrappers for one traced pass at a time and accumulates
    per-layer totals over all traced passes."""

    def __init__(self):
        modules = {layer: importlib.import_module(f"coincidence_kit.{layer}") for layer in LAYERS}
        self._namespaces = [coincidence_kit, *modules.values()]
        self._wrappers = {}  # original function -> wrapper
        for layer, module in modules.items():
            names = CLI_TRACED if layer == "cli" else getattr(module, "__all__", ())
            for attr in names:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        self.problem = None
        self.passes = 0
        self.totals: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._active: dict[str, int] = defaultdict(int)
        self._oracle_depth = 0
        self._installed: list[tuple] = []

    # -- installation ----------------------------------------------------------------

    def begin_pass(self):
        self.spans = []
        for ns in self._namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    self._installed.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def end_pass(self):
        for ns, attr, value in self._installed:
            setattr(ns, attr, value)
        self._installed = []
        self.passes += 1

    # -- spans ------------------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        absorbed_by = "exact_linalg.elementary_divisors_via_minors"
        is_det = name == "exact_linalg.determinant"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if is_det and parent is not None and parent[0] == absorbed_by:
                # the minors oracle's own determinants stay in minors_s
                return fn(*args, **kwargs)
            return tracer._call(name, fn, args, kwargs, parent)

        return wrapper

    def _call(self, name, fn, args, kwargs, parent):
        oracle = name in ORACLE_FUNCTIONS or (
            name == "finite.twisted_reidemeister" and kwargs.get("algorithm") == "union-find"
        )
        outer_oracle = oracle and self._oracle_depth == 0
        self._oracle_depth += oracle
        outer_inclusive = name in INCLUSIVE and not self._active[name]
        self._active[name] += 1
        span_id = len(self.spans)
        self.spans.append(None)
        frame = [name, _bucket(name, kwargs, parent), 0, span_id]
        self._stack.append(frame)
        result = error = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            self.self_time[frame[1]] += (duration - frame[2]) / 1e9
            if parent is not None:
                parent[2] += duration
            if outer_oracle:
                self.totals["cli.oracle_s"] += duration / 1e9
            if outer_inclusive:
                self.totals[INCLUSIVE[name]] += duration / 1e9
            self._oracle_depth -= oracle
            self._active[name] -= 1
            parent_id = parent[3] if parent is not None else -1
            self.spans[span_id] = (self.problem, span_id, parent_id, name, start, end)
            self._count(name, frame[1], args, result, error, parent)

    def _count(self, name, bucket, args, result, error, parent):
        t = self.totals
        if name == "exact_linalg.smith_normal_form":
            t["exact_linalg.snf_calls"] += 1
            t["exact_linalg.snf_cells"] += args[0].rows * args[0].cols
        elif name in ("exact_linalg.determinant", "exact_linalg.unimodular_inverse"):
            t["exact_linalg.det_calls"] += 1
        if error is None:
            if name == "exact_linalg.enumerate_cokernel":
                t["exact_linalg.enum_classes"] += len(result)
            elif name in ("finite.close_group", "finite.cyclic_group"):
                t["finite.closure_elements"] += result.order
            elif name == "finite.twisted_reidemeister" and bucket != "finite.unionfind":
                t["finite.tuples"] += result.tuple_space
        if name == "nilpotent.central_extension_data":
            t["nilpotent.extension_calls"] += 1
        elif name == "nilpotent.reid_nilpotent":
            t["nilpotent.pair_calls"] += 1
        layer = name.split(".", 1)[0]
        outermost = parent is None or not parent[0].startswith(layer + ".")
        if outermost and layer == "finite" and isinstance(error, SizeCapError):
            t["finite.refused"] += 1
        if (
            outermost
            and layer == "nilpotent"
            and getattr(result, "status", None) == STATUS_UNSUPPORTED
        ):
            t["nilpotent.unsupported"] += 1

    # -- results ----------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-pass averages: ``<layer>.self_s`` sums the layer's buckets,
        ``<bucket>_s`` is one bucket's self time, and the rest are the
        inclusive times and counts named in ``METRICS``."""
        passes = max(self.passes, 1)
        values = {k: v / passes for k, v in self.totals.items()}
        for bucket, seconds in self.self_time.items():
            values[bucket + "_s"] = seconds / passes
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                v / passes for k, v in self.self_time.items() if k.startswith(layer + ".")
            )
        out = {}
        for name, unit in METRICS.items():
            value = values.get(name, 0)
            if unit == "count" and float(value).is_integer():
                value = int(value)
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("problem\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(str(x) for x in span) + "\n")
