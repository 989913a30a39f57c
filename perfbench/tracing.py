"""Spans around morso's layers, recorded from outside the package.

``install`` replaces the traced functions in every ``morso`` module that
imported them, plus a few methods of the system classes and
``scipy.linalg.subspace_angles``.  Wrappers pass straight through unless an
operation is open, so only the timed CLI calls are traced.  Spans are kept
in memory as ``(name, start, end, parent, op)`` and written out when the
run ends; ``layer_metrics`` turns them into per-operation figures.
"""

import functools
import importlib
import json
import os
import sys
import time

import numpy as np
import scipy.linalg

OP = "cli.op"

# span name -> (module, attribute) pairs it wraps
FUNCTIONS = {
    "recursion.run_recursion": [("morso.recursion", "run_recursion")],
    "recursion.step": [("morso.recursion", "srlrg_step"),
                       ("morso.recursion", "srlrh_step")],
    "recursion.assemble": [("morso.recursion", "assemble_controllability"),
                           ("morso.recursion", "assemble_observability")],
    "discretize.discretize": [("morso.discretize", "discretize")],
    "systems.stability_report": [("morso.systems", "stability_report")],
    "systems.linearize": [("morso.systems", "linearize")],
    "metrics.frequency_response": [("morso.metrics", "frequency_response")],
    "metrics.error_response": [("morso.metrics", "error_response")],
    "oracle.stein_gramians": [("morso.oracle", "stein_gramians")],
    "oracle.dense_balanced_truncation": [
        ("morso.oracle", "dense_balanced_truncation")],
    "mmio.read_matrix": [("morso.mmio", "read_matrix")],
    "mmio.write_matrix": [("morso.mmio", "write_matrix")],
    "bench.load_matrix_market": [("morso.bench", "load_matrix_market")],
    "projection.build_projection": [("morso.projection", "build_projection")],
    "projection.reduce_model": [("morso.projection", "reduce_model")],
}

# span name -> (class, method) pairs it wraps
METHODS = {
    "systems.init": [("SecondOrderSystem", "__init__")],
    "systems.solve_mass": [("SecondOrderSystem", "solve_mass"),
                           ("SecondOrderSystem", "solve_mass_t")],
    "systems.transfer": [("SecondOrderSystem", "transfer"),
                         ("FirstOrderSystem", "transfer")],
}


def matrix_nbytes(a):
    """Computed storage of a dense or scipy.sparse matrix: its data plus, for
    a sparse one, its index arrays."""
    if isinstance(a, np.ndarray):
        return a.nbytes
    return sum(getattr(a, attr).nbytes
               for attr in ("data", "indices", "indptr", "row", "col",
                            "offsets")
               if hasattr(a, attr))


class Tracer:
    """Span recorder for one run.  ``full_order`` tells transfers of the
    full model (N second-order states, 2N first-order) from reduced ones."""

    def __init__(self, full_order):
        self.full_order = full_order
        self.spans = []
        self.stack = []
        self.op = None
        self.ops = 0
        self.counts = {"transfer_full": 0, "transfer_reduced": 0,
                       "read_bytes": 0, "matrix_bytes": 0}

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def begin_op(self):
        self.op = self.ops
        self.ops += 1
        self._open(OP)

    def end_op(self):
        self._close()
        self.op = None

    def wrap(self, name, fn, on_call=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(*args)
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return traced

    # -- counters fed by wrappers -----------------------------------------

    def _on_transfer(self, system, *_):
        full = system.order in (self.full_order, 2 * self.full_order)
        self.counts["transfer_full" if full else "transfer_reduced"] += 1

    def _on_read(self, path, *_):
        self.counts["read_bytes"] += os.path.getsize(path)

    def _on_recursion(self, dsos, *_):
        nbytes = sum(matrix_nbytes(getattr(dsos, role)) for role in "MDK")
        self.counts["matrix_bytes"] = max(self.counts["matrix_bytes"], nbytes)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function and method in place."""
        hooks = {"recursion.run_recursion": self._on_recursion,
                 "mmio.read_matrix": self._on_read}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "morso" or n.startswith("morso.")]
        for name, targets in FUNCTIONS.items():
            for module, attr in targets:
                original = getattr(importlib.import_module(module), attr)
                wrapped = self.wrap(name, original, hooks.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        systems = importlib.import_module("morso.systems")
        for name, targets in METHODS.items():
            hook = self._on_transfer if name == "systems.transfer" else None
            for cls_name, attr in targets:
                cls = getattr(systems, cls_name)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr), hook))
        scipy.linalg.subspace_angles = self.wrap(
            "recursion.angles", scipy.linalg.subspace_angles)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

    # -- summary -------------------------------------------------------------

    def layer_metrics(self, reductions_per_op):
        """Per-operation busy/self seconds and call counts of each layer."""
        busy, child, calls = {}, {}, {}
        for name, start, end, parent, _ in self.spans:
            busy[name] = busy.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent is not None:
                pname = self.spans[parent][0]
                child[pname] = child.get(pname, 0.0) + (end - start)
        ops = max(self.ops, 1)

        def s(name):
            return busy.get(name, 0.0) / ops

        def self_s(name):
            return (busy.get(name, 0.0) - child.get(name, 0.0)) / ops

        def n(name):
            return calls.get(name, 0) / ops

        full = self.counts["transfer_full"] / ops
        return {
            "recursion.run_recursion.s": (s("recursion.run_recursion"), "s"),
            "recursion.steps": (n("recursion.step"), "count"),
            "recursion.step.s": (s("recursion.step"), "s"),
            "recursion.step_self.s": (self_s("recursion.step"), "s"),
            "recursion.assemble.s": (s("recursion.assemble"), "s"),
            "recursion.assemble_self.s": (self_s("recursion.assemble"), "s"),
            "recursion.angles.s": (s("recursion.angles"), "s"),
            "recursion.angles.calls": (n("recursion.angles"), "count"),
            "recursion.matrix_bytes": (self.counts["matrix_bytes"],
                                       "B-computed"),
            "systems.solve_mass.calls": (n("systems.solve_mass"), "count"),
            "systems.solve_mass.s": (s("systems.solve_mass"), "s"),
            "discretize.discretize.s": (s("discretize.discretize"), "s"),
            "systems.stability_report.s": (s("systems.stability_report"), "s"),
            "systems.stability_report.calls": (
                n("systems.stability_report"), "count"),
            "metrics.frequency_response.s": (
                s("metrics.frequency_response"), "s"),
            "metrics.error_response.s": (s("metrics.error_response"), "s"),
            "systems.transfer.s": (s("systems.transfer"), "s"),
            "systems.transfer.calls_full": (full, "count"),
            "systems.transfer.calls_reduced": (
                self.counts["transfer_reduced"] / ops, "count"),
            "metrics.full_transfers_per_cell": (
                full / reductions_per_op, "count"),
            "oracle.stein_gramians.s": (s("oracle.stein_gramians"), "s"),
            "oracle.dense_balanced_truncation.s": (
                s("oracle.dense_balanced_truncation"), "s"),
            "systems.linearize.s": (s("systems.linearize"), "s"),
            "mmio.read_matrix.s": (s("mmio.read_matrix"), "s"),
            "mmio.read_matrix.bytes": (self.counts["read_bytes"] / ops, "B"),
            "mmio.write_matrix.s": (s("mmio.write_matrix"), "s"),
            "bench.load_matrix_market.s": (s("bench.load_matrix_market"), "s"),
            "systems.init.s": (s("systems.init"), "s"),
            "systems.init.calls": (n("systems.init"), "count"),
            "projection.build_projection.s": (
                s("projection.build_projection"), "s"),
            "projection.reduce_model.s": (s("projection.reduce_model"), "s"),
            "cli.self.s": (self_s(OP), "s"),
        }
