"""Span recorder for the traced run, installed from outside the package.

Wrappers replace public names in the module that calls them (for example
``nlevel_rabi.dyson.exp_c``, which ``a_matrix`` and ``dyson_state`` look up
at call time), so the package itself is not edited.  A span holds its name,
start, end, parent span and pass id; spans stay in memory and are written out
once at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import threading
from collections import defaultdict
from time import perf_counter

# (owner module or class, attribute, span name).  Owners are dotted names under
# nlevel_rabi; a class attribute is written "propagate.Trajectory".
TARGETS = (
    ("cli", "load_config", "cli.load_config"),
    ("cli", "run_solver", "cli.run_solver"),
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "exact_evolution", "exact.exact_evolution"),
    ("cli", "approximate_solution_3", "dyson.approximate_solution_3"),
    ("cli", "dyson_state", "dyson.dyson_state"),
    ("cli", "detunings", "model.detunings"),
    ("cli", "integrate", "propagate.integrate"),
    ("cli", "compare", "propagate.compare"),
    ("exact", "detunings", "model.detunings"),
    ("exact", "rotating_frame", "model.rotating_frame"),
    ("exact", "check_consistency", "exact.check_consistency"),
    ("exact", "exp_q", "exact.exp_q"),
    ("dyson", "detunings", "model.detunings"),
    ("dyson", "residual_coupling", "model.residual_coupling"),
    ("dyson", "exp_c", "spectral.exp_c"),
    ("dyson", "a_matrix", "dyson.a_matrix"),
    ("dyson", "first_order_state_3", "dyson.first_order_state_3"),
    ("spectral", "decompose", "spectral.decompose"),
    ("propagate.Trajectory", "to_csv", "propagate.to_csv"),
    ("propagate.Trajectory", "to_json", "propagate.to_json"),
)
# Factories whose returned H(t) closure is timed as one span per evaluation.
H_FACTORIES = (("cli", "full_hamiltonian"), ("cli", "full_hamiltonian_nonrwa"))
# Writers whose output size is counted as "<span name>.bytes".
WRITERS = ("propagate.to_csv", "propagate.to_json")


class SpanRecorder:
    def __init__(self):
        self.spans = []  # (id, parent, pass_id, name, start, end)
        self.bytes = defaultdict(int)
        self._bytes_lock = threading.Lock()
        self.pass_id = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        """``fn`` timed as span ``name``.

        A span opened in a worker thread with nothing open in that thread is
        parented to the span open in the main thread (the sweep that started
        the worker).
        """
        writer = name in WRITERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, self.pass_id, name, start, end))
                if writer and isinstance(args[1], (str, os.PathLike)):
                    size = os.path.getsize(args[1])
                    with self._bytes_lock:
                        self.bytes[name] += size

        return traced

    def _wrap_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.wrap("model.h_eval", factory(*args, **kwargs))

        return make

    @contextlib.contextmanager
    def installed(self, package):
        """Patch the TARGETS of ``package`` (the imported ``nlevel_rabi``)."""
        saved = []

        def owner(dotted):
            obj = package
            for part in dotted.split("."):
                obj = getattr(obj, part)
            return obj

        def patch(obj, attr, new):
            saved.append((obj, attr, obj.__dict__[attr]))
            setattr(obj, attr, new)

        for dotted, attr, name in TARGETS:
            obj = owner(dotted)
            patch(obj, attr, self.wrap(name, obj.__dict__[attr]))
        for dotted, attr in H_FACTORIES:
            obj = owner(dotted)
            patch(obj, attr, self._wrap_factory(obj.__dict__[attr]))
        try:
            yield self
        finally:
            for obj, attr, old in reversed(saved):
                setattr(obj, attr, old)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,pass,name,start_s,end_s\n")
            for sid, parent, pass_id, name, start, end in sorted(self.spans):
                fh.write(f"{sid},{'' if parent is None else parent},{pass_id},{name},"
                         f"{start!r},{end!r}\n")


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans):
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the part of its interval covered by
    its child spans.
    """
    children = defaultdict(list)
    for sid, parent, _, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for sid, _, _, name, start, end in spans:
        rec = out[name]
        rec["calls"] += 1
        rec["s"] += end - start
        rec["self_s"] += (end - start) - _covered(children.get(sid, ()), start, end)
    return out
