"""Span recording for the traced benchmark run.

Two kinds of records share one clock and one frame stack:

* call-site spans (``Tracer.call``), made where the benchmark calls a
  module's public function; each keeps name, start, end, parent span and
  item id, and is written out at the end of the run;
* aggregated frames (``Tracer.wrap``), installed over hot methods such as
  field operators that run hundreds of thousands of times per workload;
  these are summed per (item, layer) so memory stays bounded.

Every frame adds its duration to its parent's child time, so a layer's self
time is its duration minus the time covered by the frames nested in it.
``install`` replaces class attributes and module functions of ``m2alg``
with wrapped versions for the traced run only; the source stays untouched.
"""

import functools
import sys
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.item = None
        self.spans = []  # (name, start, end, parent index, item, self seconds)
        self.agg = {}  # (item, layer) -> [calls, total seconds, self seconds]
        self._stack = []  # open frames: [start, child seconds]
        self._open_spans = []

    def _close(self, layer, frame, end):
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        own = duration - frame[1]
        if stack:
            stack[-1][1] += duration
        key = (self.item, layer)
        rec = self.agg.get(key)
        if rec is None:
            self.agg[key] = [1, duration, own]
        else:
            rec[0] += 1
            rec[1] += duration
            rec[2] += own
        return own

    def call(self, layer, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a recorded call-site span."""
        parent = self._open_spans[-1] if self._open_spans else None
        index = len(self.spans)
        self.spans.append(None)
        self._open_spans.append(index)
        frame = [self.clock(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._open_spans.pop()
            own = self._close(layer, frame, end)
            self.spans[index] = (layer, frame[0], end, parent, self.item, own)

    def wrap(self, layer, fn):
        """fn wrapped in an aggregated frame of the given layer."""
        clock = self.clock
        stack = self._stack
        close = self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(layer, frame, clock())

        return traced

    def totals(self):
        """{layer: [calls, total seconds, self seconds]} over all items."""
        out = {}
        for (_item, layer), (calls, total, own) in self.agg.items():
            acc = out.setdefault(layer, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        return out


_FIELD_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
)


def _targets():
    """(owner, attribute, layer) for every wrapped class method."""
    from m2alg.fields import Fp2Elem, FpElem
    from m2alg.groebner import GroebnerBasis, QuotientElem
    from m2alg.mat2 import Mat2
    from m2alg.poly import BiPoly, UniPoly

    out = [(FpElem, name, "fields.fp") for name in _FIELD_OPS]
    out += [
        (Fp2Elem, name, "fields.fp2")
        for name in _FIELD_OPS + ("conjugate", "norm")
    ]
    out += [
        (BiPoly, "__mul__", "poly.mul"),
        (UniPoly, "__mul__", "poly.mul"),
        (GroebnerBasis, "normal_form", "groebner.normal_form"),
        (QuotientElem, "__mul__", "groebner.qmul"),
        (QuotientElem, "__rmul__", "groebner.qmul"),
        (Mat2, "__mul__", "mat2.mul"),
    ]
    return out


def _module_functions():
    """(function, layer) for module-level functions called inside the library."""
    from m2alg import mat2, sequences

    return [
        (sequences.f_st, "sequences"),
        (sequences.fbar, "sequences"),
        (sequences.trace_poly, "sequences"),
        (sequences.companion_power, "sequences"),
        (mat2.solve_sylvester, "mat2.sylvester"),
    ]


def install(tracer):
    """Wrap the hot methods and functions; returns a callable that undoes it."""
    undo = []
    for owner, name, layer in _targets():
        original = owner.__dict__[name]
        setattr(owner, name, tracer.wrap(layer, original))
        undo.append((owner, name, original))
    # a function imported with ``from .x import f`` is bound in each module
    # that imports it, so every binding is replaced
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("m2alg")]
    for fn, layer in _module_functions():
        wrapped = tracer.wrap(layer, fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, wrapped)
                    undo.append((module, name, fn))

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall
