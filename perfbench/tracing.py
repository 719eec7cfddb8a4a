"""Per-layer tracing of ccpsd from outside the package.

A layer is one ``ccpsd`` module.  ``Tracer.install`` replaces every binding
of each module's public functions -- the module's own attribute, the names
other modules re-bind with ``from .module import ...`` and the package
re-exports -- with a wrapper.  A call that enters a module from outside
records a span (name, start, end, parent span, run id); a call from inside
the same module stays part of the caller's span.  Three very frequent
entry points keep aggregate counters and timers instead of spans:
``RationalFn.evaluate``, ``RationalFn`` construction and
``Codebook.N1/N2/N3``.

A layer's self time is the time its spans and aggregate calls are open minus
the time covered by calls they make into other layers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("ratfn", "codebook", "fstd", "transfer", "spectrum", "cyclo",
          "clocked", "oracle", "presets", "cli")


def _n_freqs(args, kwargs):
    freqs = args[1] if len(args) > 1 else kwargs["freqs"]
    return len(freqs)


def _lag_products(args, kwargs):
    """Multiply-adds of ``estimate_autocorr``: sum over lags of n - k."""
    n = len(args[0])
    kmax = args[1] if len(args) > 1 else kwargs["kmax"]
    return (kmax + 1) * n - kmax * (kmax + 1) // 2


class Tracer:
    """Spans and counters of one traced workload pass."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # (id, parent id, name, start, end)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = {}  # qualified name -> calls, intra-module ones included
        self.failures = {}  # qualified name -> calls that raised
        self.counters = {}
        self._stack = []  # open spans: [id, parent id, start, child seconds]
        self._next_id = 1

    # -- counters ---------------------------------------------------------

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def high_water(self, key, v):
        self.counters[key] = max(self.counters.get(key, 0), v)

    def _result_hooks(self, ccpsd):
        """Work counts taken from arguments and results, by function."""
        tm_type = ccpsd.transfer.TransferMatrix

        def transfer_hook(args, kwargs, result):
            if isinstance(result, tm_type):
                self.count("transfer.matrices")
                self.high_water("transfer.order_max", result.n)

        hooks = {
            "codebook.enumerate_codebook": lambda a, k, r: self.count(
                "codebook.words_enumerated", r.N),
            "spectrum.spectrum_x": lambda a, k, r: self.count(
                "spectrum.points", _n_freqs(a, k)),
            # computed, not measured: int64 arrays b and b*b, N x N each
            "cyclo.exact_autocorr": lambda a, k, r: self.high_water(
                "cyclo.bridge_bytes", 2 * 8 * len(a[0].words) ** 2),
            "fstd.merge_equivalent_states": lambda a, k, r: (
                self.count("fstd.states_raw", len(a[0].states)),
                self.count("fstd.states_merged", len(r.states))),
            "fstd.reduce_to_ostd": lambda a, k, r: self.count(
                "fstd.ostd_states", r.n),
            "oracle.generate_stream": lambda a, k, r: self.count(
                "oracle.symbols", a[0].n_symbols),
            "oracle.estimate_autocorr": lambda a, k, r: self.count(
                "oracle.lag_products", _lag_products(a, k)),
        }
        for name, fn in vars(ccpsd.transfer).items():
            if _is_public_function(ccpsd.transfer, name, fn):
                hooks.setdefault(f"transfer.{name}", transfer_hook)
        return hooks

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, layer, qualname, fn, home, hook):
        """Span on calls entering ``layer`` from outside; counts on every call."""
        stack, spans, self_s = self._stack, self.spans, self.self_s
        calls, failures = self.calls, self.failures
        clock, getframe = time.perf_counter, sys._getframe
        calls[qualname] = 0

        def invoke(args, kwargs):
            calls[qualname] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failures[qualname] = failures.get(qualname, 0) + 1
                raise
            if hook is not None:
                hook(args, kwargs, result)
            return result

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getframe(1).f_globals is home:
                return invoke(args, kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, parent, clock(), 0.0]
            stack.append(frame)
            try:
                return invoke(args, kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                self_s[layer] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                spans.append((sid, parent, qualname, frame[2], end))

        return wrapper

    def _aggregate_wrapper(self, layer, key, fn):
        """Counter and timer only; the call never reaches another layer."""
        stack, self_s, counters = self._stack, self.self_s, self.counters
        clock = time.perf_counter
        counters[key + "_calls"] = 0
        counters[key + "_s"] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                self_s[layer] += dur
                if stack:
                    stack[-1][3] += dur
                counters[key + "_calls"] += 1
                counters[key + "_s"] += dur

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every binding of every public function in every layer."""
        ccpsd = importlib.import_module("ccpsd")
        modules = {layer: importlib.import_module(f"ccpsd.{layer}")
                   for layer in LAYERS}
        hooks = self._result_hooks(ccpsd)
        replace = {}  # id(original) -> wrapper; wrappers keep originals alive
        for layer, mod in modules.items():
            home = vars(mod)
            for name, fn in list(home.items()):
                if _is_public_function(mod, name, fn):
                    qualname = f"{layer}.{name}"
                    replace[id(fn)] = self._span_wrapper(
                        layer, qualname, fn, home, hooks.get(qualname))
        # Re-bound names live in every loaded ccpsd module, the package too.
        for modname, mod in list(sys.modules.items()):
            if modname == "ccpsd" or modname.startswith("ccpsd."):
                ns = vars(mod)
                for name, value in list(ns.items()):
                    if id(value) in replace:
                        ns[name] = replace[id(value)]

        rfn = modules["ratfn"].RationalFn
        rfn.evaluate = self._aggregate_wrapper(
            "ratfn", "ratfn.evaluate", rfn.evaluate)
        rfn.__init__ = self._aggregate_wrapper(
            "ratfn", "ratfn.new", rfn.__init__)
        cb = modules["codebook"].Codebook
        for prop in ("N1", "N2", "N3"):
            setattr(cb, prop, property(self._aggregate_wrapper(
                "codebook", f"codebook.{prop}", vars(cb)[prop].fget)))
        return self

    # -- results -------------------------------------------------------------

    def layer_calls(self, layer):
        """Calls that reached ``layer`` through any wrapper."""
        n = sum(c for q, c in self.calls.items() if q.startswith(layer + "."))
        return n + sum(v for k, v in self.counters.items()
                       if k.startswith(layer + ".") and k.endswith("_calls"))

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "run": self.run_id}) + "\n")


def _is_public_function(mod, name, fn):
    return (inspect.isfunction(fn) and fn.__module__ == mod.__name__
            and not name.startswith("_"))
