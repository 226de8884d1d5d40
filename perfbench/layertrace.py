"""Per-layer tracing of qclone from outside, without edits to its source.

Every function defined in one of the six layer modules is wrapped once, and
the wrapper is bound at every ``qclone.*`` module attribute that refers to
the original (``from .linalg import partial_trace`` makes ``cloner``,
``cli`` and the package itself hold their own references). Calls between
layers look up those attributes, so each one passes a wrapper.

A wrapper records one span per call: (function, start, end, parent span).
Spans stay in memory; `pass_stats` turns one pass's spans into per-function
calls, self time (duration minus the children's durations), inclusive
time, raised exceptions and argument-derived counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("linalg", "symspace", "cloner", "estimator", "bounds", "cli")


def _apply_cloner_flops(ch, rho_n):
    """Real flops of the two dense 2^M x 2^M complex products S X S."""
    m = ch.m_out
    return 2 * 8 * 8 ** m if m > ch.n_in else 0


# function -> (accumulate, f(*args, **kwargs) -> number); counts from shapes
ARG_COUNTS = {
    "cloner.apply_cloner": (sum, _apply_cloner_flops),
    "linalg.haar_random_pure_batch": (sum, lambda rng, count: count),
    "estimator.sample_candidates": (sum, lambda m, psi, n_shots, rng: n_shots),
    "symspace.is_symmetric_support": (max, lambda rho, tol=None: np.shape(rho)[0]),
}


def _layer_functions(module):
    """Functions (lru-cached ones included) that `module` itself defines."""
    for name, obj in vars(module).items():
        if ((inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper))
                and obj.__module__ == module.__name__):
            yield name, obj


class LayerTrace:
    """Wrappers for every layer function; `install` binds them, `uninstall`
    restores the originals, `pass_stats` summarises the spans recorded."""

    def __init__(self):
        self.names = []            # function index -> "layer.function"
        self.functions = []        # function index -> original
        self.originals = {}        # id(original) -> original
        self.wrappers = {}         # id(original) -> wrapper
        self.spans = []            # (function index, start, end, parent span)
        self.failed = []           # function index -> exceptions raised
        self.arg_counts = []       # function index -> accumulated count or None
        self._stack = []
        for layer in LAYERS:
            module = importlib.import_module(f"qclone.{layer}")
            for name, fn in _layer_functions(module):
                self._add(f"{layer}.{name}", fn)
        self.bindings = self._bound_originals()

    def _bound_originals(self):
        """(module, attribute, original) for every qclone attribute that
        refers to an unwrapped layer function."""
        return [(module, attr, value)
                for name, module in sorted(sys.modules.items())
                if module is not None and (name == "qclone" or name.startswith("qclone."))
                for attr, value in vars(module).items()
                if self.originals.get(id(value)) is value]

    def _add(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        self.functions.append(fn)
        self.originals[id(fn)] = fn
        self.failed.append(0)
        accumulate, count_of = ARG_COUNTS.get(name, (None, None))
        self.arg_counts.append(None)
        spans, stack, failed, arg_counts = self.spans, self._stack, self.failed, self.arg_counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failed[index] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[span] = (index, start, end, parent)
            if accumulate is not None:
                value = count_of(*args, **kwargs)
                old = arg_counts[index]
                arg_counts[index] = value if old is None else accumulate((old, value))
            return result

        self.wrappers[id(fn)] = traced

    def install(self):
        for module, attr, original in self.bindings:
            setattr(module, attr, self.wrappers[id(original)])

    def uninstall(self):
        for module, attr, original in self.bindings:
            setattr(module, attr, original)

    def unwrapped_attributes(self):
        """qclone attributes that still refer to an unwrapped layer function."""
        return [f"{module.__name__}.{attr}" for module, attr, _ in self._bound_originals()]

    def reset(self):
        self.spans.clear()
        self.failed[:] = [0] * len(self.names)
        self.arg_counts[:] = [None] * len(self.names)

    def original(self, name):
        return self.functions[self.names.index(name)]

    def pass_stats(self):
        """Per-function stats of the spans recorded since the last reset."""
        n_fn = len(self.names)
        if not self.spans:
            zeros = np.zeros(n_fn)
            return {"calls": zeros.astype(int), "self_s": zeros, "busy_s": zeros}
        arr = np.array(self.spans, dtype=float)
        fn = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(arr))
        return {
            "calls": np.bincount(fn, minlength=n_fn),
            "self_s": np.bincount(fn, weights=dur - children, minlength=n_fn),
            "busy_s": np.bincount(fn, weights=dur, minlength=n_fn),
        }

    def write_spans(self, path):
        """Write the spans recorded since the last reset, one per line."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("function\tstart_s\tend_s\tparent\n")
            for index, start, end, parent in self.spans:
                f.write(f"{self.names[index]}\t{start:.9f}\t{end:.9f}\t{parent}\n")
