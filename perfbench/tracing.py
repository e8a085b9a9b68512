"""Span tracer for the benchmark's traced pass.

The tracer wraps functions of the ``cqbounds`` modules from outside the
package: every module namespace that holds a reference to a traced function
gets the wrapper, so calls through names bound at import time (``bounds``
binds ``delta_star`` from ``bottleneck``) are caught too.  Each wrapper
records a span; a layer's self time is its span time minus the part of that
interval its child spans cover.  Child spans started by worker threads of
``config.parallel_map`` are attached to the open ``parallel_map`` span and
their covered interval is taken as the union of their intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

import numpy
import scipy.linalg

#: (module, function name) -> layer key; every other public function of a
#: module in ``AGGREGATE_LAYERS`` is folded into that module's key
NAMED_SPANS = {
    ("bottleneck", "delta_star"): "bottleneck.delta_star",
    ("bottleneck", "delta"): "bottleneck.delta",
    ("bottleneck", "single_letter_gap"): "bottleneck.single_letter_gap",
    ("bounds", "bottleneck_sup_constrained"): "bounds.sup_constrained",
    ("bounds", "source_coding_first_order"): "bounds.source_first_order",
    ("bounds", "verify_key_inequality"): "bounds.key_inequality",
    ("bounds", "image_size_bound_i"): "bounds.image_size_i",
    ("hyptest", "neyman_pearson_beta"): "hyptest.np_beta",
    ("hyptest", "brute_force_beta_distributed"): "hyptest.brute_force",
    ("hyptest", "product_source"): "hyptest.product_source",
    ("operators", "tensor_all"): "operators.tensor_all",
    ("config", "parallel_map"): "config.parallel_map",
    ("verify", "run_suite"): "verify.run_suite",
    ("cli", "main"): "cli",
}

#: modules whose remaining public functions are traced under one key
AGGREGATE_LAYERS = {
    "entropy": "entropy",
    "semigroup": "semigroup",
    "_linalg": "linalg.kernels",
    "operators": "operators.other",
    "bottleneck": "bottleneck.other",
    "bounds": "bounds.other",
    "hyptest": "hyptest.other",
}

#: modules whose namespaces are searched for references to traced objects
MODULES = (
    "cqbounds", "cqbounds._linalg", "cqbounds.operators", "cqbounds.entropy",
    "cqbounds.semigroup", "cqbounds.hyptest", "cqbounds.bottleneck",
    "cqbounds.bounds", "cqbounds.verify", "cqbounds.config", "cqbounds.cli",
    "cqbounds.model_io",
)


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Tracer:
    """Collects span counts, self times and layer counters while installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.root_s = 0.0
        self.delta_star_keys = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._pool_span = None
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, key, fn, args, kwargs):
        stack = self._stack()
        # [key, start, same-thread child time, cross-thread child intervals]
        span = [key, time.perf_counter(), 0.0, []]
        stack.append(span)
        pool_parent = None
        if key == "config.parallel_map":
            pool_parent, self._pool_span = self._pool_span, span
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if key == "config.parallel_map":
                self._pool_span = pool_parent
            stack.pop()
            duration = end - span[1]
            covered = span[2] + _union_length(span[3])
            with self._lock:
                self.calls[key] += 1
                self.self_s[key] += duration - covered
                if stack:
                    stack[-1][2] += duration
                elif threading.current_thread() is not self._main and self._pool_span:
                    self._pool_span[3].append((span[1], end))
                else:
                    self.root_s += duration

    def _wrap(self, key, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            result = self._span(key, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count(self, fn, before):
        """Wrapper that only updates counters: no span, so its time stays
        with the caller."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before(args, kwargs)
            return fn(*args, **kwargs)

        return counted

    # -- counters ----------------------------------------------------------

    def _bump(self, name, amount=1.0):
        with self._lock:
            self.counters[name] += amount

    def _max(self, name, value):
        with self._lock:
            if value > self.counters[name]:
                self.counters[name] = value

    def _eigh_before(self, args, kwargs):
        a = args[0]
        shape = getattr(a, "shape", ())
        mats = 1
        for d in shape[:-2]:
            mats *= d
        self._bump("linalg.eigh.mats", mats)
        if shape:
            self._max("linalg.eigh.max_dim", shape[-1])
            self._max("operators.max_dim", shape[-1])

    def _delta_star_before(self, args, kwargs):
        names = ("q", "states", "nu", "c", "u_size", "multistarts")
        bound = dict(zip(names, args))
        bound.update(kwargs)
        nu = bound["nu"]
        nu = getattr(nu, "entries", nu)
        key = (
            _raw(bound["q"]),
            tuple(_raw(s.entries) for s in bound["states"]),
            _raw(nu),
            float(bound["c"]),
            int(bound["u_size"]),
            int(bound.get("multistarts", 64)),
        )
        with self._lock:
            self.delta_star_keys.add(key)

    def _tensor_after(self, args, kwargs, result):
        self._bump("operators.tensor_all.bytes", result.entries.nbytes)

    def _hermitian_before(self, args, kwargs):
        entries = args[1] if len(args) > 1 else kwargs["entries"]
        shape = getattr(entries, "shape", None)
        if shape is None:
            shape = getattr(getattr(entries, "entries", None), "shape", None)
        if shape:
            self._max("operators.max_dim", shape[0])

    def _parallel_before(self, args, kwargs):
        items = args[1] if len(args) > 1 else kwargs["items"]
        # parallel_map materializes its items itself; count without consuming
        self._bump("config.parallel_map.items", len(items) if hasattr(items, "__len__") else 0)

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch every traced object in every searched namespace."""
        mods = {name: importlib.import_module(name) for name in MODULES}
        replacements = {}  # id(original) -> (original, wrapper)

        def plan(original, wrapper):
            replacements[id(original)] = (original, wrapper)

        for short in {m.split(".")[-1] for m in MODULES if m != "cqbounds"}:
            mod = mods[f"cqbounds.{short}"]
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                key = NAMED_SPANS.get((short, name))
                if key is None:
                    if name.startswith("_") or short not in AGGREGATE_LAYERS:
                        continue
                    key = AGGREGATE_LAYERS[short]
                before = after = None
                if key == "bottleneck.delta_star":
                    before = self._delta_star_before
                elif key == "operators.tensor_all":
                    after = self._tensor_after
                elif key == "config.parallel_map":
                    before = self._parallel_before
                plan(obj, self._wrap(key, obj, before, after))

        hyptest = mods["cqbounds.hyptest"]
        plan(hyptest._beta_for_assignment,
             self._count(hyptest._beta_for_assignment,
                         lambda a, k: self._bump("hyptest.encoders")))

        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

        operators = mods["cqbounds.operators"]
        dm_init = operators.DensityMatrix.__init__
        self._patch(operators.DensityMatrix, "__init__",
                    self._wrap("operators.density_matrix", dm_init))
        herm_init = operators.HermitianOperator.__init__
        self._patch(operators.HermitianOperator, "__init__",
                    self._count(herm_init, self._hermitian_before))

        for name in ("eigh", "eigvalsh"):
            self._patch(numpy.linalg, name,
                        self._wrap("linalg.eigh", getattr(numpy.linalg, name),
                                   before=self._eigh_before))
        self._patch(scipy.linalg, "eig", self._wrap("linalg.geneig", scipy.linalg.eig))

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)


def _raw(a) -> bytes:
    return numpy.asarray(a).tobytes()
