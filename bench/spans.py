"""Span tracer that times calls into the torusgas layers from outside.

Each public function and public method of a traced module is replaced by a
wrapper that records one span: its kind (layer and name), start, end and the
span that was open when it started.  Spans are kept in memory and written
out when the run ends; a span's self time is its duration minus the
durations of its child spans, and a layer's self time is the sum over its
spans.

The package imports several functions by name (``from .dynamics import
step_em``), so a wrapper is bound into every torusgas module that holds the
original, not only into the module that defines it.  ``step_em`` also binds
``rhs_deterministic`` as a default argument; defaults that hold an original
are rebound too.

Besides spans the tracer keeps exact work counters: FFTs, counted at the
``numpy.fft`` functions so that every transform the package makes is seen
(``Grid.fwd``/``bwd`` and the ``fftn``/``ifftn`` of ``Grid.restrict``
today), and Brownian increment draws with their distinct keys.  An FFT
span's self time belongs to the layer that called it.

Modules, functions and methods that a later version of the package no longer
has are skipped; their metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

# Modules whose public calls become spans, each one layer.  ``driver`` and the
# experiment loops below are left untraced: what runs there, outside every
# span, is reported as ``driver.self_s``.
LAYERS = ("grid", "dynamics", "noise", "ledger", "euler", "relative",
          "ensemble", "kernels", "snapshots", "constitutive")

# The per-member marching loops of the weak-strong and limit-sweep commands.
# They orchestrate like ``driver._run_member`` does for ``simulate``.
ORCHESTRATION = {("relative", "weak_strong_experiment"), ("sweep", "run_sweep")}

FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft")
DRAW_KINDS = {("noise", "WienerPath.increments"),
              ("noise", "NestedWiener.base_increments")}


class Tracer:
    """In-memory span log plus the wrappers that fill it."""

    def __init__(self):
        self.kinds: list[tuple[str | None, str]] = []
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.draw_keys: set = set()
        self._stack = [-1]
        self._originals: dict[int, object] = {}
        self._wrappers: dict[int, object] = {}

    def wrap(self, layer: str | None, name: str, fn, on_call=None):
        """Wrapper of ``fn`` that records a span of kind ``(layer, name)``.

        ``layer`` is None for the numpy FFTs, whose time goes to the layer of
        the calling span.  ``on_call`` sees the arguments before the span
        opens.
        """
        kid = len(self.kinds)
        self.kinds.append((layer, name))
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(kind)
            kind.append(kid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        self._originals[id(fn)] = fn
        self._wrappers[id(fn)] = span
        return span

    def _note_draw(self, args, kwargs):
        path = args[0]
        step = args[1] if len(args) > 1 else kwargs["step"]
        self.draw_keys.add((path.seed, path.member, path.modes, step))

    def install(self):
        """Wrap every public call of the traced layers, at every use site."""
        package = importlib.import_module("torusgas")
        modules = {info.name: importlib.import_module(f"torusgas.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)}
        for layer in LAYERS:
            mod = modules.get(layer)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if (layer, attr) in ORCHESTRATION or id(obj) in self._wrappers:
                        continue
                    self.wrap(layer, attr, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, obj)
        for fname in FFT_FUNCTIONS:
            setattr(np.fft, fname, self.wrap(None, f"numpy.fft.{fname}", getattr(np.fft, fname)))
        # rebind by-name imports and default arguments to the wrappers
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if self._swap(obj) is not obj:
                    setattr(mod, attr, self._swap(obj))
        for fn in self._originals.values():
            if getattr(fn, "__defaults__", None):
                fn.__defaults__ = tuple(self._swap(d) for d in fn.__defaults__)
            if getattr(fn, "__kwdefaults__", None):
                fn.__kwdefaults__ = {k: self._swap(v) for k, v in fn.__kwdefaults__.items()}

    def _swap(self, value):
        if id(value) in self._wrappers and self._originals[id(value)] is value:
            return self._wrappers[id(value)]
        return value

    def _wrap_methods(self, layer: str, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            name = f"{cls.__name__}.{attr}"
            on_call = self._note_draw if (layer, name) in DRAW_KINDS else None
            setattr(cls, attr, self.wrap(layer, name, obj, on_call))

    # -- reductions ----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: kind id, parent index, start and end in ns."""
        return (np.frombuffer(self.kind, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def save(self, path):
        kind, parent, start, end = self.arrays()
        names = np.array([f"{layer or ''}:{name}" for layer, name in self.kinds])
        np.savez(path, kind=kind, parent=parent, start=start, end=end, names=names)

    def summarize(self) -> dict:
        """Per-kind call counts, total and self time, and per-layer self time."""
        kind, parent, start, end = self.arrays()
        dur = (end - start).astype(np.float64) * 1e-9
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        self_time = dur - covered
        n_kinds = len(self.kinds)
        calls = np.bincount(kind, minlength=n_kinds)
        total = np.bincount(kind, weights=dur, minlength=n_kinds)
        own = np.bincount(kind, weights=self_time, minlength=n_kinds)
        per_kind = {name if layer is None else f"{layer}.{name}":
                    {"calls": int(calls[k]), "total_s": float(total[k]), "self_s": float(own[k])}
                    for k, (layer, name) in enumerate(self.kinds)}
        # FFT spans (no layer of their own) count toward their caller's layer;
        # one called outside every layer span stays in the driver remainder
        kind_layer = np.array([-1 if layer is None else LAYERS.index(layer)
                               for layer, _ in self.kinds], dtype=np.int64)
        span_layer = kind_layer[kind]
        caller_layer = np.where(child, span_layer[np.maximum(parent, 0)], -1)
        span_layer = np.where(span_layer < 0, caller_layer, span_layer)
        owned = span_layer >= 0
        layer_self = np.bincount(span_layer[owned], weights=self_time[owned],
                                 minlength=len(LAYERS))
        fft = [k for k, (layer, _) in enumerate(self.kinds) if layer is None]
        draws = [k for k, key in enumerate(self.kinds) if key in DRAW_KINDS]
        return {
            "spans": int(kind.size),
            "per_kind": per_kind,
            "layer_self_s": dict(zip(LAYERS, layer_self.tolist())),
            "fft_calls": int(calls[fft].sum()),
            "fft_s": float(total[fft].sum()),
            "draws": int(calls[draws].sum()),
            "distinct_draws": len(self.draw_keys),
        }
