"""Span tracing of the gsis layers, installed from outside the package.

A :class:`Tracer` wraps the public entry points of every gsis module
(its ``__all__`` functions, plus the methods listed in ``METHODS``) and
rebinds every name in the package that refers to one of them, so calls
made through ``from .sampling import reconstruct_krylov``-style imports in
``gsis.cli``, ``gsis.experiments`` and ``gsis.sampling`` are traced too.
Nothing under ``src/`` changes; leaving the ``with`` block restores every
original binding.

Each call records one span (name, start, end, parent) in memory.  Counts
that depend on what a call did are taken from its return value:
``try_add`` statuses, ``ReconstructionResult.depth``, and the sizes of the
files whose paths the ``io.save_*`` writers return.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = (
    "graphs",
    "spectral",
    "orthogonalize",
    "spaces",
    "sampling",
    "kernels",
    "experiments",
    "io",
    "cli",
)

# Class entry points: the chain's orthogonalization steps, and the graph
# types whose constructors validate dense (N, N) edge masks.
METHODS = {
    "orthogonalize": {"OrthogonalBasis": ("try_add", "expansion_coefficients", "evaluate")},
    "graphs": {"Graph": ("__init__",), "ShiftMatrix": ("__init__",), "ShiftSet": ("__init__",)},
}

TRY_ADD = "orthogonalize.OrthogonalBasis.try_add"
KRYLOV = "sampling.reconstruct_krylov"


def _observe_try_add(counts, outer, args, kwargs, status):
    counts[f"orthogonalize.{status}"] += 1


def _observe_krylov(counts, outer, args, kwargs, result):
    generators = args[1] if len(args) > 1 else kwargs["generators"]
    counts["sampling.levels"] += result.depth
    counts["sampling.generators"] += len(generators)


def _observe_save(counts, outer, args, kwargs, result):
    if not outer:
        return  # a writer called by another writer: its files are counted once, by the outer one
    paths = [result] if isinstance(result, Path) else list(result)
    counts["io.files_written"] += len(paths)
    counts["io.bytes_written"] += sum(os.path.getsize(p) for p in paths)


def _observer(layer: str, name: str):
    full = f"{layer}.{name}"
    if full == TRY_ADD:
        return _observe_try_add
    if full == KRYLOV:
        return _observe_krylov
    if layer == "io" and name.startswith("save_"):
        return _observe_save
    return None


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """In-memory span recorder; ``with tracer:`` traces the calls inside the block."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.outer: list[bool] = []  # no enclosing span of the same layer
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        nid = self._name_ids.setdefault(full, len(self.names))
        if nid == len(self.names):
            self.names.append(full)
        observe = _observer(layer, name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        outer_flags, stack, depth, counts = self.outer, self._stack, self._depth, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer = depth[layer] == 0
            outer_flags.append(outer)
            end.append(0.0)
            depth[layer] += 1
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                depth[layer] -= 1
            if observe is not None:
                observe(counts, outer, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        import gsis

        modules = {layer: importlib.import_module(f"gsis.{layer}") for layer in LAYERS}
        namespaces = [gsis, *modules.values()]
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                wrapped = self._wrap(layer, name, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, attr, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    self._patch(cls, method, self._wrap(layer, f"{cls_name}.{method}", cls.__dict__[method]))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        """Spans ``lo:hi`` as arrays; parents are re-indexed into the slice (-1: none)."""
        hi = len(self) if hi is None else hi
        parent = np.asarray(self.parent[lo:hi], dtype=np.int64)
        parent = np.where(parent >= lo, parent - lo, -1)
        start = np.asarray(self.start[lo:hi])
        end = np.asarray(self.end[lo:hi])
        dur = end - start
        inside = parent >= 0
        covered = np.bincount(parent[inside], weights=dur[inside], minlength=len(dur))
        return {
            "name_id": np.asarray(self.name_id[lo:hi], dtype=np.int64),
            "parent": parent,
            "start": start,
            "end": end,
            "outer": np.asarray(self.outer[lo:hi], dtype=bool),
            "self": dur - covered,
        }

    def save(self, path: Path) -> None:
        """Write every recorded span to ``path`` (``.npz``)."""
        spans = self.arrays()
        np.savez(path, names=np.array(self.names), **spans)

    def _frame(self, lo: int, hi: int | None):
        s = self.arrays(lo, hi)
        s["dur"] = s["end"] - s["start"]
        s["name"] = np.array(self.names, dtype=object)[s["name_id"]]
        s["layer"] = np.array([n.split(".", 1)[0] for n in s["name"]], dtype=object)
        return s

    def layer_metrics(self, lo: int, hi: int, counts: Counter) -> dict[str, float]:
        """Per-layer metrics of the spans ``lo:hi`` and the counts taken while they ran."""
        s = self._frame(lo, hi)
        name, layer, dur, outer = s["name"], s["layer"], s["dur"], s["outer"]

        def calls(full_name) -> int:
            return int(np.count_nonzero(name == full_name))

        def busy(layer_name) -> float:
            return float(dur[(layer == layer_name) & outer].sum())

        try_adds = calls(TRY_ADD)
        is_krylov = name == KRYLOV
        has_parent = s["parent"] >= 0
        under_krylov = np.zeros(len(dur), dtype=bool)
        under_krylov[has_parent] = is_krylov[s["parent"][has_parent]]
        chain_try_adds = int(np.count_nonzero(under_krylov & (name == TRY_ADD)))
        return {
            "orthogonalize.try_add_calls": try_adds,
            "orthogonalize.busy_s": busy("orthogonalize"),
            "orthogonalize.added_ratio": counts["orthogonalize.added"] / try_adds if try_adds else 0.0,
            "orthogonalize.dependent": counts["orthogonalize.dependent"],
            "orthogonalize.invisible": counts["orthogonalize.invisible"],
            "sampling.krylov_calls": calls(KRYLOV),
            "sampling.krylov_self_s": float(s["self"][is_krylov].sum()),
            "sampling.shift_applies": chain_try_adds - counts["sampling.generators"],
            "sampling.levels": counts["sampling.levels"],
            "sampling.direct_s": float(dur[name == "sampling.reconstruct_direct"].sum()),
            "graphs.calls": int(np.count_nonzero((layer == "graphs") & outer)),
            "graphs.busy_s": busy("graphs"),
            "spectral.diag_calls": calls("spectral.diagonalize_simultaneously"),
            "spectral.diag_s": float(dur[name == "spectral.diagonalize_simultaneously"].sum()),
            "io.busy_s": busy("io"),
            "io.bytes_written": counts["io.bytes_written"],
            "io.files_written": counts["io.files_written"],
            "experiments.self_s": float(s["self"][layer == "experiments"].sum()),
            "spaces.busy_s": busy("spaces"),
            "kernels.busy_s": busy("kernels"),
            "cli.self_s": float(s["self"][layer == "cli"].sum()),
        }

    def layer_table(self, lo: int = 0, hi: int | None = None) -> dict[str, dict[str, float]]:
        """Calls into each layer, its busy (inclusive) time and its self time."""
        s = self._frame(lo, hi)
        table = {}
        for layer in LAYERS:
            mask = s["layer"] == layer
            outer = mask & s["outer"]
            table[layer] = {
                "calls": int(np.count_nonzero(outer)),
                "busy_s": float(s["dur"][outer].sum()),
                "self_s": float(s["self"][mask].sum()),
            }
        return table
