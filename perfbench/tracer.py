"""In-memory span tracer that wraps mixedspec's functions from outside the package.

Every wrapped call records one span: a name id, start, end, parent span and an
error flag. The wrapper replaces the module attribute everywhere the package
holds a reference to the same function object, so names that one module
imports from another (``harness.eigenvalues``, ``cli.verify_all``,
``bounds.zagreb_lower_bound``) are traced too. Nothing under ``src/`` changes.

Span names are ``<layer>.<function>``; the layer is the module the function is
defined in, except that the numeric kernels count as part of ``eig``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("graphs", "matrices", "eig", "bounds", "harness", "cli")
ROOT_SPAN = "bench.op"

# Modules whose public functions are wrapped, with the layer they count for.
_MODULES = (
    ("graphs", "graphs"),
    ("matrices", "matrices"),
    ("_kernels", "eig"),
    ("eig", "eig"),
    ("bounds", "bounds"),
    ("harness", "harness"),
    ("cli", "cli"),
)

# Private helpers that carry a layer's work and get a span of their own.
_PRIVATE = {
    "matrices": ("_expansion_quadratic_form",),
    "eig": ("_check_moments",),
    "harness": ("_catalog", "_check_bound"),
    "cli": ("_read_graph",),
}

# Methods wrapped on the class, as (module, class, method).
_METHODS = (
    ("graphs", "MixedGraph", "__post_init__"),
    ("graphs", "GraphStats", "__post_init__"),
    ("matrices", "HermitianMatrix", "__post_init__"),
    ("matrices", "HermitianMatrix", "trace"),
    ("matrices", "HermitianMatrix", "trace_of_square"),
    ("matrices", "HermitianMatrix", "frobenius_norm"),
    ("matrices", "HermitianMatrix", "max_offdiag_modulus"),
    ("bounds", "WolkowiczMoments", "from_traces"),
    ("bounds", "WolkowiczMoments", "from_stats"),
)

# Span names whose results the benchmark inspects after each op.
CAPTURED = ("matrices.a_alpha_matrix", "eig.eigenvalues", "eig.oracle_eigenvalues")


class Tracer:
    """Records spans in compact arrays; ``install`` patches the package."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.error = array("b")
        self._stack: list[int] = []
        self._attributed: list[BaseException] = []
        self.captured: list[tuple[str, tuple, object]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.error.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, exc: BaseException | None = None) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        # an exception is charged to the innermost span it passed through
        if exc is not None and not any(e is exc for e in self._attributed):
            self._attributed.append(exc)
            self.error[idx] = 1

    def wrap(self, name: str, fn):
        capture = name in CAPTURED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, exc)
                raise
            self.close(idx)
            if capture:
                self.captured.append((name, args, result))
            return result

        return traced

    def install(self, package: str = "mixedspec") -> None:
        """Wrap every traced function and method of ``package``."""
        mods = {}
        for modname, _ in _MODULES:
            try:
                mods[modname] = importlib.import_module(f"{package}.{modname}")
            except ImportError:
                continue  # a later version of the package may drop a module
        everywhere = [importlib.import_module(package), *mods.values()]

        for modname, layer in _MODULES:
            mod = mods.get(modname)
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                public = not attr.startswith("_") or attr in _PRIVATE.get(layer, ())
                if not (public and _is_own_function(fn, mod)):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for holder in everywhere:
                    for alias, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, alias, wrapped)

        for modname, clsname, meth in _METHODS:
            cls = getattr(mods.get(modname), clsname, None)
            raw = None if cls is None else cls.__dict__.get(meth)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(f"{modname}.{clsname}.{meth}", raw.__func__))
            else:
                wrapped = self.wrap(f"{modname}.{clsname}.{meth}", raw)
            self._patch(cls, meth, wrapped)

    def _patch(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._undo):
            setattr(holder, attr, value)
        self._undo.clear()

    def save(self, path) -> None:
        """Write all spans as one .npz file (names table plus span arrays)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            error=np.frombuffer(self.error, dtype=np.int8),
        )


def _is_own_function(fn, mod) -> bool:
    # numba dispatchers are not plain functions; accept them by their py_func
    target = getattr(fn, "py_func", fn)
    return inspect.isfunction(target) and target.__module__ == mod.__name__


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanTable:
    """Read-only numpy view of a tracer's spans with derived self times."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.start = np.frombuffer(tracer.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tracer.end, dtype=np.float64).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.error = np.frombuffer(tracer.error, dtype=np.int8).copy()
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_time = self.dur - child_time
        self.layer = np.array([layer_of(n) for n in self.names], dtype=object)[self.name_id]

    def mask(self, names) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.name_id, ids)

    def layer_mask(self, layer: str) -> np.ndarray:
        return self.layer == layer

    def outermost(self, mask: np.ndarray) -> np.ndarray:
        """Spans in ``mask`` with no ancestor in ``mask`` (their time is not double counted)."""
        inside = np.zeros(len(mask), dtype=bool)  # some ancestor is in the mask
        ancestor = self.parent.copy()
        live = ancestor >= 0
        while live.any():
            inside[live] |= mask[ancestor[live]]
            ancestor[live] = self.parent[ancestor[live]]
            live = ancestor >= 0
        return mask & ~inside
