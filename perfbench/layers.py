"""Attribute a cProfile run over octoweak to the library's layers.

The profiler is the standard library's C hook, enabled and read by the
benchmark; nothing inside octoweak changes.  Each function belongs to the
layer whose module defines it.  Time a function spends in code outside
octoweak (numpy, builtins, the standard library) is charged to the layers
that called it, split by the time each caller spent in it.  Calls are
aggregated per (caller layer, callee function); no spans are kept.
"""

from __future__ import annotations

import cProfile
from pathlib import Path

LAYERS = ("core", "grading", "lorentz", "fields", "gauge", "suites", "cli")


def code_key(fn) -> tuple[str, int, str]:
    """The key cProfile files a Python function under."""
    code = getattr(fn, "__func__", fn).__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def is_public(name: str) -> bool:
    """Public functions are unprefixed names and dunder methods."""
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


class LayerMap:
    """Maps a source file to the octoweak layer it defines, or None."""

    def __init__(self, package_dir: Path) -> None:
        self._files = {str(package_dir / f"{layer}.py"): layer for layer in LAYERS}

    def layer_of(self, filename: str) -> str | None:
        return self._files.get(filename)


class LayerProfile:
    """Self time and call counts of one profiled region, by layer."""

    def __init__(self, profiler: cProfile.Profile, layers: LayerMap) -> None:
        profiler.create_stats()
        self.stats = profiler.stats  # key -> (prim calls, calls, self, cum, callers)
        self.layers = layers
        self._shares: dict = {}

    def calls(self, *fns) -> int:
        """Total calls of the given functions."""
        return sum(self.stats[code_key(fn)][1] for fn in fns if code_key(fn) in self.stats)

    def calls_by_caller_layer(self, *fns) -> dict[str, int]:
        """Calls of the given functions, split by the layer of the caller."""
        out: dict[str, int] = {}
        for fn in fns:
            for caller, edge in self.stats.get(code_key(fn), (0, 0, 0, 0, {}))[4].items():
                layer = self.layers.layer_of(caller[0]) or "other"
                out[layer] = out.get(layer, 0) + edge[0]
        return out

    def _share(self, key) -> dict[str, float]:
        """Fractions of a function's time owed to each layer."""
        layer = self.layers.layer_of(key[0])
        if layer:
            return {layer: 1.0}
        if key in self._shares:
            return self._shares[key] or {}  # None marks a call cycle in progress
        self._shares[key] = None
        entry = self.stats.get(key)
        acc: dict[str, float] = {}
        total = 0.0
        for caller, edge in (entry[4].items() if entry else ()):
            weight = edge[3]
            total += weight
            for name, frac in self._share(caller).items():
                acc[name] = acc.get(name, 0.0) + weight * frac
        share = {k: v / total for k, v in acc.items()} if total > 0 else {"other": 1.0}
        self._shares[key] = share
        return share

    def self_seconds(self) -> dict[str, float]:
        """Each layer's own time plus the outside code it called."""
        out = {layer: 0.0 for layer in LAYERS}
        for key, (_, _, selft, _, callers) in self.stats.items():
            layer = self.layers.layer_of(key[0])
            if layer:
                out[layer] += selft
                continue
            for caller, edge in callers.items():
                for name, frac in self._share(caller).items():
                    if name in out:
                        out[name] += edge[2] * frac
        return out


def errors_by_layer(exceptions, layers: LayerMap) -> dict[str, int]:
    """Count, per layer, the exceptions that left one of its public functions.

    Read from the traceback of each exception that reached the benchmark, so
    an exception caught inside octoweak itself is not seen.
    """
    out = {layer: 0 for layer in LAYERS}
    for exc in exceptions:
        hit = set()
        tb = exc.__traceback__
        while tb is not None:
            code = tb.tb_frame.f_code
            layer = layers.layer_of(code.co_filename)
            if layer and is_public(code.co_name):
                hit.add(layer)
            tb = tb.tb_next
        for layer in hit:
            out[layer] += 1
    return out
