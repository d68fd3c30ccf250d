"""
Outside-in layer trace of qpieri.

The tracer wraps public functions of the package's modules without editing
them.  Every binding of a traced function in any loaded qpieri module is
replaced by the same wrapper, so calls through the re-exports in
`qpieri/__init__` and through `from`-imports (`cli`, `verify`, `classical`,
`proofkit.universe`, ...) are recorded as well.  Wrappers of cached
functions keep `cache_info` and `cache_clear`.

Spans are aggregated in memory per name: calls, self time (the span's
duration minus the time spent in traced callees) and, for enumerators,
items returned.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# module (under qpieri) -> traced attributes; "Class.method" for methods
TRACED = {
    "permutations": ("Permutation.apply", "Permutation.from_one_line"),
    "qbg": ("edge_kind", "edge_kind_by_length", "DirectedPath.extend", "q_weight", "validate_path"),
    "chains": (
        "enumerate_pieri_chains", "pieri_violation", "forced_marks",
        "enumerate_markings", "marking_count", "is_marking", "enumerate_monk_chains",
    ),
    "expansion": (
        "pieri_expand", "monk_lhs_expand", "expand_product_chain",
        "Expansion.add_term", "Expansion.map_basis", "Expansion.render", "Expansion.to_json",
    ),
    "render": ("chains_table",),
    "cli": ("main",),
    "classical": ("grothendieck_poly", "verify_pieri_at_q0", "verify_monk_at_q0", "verify_recurrence_at_q0"),
    "proofkit.universe": ("enumerate_marked", "enumerate_paired"),
    "proofkit.surgery": ("insert", "delete"),
    "proofkit.scanners": ("all_scans",),
    "verify": ("run_suite", "enumerate_surgery_paths", "check_bijections_grid"),
}
# modules traced as one span name: every public function defined there
AGGREGATED = ("proofkit.classify", "proofkit.bijections", "proofkit.identities")
# enumerators whose result length is counted as items
ITEMS = (
    "chains.enumerate_pieri_chains", "chains.enumerate_markings", "chains.enumerate_monk_chains",
    "proofkit.universe.enumerate_marked", "proofkit.universe.enumerate_paired",
)
# layers whose self time is also reported summed over their traced functions
SUMMED = ("qbg", "chains", "expansion", "verify")
# cached functions whose cache_info is reported
CACHES = (
    "expansion.pieri_expand", "expansion.monk_lhs_expand",
    "classical.grothendieck_poly", "proofkit.universe.enumerate_paired",
)


def _resolve(module, attr: str):
    """(owner, name, original) for 'func' or 'Class.method' in module."""
    if "." in attr:
        cls_name, name = attr.split(".")
        owner = getattr(module, cls_name)
        return owner, name, owner.__dict__[name]
    return module, attr, getattr(module, attr)


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, self_s, items returned, calls that returned items]
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0, 0])
        stack = self._stack
        clock = time.perf_counter
        count_items = name in ITEMS

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stats[0] += 1
                stats[1] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if count_items:
                stats[2] += len(result)
                stats[3] += bool(result)
            return result

        traced.__wrapped__ = fn
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _rebind(self, original, wrapper) -> None:
        """Replace every module-level binding of `original` in qpieri."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qpieri" and not mod_name.startswith("qpieri."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def start(self) -> None:
        originals = []
        for mod_name, attrs in TRACED.items():
            module = importlib.import_module(f"qpieri.{mod_name}")
            for attr in attrs:
                owner, name, original = _resolve(module, attr)
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrap(f"{mod_name}.{attr}", original.__func__))
                else:
                    wrapper = self._wrap(f"{mod_name}.{attr}", original)
                originals.append(original)
                if inspect.isclass(owner):
                    self._undo.append((owner, name, original))
                    setattr(owner, name, wrapper)
                else:
                    self._rebind(original, wrapper)
        for mod_name in AGGREGATED:
            module = importlib.import_module(f"qpieri.{mod_name}")
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_"):
                    originals.append(value)
                    self._rebind(value, self._wrap(mod_name, value))
        leftover = [
            f"{mod_name}.{attr}"
            for mod_name, mod in sys.modules.items()
            if mod_name == "qpieri" or mod_name.startswith("qpieri.")
            for attr, value in vars(mod).items()
            if any(value is o for o in originals)
        ]
        if leftover:
            raise RuntimeError(f"untraced bindings remain: {leftover}")

    def stop(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """<name>.calls/.self_s/.items, summed self times and chains.useful_ratio."""
        out: dict[str, float] = {}
        for name, (calls, self_s, items, _nonempty) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if name in ITEMS:
                out[f"{name}.items"] = items
        for module in SUMMED:
            out[f"{module}.self_s"] = sum(self.stats[f"{module}.{attr}"][1] for attr in TRACED[module])
        calls, _self_s, _items, nonempty = self.stats["chains.enumerate_markings"]
        out["chains.useful_ratio"] = nonempty / calls if calls else 0.0
        return out


def cache_counts() -> dict[str, int]:
    """hits, misses and currsize of the package's public caches."""
    out = {}
    for name in CACHES:
        mod_name, attr = name.rsplit(".", 1)
        info = getattr(importlib.import_module(f"qpieri.{mod_name}"), attr).cache_info()
        out[f"{name}.hits"] = info.hits
        out[f"{name}.misses"] = info.misses
        out[f"{name}.currsize"] = info.currsize
    return out
