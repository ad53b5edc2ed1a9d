"""Per-layer timing of debias_lab, recorded from outside the package.

The layers are the package's modules.  ``LayerTracer.install`` wraps every
public module-level function of each layer, plus the ``member`` method of
every alternative-family class, and rebinds the wrapper at *every* name the
original is bound to: ``sample`` is imported by name into ``harness``,
``bounds`` and ``cli``, so patching ``grid.sample`` alone would miss most of
its calls.  ``uninstall`` restores the originals, so untraced passes run the
unmodified code.

Each wrapped call records its wall time and its self time (wall time minus
the wall time of wrapped calls made inside it).  A few layers also count the
work a call was given, computed from its inputs or its result.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from typing import Callable

PACKAGE = "debias_lab"
LAYERS = ("grid", "estimands", "estimators", "partition", "adversary",
          "bounds", "harness", "presets", "cli")

# (counts, args, kwargs, result) -> None; adds the work a call was given
CountHook = Callable[[dict, tuple, dict, object], None]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_sample(counts: dict, args: tuple, kwargs: dict, result) -> None:
    counts["grid.sample.rows"] += int(_arg(args, kwargs, 1, "n"))
    counts["grid.sample.atoms"] += _arg(args, kwargs, 0, "p").space.n_atoms


def _count_scored(counts: dict, args: tuple, kwargs: dict, result) -> None:
    counts["estimators.rows_scored"] += _arg(args, kwargs, 0, "data").n


def _count_split_cells(counts: dict, args: tuple, kwargs: dict, result) -> None:
    if result is not None:
        mem = result.membership
        counts["partition.split_cells"] += int(
            ((mem > 1e-12) & (mem < 1.0 - 1e-12)).any(axis=0).sum())


def _count_tuples(counts: dict, args: tuple, kwargs: dict, result) -> None:
    inst = _arg(args, kwargs, 0, "instance")
    counts["bounds.tuples_enumerated"] += (
        2 ** inst.family.m_pairs * inst.anchor.space.n_atoms ** inst.n)


COUNTERS: dict[str, CountHook] = {
    "grid.sample": _count_sample,
    "estimators.dml_estimate": _count_scored,
    "estimators.dr_ate_estimate": _count_scored,
    "estimators.plugin_estimate": _count_scored,
    "partition.iterated_partition": _count_split_cells,
    "bounds.product_mixture_hellinger": _count_tuples,
    "bounds.optimal_test_error": _count_tuples,
}
COUNT_NAMES = ("grid.sample.rows", "grid.sample.atoms", "estimators.rows_scored",
               "partition.split_cells", "bounds.tuples_enumerated")


class LayerTracer:
    """Wraps the layers' public functions and aggregates their spans.

    ``stats[name]`` is ``[calls, s, self_s, failed]``.  ``target`` names the
    functions (``"grid.sample"``) or whole layers (``"partition"``) whose
    outermost spans are summed into ``target_s``; nested target calls are
    not counted twice.
    """

    def __init__(self, target: tuple[str, ...] = ()):
        self.target = frozenset(target)
        self._originals = self._discover()
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self._target_depth = 0
        self.site_counts: dict[str, int] = {}
        self.reset()

    @staticmethod
    def _discover() -> dict[int, tuple[str, Callable]]:
        found: dict[int, tuple[str, Callable]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    found[id(obj)] = (f"{layer}.{attr}", obj)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    method = vars(obj).get("member")
                    if isinstance(method, types.FunctionType):
                        found[id(method)] = (f"{layer}.member", method)
        return found

    def reset(self) -> None:
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0, 0]
                                       for name, _ in self._originals.values()}
        self.counts: dict[str, int] = {name: 0 for name in COUNT_NAMES}
        self.target_s = 0.0

    # -- patching ---------------------------------------------------------------
    @staticmethod
    def _binding_owners() -> list[object]:
        owners: list[object] = []
        for name, mod in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                owners.append(mod)
                owners.extend(obj for obj in vars(mod).values()
                              if isinstance(obj, type)
                              and obj.__module__ == mod.__name__)
        return owners

    def install(self) -> None:
        """Rebind every name bound to a wrapped function to its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {key: self._wrap(name, fn)
                    for key, (name, fn) in self._originals.items()}
        self.site_counts = {}
        for owner in self._binding_owners():
            for attr, obj in list(vars(owner).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and obj is self._originals[id(obj)][1]:
                    setattr(owner, attr, wrapper)
                    self._patches.append((owner, attr, obj))
                    name = self._originals[id(obj)][0]
                    self.site_counts[name] = self.site_counts.get(name, 0) + 1

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans ------------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        is_target = name in self.target or name.split(".")[0] in self.target
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost_target = is_target and self._target_depth == 0
            if is_target:
                self._target_depth += 1
            stack.append(0.0)
            result = None
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                if is_target:
                    self._target_depth -= 1
                    if outermost_target:
                        self.target_s += elapsed
                entry = self.stats[name]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child
                if failed:
                    entry[3] += 1
                elif counter is not None:
                    counter(self.counts, args, kwargs, result)

        return wrapper

    def layer_self_s(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, entry in self.stats.items():
            totals[name.split(".")[0]] += entry[2]
        return totals
