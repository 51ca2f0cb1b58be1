"""Unified resource governors for the F, T, and FT machines.

A :class:`Budget` bundles the three ceilings a run may not cross:

* **fuel** -- small steps, the paper's divergence bound.  Shared across
  both languages and all boundary-nesting levels, exactly like the FT
  machine's old single fuel counter;
* **heap** -- allocated heap cells (tuple words + code blocks).  Charged
  by :class:`repro.tal.heap.Memory` on every ``alloc``/``bind_all``, so a
  program that allocates without bound degrades into a structured
  :class:`~repro.errors.HeapExhausted` instead of eating the host's RAM;
* **depth** -- evaluation-context frames on the F side and machine-stack
  slots on the T side.  Deep contexts trip
  :class:`~repro.errors.StackDepthExhausted` before they can threaten the
  host interpreter.

Budgets replace the three ad-hoc ``fuel`` parameters that used to live in
``f/eval.py`` (100_000), ``tal/machine.py`` (1_000_000) and
``ft/machine.py`` (1_000_000); :data:`DEFAULT_FUEL` is now the single
source of truth.  A budget is picklable, so it rides along in machine
checkpoints (:mod:`repro.resilience.checkpoint`) and resumes with its
spend intact; :meth:`Budget.refill` tops the fuel up for the next slice.

Soft limits: when any dimension crosses ``soft_ratio`` of its ceiling the
budget emits one ``resilience.soft_limit.<resource>`` counter increment
via :mod:`repro.obs` (per budget, per resource), so operators see "about
to be killed" before the kill.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import (
    FuelExhausted, HeapExhausted, ResourceExhausted, StackDepthExhausted,
)
from repro.obs.events import OBS

__all__ = [
    "DEFAULT_FUEL", "DEFAULT_HEAP", "DEFAULT_DEPTH", "DEFAULT_BUDGET",
    "Budget",
]

#: The single fuel default shared by every machine (F, T, FT), the serve
#: executor, and the CLI.  (F used to default to 100_000 while T/FT used
#: 1_000_000; jobs moving between entry points kept changing verdicts.)
DEFAULT_FUEL = 1_000_000

#: Heap-cell ceiling: tuple words + code blocks allocated during one run.
DEFAULT_HEAP = 1_000_000

#: Depth ceiling: F evaluation-context frames / T stack slots.  Both are
#: bounded above by the fuel actually spent (every frame push and stack
#: push costs a step), so the default matches DEFAULT_FUEL and fuel trips
#: first unless a caller asks for a tighter ceiling.
DEFAULT_DEPTH = 1_000_000


class Budget:
    """Fuel + heap + depth governor with soft-limit warnings.

    The fuel check is the machines' per-step hot path, so it is two int
    ops; the heap and depth checks sit on allocation and frame growth,
    which are orders of magnitude rarer.
    """

    __slots__ = ("max_fuel", "max_heap", "max_depth",
                 "fuel_used", "heap_used", "depth_high_water",
                 "soft_ratio", "_soft_warned")

    def __init__(self, fuel: Optional[int] = None,
                 heap: Optional[int] = None,
                 depth: Optional[int] = None,
                 soft_ratio: float = 0.8):
        self.max_fuel = DEFAULT_FUEL if fuel is None else fuel
        self.max_heap = DEFAULT_HEAP if heap is None else heap
        self.max_depth = DEFAULT_DEPTH if depth is None else depth
        self.fuel_used = 0
        self.heap_used = 0
        self.depth_high_water = 0
        self.soft_ratio = soft_ratio
        self._soft_warned: set = set()

    # -- construction helpers -------------------------------------------

    @classmethod
    def of(cls, fuel: Optional[int] = None, heap: Optional[int] = None,
           depth: Optional[int] = None,
           budget: Optional["Budget"] = None) -> "Budget":
        """The budget to run under: an explicit ``budget`` wins, else a
        fresh one from the given ceilings (``None`` -> defaults)."""
        if budget is not None:
            return budget
        return cls(fuel=fuel, heap=heap, depth=depth)

    def clone_limits(self) -> "Budget":
        """A fresh, unspent budget with the same ceilings."""
        return Budget(self.max_fuel, self.max_heap, self.max_depth,
                      self.soft_ratio)

    # -- the governors ---------------------------------------------------

    def consume_fuel(self, n: int = 1) -> None:
        used = self.fuel_used + n
        self.fuel_used = used
        if used > self.max_fuel:
            self._exhaust("fuel")
            raise FuelExhausted(self.max_fuel, used)
        if used >= self.max_fuel * self.soft_ratio:
            self._soft_warn("fuel", used)

    def charge_heap(self, cells: int = 1) -> None:
        used = self.heap_used + cells
        self.heap_used = used
        if used > self.max_heap:
            self._exhaust("heap")
            raise HeapExhausted(self.max_heap, used)
        if used >= self.max_heap * self.soft_ratio:
            self._soft_warn("heap", used)

    def charge_heap_all(self, sizes: Tuple[int, ...], total: int) -> None:
        """Charge a run of allocations of ``sizes`` cells each (summing
        to ``total``) in one step, with the ``heap_used``, the
        :class:`HeapExhausted` point and the soft warning of charging
        them one at a time: a run that stays under the ceiling and
        crosses no unwarned soft threshold adds ``total``; one that
        does is charged allocation by allocation, so it trips and
        warns at the same allocation."""
        used = self.heap_used + total
        if used <= self.max_heap and (
                used < self.max_heap * self.soft_ratio
                or "heap" in self._soft_warned):
            self.heap_used = used
            return
        for cells in sizes:
            self.charge_heap(cells)

    def check_depth(self, depth: int) -> None:
        if depth > self.depth_high_water:
            self.depth_high_water = depth
        if depth > self.max_depth:
            self._exhaust("depth")
            raise StackDepthExhausted(self.max_depth, depth)
        if depth >= self.max_depth * self.soft_ratio:
            self._soft_warn("depth", depth)

    def depth_error(self, depth: Optional[int] = None) -> StackDepthExhausted:
        """The structured verdict for a Python-level recursion blowout
        (the governor did not get a chance to trip first)."""
        self._exhaust("depth")
        return StackDepthExhausted(
            self.max_depth, depth if depth is not None else self.max_depth,
            "evaluation exceeded the host interpreter's recursion depth "
            f"(depth ceiling {self.max_depth})")

    # -- accounting ------------------------------------------------------

    @property
    def fuel_remaining(self) -> int:
        return max(0, self.max_fuel - self.fuel_used)

    @property
    def heap_remaining(self) -> int:
        return max(0, self.max_heap - self.heap_used)

    def refill(self, fuel: Optional[int] = None) -> "Budget":
        """Top the fuel back up for the next slice of a resumed run:
        the spend resets to zero and, if ``fuel`` is given, the ceiling
        is replaced.  Heap charges persist (the heap itself persists)."""
        if fuel is not None:
            self.max_fuel = fuel
        self.fuel_used = 0
        self._soft_warned.discard("fuel")
        return self

    def spent(self) -> Dict[str, int]:
        """JSON-ready accounting snapshot."""
        return {
            "fuel_used": self.fuel_used, "fuel_max": self.max_fuel,
            "heap_used": self.heap_used, "heap_max": self.max_heap,
            "depth_high_water": self.depth_high_water,
            "depth_max": self.max_depth,
        }

    # -- instrumentation -------------------------------------------------

    def _soft_warn(self, resource: str, used: int) -> None:
        if resource in self._soft_warned:
            return
        self._soft_warned.add(resource)
        if OBS.enabled:
            OBS.metrics.inc(f"resilience.soft_limit.{resource}")
            OBS.gauge(f"resilience.budget.{resource}_used", used)

    def _exhaust(self, resource: str) -> None:
        if OBS.enabled:
            OBS.metrics.inc(f"resilience.exhausted.{resource}")

    # -- pickling (the obs registry must not ride along) -----------------

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:
        return (f"Budget(fuel {self.fuel_used}/{self.max_fuel}, "
                f"heap {self.heap_used}/{self.max_heap}, "
                f"depth {self.depth_high_water}/{self.max_depth})")


#: The library-wide default ceilings.  Treat as immutable: call
#: ``DEFAULT_BUDGET.clone_limits()`` (or just ``Budget()``) for a run.
DEFAULT_BUDGET = Budget()
