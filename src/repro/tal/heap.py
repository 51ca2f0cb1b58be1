"""Runtime memories ``M = (H, R, S)`` for the T abstract machine (Fig 1).

A :class:`Memory` owns

* a heap ``H`` mapping locations to cells, each cell carrying its
  mutability flag ``nu`` (``ref`` cells may be stored to with ``st``;
  ``box`` cells -- including all code -- are immutable);
* a register file ``R`` mapping register names to word values;
* a stack ``S``, a list of word values with index 0 the *top*.

Unlike the AST, memories are mutable: instructions update them in place.
:meth:`Memory.snapshot` produces the cheap immutable views used by trace
events and by the equivalence checker's observation comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import MachineError
from repro.resilience.budget import Budget
from repro.resilience.chaos import probe
from repro.tal.syntax import (
    BOX, check_register, HCode, HeapValue, HTuple, Loc, REF, WordValue,
    WUnit, fresh_loc,
)

__all__ = ["HeapCell", "Memory", "RegSnapshot", "StackSnapshot"]

RegSnapshot = Tuple[Tuple[str, WordValue], ...]
StackSnapshot = Tuple[WordValue, ...]


@dataclass
class HeapCell:
    """One heap binding: a value plus its mutability ``nu``."""

    nu: str
    value: HeapValue

    def __post_init__(self) -> None:
        if self.nu not in (REF, BOX):
            raise ValueError(f"unknown mutability {self.nu!r}")


class Memory:
    """A mutable runtime memory ``(H, R, S)``.

    A memory may carry a :class:`~repro.resilience.budget.Budget`
    governor: every cell committed through :meth:`alloc`/:meth:`bind_all`
    is then charged against the budget's heap-cell ceiling (tuples cost
    one cell per word, code and other values one cell), and stack growth
    is checked against its depth ceiling -- so runaway allocation
    degrades into a structured verdict instead of exhausting host RAM.
    """

    def __init__(self, budget: Optional[Budget] = None) -> None:
        self.heap: Dict[Loc, HeapCell] = {}
        self.regs: Dict[str, WordValue] = {}
        self.stack: List[WordValue] = []
        self.budget = budget

    # -- heap ---------------------------------------------------------

    @staticmethod
    def _cells(value: HeapValue) -> int:
        return len(value.words) if isinstance(value, HTuple) else 1

    def alloc(self, value: HeapValue, nu: str, base: str = "l") -> Loc:
        probe("heap.alloc", base)
        if self.budget is not None:
            self.budget.charge_heap(self._cells(value))
        loc = fresh_loc(base)
        self.heap[loc] = HeapCell(nu, value)
        return loc

    def bind_all(self, cells: Dict[Loc, HeapCell], sizes: Tuple[int, ...],
                 total: int) -> None:
        """Bind prebuilt ``box`` cells under their labels in one step:
        one already-bound check (over the smaller of the two key sets),
        one chaos probe, one budget charge (``sizes`` are the cells'
        charges, summing to ``total``; see
        :meth:`Budget.charge_heap_all`) and one dict update.

        The cells themselves are shared, not copied: only
        :meth:`store_field` mutates a cell, and it refuses ``box``
        ones, so any number of memories may bind the same map."""
        heap = self.heap
        if not heap.keys().isdisjoint(cells.keys()):
            loc = next(loc for loc in cells if loc in heap)
            raise MachineError(f"heap location {loc} already bound")
        probe("heap.alloc", lambda: ", ".join(loc.name for loc in cells))
        if self.budget is not None:
            self.budget.charge_heap_all(sizes, total)
        heap.update(cells)

    def lookup(self, loc: Loc) -> HeapCell:
        cell = self.heap.get(loc)
        if cell is None:
            raise MachineError(f"dangling heap location {loc}")
        return cell

    def code_at(self, loc: Loc) -> HCode:
        cell = self.lookup(loc)
        if not isinstance(cell.value, HCode):
            raise MachineError(f"jump to non-code heap value at {loc}")
        return cell.value

    def tuple_at(self, loc: Loc) -> HTuple:
        cell = self.lookup(loc)
        if not isinstance(cell.value, HTuple):
            raise MachineError(f"tuple access to non-tuple at {loc}")
        return cell.value

    def store_field(self, loc: Loc, index: int, w: WordValue) -> None:
        cell = self.lookup(loc)
        if cell.nu != REF:
            raise MachineError(f"store to immutable location {loc}")
        if not isinstance(cell.value, HTuple):
            raise MachineError(f"store to non-tuple at {loc}")
        words = list(cell.value.words)
        if not 0 <= index < len(words):
            raise MachineError(
                f"store index {index} out of range at {loc}")
        words[index] = w
        cell.value = HTuple(tuple(words))

    # -- registers ----------------------------------------------------

    def get_reg(self, r: str) -> WordValue:
        check_register(r)
        if r not in self.regs:
            raise MachineError(f"read of unset register {r}")
        return self.regs[r]

    def set_reg(self, r: str, w: WordValue) -> None:
        check_register(r)
        self.regs[r] = w

    # -- stack --------------------------------------------------------

    def push(self, *words: WordValue) -> None:
        """Push words; the first argument ends up on top."""
        self.stack[:0] = list(words)
        if self.budget is not None:
            self.budget.check_depth(len(self.stack))

    def pop(self, n: int) -> List[WordValue]:
        if n > len(self.stack):
            raise MachineError(
                f"stack underflow: pop {n} from depth {len(self.stack)}")
        popped = self.stack[:n]
        del self.stack[:n]
        return popped

    def peek(self, i: int) -> WordValue:
        if not 0 <= i < len(self.stack):
            raise MachineError(
                f"stack read at slot {i}, depth {len(self.stack)}")
        return self.stack[i]

    def poke(self, i: int, w: WordValue) -> None:
        if not 0 <= i < len(self.stack):
            raise MachineError(
                f"stack write at slot {i}, depth {len(self.stack)}")
        self.stack[i] = w

    @property
    def depth(self) -> int:
        return len(self.stack)

    # -- observation --------------------------------------------------

    def snapshot_regs(self) -> RegSnapshot:
        return tuple(sorted(self.regs.items()))

    def snapshot_stack(self) -> StackSnapshot:
        return tuple(self.stack)

    def __str__(self) -> str:
        heap = ", ".join(
            f"{loc}: {cell.nu}" for loc, cell in sorted(
                self.heap.items(), key=lambda kv: kv[0].name))
        regs = ", ".join(f"{r} -> {w}" for r, w in sorted(self.regs.items()))
        stack = " :: ".join(str(w) for w in self.stack) or "nil"
        return f"heap {{{heap}}}; regs {{{regs}}}; stack [{stack}]"
