"""Abstract syntax of T, FunTAL's compositional typed assembly (paper Fig 1).

T is a stack-based typed assembly language in the style of STAL
(Morrisett et al. 2002) extended with the paper's central novelty: *return
markers* ``q`` on code-pointer types, which record where the current return
continuation lives, and a notion of multi-block *component* ``(I, H)``.

Syntactic categories reproduced here::

    value type       tau ::= alpha | unit | int | exists a.tau | mu a.tau
                           | ref <tau...> | box psi
    word value       w   ::= () | n | loc | pack<tau,w> as t | fold[t] w | w[omega]
    register         r   ::= r1..r7 | ra
    small value      u   ::= w | r | pack<tau,u> as t | fold[t] u | u[omega]
    instantiation    omega ::= tau | sigma | q
    heap value type  psi ::= forall[Delta].{chi; sigma} q | <tau...>
    heap value       h   ::= code[Delta]{chi; sigma} q. I | <w...>
    register typing  chi ::= . | chi, r: tau
    stack typing     sigma ::= zeta | nil | tau :: sigma
    return marker    q ::= r | i | eps | end{tau; sigma}     (FT adds: out)
    type env         Delta ::= . | Delta, a | Delta, zeta | Delta, eps
    heap typing      Psi ::= . | Psi, loc : nu psi      nu ::= ref | box
    instr seq        I ::= iota; I | jmp u | call u {sigma, q}
                         | ret r {r'} | halt tau, sigma {r}
    component        e ::= (I, H)

All nodes are immutable dataclasses with structural equality; *semantic*
type equality is alpha-equivalence, implemented in
:mod:`repro.tal.equality`.  Capture-avoiding substitution of ``omega`` for
type variables is in :mod:`repro.tal.subst`.

The two FT-only instructions (``import`` and ``protect``, paper Fig 6)
subclass :class:`Instruction` in :mod:`repro.ft.syntax`.  Which fields of
each term class are sub-terms, types, binders and labels is written down
once, for these classes and FT's alike, in :data:`repro.walk.GRAMMAR`;
the traversals over terms (substitution, free type variables, label
renaming, erasure) are folds over it.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from repro import walk
from repro.caching import InternTable, PicklableSlots, intern_singleton

__all__ = [
    # registers & locations
    "REGISTERS", "GP_REGISTERS", "RA", "check_register", "Loc", "fresh_loc",
    "fresh_mark", "advance_fresh",
    # types
    "TypeMemo", "TalType", "TVar", "TUnit", "TInt", "TExists", "TRec",
    "TRef", "TBox", "intern_ty",
    "HeapValType", "CodeType", "TupleTy",
    # stack types, register typings, return markers, type envs, heap typings
    "StackTy", "NIL_STACK", "RegFileTy", "RetMarker", "QReg", "QIdx", "QEps",
    "QEnd", "QOut", "DeltaBind", "Delta", "delta_contains", "delta_names",
    "HeapTyMemo", "HeapTy",
    # word/small values
    "WordValue", "Operand", "WUnit", "WInt", "WLoc", "Pack",
    "Fold", "TyApp", "RegOp", "is_word_value",
    # instructions
    "Instruction", "Aop", "Bnz", "Ld", "St", "Ralloc", "Balloc", "Mv",
    "Salloc", "Sfree", "Sld", "Sst", "Unpack", "UnfoldI",
    "Terminator", "Jmp", "Call", "Ret", "Halt",
    "InstrSeq", "HeapValue", "HCode", "HTuple", "LoadMemo", "Component",
    "seq",
    "AOPS", "AOP_NAMES",
]

# ---------------------------------------------------------------------------
# Registers and locations
# ---------------------------------------------------------------------------

GP_REGISTERS: Tuple[str, ...] = tuple(f"r{i}" for i in range(1, 8))
RA = "ra"
REGISTERS: Tuple[str, ...] = GP_REGISTERS + (RA,)

#: What each ``aop`` computes on the integers; both T engines evaluate
#: ``add|sub|mul`` through this one table.
AOPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
AOP_NAMES = tuple(AOPS)


def check_register(r: str) -> str:
    """Validate a register name, returning it."""
    if r not in REGISTERS:
        raise ValueError(f"unknown register {r!r}; registers are {REGISTERS}")
    return r


_loc_counter = itertools.count()


@dataclass(frozen=True, slots=True)
class Loc(PicklableSlots):
    """A heap location / code label ``loc`` (written ``ℓ`` in the paper)."""

    name: str

    def __str__(self) -> str:
        return self.name


def fresh_loc(base: str = "l") -> Loc:
    """A globally fresh heap location, used when merging component heaps."""
    stem = base.split("%")[0] or "l"
    return Loc(f"{stem}%{next(_loc_counter)}")


def fresh_mark() -> int:
    """The fresh-location counter's current position, without minting.

    Machine checkpoints record this so that a snapshot revived in a
    different process can advance its local counter past every location
    already named inside the revived state.
    """
    global _loc_counter
    mark = next(_loc_counter)
    _loc_counter = itertools.count(mark)
    return mark


def advance_fresh(mark: int) -> None:
    """Ensure future :func:`fresh_loc` names are numbered >= ``mark``."""
    global _loc_counter
    if mark > fresh_mark():
        _loc_counter = itertools.count(mark)


# ---------------------------------------------------------------------------
# Value types tau and heap-value types psi
# ---------------------------------------------------------------------------

class TypeMemo(PicklableSlots):
    """Per-instance memo slots of the compound types: the structural hash
    (:func:`memo_hash`), the free type variables
    (:func:`repro.walk.free_keys`) and ``_wf``, the last type
    environment under which the node passed well-formedness
    (:mod:`repro.tal.wellformed`).  They are not dataclass fields, so
    equality, pickling and fingerprints never see them.

    Types are shared, not copied, as the machines instantiate ``zeta``:
    a return continuation saved across a ``call`` mentions the caller's
    stack, which is also the tail of the callee's, so the stack typing
    of a recursion ``n`` calls deep is a DAG whose tree size is ``2^n``.
    The memos keep hashing and free-variable queries linear in the DAG.
    """

    __slots__ = ("_hash", "_ftv", "_wf")


def memo_hash(cls):
    """Class decorator, applied above ``@dataclass``: memoize the
    generated structural hash in the ``_hash`` slot."""
    _STRUCTURAL[cls] = cls.__hash__

    def __hash__(self) -> int:
        # ``getattr`` with a default, not try/except: every fresh node
        # misses once, and a caught exception costs more than the hash.
        h = getattr(self, "_hash", None)
        if h is None:
            h = _hash_fresh(self)
        return h

    cls.__hash__ = __hash__
    return cls


#: The generated structural hash of each :func:`memo_hash` class.
_STRUCTURAL: dict = {}


def _hash_fresh(node) -> int:
    """Memoize the hash of ``node`` and of its sub-types that have none
    yet, children first, so that each structural hash finds its
    children's in their slots: an explicit stack, not a frame a level.
    Sub-types without the memo (variables, ``int``, ``unit``, markers)
    are leaves.  A sub-type the DAG shares may be hashed twice, but its
    own sub-types once."""
    todo = [node]
    while todo:
        n = todo.pop()
        if n.__class__ is tuple:                # its children are hashed
            n = n[0]
        else:
            fresh = [kid for kid in walk.children(n)
                     if kid.__class__ in _STRUCTURAL
                     and getattr(kid, "_hash", None) is None]
            if fresh:
                todo.append((n,))
                todo += fresh
                continue
        object.__setattr__(n, "_hash", _STRUCTURAL[n.__class__](n))
    return node._hash


class TalType(PicklableSlots):
    """Base class of T value types ``tau``."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class TVar(TalType):
    """A value-type variable ``alpha``."""

    name: str

    def __str__(self) -> str:
        return self.name


@intern_singleton
@dataclass(frozen=True, slots=True)
class TUnit(TalType):
    def __str__(self) -> str:
        return "unit"


@intern_singleton
@dataclass(frozen=True, slots=True)
class TInt(TalType):
    def __str__(self) -> str:
        return "int"


@memo_hash
@dataclass(frozen=True, slots=True)
class TExists(TalType, TypeMemo):
    """An existential type ``exists alpha. tau``."""

    var: str
    body: TalType

    def __str__(self) -> str:
        return f"exists {self.var}. {self.body}"


@memo_hash
@dataclass(frozen=True, slots=True)
class TRec(TalType, TypeMemo):
    """An iso-recursive type ``mu alpha. tau``."""

    var: str
    body: TalType

    def __str__(self) -> str:
        return f"mu {self.var}. {self.body}"


@memo_hash
@dataclass(frozen=True, slots=True)
class TRef(TalType, TypeMemo):
    """A *mutable* tuple reference ``ref <tau_0, ..., tau_n>``."""

    items: Tuple[TalType, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def __str__(self) -> str:
        return "ref <" + ", ".join(str(t) for t in self.items) + ">"


@memo_hash
@dataclass(frozen=True, slots=True)
class TBox(TalType, TypeMemo):
    """An *immutable* pointer ``box psi`` (code is always boxed)."""

    psi: "HeapValType"

    def __str__(self) -> str:
        return f"box {self.psi}"


class HeapValType(PicklableSlots):
    """Base class of heap-value types ``psi``."""

    __slots__ = ()


@memo_hash
@dataclass(frozen=True, slots=True)
class TupleTy(HeapValType, TypeMemo):
    """A heap tuple type ``<tau_0, ..., tau_n>``."""

    items: Tuple[TalType, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def __str__(self) -> str:
        return "<" + ", ".join(str(t) for t in self.items) + ">"


#: Hash-cons table for T types; see :func:`intern_ty`.
_TY_INTERN = InternTable()


def intern_ty(ty: TalType) -> TalType:
    """The canonical instance of a structurally-equal T type.  Purely an
    optimization: the substitution caches intern their results so that
    repeated instantiations return *identical* objects and
    :func:`repro.tal.equality.types_equal` hits its ``a is b`` fast
    path."""
    return _TY_INTERN.canon(ty)


# ---------------------------------------------------------------------------
# Type environments Delta
# ---------------------------------------------------------------------------

#: Binding kinds in a type environment.
KIND_ALPHA = "alpha"   # T value-type variable
KIND_ZETA = "zeta"     # stack-type variable
KIND_EPS = "eps"       # return-marker variable
KIND_FALPHA = "falpha"  # F type variable (multi-language Delta, Fig 6)

_KINDS = (KIND_ALPHA, KIND_ZETA, KIND_EPS, KIND_FALPHA)
_KIND_SIGIL = {KIND_ALPHA: "", KIND_ZETA: "zeta ", KIND_EPS: "eps ",
               KIND_FALPHA: "F "}


@dataclass(frozen=True, slots=True)
class DeltaBind(PicklableSlots):
    """One binding in a type environment: a variable name plus its kind."""

    kind: str
    name: str

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown binding kind {self.kind!r}")

    def __str__(self) -> str:
        return f"{_KIND_SIGIL[self.kind]}{self.name}"


Delta = Tuple[DeltaBind, ...]


def delta_contains(delta: Delta, kind: str, name: str) -> bool:
    """Does ``delta`` bind ``name`` at ``kind``?"""
    return any(b.kind == kind and b.name == name for b in delta)


def delta_names(delta: Delta) -> frozenset:
    return frozenset(b.name for b in delta)


def _format_delta(delta: Delta) -> str:
    return ", ".join(str(b) for b in delta)


# ---------------------------------------------------------------------------
# Stack typings sigma
# ---------------------------------------------------------------------------

@memo_hash
@dataclass(frozen=True, slots=True)
class StackTy(TypeMemo):
    """A stack typing ``tau_0 :: ... :: tau_{n-1} :: tail``.

    ``prefix`` lists the exposed slot types, *top of stack first*; ``tail``
    is either a stack-variable name ``zeta`` or ``None`` for the empty stack
    ``nil`` (the paper's bullet).
    """

    prefix: Tuple[TalType, ...] = ()
    tail: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", tuple(self.prefix))

    def __str__(self) -> str:
        parts = [str(t) for t in self.prefix]
        parts.append(self.tail if self.tail is not None else "nil")
        return " :: ".join(parts)

    # -- structural helpers -------------------------------------------------

    def cons(self, *types: TalType) -> "StackTy":
        """Push ``types`` (leftmost ends up on top)."""
        return _stack_ty(types + self.prefix, self.tail)

    def slot(self, i: int) -> TalType:
        """The type of exposed slot ``i`` (0 = top)."""
        if not 0 <= i < len(self.prefix):
            raise IndexError(
                f"stack slot {i} is not exposed in {self}")
        return self.prefix[i]

    def has_slot(self, i: int) -> bool:
        return 0 <= i < len(self.prefix)

    def drop(self, n: int) -> "StackTy":
        """Remove the top ``n`` exposed slots."""
        if n > len(self.prefix):
            raise IndexError(f"cannot drop {n} slots from {self}")
        return _stack_ty(self.prefix[n:], self.tail)

    def set_slot(self, i: int, ty: TalType) -> "StackTy":
        """Replace the type of exposed slot ``i``."""
        if not 0 <= i < len(self.prefix):
            raise IndexError(f"stack slot {i} is not exposed in {self}")
        return _stack_ty(self.prefix[:i] + (ty,) + self.prefix[i + 1:],
                         self.tail)

    @property
    def depth(self) -> int:
        """Number of exposed slots (the abstract tail is unbounded)."""
        return len(self.prefix)

    def with_tail(self, tail_sigma: "StackTy") -> "StackTy":
        """Replace an abstract tail by ``tail_sigma`` (i.e. sigma[tail'/zeta])."""
        if self.tail is None:
            raise ValueError(f"stack type {self} has no abstract tail")
        return _stack_ty(self.prefix + tail_sigma.prefix, tail_sigma.tail)


def _stack_ty(prefix: Tuple[TalType, ...], tail: Optional[str]) -> StackTy:
    """A :class:`StackTy` whose ``prefix`` is already a tuple (an update
    of an existing stack typing), built without re-running
    :meth:`StackTy.__post_init__`."""
    sigma = object.__new__(StackTy)
    object.__setattr__(sigma, "prefix", prefix)
    object.__setattr__(sigma, "tail", tail)
    return sigma


NIL_STACK = StackTy((), None)


# ---------------------------------------------------------------------------
# Register-file typings chi
# ---------------------------------------------------------------------------

@memo_hash
@dataclass(frozen=True, slots=True)
class RegFileTy(TypeMemo):
    """A register-file typing ``chi`` mapping registers to value types.

    Stored as a canonically-sorted tuple of pairs so that instances hash and
    compare structurally; use :meth:`get` / :meth:`set` / :meth:`without` for
    functional updates.
    """

    entries: Tuple[Tuple[str, TalType], ...] = ()

    def __post_init__(self) -> None:
        canon = tuple(sorted(self.entries, key=lambda kv: kv[0]))
        names = [r for r, _ in canon]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register in chi: {names}")
        for r, _ in canon:
            check_register(r)
        object.__setattr__(self, "entries", canon)

    @classmethod
    def of(cls, mapping: Optional[Mapping[str, TalType]] = None,
           **kwargs: TalType) -> "RegFileTy":
        items = dict(mapping or {})
        items.update(kwargs)
        return cls(tuple(items.items()))

    def get(self, r: str) -> Optional[TalType]:
        for name, ty in self.entries:
            if name == r:
                return ty
        return None

    def set(self, r: str, ty: TalType) -> "RegFileTy":
        """``chi[r : tau]`` -- update or extend."""
        check_register(r)
        entries = self.entries
        k = bisect_left(entries, r, key=itemgetter(0))
        end = k + 1 if k < len(entries) and entries[k][0] == r else k
        return _sorted_chi(entries[:k] + ((r, ty),) + entries[end:])

    def without(self, r: str) -> "RegFileTy":
        return _sorted_chi(tuple(kv for kv in self.entries if kv[0] != r))

    def registers(self) -> Tuple[str, ...]:
        return tuple(r for r, _ in self.entries)

    def items(self) -> Tuple[Tuple[str, TalType], ...]:
        return self.entries

    def __contains__(self, r: str) -> bool:
        return any(name == r for name, _ in self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "."
        return ", ".join(f"{r}: {t}" for r, t in self.entries)


def _sorted_chi(entries: Tuple[Tuple[str, TalType], ...]) -> RegFileTy:
    """A :class:`RegFileTy` over ``entries`` that are already sorted,
    distinct and valid (an update of a checked typing), built without
    re-running :meth:`RegFileTy.__post_init__`."""
    chi = object.__new__(RegFileTy)
    object.__setattr__(chi, "entries", entries)
    return chi


# ---------------------------------------------------------------------------
# Return markers q
# ---------------------------------------------------------------------------

class RetMarker(PicklableSlots):
    """Base class of return markers ``q`` -- where the return continuation is."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class QReg(RetMarker):
    """The return continuation is in register ``r``."""

    reg: str

    def __post_init__(self) -> None:
        check_register(self.reg)

    def __str__(self) -> str:
        return self.reg


@dataclass(frozen=True, slots=True)
class QIdx(RetMarker):
    """The return continuation is in exposed stack slot ``i``."""

    index: int

    def __str__(self) -> str:
        return str(self.index)


@dataclass(frozen=True, slots=True)
class QEps(RetMarker):
    """A return-marker variable ``eps`` (abstracted in a Delta)."""

    name: str

    def __str__(self) -> str:
        return self.name


@memo_hash
@dataclass(frozen=True, slots=True)
class QEnd(RetMarker, TypeMemo):
    """``end{tau; sigma}``: this component ends by halting with a ``tau``.

    Inside an FT boundary, halting at this marker transfers the value back
    to the wrapping F context instead of ending the whole program.
    """

    ty: TalType
    sigma: StackTy

    def __str__(self) -> str:
        return f"end{{{self.ty}; {self.sigma}}}"


@intern_singleton
@dataclass(frozen=True, slots=True)
class QOut(RetMarker):
    """The FT marker ``out`` for F code, which returns by being a value.

    Defined alongside the T markers because the FT judgments treat it
    uniformly with them (paper Fig 6).
    """

    def __str__(self) -> str:
        return "out"


# ---------------------------------------------------------------------------
# Code types (need RetMarker, hence defined after it)
# ---------------------------------------------------------------------------

@memo_hash
@dataclass(frozen=True, slots=True)
class CodeType(HeapValType, TypeMemo):
    """A code-block type ``forall[Delta].{chi; sigma} q`` (paper section 2).

    ``chi`` and ``sigma`` are preconditions on the register file and stack
    for jumping to the block; ``q`` -- the paper's critical addition over
    STAL -- says where the block's return continuation lives.
    """

    delta: Delta
    chi: RegFileTy
    sigma: StackTy
    q: RetMarker

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", tuple(self.delta))

    def __str__(self) -> str:
        return (f"forall[{_format_delta(self.delta)}]."
                f"{{{self.chi}; {self.sigma}}} {self.q}")


# ---------------------------------------------------------------------------
# Heap typings Psi
# ---------------------------------------------------------------------------

REF = "ref"
BOX = "box"


class HeapTyMemo(PicklableSlots):
    """The per-instance memo slot of :class:`HeapTy`: ``_index``, its
    entries as a dict by location, built on the first lookup.  It is not
    a dataclass field, so equality, hashing and pickling never see it."""

    __slots__ = ("_index",)


@dataclass(frozen=True, slots=True)
class HeapTy(HeapTyMemo):
    """A heap typing ``Psi`` mapping locations to ``nu psi`` entries."""

    entries: Tuple[Tuple[Loc, str, HeapValType], ...] = ()

    def __post_init__(self) -> None:
        canon = tuple(sorted(self.entries, key=lambda e: e[0].name))
        names = [loc.name for loc, _, _ in canon]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate location in Psi: {names}")
        for _, nu, _ in canon:
            if nu not in (REF, BOX):
                raise ValueError(f"unknown mutability {nu!r}")
        object.__setattr__(self, "entries", canon)

    @classmethod
    def of(cls, mapping: Mapping[Loc, Tuple[str, HeapValType]]) -> "HeapTy":
        return cls(tuple((loc, nu, psi) for loc, (nu, psi) in mapping.items()))

    def _lookup(self) -> Dict[Loc, Tuple[str, HeapValType]]:
        index = getattr(self, "_index", None)
        if index is None:
            index = {loc: (nu, psi) for loc, nu, psi in self.entries}
            object.__setattr__(self, "_index", index)
        return index

    def get(self, loc: Loc) -> Optional[Tuple[str, HeapValType]]:
        return self._lookup().get(loc)

    def extend(self, other: "HeapTy") -> "HeapTy":
        if not self.entries:
            return other
        return HeapTy(self.entries + other.entries)

    def set(self, loc: Loc, nu: str, psi: HeapValType) -> "HeapTy":
        rest = tuple(e for e in self.entries if e[0] != loc)
        return HeapTy(rest + ((loc, nu, psi),))

    def locations(self) -> Tuple[Loc, ...]:
        return tuple(loc for loc, _, _ in self.entries)

    def __contains__(self, loc: Loc) -> bool:
        return loc in self._lookup()

    def __str__(self) -> str:
        if not self.entries:
            return "."
        return ", ".join(f"{loc}: {nu} {psi}" for loc, nu, psi in self.entries)


# ---------------------------------------------------------------------------
# Word values and small values
# ---------------------------------------------------------------------------

class Operand(PicklableSlots):
    """Base class of small values ``u`` (instruction operands)."""

    __slots__ = ()


class WordValue(Operand):
    """Base class of word values ``w`` (register-sized runtime values)."""

    __slots__ = ()


@intern_singleton
@dataclass(frozen=True, slots=True)
class WUnit(WordValue):
    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True, slots=True)
class WInt(WordValue):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class WLoc(WordValue):
    loc: Loc

    def __str__(self) -> str:
        return str(self.loc)


@dataclass(frozen=True, slots=True)
class RegOp(Operand):
    """A register used as an operand (a small value that is not a word)."""

    reg: str

    def __post_init__(self) -> None:
        check_register(self.reg)

    def __str__(self) -> str:
        return self.reg


@dataclass(frozen=True, slots=True)
class Pack(Operand):
    """``pack <tau, u> as exists a. tau'`` -- also a word value when ``u`` is."""

    hidden: TalType
    body: Operand
    as_ty: TalType

    def __str__(self) -> str:
        return f"pack <{self.hidden}, {self.body}> as {self.as_ty}"


@dataclass(frozen=True, slots=True)
class Fold(Operand):
    """``fold[mu a. tau] u`` -- also a word value when ``u`` is."""

    as_ty: TalType
    body: Operand

    def __str__(self) -> str:
        return f"fold[{self.as_ty}] {self.body}"


@dataclass(frozen=True, slots=True)
class TyApp(Operand):
    """A type instantiation ``u[omega, ...]``.

    Each element of ``insts`` is a :class:`TalType`, :class:`StackTy`, or
    :class:`RetMarker` (the paper's ``omega``).
    """

    body: Operand
    insts: Tuple[object, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "insts", tuple(self.insts))
        for omega in self.insts:
            if not isinstance(omega, (TalType, StackTy, RetMarker)):
                raise TypeError(
                    f"instantiation must be a type, stack type, or return "
                    f"marker, got {omega!r}")

    def __str__(self) -> str:
        inner = ", ".join(str(i) for i in self.insts)
        return f"{self.body}[{inner}]"


def is_word_value(u: Operand) -> bool:
    """Is the small value ``u`` a word value (contains no register)?"""
    if not isinstance(u, Operand):
        raise TypeError(f"not a small value: {u!r}")
    while not isinstance(u, RegOp):     # down packs, folds, instantiations
        body = walk.children(u)
        if not body:
            return True
        u, = body
    return False


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------

class Instruction(PicklableSlots):
    """Base class of single instructions ``iota``."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Aop(Instruction):
    """``add|sub|mul rd, rs, u`` -- arithmetic into ``rd``."""

    op: str
    rd: str
    rs: str
    u: Operand

    def __post_init__(self) -> None:
        if self.op not in AOP_NAMES:
            raise ValueError(f"unknown arithmetic op {self.op!r}")
        check_register(self.rd)
        check_register(self.rs)

    def __str__(self) -> str:
        return f"{self.op} {self.rd}, {self.rs}, {self.u}"


@dataclass(frozen=True, slots=True)
class Bnz(Instruction):
    """``bnz r, u`` -- jump to ``u`` if ``r`` is non-zero."""

    r: str
    u: Operand

    def __post_init__(self) -> None:
        check_register(self.r)

    def __str__(self) -> str:
        return f"bnz {self.r}, {self.u}"


@dataclass(frozen=True, slots=True)
class Ld(Instruction):
    """``ld rd, rs[i]`` -- load field ``i`` of the tuple pointed to by ``rs``."""

    rd: str
    rs: str
    index: int

    def __post_init__(self) -> None:
        check_register(self.rd)
        check_register(self.rs)

    def __str__(self) -> str:
        return f"ld {self.rd}, {self.rs}[{self.index}]"


@dataclass(frozen=True, slots=True)
class St(Instruction):
    """``st rd[i], rs`` -- store ``rs`` into field ``i`` of the *mutable* tuple at ``rd``."""

    rd: str
    index: int
    rs: str

    def __post_init__(self) -> None:
        check_register(self.rd)
        check_register(self.rs)

    def __str__(self) -> str:
        return f"st {self.rd}[{self.index}], {self.rs}"


@dataclass(frozen=True, slots=True)
class Ralloc(Instruction):
    """``ralloc rd, n`` -- move the top ``n`` stack cells into a fresh *mutable* tuple."""

    rd: str
    n: int

    def __post_init__(self) -> None:
        check_register(self.rd)

    def __str__(self) -> str:
        return f"ralloc {self.rd}, {self.n}"


@dataclass(frozen=True, slots=True)
class Balloc(Instruction):
    """``balloc rd, n`` -- like ``ralloc`` but the tuple is *immutable* (boxed)."""

    rd: str
    n: int

    def __post_init__(self) -> None:
        check_register(self.rd)

    def __str__(self) -> str:
        return f"balloc {self.rd}, {self.n}"


@dataclass(frozen=True, slots=True)
class Mv(Instruction):
    """``mv rd, u`` -- move a small value into ``rd``."""

    rd: str
    u: Operand

    def __post_init__(self) -> None:
        check_register(self.rd)

    def __str__(self) -> str:
        return f"mv {self.rd}, {self.u}"


@dataclass(frozen=True, slots=True)
class Salloc(Instruction):
    """``salloc n`` -- push ``n`` unit-initialized stack cells."""

    n: int

    def __str__(self) -> str:
        return f"salloc {self.n}"


@dataclass(frozen=True, slots=True)
class Sfree(Instruction):
    """``sfree n`` -- pop ``n`` stack cells."""

    n: int

    def __str__(self) -> str:
        return f"sfree {self.n}"


@dataclass(frozen=True, slots=True)
class Sld(Instruction):
    """``sld rd, i`` -- load stack slot ``i`` (0 = top) into ``rd``."""

    rd: str
    index: int

    def __post_init__(self) -> None:
        check_register(self.rd)

    def __str__(self) -> str:
        return f"sld {self.rd}, {self.index}"


@dataclass(frozen=True, slots=True)
class Sst(Instruction):
    """``sst i, rs`` -- store ``rs`` into stack slot ``i`` (0 = top)."""

    index: int
    rs: str

    def __post_init__(self) -> None:
        check_register(self.rs)

    def __str__(self) -> str:
        return f"sst {self.index}, {self.rs}"


@dataclass(frozen=True, slots=True)
class Unpack(Instruction):
    """``unpack <alpha, rd> u`` -- open an existential package into ``rd``,
    binding ``alpha`` for the rest of the sequence."""

    alpha: str
    rd: str
    u: Operand

    def __post_init__(self) -> None:
        check_register(self.rd)

    def __str__(self) -> str:
        return f"unpack <{self.alpha}, {self.rd}> {self.u}"


@dataclass(frozen=True, slots=True)
class UnfoldI(Instruction):
    """``unfold rd, u`` -- unroll a recursive value into ``rd``."""

    rd: str
    u: Operand

    def __post_init__(self) -> None:
        check_register(self.rd)

    def __str__(self) -> str:
        return f"unfold {self.rd}, {self.u}"


# ---------------------------------------------------------------------------
# Terminators, instruction sequences, heap values, components
# ---------------------------------------------------------------------------

class Terminator(PicklableSlots):
    """Base class of the four instruction-sequence enders."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Jmp(Terminator):
    """``jmp u`` -- *intra*-component jump (same return marker)."""

    u: Operand

    def __str__(self) -> str:
        return f"jmp {self.u}"


@dataclass(frozen=True, slots=True)
class Call(Terminator):
    """``call u {sigma, q}`` -- *inter*-component jump that will return.

    ``sigma`` is the stack tail to protect (instantiates the callee's zeta);
    ``q`` is the return marker handed to the callee's continuation
    (instantiates the callee's eps).
    """

    u: Operand
    sigma: StackTy
    q: RetMarker

    def __str__(self) -> str:
        return f"call {self.u} {{{self.sigma}, {self.q}}}"


@dataclass(frozen=True, slots=True)
class Ret(Terminator):
    """``ret r {r'}`` -- return to the continuation in ``r`` with the result in ``r'``."""

    r: str
    rr: str

    def __post_init__(self) -> None:
        check_register(self.r)
        check_register(self.rr)

    def __str__(self) -> str:
        return f"ret {self.r} {{{self.rr}}}"


@dataclass(frozen=True, slots=True)
class Halt(Terminator):
    """``halt tau, sigma {r}`` -- stop with a ``tau`` in ``r`` and stack ``sigma``.

    The only T instruction sequence that is a *value*; inside an FT boundary
    it transfers control back to the wrapping F context (paper Fig 8).
    """

    ty: TalType
    sigma: StackTy
    r: str

    def __post_init__(self) -> None:
        check_register(self.r)

    def __str__(self) -> str:
        return f"halt {self.ty}, {self.sigma} {{{self.r}}}"


@dataclass(frozen=True, slots=True)
class InstrSeq(PicklableSlots):
    """An instruction sequence ``I``: straight-line instructions then a terminator."""

    instrs: Tuple[Instruction, ...]
    term: Terminator

    def __post_init__(self) -> None:
        object.__setattr__(self, "instrs", tuple(self.instrs))

    def __str__(self) -> str:
        parts = [str(i) for i in self.instrs] + [str(self.term)]
        return "; ".join(parts)

    def cons(self, *instrs: Instruction) -> "InstrSeq":
        return InstrSeq(tuple(instrs) + self.instrs, self.term)

    @property
    def head(self) -> Optional[Instruction]:
        return self.instrs[0] if self.instrs else None

    @property
    def rest(self) -> "InstrSeq":
        if not self.instrs:
            raise IndexError("instruction sequence has no head")
        return InstrSeq(self.instrs[1:], self.term)


def seq(*parts) -> InstrSeq:
    """Build an :class:`InstrSeq` from instructions followed by a terminator."""
    if not parts or not isinstance(parts[-1], Terminator):
        raise ValueError("an instruction sequence must end in a terminator")
    instrs = parts[:-1]
    for i in instrs:
        if not isinstance(i, Instruction):
            raise TypeError(f"not an instruction: {i!r}")
    return InstrSeq(tuple(instrs), parts[-1])


class HeapValue(PicklableSlots):
    """Base class of heap values ``h``."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class HTuple(HeapValue):
    """A heap tuple ``<w_0, ..., w_n>``."""

    words: Tuple[WordValue, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", tuple(self.words))

    def __str__(self) -> str:
        return "<" + ", ".join(str(w) for w in self.words) + ">"


class CodeMemo(HeapValue):
    """The per-instance memo slots of :class:`HCode`: ``_inst``, its
    instantiations (:func:`repro.tal.subst.instantiate_code_block`), and
    ``_fast``, the fast T tier's lowered block
    (:mod:`repro.tal.fast`).  They are not dataclass fields, so equality,
    hashing, pickling and content digests never see them, and they die
    with the block."""

    __slots__ = ("_inst", "_fast")


@dataclass(frozen=True, slots=True)
class HCode(CodeMemo):
    """A code block ``code[Delta]{chi; sigma} q. I``."""

    delta: Delta
    chi: RegFileTy
    sigma: StackTy
    q: RetMarker
    instrs: InstrSeq

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", tuple(self.delta))

    def __str__(self) -> str:
        return (f"code[{_format_delta(self.delta)}]"
                f"{{{self.chi}; {self.sigma}}} {self.q}. {self.instrs}")

    @property
    def code_type(self) -> CodeType:
        """The :class:`CodeType` this block inhabits."""
        return CodeType(self.delta, self.chi, self.sigma, self.q)


class LoadMemo(PicklableSlots):
    """The per-instance memo slots of :class:`Component`: ``_template``,
    the relocated image (:class:`repro.tal.machine.LoadTemplate`) that
    its loads reuse; ``_identity``, the template of a component without
    a heap, which relocates nothing; and ``_ports``, the ``import``
    instructions in it, which a walk crossing to F terms visits
    (:mod:`repro.walk`).  They are not dataclass fields, so equality,
    hashing, pickling and content digests never see them, and they die
    with the component."""

    __slots__ = ("_template", "_identity", "_ports")


@dataclass(frozen=True, slots=True)
class Component(LoadMemo):
    """A T component ``(I, H)``: an entry sequence plus a local heap fragment.

    ``heap`` maps labels to the component's local blocks (and, rarely,
    boxed data); at runtime the machine merges it into the global heap
    under fresh labels, so two loads into one memory never clash (Fig 8).
    The machine relocates a component once and keeps the result in the
    ``_template`` memo slot (:class:`LoadMemo`): a later load into a
    memory that binds none of those labels reuses them, and the renamed
    blocks, as they are.  A component without a heap keeps its one
    unrenamed template in the ``_identity`` slot.
    """

    instrs: InstrSeq
    heap: Tuple[Tuple[Loc, HeapValue], ...] = ()

    def __post_init__(self) -> None:
        entries = tuple(self.heap.items()) if isinstance(self.heap, dict) \
            else tuple(self.heap)
        names = [loc.name for loc, _ in entries]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate labels in component heap: {names}")
        object.__setattr__(self, "heap", entries)

    def heap_dict(self) -> Dict[Loc, HeapValue]:
        return dict(self.heap)

    def __str__(self) -> str:
        if not self.heap:
            return f"({self.instrs}, .)"
        blocks = "; ".join(f"{loc} -> {h}" for loc, h in self.heap)
        return f"({self.instrs}, {{{blocks}}})"
