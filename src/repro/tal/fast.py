"""The fast T execution tier: direct-threaded, type-erased block execution.

The reference :class:`~repro.tal.machine.TalMachine` re-substitutes a
block's instruction sequence at every jump (``instantiate_code_block``)
and dispatches every step through an ``isinstance`` chain against a dict
register file.  Erasure-compatibility (:mod:`repro.tal.erasure`) licenses
something much cheaper: a validated artifact's types can never change an
answer, so the fast tier *preinstantiates* each block once into a flat
executable form and stops consulting types at run time:

* every instruction is lowered to a **direct-threaded Python closure**
  bound to its operands (no per-step dispatch);
* registers live in a **flat list** indexed by slot, not a dict;
* type instantiation is **environment-lazy**: entering a block binds its
  ``Delta`` to the omegas as an immutable env tuple, and only the rare
  operands whose free type variables demand it are substituted (memoized
  per site x env) -- straight-line arithmetic never touches a type;
* a code block is lowered **at its first entry** and kept on its
  ``HCode``; a component's entry sequence is lowered at its first load.
  A component's entry and cells belong to its load template
  (:class:`~repro.tal.machine.LoadTemplate`), so every run of the
  component shares its blocks -- a straight-line component's too;
* every run-time memo -- a block's instantiations, its substituted
  operand sites, its JIT function -- **lives on the block** it serves,
  so it dies with the component (or the ``HCode``) that owns the block;
* blocks entered :data:`JIT_THRESHOLD` times are **template-JITted**:
  the block body is rendered into one fused Python function per basic
  block (branch-out via block transfer requests) and compiled with
  ``exec``;
* a JIT'd block seen to jump back into itself is **re-rendered as a
  loop**: one call runs every iteration, and when the loop body is int
  register arithmetic the registers stay plain Python ints throughout.

Semantics are bit-identical to the reference engine -- same values, same
``steps``/``fuel_used`` accounting, same trap messages, same residual
state at a fuel suspension (checkpoints are engine-portable) -- enforced
by the differential lockstep suite in
``tests/test_tal_fast_differential.py``.  An ``import`` hands an
:class:`~repro.tal.machine.ImportRequest` back to the FT driver, whose
continuation is a live :class:`FastPoint` (materialized only for a
snapshot).  The fast tier is *total*: an instruction the lowering does
not recognise (exotic instructions, invalid registers), or an FT
instruction on a pure T machine, is delegated on its own to one
reference step (:meth:`~repro.tal.machine.TalMachine.step`), and a cold
state -- a restored snapshot's residual, a bare sequence, what a
delegated step returns -- is lowered into an unshared block like an
entry sequence.  Instrumented runs (tracing, a live event bus, or the
profiler) are executed by the reference interpreter: the fast tier is
the batch tier.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.caching import LRUCache
from repro.errors import MachineError
from repro.obs.events import OBS
from repro.obs.profile import PROFILER
from repro.tal.machine import HaltedState, ImportRequest
from repro.tal.subst import (
    check_omega, free_type_vars, instantiate_code_block, Subst, subst_term,
)
from repro.tal.syntax import (
    Aop, AOPS, Balloc, Bnz, BOX, Call, Fold, Halt, HTuple, InstrSeq, Jmp,
    KIND_ALPHA, KIND_ZETA, Ld, Loc, Mv, Pack, Ralloc, REF, REGISTERS, RegOp,
    Ret, Salloc, Sfree, Sld, Sst, St, TyApp, UnfoldI, Unpack, WInt, WLoc,
    WUnit, check_register, is_word_value,
)

__all__ = [
    "FastBlock", "FastPoint", "fast_drive", "fast_run_t", "instrumented",
    "install_component", "clear_fast_caches", "fast_cache_stats",
]

_UNSET = object()          # register-slot sentinel (None is not a word)
_SLOT = {r: i for i, r in enumerate(REGISTERS)}
_NREGS = len(REGISTERS)
#: How the template JIT spells each ``aop`` (it computes ``AOPS``).
_AOP_PY = {"add": "+", "sub": "-", "mul": "*"}

# ---------------------------------------------------------------------------
# Memos
# ---------------------------------------------------------------------------
#
# The run-time memos hang off the block they serve: a FastBlock's
# ``envs`` maps an omega list to its instantiation, and its ``sites``
# map (site, env) identities to substituted operands.  A block belongs
# to one HCode or to a load template's entry sequence, so its memos die
# with the code.  The module keeps hit/miss counts and one table that
# holds no component: the compiled JIT functions.

#: Entries one block's memo holds; a full memo refuses new entries.  On
#: the benchmark workloads (seeds 1 and 2) a block holds at most 3 omega
#: lists and 8 site results.  A recursion, though, instantiates its
#: callee once per depth: ``fact_f 200`` would leave 200 omega lists,
#: most with a specialized copy of the block, on each recursive block,
#: for as long as the component lives.
_MEMO_CAP = 32
#: JIT source -> compiled function: blocks of equal shape share one.
#: A workload compiles at most 90 distinct sources; a stream of fresh
#: programs brings new shapes without end.
_JIT_FNS = LRUCache(256)
#: [hits, misses, evictions] of the per-block memos.
_SITE_COUNTS = [0, 0, 0]
_BLOCK_COUNTS = [0, 0, 0]

_EMPTY_SUBST = Subst()


def clear_fast_caches() -> None:
    """Drop the module memos (tests, benchmarks); per-block memos go
    with their blocks."""
    _JIT_FNS.clear()


def fast_cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/eviction counts of the per-block memos (``evictions``
    counts the new entries a full memo refused).  ``size``
    counts entries the module holds, which is none: they live on the
    blocks.  ``tal.fast.preinst`` has no lookups (components lower once
    per load template); the entry stays because benchmark reports read
    it."""
    def entry(counts):
        return {"size": 0, "hits": counts[0], "misses": counts[1],
                "evictions": counts[2]}

    return {"tal.fast.site": entry(_SITE_COUNTS),
            "tal.fast.block": entry(_BLOCK_COUNTS),
            "tal.fast.preinst": entry((0, 0, 0))}


def _count(counts: list, name: str, hit: bool) -> None:
    counts[0 if hit else 1] += 1
    if OBS.enabled:
        OBS.metrics.inc(name + (".hit" if hit else ".miss"))


def _remember(memo: dict, key, value, counts: list) -> None:
    """Keep ``key`` unless the memo is full: a full memo keeps the
    entries it has (a recursion's shallow depths, which every run
    repeats) and refuses the new one, counted as an eviction."""
    if len(memo) >= _MEMO_CAP:
        counts[2] += 1
        return
    memo[key] = value


#: Entries after which an eligible block is template-JITted.  Read as a
#: module global on every entry, so tests may patch it.
JIT_THRESHOLD = 16


def instrumented(machine) -> bool:
    """Instrumented runs (tracing, live event bus, profiler) stay on the
    reference interpreter, which emits per-step events."""
    return (machine.trace_enabled or PROFILER.enabled
            or (OBS.enabled and OBS.bus.active))


# ---------------------------------------------------------------------------
# Environment-lazy substitution
# ---------------------------------------------------------------------------

def _env_subst(env: tuple, memo: dict) -> Subst:
    """The combined substitution an env tuple denotes (memoized in the
    block's ``memo`` by the env's identity).

    At run time every omega is closed, so folding the entries in order
    (later bindings override, Protect shadows delete) is exactly the
    reference engine's sequential substitution discipline."""
    if not env:
        return _EMPTY_SUBST
    hit = memo.get(id(env))
    if hit is not None and hit[0] is env:
        return hit[1]
    mapping: dict = {}
    for kind, name, omega in env:
        if omega is None:
            mapping.pop((kind, name), None)
        else:
            mapping[(kind, name)] = omega
    s = Subst(mapping)
    _remember(memo, id(env), (env, s), _SITE_COUNTS)
    return s


# Site memos key on object identity, not structure: hashing type-laden
# env tuples costs more than the substitution they memoize.  Identity
# keys stay canonical because enter() reuses one env tuple per (block,
# omega) pair, and pinning the keyed objects in the value prevents id
# reuse.

def _site(memo: dict, x, env: tuple):
    """``x`` under the substitution that ``env`` denotes, memoized in the
    owning block's ``memo``."""
    if not env:
        return x
    key = (id(x), id(env))
    hit = memo.get(key)
    if hit is not None and hit[0] is x and hit[1] is env:
        _count(_SITE_COUNTS, "tal.fast.site", True)
        return hit[2]
    _count(_SITE_COUNTS, "tal.fast.site", False)
    res = subst_term(x, _env_subst(env, memo))
    _remember(memo, key, (x, env, res), _SITE_COUNTS)
    return res


# ---------------------------------------------------------------------------
# Runtime operand resolution against the flat register file
# ---------------------------------------------------------------------------

def _resolve_rt(u, regs):
    cls = u.__class__
    if cls is RegOp:
        idx = _SLOT.get(u.reg)
        if idx is None:
            check_register(u.reg)  # raises the canonical message
        w = regs[idx]
        if w is _UNSET:
            raise MachineError(f"read of unset register {u.reg}")
        return w
    if cls is WUnit or cls is WInt or cls is WLoc:
        return u
    if cls is Pack:
        return Pack(u.hidden, _resolve_rt(u.body, regs), u.as_ty)
    if cls is Fold:
        return Fold(u.as_ty, _resolve_rt(u.body, regs))
    if cls is TyApp:
        body = _resolve_rt(u.body, regs)
        if body.__class__ is TyApp:
            return TyApp(body.body, body.insts + u.insts)
        return TyApp(body, u.insts)
    raise MachineError(f"cannot resolve operand {u}")


def _resolve_const(u):
    """Resolve a register-free operand to its word value (load time)."""
    return _resolve_rt(u, None)


def _target_of(w) -> Tuple[Loc, tuple]:
    omegas: tuple = ()
    while w.__class__ is TyApp:
        omegas = tuple(w.insts) + omegas
        w = w.body
    if w.__class__ is not WLoc:
        raise MachineError(f"jump to non-location value {w}")
    return w.loc, omegas


def _is_const(u) -> bool:
    return is_word_value(u) and not free_type_vars(u)


# ---------------------------------------------------------------------------
# Lowering: instructions -> picklable descriptors
# ---------------------------------------------------------------------------

_FT_CLASSES: Optional[tuple] = None


def _ft_classes() -> tuple:
    global _FT_CLASSES
    if _FT_CLASSES is None:
        try:
            from repro.ft.syntax import Import, Protect
            _FT_CLASSES = (Import, Protect)
        except Exception:  # pragma: no cover - ft always importable here
            _FT_CLASSES = (None, None)
    return _FT_CLASSES


def _uspec(u):
    """Classify an operand: ("c", u) const / ("r", slot, name) register /
    ("g", u, has_ftv) general."""
    if u.__class__ is RegOp:
        slot = _SLOT.get(u.reg)
        if slot is None:
            return None
        return ("r", slot, u.reg)
    ftv = bool(free_type_vars(u))
    if not ftv and is_word_value(u):
        return ("c", u)
    return ("g", u, ftv)


def _lower_instr(i) -> tuple:
    """Total: anything unliftable lowers to a reference delegation."""
    try:
        return _lower_instr_raw(i)
    except Exception:
        return ("refop",)


def _lower_instr_raw(i) -> tuple:
    cls = i.__class__
    if cls is Mv:
        rd = _SLOT.get(i.rd)
        spec = _uspec(i.u)
        if rd is None or spec is None:
            return ("refop",)
        return ("mv", rd, spec)
    if cls is Aop:
        rd, rs = _SLOT.get(i.rd), _SLOT.get(i.rs)
        spec = _uspec(i.u)
        if rd is None or rs is None or spec is None or i.op not in AOPS:
            return ("refop",)
        return ("aop", i.op, rd, rs, i.rs, spec)
    if cls is Bnz:
        rs = _SLOT.get(i.r)
        if rs is None:
            return ("refop",)
        if _is_const(i.u):
            return ("bnz_c", rs, i.r, i.u)
        return ("bnz_g", rs, i.r, i.u, bool(free_type_vars(i.u)))
    if cls is Ld:
        rd, rs = _SLOT.get(i.rd), _SLOT.get(i.rs)
        if rd is None or rs is None:
            return ("refop",)
        return ("ld", rd, rs, i.index)
    if cls is St:
        rd, rs = _SLOT.get(i.rd), _SLOT.get(i.rs)
        if rd is None or rs is None:
            return ("refop",)
        return ("st", rd, i.index, rs, i.rs)
    if cls is Ralloc or cls is Balloc:
        rd = _SLOT.get(i.rd)
        if rd is None:
            return ("refop",)
        return ("alloc", rd, i.n, REF if cls is Ralloc else BOX)
    if cls is Salloc:
        return ("salloc", i.n)
    if cls is Sfree:
        return ("sfree", i.n)
    if cls is Sld:
        rd = _SLOT.get(i.rd)
        if rd is None:
            return ("refop",)
        return ("sld", rd, i.index)
    if cls is Sst:
        rs = _SLOT.get(i.rs)
        if rs is None:
            return ("refop",)
        return ("sst", i.index, rs, i.rs)
    if cls is Unpack:
        rd = _SLOT.get(i.rd)
        spec = _uspec(i.u)
        if rd is None or spec is None:
            return ("refop",)
        return ("unpack", i.alpha, rd, spec)
    if cls is UnfoldI:
        rd = _SLOT.get(i.rd)
        spec = _uspec(i.u)
        if rd is None or spec is None:
            return ("refop",)
        return ("unfold", rd, spec)
    import_cls, protect_cls = _ft_classes()
    if import_cls is not None and cls is import_cls:
        if _SLOT.get(i.rd) is None:
            return ("refop",)
        # ftv is conservatively True: walking the embedded F expression
        # to prove closedness costs more than the (memoized, usually
        # env-empty) runtime substitution it would skip.
        return ("imp", i, True)
    if protect_cls is not None and cls is protect_cls:
        return ("protect", i.zeta)
    return ("refop",)  # anything unknown: reference rules


def _lower_term(t) -> tuple:
    try:
        return _lower_term_raw(t)
    except Exception:
        return ("ref_term",)


def _lower_term_raw(t) -> tuple:
    cls = t.__class__
    if cls is Halt:
        r = _SLOT.get(t.r)
        if r is None:
            return ("ref_term",)
        ftv = bool(free_type_vars(t.ty)) or bool(free_type_vars(t.sigma))
        return ("halt", r, t.r, t, ftv)
    if cls is Jmp:
        if _is_const(t.u):
            return ("jmp_c", t.u)
        return ("jmp_g", t.u, bool(free_type_vars(t.u)))
    if cls is Call:
        sq_ftv = bool(free_type_vars(t.sigma)) or bool(free_type_vars(t.q))
        if _is_const(t.u) and not sq_ftv:
            return ("call_c", t.u, t.sigma, t.q)
        return ("call_g", t.u, bool(free_type_vars(t.u)), t, sq_ftv)
    if cls is Ret:
        r = _SLOT.get(t.r)
        if r is None:
            return ("ref_term",)
        return ("ret", r, t.r, t.rr)
    return ("ref_term",)


def _lower_seq(iseq: InstrSeq, delta: tuple) -> dict:
    """Lower an instruction sequence to a FlatCode dict of descriptors.
    JIT source is rendered later, and only for a block that gets hot."""
    return {"delta": delta,
            "ops": tuple(_lower_instr(i) for i in iseq.instrs),
            "term": _lower_term(iseq.term)}


# ---------------------------------------------------------------------------
# Per-load build: descriptors -> direct-threaded closures
# ---------------------------------------------------------------------------

class FastBlock:
    """One preinstantiated block: direct-threaded ops, metadata for
    residual materialisation, and the block's own memos.

    A component's blocks belong to its load template and are shared by
    every machine that loads it, so the memos (``envs``, ``sites``) and
    the JIT state (``hot``, ``jit_fn``) live on the shared block: entries
    from all those runs count toward :data:`JIT_THRESHOLD`, and a
    promoted block stays promoted.  The JIT'd function computes exactly
    what the ops compute, so where a block is promoted never changes a
    result.  ``desc`` keeps the descriptors while the JIT may still use
    them: to render the block once it is hot (:func:`_promote`), and to
    re-render it as a loop once the driver sees it jump back into itself
    (:func:`_promote_loop`)."""

    __slots__ = ("ops", "nops", "term", "delta", "src_seq", "desc", "hot",
                 "jit_fn", "jit_consts", "jit_specs", "envs", "sites",
                 "__weakref__")

    def __init__(self, ops, term, delta, src_seq, desc, sites):
        self.ops = ops
        self.nops = len(ops)
        self.term = term
        self.delta = delta
        self.src_seq = src_seq        # renamed InstrSeq (residuals)
        self.desc = desc              # (ops, term) descriptors or None
        self.hot = 0
        self.jit_fn = None
        self.jit_consts = None
        self.jit_specs = None
        self.envs = None              # omegas -> env or block, on demand
        self.sites = sites            # (id(site), id(env)) -> result


def _unset_read(name: str):
    raise MachineError(f"read of unset register {name}")


def _make_op(d: tuple, memo: dict):
    """Build the closure for one op descriptor (``memo`` is the block's
    site memo)."""
    tag = d[0]
    if tag == "mv":
        _, rd, spec = d
        if spec[0] == "c":
            w = _resolve_const(spec[1])

            def op(mem, regs, env, _rd=rd, _w=w):
                regs[_rd] = _w
            return op
        if spec[0] == "r":
            _, rs, name = spec

            def op(mem, regs, env, _rd=rd, _rs=rs, _n=name):
                w = regs[_rs]
                if w is _UNSET:
                    _unset_read(_n)
                regs[_rd] = w
            return op
        _, u, ftv = spec

        def op(mem, regs, env, _rd=rd, _u=u, _f=ftv, _m=memo):
            regs[_rd] = _resolve_rt(_site(_m, _u, env) if _f else _u, regs)
        return op
    if tag == "aop":
        _, name, rd, rs, rs_name, spec = d
        fn = AOPS[name]
        if spec[0] == "c":
            w = _resolve_const(spec[1])

            def op(mem, regs, env, _rd=rd, _rs=rs, _n=rs_name, _fn=fn,
                   _w=w):
                left = regs[_rs]
                if left.__class__ is not WInt:
                    if left is _UNSET:
                        _unset_read(_n)
                    raise MachineError(
                        f"aop source {_n} holds non-int {left}")
                if _w.__class__ is not WInt:
                    raise MachineError(f"expected an integer, got {_w}")
                regs[_rd] = WInt(_fn(left.value, _w.value))
            return op
        if spec[0] == "r":
            _, rb, rb_name = spec

            def op(mem, regs, env, _rd=rd, _rs=rs, _n=rs_name, _fn=fn,
                   _rb=rb, _bn=rb_name):
                left = regs[_rs]
                if left.__class__ is not WInt:
                    if left is _UNSET:
                        _unset_read(_n)
                    raise MachineError(
                        f"aop source {_n} holds non-int {left}")
                right = regs[_rb]
                if right.__class__ is not WInt:
                    if right is _UNSET:
                        _unset_read(_bn)
                    raise MachineError(f"expected an integer, got {right}")
                regs[_rd] = WInt(_fn(left.value, right.value))
            return op
        _, u, ftv = spec

        def op(mem, regs, env, _rd=rd, _rs=rs, _n=rs_name, _fn=fn, _u=u,
               _f=ftv, _m=memo):
            left = regs[_rs]
            if left.__class__ is not WInt:
                if left is _UNSET:
                    _unset_read(_n)
                raise MachineError(f"aop source {_n} holds non-int {left}")
            w = _resolve_rt(_site(_m, _u, env) if _f else _u, regs)
            if w.__class__ is not WInt:
                raise MachineError(f"expected an integer, got {w}")
            regs[_rd] = WInt(_fn(left.value, w.value))
        return op
    if tag in ("bnz_c", "bnz_g"):
        return None  # handled by _make_bnz (needs its own pc)
    if tag == "ld":
        _, rd, rs, index = d

        def op(mem, regs, env, _rd=rd, _rs=rs, _i=index):
            ptr = regs[_rs]
            if ptr.__class__ is not WLoc:
                if ptr is _UNSET:
                    _unset_read(REGISTERS[_rs])
                raise MachineError(f"ld through non-pointer {ptr}")
            tup = mem.tuple_at(ptr.loc)
            if not 0 <= _i < len(tup.words):
                raise MachineError(f"ld index {_i} out of range")
            regs[_rd] = tup.words[_i]
        return op
    if tag == "st":
        _, rd, index, rs, rs_name = d

        def op(mem, regs, env, _rd=rd, _i=index, _rs=rs, _n=rs_name):
            ptr = regs[_rd]
            if ptr.__class__ is not WLoc:
                if ptr is _UNSET:
                    _unset_read(REGISTERS[_rd])
                raise MachineError(f"st through non-pointer {ptr}")
            w = regs[_rs]
            if w is _UNSET:
                _unset_read(_n)
            mem.store_field(ptr.loc, _i, w)
        return op
    if tag == "alloc":
        _, rd, n, nu = d

        def op(mem, regs, env, _rd=rd, _n=n, _nu=nu):
            words = mem.pop(_n)
            regs[_rd] = WLoc(mem.alloc(HTuple(tuple(words)), _nu))
        return op
    if tag == "salloc":
        units = (WUnit(),) * d[1]

        def op(mem, regs, env, _u=units):
            mem.push(*_u)
        return op
    if tag == "sfree":
        n = d[1]

        def op(mem, regs, env, _n=n):
            mem.pop(_n)
        return op
    if tag == "sld":
        _, rd, index = d

        def op(mem, regs, env, _rd=rd, _i=index):
            regs[_rd] = mem.peek(_i)
        return op
    if tag == "sst":
        _, index, rs, rs_name = d

        def op(mem, regs, env, _i=index, _rs=rs, _n=rs_name):
            w = regs[_rs]
            if w is _UNSET:
                _unset_read(_n)
            mem.poke(_i, w)
        return op
    if tag == "unpack":
        _, alpha, rd, spec = d
        if spec[0] == "r":
            _, rs, name = spec

            def op(mem, regs, env, _a=alpha, _rd=rd, _rs=rs, _n=name,
                   _l=[None]):
                w = regs[_rs]
                if w.__class__ is not Pack:
                    if w is _UNSET:
                        _unset_read(_n)
                    raise MachineError(f"unpack of non-package value {w}")
                regs[_rd] = w.body
                return _bound(_l, env, _a, w.hidden)
            return op
        if spec[0] == "c":
            u = spec[1]

            def op(mem, regs, env, _a=alpha, _rd=rd, _u=u, _l=[None]):
                w = _resolve_const(_u)
                if w.__class__ is not Pack:
                    raise MachineError(f"unpack of non-package value {w}")
                regs[_rd] = w.body
                return _bound(_l, env, _a, w.hidden)
            return op
        _, u, ftv = spec

        def op(mem, regs, env, _a=alpha, _rd=rd, _u=u, _f=ftv, _m=memo,
               _l=[None]):
            w = _resolve_rt(_site(_m, _u, env) if _f else _u, regs)
            if w.__class__ is not Pack:
                raise MachineError(f"unpack of non-package value {w}")
            regs[_rd] = w.body
            return _bound(_l, env, _a, w.hidden)
        return op
    if tag == "unfold":
        _, rd, spec = d
        if spec[0] == "r":
            _, rs, name = spec

            def op(mem, regs, env, _rd=rd, _rs=rs, _n=name):
                w = regs[_rs]
                if w.__class__ is not Fold:
                    if w is _UNSET:
                        _unset_read(_n)
                    raise MachineError(f"unfold of non-fold value {w}")
                regs[_rd] = w.body
            return op
        u = spec[1]
        ftv = spec[2] if spec[0] == "g" else False

        def op(mem, regs, env, _rd=rd, _u=u, _f=ftv, _m=memo):
            w = _resolve_rt(_site(_m, _u, env) if _f else _u, regs)
            if w.__class__ is not Fold:
                raise MachineError(f"unfold of non-fold value {w}")
            regs[_rd] = w.body
        return op
    if tag == "protect":
        shadow = (KIND_ZETA, d[1], None)
        last = [((), (shadow,))]

        # Returns the extended env itself, the same tuple for the same
        # incoming env, so the site memos keyed on it hit across runs.
        # Only an FT machine takes it; a pure T one delegates.
        def op(mem, regs, env, _b=shadow, _last=last):
            hit = _last[0]
            if hit[0] is not env:
                hit = _last[0] = (env, env + (_b,))
            return ("shadow", hit[1])
        return op
    if tag == "imp":
        _, instr, ftv = d

        def op(mem, regs, env, _i=instr, _f=ftv, _m=memo):
            return ("imp", _site(_m, _i, env) if _f else _i)
        return op
    if tag == "refop":
        def op(mem, regs, env):
            return _REF_REQ
        return op
    raise AssertionError(f"unknown op descriptor {tag!r}")


_REF_REQ = ("ref",)


def _bound(last: list, env: tuple, alpha: str, hidden) -> tuple:
    """The bind request for ``env`` extended by ``alpha := hidden``.
    The extended env is the same tuple as last time for the same env and
    hidden type, so the site memos keyed on it hit across runs."""
    hit = last[0]
    if hit is None or hit[0] is not env or hit[1] is not hidden:
        hit = last[0] = (env, hidden,
                         env + ((KIND_ALPHA, alpha, hidden),))
    return ("bind", hit[2])


def _make_bnz(d: tuple, memo: dict, pc: int):
    """bnz carries its own pc so a failing jump can pin the residual."""
    if d[0] == "bnz_c":
        _, rs, rs_name, u = d
        try:
            loc, omegas = _target_of(_resolve_const(u))
            req = ("enter", loc, omegas, (), pc)
        except MachineError:
            loc = omegas = req = None  # taken branch re-raises exactly

        def op(mem, regs, env, _rs=rs, _n=rs_name, _req=req, _u=u):
            w = regs[_rs]
            if w.__class__ is not WInt:
                if w is _UNSET:
                    _unset_read(_n)
                raise MachineError(f"bnz scrutinee {_n} holds non-int {w}")
            if w.value != 0:
                if _req is None:
                    _target_of(_resolve_const(_u))  # raises
                return _req
            return None
        return op
    _, rs, rs_name, u, ftv = d

    def op(mem, regs, env, _rs=rs, _n=rs_name, _u=u, _f=ftv, _pc=pc,
           _m=memo):
        w = regs[_rs]
        if w.__class__ is not WInt:
            if w is _UNSET:
                _unset_read(_n)
            raise MachineError(f"bnz scrutinee {_n} holds non-int {w}")
        if w.value != 0:
            loc, omegas = _target_of(
                _resolve_rt(_site(_m, _u, env) if _f else _u, regs))
            return ("enter", loc, omegas, (), _pc)
        return None
    return op


def _make_term(d: tuple, memo: dict, nops: int):
    tag = d[0]
    if tag == "halt":
        _, r, r_name, t, ftv = d

        def term(mem, regs, env, _r=r, _n=r_name, _t=t, _f=ftv, _m=memo):
            w = regs[_r]
            if w is _UNSET:
                _unset_read(_n)
            t = _site(_m, _t, env) if _f else _t
            return ("halt", HaltedState(w, t.ty, t.sigma, _n))
        return term
    if tag == "jmp_c":
        u = d[1]
        try:
            loc, omegas = _target_of(_resolve_const(u))
            req = ("enter", loc, omegas, (), nops)
        except MachineError:
            req = None

        def term(mem, regs, env, _req=req, _u=u):
            if _req is None:
                _target_of(_resolve_const(_u))  # raises exactly
            return _req
        return term
    if tag == "jmp_g":
        _, u, ftv = d

        def term(mem, regs, env, _u=u, _f=ftv, _pc=nops, _m=memo):
            loc, omegas = _target_of(
                _resolve_rt(_site(_m, _u, env) if _f else _u, regs))
            return ("enter", loc, omegas, (), _pc)
        return term
    if tag == "call_c":
        _, u, sigma, q = d
        try:
            loc, omegas = _target_of(_resolve_const(u))
            req = ("enter", loc, omegas, (sigma, q), nops)
        except MachineError:
            req = None

        def term(mem, regs, env, _req=req, _u=u):
            if _req is None:
                _target_of(_resolve_const(_u))
            return _req
        return term
    if tag == "call_g":
        _, u, u_ftv, t, sq_ftv = d

        def term(mem, regs, env, _t=t, _f=u_ftv or sq_ftv, _pc=nops,
                 _m=memo):
            t = _site(_m, _t, env) if _f else _t
            loc, omegas = _target_of(_resolve_rt(t.u, regs))
            return ("enter", loc, omegas, (t.sigma, t.q), _pc)
        return term
    if tag == "ret":
        _, r, r_name, _rr = d

        def term(mem, regs, env, _r=r, _n=r_name):
            w = regs[_r]
            if w is _UNSET:
                _unset_read(_n)
            loc, omegas = _target_of(w)
            return ("enter", loc, omegas, (), None)
        return term
    if tag == "ref_term":
        def term(mem, regs, env):
            return _REF_REQ
        return term
    raise AssertionError(f"unknown terminator descriptor {tag!r}")


def _build_block(flat: dict, src_seq: InstrSeq) -> FastBlock:
    """Build the closures of ``src_seq``, lowered to ``flat``."""
    ops_desc, term_desc = flat["ops"], flat["term"]
    nops = len(ops_desc)
    sites: dict = {}
    ops = []
    for pc, d in enumerate(ops_desc):
        if d[0] in ("bnz_c", "bnz_g"):
            ops.append(_make_bnz(d, sites, pc))
        else:
            ops.append(_make_op(d, sites))
    term = _make_term(term_desc, sites, nops)
    jittable = term_desc[0] in _JIT_TERMS and all(
        d[0] in _JITABLE for d in ops_desc)
    fb = FastBlock(tuple(ops), term, tuple(flat["delta"]), src_seq,
                   (ops_desc, term_desc) if jittable else None, sites)
    if OBS.enabled:
        OBS.metrics.inc("tal.fast.blocks")
    return fb


# ---------------------------------------------------------------------------
# Installation (component loads, code blocks, cold states)
# ---------------------------------------------------------------------------

def install_component(machine, tpl) -> None:
    """Install a load's entry block into the machine (called from
    ``load_component`` with the load's
    :class:`~repro.tal.machine.LoadTemplate`).

    The entry block is built on the template's first fast load and
    shared by every machine that loads the template; code blocks are
    built at their first entries and kept on the template's cells
    (:func:`_code_block`).  So the memos and JIT state of a component's
    blocks hit across runs and die with its template.  Every component
    installs an entry block, a straight-line one (no heap) too: run
    again, it executes lowered ops from its first instruction."""
    entry_fb = tpl.fast
    if entry_fb is None:
        entry_fb = tpl.fast = _entry_block(tpl.instrs)
    entries = machine._fast_entries
    if len(entries) > 1024:
        entries.clear()
    entries[id(tpl.instrs)] = (tpl.instrs, entry_fb)


def _entry_block(iseq: InstrSeq) -> FastBlock:
    """The block of a sequence that is never entered by a jump -- a
    template's entry sequence, or a cold state -- so it is never
    JIT-rendered and keeps no descriptors."""
    fb = _build_block(_lower_seq(iseq, ()), iseq)
    fb.desc = None
    return fb


def _code_block(machine, loc: Loc) -> FastBlock:
    """The block of the code bound at ``loc``, built at its first entry
    and kept in the HCode's ``_fast`` memo slot.  So every label bound
    to that HCode shares the block -- a template's cell in every machine
    that loads the template, or a block reached outside a load (restored
    snapshots, the boundary's wrappers) -- and it dies with the HCode."""
    h = machine.memory.code_at(loc)
    fb = getattr(h, "_fast", None)
    if fb is None:
        fb = _build_block(_lower_seq(h.instrs, h.delta), h.instrs)
        object.__setattr__(h, "_fast", fb)
    machine._fast_blocks[loc] = fb
    return fb


def _block_for_state(machine, iseq: InstrSeq) -> FastBlock:
    """The installed entry block for ``iseq`` if this exact object was
    installed by a component load, else a block lowered from it.  Such a
    cold state -- a restored snapshot's residual, a bare ``run_seq``
    sequence, what a delegated instruction returns -- is lowered into an
    unshared block that runs like any other."""
    ent = machine._fast_entries.get(id(iseq))
    if ent is not None and ent[0] is iseq:
        return ent[1]
    return _entry_block(iseq)


def _make_env(delta: tuple, omegas: tuple) -> tuple:
    entries = []
    for b, omega in zip(delta, omegas):
        check_omega(b, omega)
        entries.append((b.kind, b.name, omega))
    return tuple(entries)


def _close_flat(flat: dict) -> dict:
    """Reclassify a specialized block's descriptors knowing its env
    starts empty.

    Generic lowering calls an operand const only when it has no free
    type variables, because a bind could substitute into it at run time.
    In a specialized block nothing binds before the first ``unpack`` /
    ``protect``, so up to that point register-free operands are fixed
    even when they mention protected (never-substituted) variables --
    promoting them to the const forms precomputes jump targets and makes
    the block JIT-eligible."""
    ops = list(flat["ops"])
    term = flat["term"]
    bound = False
    for i, d in enumerate(ops):
        tag = d[0]
        if tag in ("unpack", "protect"):
            bound = True
            break
        if tag == "bnz_g":
            _, rs, rs_name, u, _ftv = d
            if is_word_value(u):
                ops[i] = ("bnz_c", rs, rs_name, u)
        elif tag in ("mv", "unfold"):
            spec = d[-1]
            if spec[0] == "g" and is_word_value(spec[1]):
                ops[i] = d[:-1] + (("c", spec[1]),)
        elif tag == "aop":
            spec = d[5]
            if spec[0] == "g" and is_word_value(spec[1]):
                ops[i] = d[:5] + (("c", spec[1]),)
    if not bound:
        ttag = term[0]
        if ttag == "jmp_g" and is_word_value(term[1]):
            term = ("jmp_c", term[1])
        elif ttag == "call_g" and is_word_value(term[1]):
            t = term[3]
            term = ("call_c", term[1], t.sigma, t.q)
        elif ttag == "halt" and term[4]:
            term = term[:4] + (False,)
    return {"delta": flat["delta"], "ops": tuple(ops), "term": term}


def _specialize(fb: FastBlock, env: tuple) -> Optional[FastBlock]:
    """Bake ``env`` into a closed copy of the block: one substitution and
    re-lowering, after which every re-entry with the same omega list runs
    const-folded descriptors (JIT-eligible, with identity-stable jump
    requests).  Returns ``None`` when anything refuses to specialize --
    the caller falls back to the env-lazy generic block."""
    try:
        seq2 = subst_term(fb.src_seq, _env_subst(env, fb.sites))
        flat = _close_flat(_lower_seq(seq2, ()))
        return _build_block(flat, seq2)
    except Exception:
        return None


def _materialize(fb: FastBlock, env: tuple, pc: int) -> InstrSeq:
    """The reference-engine InstrSeq state equivalent to (fb, env, pc):
    what snapshots carry, so checkpoints stay engine-portable."""
    seq = fb.src_seq
    if pc:
        seq = InstrSeq(seq.instrs[pc:], seq.term)
    s = _env_subst(env, fb.sites)
    if s.is_empty():
        return seq
    return subst_term(seq, s)


class FastPoint(NamedTuple):
    """A live resume point inside a fast block: where the block goes on
    after an ``import`` once the FT driver has the F value in hand."""

    fb: FastBlock
    env: tuple
    pc: int

    def materialize(self) -> InstrSeq:
        return _materialize(self.fb, self.env, self.pc)


def _spill(regs: list, mregs: dict) -> None:
    for i in range(_NREGS):
        w = regs[i]
        if w is not _UNSET:
            mregs[REGISTERS[i]] = w


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

def _run_fast(machine, state, ft: bool):
    """Run ``state`` (an InstrSeq, or a :class:`FastPoint` the FT driver
    hands back after an import) until it halts or, on an FT machine
    (``ft``), reaches an ``import``: returns the :class:`HaltedState` or
    the :class:`ImportRequest`."""
    machine._fast_residual = state
    if isinstance(state, HaltedState):
        return state
    mem = machine.memory
    budget = machine.budget
    mregs = mem.regs
    regs = [mregs.get(r, _UNSET) for r in REGISTERS]
    base = budget.fuel_remaining
    fuel = base
    counters = [0, 0]  # instantiations, unpacks
    FB = [0, 0, 0]     # JIT trap sync: [fuel, pc, loop re-entries]
    enter_memo: dict = {}  # id(req) -> (req, block, env); identity-guarded

    def flush():
        nonlocal base
        consumed = base - fuel
        if consumed:
            budget.consume_fuel(consumed)
            machine.steps += consumed
        base = fuel
        if OBS.enabled:
            metrics = OBS.metrics
            if consumed:
                metrics.inc("t.machine.steps", consumed)
            if counters[0]:
                metrics.inc("t.subst.instantiate", counters[0])
            if counters[1]:
                metrics.inc("t.subst.unpack", counters[1])
        counters[0] = counters[1] = 0

    def fail(fb_, env_, pc_):
        _spill(regs, mregs)
        flush()
        machine._fast_residual = _materialize(fb_, env_, pc_)

    def exhaust(fb_, env_, pc_):
        residual = _materialize(fb_, env_, pc_)
        _spill(regs, mregs)
        flush()
        machine._fast_residual = residual
        budget.consume_fuel()  # trips exactly like the reference engine
        raise AssertionError("unreachable: fuel accounting out of sync")

    def enter(loc, omegas, extra):
        fb2 = machine._fast_blocks.get(loc)
        if fb2 is None:
            fb2 = _code_block(machine, loc)
        all_om = omegas + extra
        delta = fb2.delta
        if len(all_om) > len(delta):
            raise MachineError(
                f"block {loc} instantiated with {len(all_om)} "
                f"arguments but abstracts {len(delta)}")
        counters[0] += 1
        if len(all_om) < len(delta):
            inst = instantiate_code_block(mem.code_at(loc), all_om)
            raise MachineError(
                f"jump to block {loc} with uninstantiated binders "
                f"{[str(b) for b in inst.delta]}")
        if all_om:
            envs = fb2.envs
            if envs is None:
                envs = fb2.envs = {}
            # An entry is the env, or the block specialized to it (whose
            # env is empty); never the block itself, which would make
            # the block a reference cycle.
            hit = envs.get(all_om)
            if hit is None:
                _count(_BLOCK_COUNTS, "tal.fast.block", False)
                env2 = _make_env(delta, all_om)
                _remember(envs, all_om, env2, _BLOCK_COUNTS)
            elif hit.__class__ is FastBlock:
                _count(_BLOCK_COUNTS, "tal.fast.block", True)
                fb2, env2 = hit, ()
            else:
                _count(_BLOCK_COUNTS, "tal.fast.block", True)
                # Second entry with the same omegas: the pair is warm
                # enough to pay for baking the env into a closed,
                # JIT-eligible copy.  Once-entered blocks (the common
                # case outside loops) never reach here.
                env2 = hit
                spec = _specialize(fb2, env2)
                if spec is not None:
                    envs[all_om] = spec
                    fb2, env2 = spec, ()
        else:
            env2 = ()
        if fb2.jit_fn is None and fb2.desc is not None:
            fb2.hot += 1
            if fb2.hot >= JIT_THRESHOLD:
                _promote(fb2)
        return fb2, env2

    env: tuple = ()
    pc = 0
    if state.__class__ is FastPoint:
        fb, env, pc = state
    else:
        fb = _block_for_state(machine, state)
    while True:
        ops = fb.ops
        nops = fb.nops
        req = None
        jf = fb.jit_fn
        if jf is not None and pc == 0:
            FB[0], FB[1], FB[2] = fuel, 0, 0
            try:
                # pc == -1 with a request; n re-entries of a loop variant
                pc, fuel, req, n = jf(mem, regs, fuel, fb.jit_consts, FB)
            except BaseException:
                fuel = FB[0]
                counters[0] += FB[2]
                fail(fb, env, FB[1])
                raise
            counters[0] += n
        if req is None:
            while pc < nops:
                if fuel == 0:
                    exhaust(fb, env, pc)
                fuel -= 1
                try:
                    r = ops[pc](mem, regs, env)
                except BaseException:
                    fail(fb, env, pc)
                    raise
                if r is None:
                    pc += 1
                    continue
                tag = r[0]
                if tag == "bind":
                    counters[1] += 1
                    env = r[1]
                    pc += 1
                elif tag == "shadow" and ft:
                    env = r[1]
                    pc += 1
                else:  # "enter" (taken bnz), or a delegation
                    req = r
                    break
            else:
                if fuel == 0:
                    exhaust(fb, env, nops)
                fuel -= 1
                try:
                    req = fb.term(mem, regs, env)
                except BaseException:
                    fail(fb, env, nops)
                    raise
        tag = req[0]
        if tag == "enter":
            # Hot path: a block's const jump request is one stable tuple,
            # so an identity memo skips re-hashing the omega types.
            hit = enter_memo.get(id(req))
            if hit is not None and hit[0] is req:
                fb2, env2 = hit[1], hit[2]
                counters[0] += 1
                if fb2.jit_fn is None and fb2.desc is not None:
                    fb2.hot += 1
                    if fb2.hot >= JIT_THRESHOLD:
                        _promote(fb2)
            else:
                try:
                    fb2, env2 = enter(req[1], req[2], req[3])
                except BaseException:
                    src = req[4]
                    fail(fb, env, src if isinstance(src, int) else nops)
                    raise
                if len(enter_memo) > 4096:
                    enter_memo.clear()
                enter_memo[id(req)] = (req, fb2, env2)
            if fb2 is fb and env2 is env and pc < 0 and fb.desc:
                # The JIT'd block jumped back into itself: from now on
                # it runs the whole loop in one call.
                _promote_loop(fb, req)
            fb, env, pc = fb2, env2, 0
            continue
        if tag == "halt":
            hs = req[1]
            _spill(regs, mregs)
            flush()
            machine._fast_residual = hs
            return hs
        if tag == "imp" and ft:
            # Boundary crossing: spill + settle fuel and hand the F
            # payload to the FT driver; the block resumes fast at the
            # next instruction -- no residual materialised.
            _spill(regs, mregs)
            flush()
            return ImportRequest(req[1], FastPoint(fb, env, pc + 1))
        # "ref", or an FT instruction on a pure T machine: one step by
        # the reference rules, charged as ref charges it
        fuel += 1
        residual = _materialize(fb, env, pc)
        _spill(regs, mregs)
        flush()
        machine._fast_residual = residual
        budget.consume_fuel()
        out = machine.step(residual)
        regs = [mregs.get(r, _UNSET) for r in REGISTERS]
        base = fuel = budget.fuel_remaining
        if out.__class__ is InstrSeq:
            fb, env, pc = _block_for_state(machine, out), (), 0
            continue
        if out.__class__ is HaltedState:
            machine._fast_residual = out
        return out


def fast_drive(machine, state) -> HaltedState:
    """Fast-tier replacement for :meth:`TalMachine._drive`."""
    budget = machine.budget
    with OBS.span("t.run_seq", "t"):
        try:
            return _run_fast(machine, state, ft=False)
        except RecursionError:
            raise budget.depth_error() from None
        finally:
            machine._state = machine._fast_residual


def fast_run_t(machine, state):
    """Fast-tier T segment of the FT driver: runs to a halt or an
    ``import`` request; a fuel trip leaves the exact reference residual
    in ``machine._fast_residual``."""
    return _run_fast(machine, state, ft=True)


# ---------------------------------------------------------------------------
# The template JIT
# ---------------------------------------------------------------------------

_JITABLE = {"mv", "aop", "bnz_c", "ld", "st", "alloc", "salloc", "sfree",
            "sld", "sst", "unfold"}
_JIT_TERMS = {"halt", "jmp_c", "call_c", "ret"}

_JIT_GLOBALS = {
    "WInt": WInt, "WLoc": WLoc, "TyApp": TyApp, "Fold": Fold,
    "HTuple": HTuple, "HaltedState": HaltedState, "_U": _UNSET,
    "__builtins__": {"len": len, "tuple": tuple},
}


def _jit_source(ops: tuple, term: tuple,
                back: Optional[int] = None) -> Optional[tuple]:
    """Render a block's descriptors into one fused Python function (the
    template JIT).  Returns ``(src, const_specs)`` or ``None`` when any
    op needs the environment, binds a type variable, or delegates.

    The generated function is the happy path only: any check failure
    returns a deopt ``(pc, fuel, None, n)`` and the direct-threaded
    interpreter re-executes from ``pc`` for exact errors and accounting.
    Calls into :class:`Memory` that can raise are preceded by a
    fuel/pc sync through the ``FB`` box.

    ``back`` renders the boxed loop variant: the body sits inside
    ``while True`` and the jump request ``C[back]``, which re-enters this
    very block, becomes ``continue``.  ``n`` counts those re-entries (it
    is 0 in the plain variant) so the driver can account one block
    instantiation per iteration.  The const specs do not depend on
    ``back``, so both variants share one const tuple.
    """
    consts: List[tuple] = []
    lines: List[str] = ["def _jit(mem, regs, fuel, C, FB):"]
    pad, n = "    ", "0"
    if back is not None:
        lines += ["    n = 0", "    while True:"]
        pad, n = "        ", "n"

    def const(spec) -> str:
        consts.append(spec)
        return f"C[{len(consts) - 1}]"

    def jump(spec) -> str:
        c = const(spec)
        if len(consts) - 1 == back:
            return "n += 1; continue"
        return f"return (-1, fuel, {c}, {n})"

    def emit(s: str) -> None:
        lines.append(pad + s)

    def sync(pc: int) -> None:
        emit(f"FB[0] = fuel; FB[1] = {pc}"
             + ("; FB[2] = n" if back is not None else ""))

    for pc, d in enumerate(ops):
        tag = d[0]
        if tag not in _JITABLE:
            return None
        deopt = f"return ({pc}, fuel, None, {n})"
        emit(f"if fuel == 0: {deopt}")
        if tag == "mv":
            _, rd, spec = d
            if spec[0] == "c":
                emit("fuel -= 1")
                emit(f"regs[{rd}] = {const(('word', spec[1]))}")
            elif spec[0] == "r":
                emit(f"w = regs[{spec[1]}]")
                emit(f"if w is _U: {deopt}")
                emit("fuel -= 1")
                emit(f"regs[{rd}] = w")
            else:
                return None
        elif tag == "aop":
            _, name, rd, rs, _rs_name, spec = d
            pyop = _AOP_PY[name]
            emit(f"w = regs[{rs}]")
            emit(f"if w.__class__ is not WInt: {deopt}")
            if spec[0] == "c":
                if spec[1].__class__ is not WInt:
                    return None
                emit("fuel -= 1")
                emit(f"regs[{rd}] = WInt(w.value {pyop} {spec[1].value})")
            elif spec[0] == "r":
                emit(f"v = regs[{spec[1]}]")
                emit(f"if v.__class__ is not WInt: {deopt}")
                emit("fuel -= 1")
                emit(f"regs[{rd}] = WInt(w.value {pyop} v.value)")
            else:
                return None
        elif tag == "bnz_c":
            _, rs, _name, u = d
            emit(f"w = regs[{rs}]")
            emit(f"if w.__class__ is not WInt: {deopt}")
            emit("fuel -= 1")
            emit(f"if w.value != 0: {jump(('enter', u, None, pc))}")
        elif tag == "ld":
            _, rd, rs, index = d
            emit(f"w = regs[{rs}]")
            emit(f"if w.__class__ is not WLoc: {deopt}")
            emit("fuel -= 1")
            sync(pc)
            emit("t = mem.tuple_at(w.loc).words")
            emit(f"if not 0 <= {index} < len(t): "
                 f"return ({pc}, fuel + 1, None, {n})")
            emit(f"regs[{rd}] = t[{index}]")
        elif tag == "st":
            _, rd, index, rs, _name = d
            emit(f"w = regs[{rd}]")
            emit(f"if w.__class__ is not WLoc: {deopt}")
            emit(f"v = regs[{rs}]")
            emit(f"if v is _U: {deopt}")
            emit("fuel -= 1")
            sync(pc)
            emit(f"mem.store_field(w.loc, {index}, v)")
        elif tag == "alloc":
            _, rd, n_words, nu = d
            emit("fuel -= 1")
            sync(pc)
            emit(f"ws = mem.pop({n_words})")
            emit(f"regs[{rd}] = WLoc(mem.alloc(HTuple(tuple(ws)), "
                 f"{const(('nu', nu))}))")
        elif tag == "salloc":
            emit("fuel -= 1")
            sync(pc)
            emit(f"mem.push(*{const(('units', d[1]))})")
        elif tag == "sfree":
            emit("fuel -= 1")
            sync(pc)
            emit(f"mem.pop({d[1]})")
        elif tag == "sld":
            _, rd, index = d
            emit("fuel -= 1")
            sync(pc)
            emit(f"regs[{rd}] = mem.peek({index})")
        elif tag == "sst":
            _, index, rs, _name = d
            emit(f"v = regs[{rs}]")
            emit(f"if v is _U: {deopt}")
            emit("fuel -= 1")
            sync(pc)
            emit(f"mem.poke({index}, v)")
        elif tag == "unfold":
            _, rd, spec = d
            if spec[0] != "r":
                return None
            emit(f"w = regs[{spec[1]}]")
            emit(f"if w.__class__ is not Fold: {deopt}")
            emit("fuel -= 1")
            emit(f"regs[{rd}] = w.body")
    nops = len(ops)
    tag = term[0]
    deopt = f"return ({nops}, fuel, None, {n})"
    emit(f"if fuel == 0: {deopt}")
    if tag == "halt":
        _, r, r_name, t, ftv = term
        if ftv:
            return None
        emit(f"w = regs[{r}]")
        emit(f"if w is _U: {deopt}")
        emit("fuel -= 1")
        emit(f"return (-1, fuel, ('halt', HaltedState(w, "
             f"{const(('ty', t.ty))}, {const(('ty', t.sigma))}, "
             f"{r_name!r})), {n})")
    elif tag == "jmp_c":
        emit("fuel -= 1")
        emit(jump(('enter', term[1], None, nops)))
    elif tag == "call_c":
        _, u, sigma, q = term
        emit("fuel -= 1")
        emit(jump(('enter', u, (sigma, q), nops)))
    elif tag == "ret":
        _, r, _r_name, _rr = term
        emit(f"w = regs[{r}]")
        emit("om = ()")
        emit("while w.__class__ is TyApp:")
        emit("    om = tuple(w.insts) + om; w = w.body")
        emit(f"if w.__class__ is not WLoc: {deopt}")
        emit("fuel -= 1")
        emit(f"return (-1, fuel, ('enter', w.loc, om, (), None), {n})")
    else:
        return None
    return ("\n".join(lines) + "\n", tuple(consts))


def _jit_unboxed_source(ops: tuple, b: int) -> Optional[str]:
    """The unboxed loop variant of a block whose ``bnz`` at pc ``b``
    re-enters it, or ``None`` unless every op before ``b`` is an int
    ``aop`` or a ``mv`` of an int constant or a register.

    Registers live in Python ints ``x<slot>`` for the whole loop.  On
    entry each register the loop reads before writing must hold a
    ``WInt``, and an iteration runs only while the fuel covers all of it
    (``b + 1`` steps), so nothing inside can trap or run out: otherwise
    the function deopts at pc 0, leaving the rest to the interpreter.
    On fall-through the written registers are boxed and the block goes on
    at ``b + 1``."""
    reads: List[int] = []
    writes: List[int] = []
    body: List[str] = []

    def read(spec) -> Optional[str]:
        if spec[0] == "c":
            w = spec[1]
            return str(w.value) if w.__class__ is WInt else None
        if spec[0] == "r":
            use(spec[1])
            return f"x{spec[1]}"
        return None

    def use(slot: int) -> None:
        if slot not in writes and slot not in reads:
            reads.append(slot)

    def write(slot: int, expr: str) -> None:
        body.append(f"x{slot} = {expr}")
        if slot not in writes:
            writes.append(slot)

    for d in ops[:b]:
        if d[0] == "mv":
            v = read(d[2])
            if v is None:
                return None
            write(d[1], v)
        elif d[0] == "aop":
            _, name, rd, rs, _rs_name, spec = d
            use(rs)
            v = read(spec)
            if v is None:
                return None
            write(rd, f"x{rs} {_AOP_PY[name]} {v}")
        else:
            return None
    rs = ops[b][1]
    use(rs)
    cost = b + 1
    box = "; ".join(f"regs[{s}] = WInt(x{s})" for s in writes) or "pass"
    lines = ["def _jit(mem, regs, fuel, C, FB):",
             f"    if fuel < {cost}: return (0, fuel, None, 0)"]
    for s in reads:
        lines += [f"    w = regs[{s}]",
                  "    if w.__class__ is not WInt: return (0, fuel, None, 0)",
                  f"    x{s} = w.value"]
    lines += ["    n = 0", "    while True:", f"        fuel -= {cost}"]
    lines += ["        " + line for line in body]
    lines += [f"        if x{rs} == 0:",
              f"            {box}",
              f"            return ({b + 1}, fuel, None, n)",
              "        n += 1",
              f"        if fuel < {cost}:",
              f"            {box}",
              "            return (0, fuel, None, n)"]
    return "\n".join(lines) + "\n"


def _build_const(spec: tuple):
    kind = spec[0]
    if kind == "word":
        return _resolve_const(spec[1])
    if kind == "units":
        return (WUnit(),) * spec[1]
    if kind == "nu":
        return spec[1]
    if kind == "ty":
        return spec[1]
    if kind == "enter":
        _, u, extra, pc = spec
        loc, omegas = _target_of(_resolve_const(u))
        return ("enter", loc, omegas, extra if extra else (), pc)
    raise AssertionError(f"unknown const spec {kind!r}")


def _compiled(src: str):
    fn = _JIT_FNS.get(src)
    if fn is None:
        namespace: dict = {}
        exec(compile(src, "<tal-template-jit>", "exec"),
             dict(_JIT_GLOBALS), namespace)
        fn = namespace["_jit"]
        _JIT_FNS.put(src, fn)
    return fn


def _promote(fb: FastBlock) -> None:
    """Render and compile a block that reached :data:`JIT_THRESHOLD`.  A
    block the template JIT cannot take drops its descriptors, so it is
    never counted again."""
    desc = fb.desc
    if desc is None or fb.jit_fn is not None:
        return  # another thread got here first
    spec = _jit_source(*desc)
    try:
        consts = None if spec is None else tuple(
            _build_const(c) for c in spec[1])
    except MachineError:
        consts = None  # e.g. a const jump to a non-location value
    if consts is None:
        fb.desc = None
        return
    fb.jit_specs, fb.jit_consts = spec[1], consts
    fb.jit_fn = _compiled(spec[0])
    if OBS.enabled:
        OBS.metrics.inc("tal.fast.jit.promoted")


def _promote_loop(fb: FastBlock, req: tuple) -> None:
    """Re-render the JIT'd ``fb``, whose jump request ``req`` just
    re-entered it with the same env, as a loop: unboxed when the ops
    before a ``bnz`` back-edge allow it, else the boxed body inside
    ``while True``.  Tried once per block."""
    desc, fb.desc = fb.desc, None
    if desc is None:
        return  # another thread got here first
    ops, term = desc
    back = next((k for k, c in enumerate(fb.jit_consts) if c is req), None)
    if back is None:
        return  # a ``ret`` into itself: no stable request to loop on
    b = fb.jit_specs[back][3]
    src = _jit_unboxed_source(ops, b) if b < len(ops) else None
    if src is None:
        src = _jit_source(ops, term, back)[0]
    fb.jit_fn = _compiled(src)
    if OBS.enabled:
        OBS.metrics.inc("tal.fast.jit.loops")
