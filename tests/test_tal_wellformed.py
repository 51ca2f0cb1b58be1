"""Unit tests for the T well-formedness and marker-restriction judgments."""

import pytest

from repro.errors import FTTypeError
from repro.tal.retmarker import (
    continuation_parts, is_continuation_type, ret_addr_type, ret_type,
)
from repro.tal.syntax import (
    CodeType, DeltaBind, KIND_ALPHA, KIND_EPS, KIND_ZETA, NIL_STACK, QEnd,
    QEps, QIdx, QOut, QReg, RegFileTy, StackTy, TBox, TExists, TInt, TRec,
    TRef, TupleTy, TUnit, TVar,
)
from repro.tal.wellformed import (
    check_chi_minus_q_wf, check_chi_wf, check_delta_wf, check_psi_wf,
    check_q_restriction, check_q_wf, check_stack_wf, check_type_wf,
)

ZBIND = DeltaBind(KIND_ZETA, "z")
EBIND = DeltaBind(KIND_EPS, "e")
ABIND = DeltaBind(KIND_ALPHA, "a")


def cont(tail="z"):
    return TBox(CodeType((), RegFileTy.of(r1=TInt()),
                         StackTy((), tail), QEps("e")))


class TestTypeWf:
    def test_base(self):
        check_type_wf((), TInt())
        check_type_wf((), TUnit())

    def test_bound_var_ok(self):
        check_type_wf((ABIND,), TVar("a"))

    def test_unbound_var_fails(self):
        with pytest.raises(FTTypeError, match="unbound"):
            check_type_wf((), TVar("a"))

    def test_binder_introduces(self):
        check_type_wf((), TExists("a", TVar("a")))
        check_type_wf((), TRec("a", TRef((TVar("a"),))))

    def test_zeta_not_a_type_var(self):
        with pytest.raises(FTTypeError):
            check_type_wf((ZBIND,), TVar("z"))


class TestStackWf:
    def test_nil(self):
        check_stack_wf((), NIL_STACK)

    def test_bound_tail(self):
        check_stack_wf((ZBIND,), StackTy((TInt(),), "z"))

    def test_unbound_tail_fails(self):
        with pytest.raises(FTTypeError, match="stack variable"):
            check_stack_wf((), StackTy((), "z"))

    def test_prefix_checked(self):
        with pytest.raises(FTTypeError):
            check_stack_wf((ZBIND,), StackTy((TVar("a"),), "z"))


class TestDeltaAndChiWf:
    def test_duplicate_delta_rejected(self):
        with pytest.raises(FTTypeError, match="duplicate"):
            check_delta_wf((ABIND, ABIND))

    def test_chi_entries_checked(self):
        with pytest.raises(FTTypeError):
            check_chi_wf((), RegFileTy.of(r1=TVar("a")))

    def test_psi_code_type(self):
        ct = CodeType((ZBIND, EBIND), RegFileTy.of(ra=cont()),
                      StackTy((), "z"), QReg("ra"))
        check_psi_wf((), ct)

    def test_psi_code_type_leaky_var_fails(self):
        ct = CodeType((ZBIND,), RegFileTy.of(r1=TVar("a")),
                      StackTy((), "z"), QOut())
        with pytest.raises(FTTypeError):
            check_psi_wf((), ct)

    def test_psi_tuple(self):
        check_psi_wf((), TupleTy((TInt(), TUnit())))


class TestQWf:
    def test_eps_bound(self):
        check_q_wf((EBIND,), QEps("e"))

    def test_eps_unbound_fails(self):
        with pytest.raises(FTTypeError, match="unbound return-marker"):
            check_q_wf((), QEps("e"))

    def test_end_checks_components(self):
        with pytest.raises(FTTypeError):
            check_q_wf((), QEnd(TVar("a"), NIL_STACK))

    def test_out_always_ok(self):
        check_q_wf((), QOut())


class TestQRestriction:
    def test_register_marker_needs_entry(self):
        with pytest.raises(FTTypeError, match="absent"):
            check_q_restriction((), RegFileTy(), NIL_STACK, QReg("ra"))

    def test_register_marker_needs_continuation_shape(self):
        chi = RegFileTy.of(ra=TInt())
        with pytest.raises(FTTypeError, match="not.*continuation"):
            check_q_restriction((), chi, NIL_STACK, QReg("ra"))

    def test_register_marker_ok(self):
        chi = RegFileTy.of(ra=cont())
        check_q_restriction((ZBIND, EBIND), chi, StackTy((), "z"),
                            QReg("ra"))

    def test_index_marker_must_be_exposed(self):
        with pytest.raises(FTTypeError, match="not exposed"):
            check_q_restriction((), RegFileTy(), NIL_STACK, QIdx(0))

    def test_index_marker_ok(self):
        sigma = StackTy((cont(),), "z")
        check_q_restriction((ZBIND, EBIND), RegFileTy(), sigma, QIdx(0))

    def test_index_marker_needs_continuation_slot(self):
        sigma = StackTy((TInt(),), None)
        with pytest.raises(FTTypeError, match="continuation"):
            check_q_restriction((), RegFileTy(), sigma, QIdx(0))

    def test_eps_marker_needs_binding(self):
        with pytest.raises(FTTypeError, match="abstract"):
            check_q_restriction((), RegFileTy(), NIL_STACK, QEps("e"))
        check_q_restriction((EBIND,), RegFileTy(), NIL_STACK, QEps("e"))

    def test_end_and_out_ok(self):
        check_q_restriction((), RegFileTy(), NIL_STACK,
                            QEnd(TInt(), NIL_STACK))
        check_q_restriction((), RegFileTy(), NIL_STACK, QOut())


class TestChiMinusQ:
    def test_marker_entry_exempt(self):
        # chi \ ra may mention free variables only in the ra entry.
        chi = RegFileTy.of(ra=cont("z"), r1=TInt())
        check_chi_minus_q_wf((), chi, QReg("ra"))

    def test_other_entries_not_exempt(self):
        chi = RegFileTy.of(ra=cont("z"), r1=TVar("a"))
        with pytest.raises(FTTypeError):
            check_chi_minus_q_wf((), chi, QReg("ra"))


class TestRetTypeMetafunctions:
    def test_continuation_shape_recognized(self):
        assert is_continuation_type(cont())
        assert not is_continuation_type(TInt())
        assert not is_continuation_type(TBox(TupleTy((TInt(),))))

    def test_two_register_chi_is_not_continuation(self):
        ct = CodeType((), RegFileTy.of(r1=TInt(), r2=TInt()), NIL_STACK,
                      QOut())
        assert not is_continuation_type(TBox(ct))

    def test_leftover_binders_not_continuation(self):
        ct = CodeType((ZBIND,), RegFileTy.of(r1=TInt()), StackTy((), "z"),
                      QEps("e"))
        assert not is_continuation_type(TBox(ct))

    def test_parts(self):
        reg, ty, sigma, q = continuation_parts(cont())
        assert reg == "r1" and ty == TInt()
        assert sigma == StackTy((), "z") and q == QEps("e")

    def test_ret_type_from_register(self):
        chi = RegFileTy.of(ra=cont())
        ty, sigma = ret_type(QReg("ra"), chi, NIL_STACK)
        assert ty == TInt() and sigma == StackTy((), "z")

    def test_ret_type_from_stack(self):
        sigma = StackTy((cont(),), "z")
        ty, out = ret_type(QIdx(0), RegFileTy(), sigma)
        assert ty == TInt()

    def test_ret_type_from_end(self):
        ty, sigma = ret_type(QEnd(TUnit(), NIL_STACK), RegFileTy(),
                             NIL_STACK)
        assert ty == TUnit() and sigma == NIL_STACK

    def test_ret_type_undefined_for_eps(self):
        with pytest.raises(FTTypeError, match="undefined"):
            ret_type(QEps("e"), RegFileTy(), NIL_STACK)

    def test_ret_addr_type(self):
        chi = RegFileTy.of(ra=cont())
        ct = ret_addr_type(QReg("ra"), chi, NIL_STACK)
        assert isinstance(ct, CodeType)
        assert ct.q == QEps("e")

    def test_ret_addr_type_undefined_for_end(self):
        with pytest.raises(FTTypeError, match="undefined"):
            ret_addr_type(QEnd(TInt(), NIL_STACK), RegFileTy(), NIL_STACK)


# ---------------------------------------------------------------------------
# The well-formedness memo (the ``_wf`` slot of hash-consed types)
# ---------------------------------------------------------------------------

#: A type with no free type variables that is still ill-formed: the inner
#: code type's ``zeta a`` shadows the outer ``alpha a`` by name, so the
#: ``a`` in ``r2``'s type is unbound at kind alpha.
SHADOWED = ("box forall[a].{r1: box forall[zeta a].{r2: a; a} end{int; nil}; "
            "nil} end{int; nil}")


def _verdict(check, delta, node):
    try:
        check(delta, node)
    except FTTypeError as err:
        return False, str(err)
    return True, ""


class TestCrossKindShadowing:
    def test_closed_type_rejected_with_message(self):
        from repro.surface.parser import parse_ttype
        from repro.tal.subst import free_type_vars

        ty = parse_ttype(SHADOWED)
        assert free_type_vars(ty) == set()
        for _ in range(2):   # a second check must not be waved through
            with pytest.raises(FTTypeError) as exc:
                check_type_wf((), ty)
            assert str(exc.value) == (
                "unbound type variable 'a' [judgment: tal.type-wf] "
                "[subject: a]")


_NAMES = ("a", "b", "z", "e")
_KINDS = (KIND_ALPHA, KIND_ZETA, KIND_EPS)


def _gen_delta(rng, size=None):
    names = rng.sample(_NAMES, rng.randint(0, 3) if size is None else size)
    return tuple(DeltaBind(rng.choice(_KINDS), n) for n in names)


def _gen_type(rng, depth):
    pick = rng.randrange(8 if depth > 0 else 3)
    if pick == 0:
        return TInt()
    if pick == 1:
        return TUnit()
    if pick == 2:
        return TVar(rng.choice(_NAMES))
    if pick == 3:
        return TExists(rng.choice(_NAMES), _gen_type(rng, depth - 1))
    if pick == 4:
        return TRec(rng.choice(_NAMES), _gen_type(rng, depth - 1))
    if pick == 5:
        return TRef(tuple(_gen_type(rng, depth - 1)
                          for _ in range(rng.randint(1, 2))))
    if pick == 6:
        return TBox(TupleTy(tuple(_gen_type(rng, depth - 1)
                                  for _ in range(rng.randint(1, 2)))))
    return TBox(_gen_code(rng, depth - 1))


def _gen_stack(rng, depth):
    return StackTy(tuple(_gen_type(rng, depth)
                         for _ in range(rng.randint(0, 2))),
                   rng.choice((None,) + _NAMES))


def _gen_q(rng, depth):
    pick = rng.randrange(4)
    if pick == 0:
        return QEnd(_gen_type(rng, depth), _gen_stack(rng, depth))
    if pick == 1:
        return QEps(rng.choice(_NAMES))
    return QReg("ra") if pick == 2 else QOut()


def _gen_chi(rng, depth):
    regs = rng.sample(("r1", "r2", "ra"), rng.randint(0, 2))
    return RegFileTy.of({r: _gen_type(rng, depth) for r in regs})


def _gen_code(rng, depth):
    return CodeType(_gen_delta(rng), _gen_chi(rng, depth),
                    _gen_stack(rng, depth), _gen_q(rng, depth))


_CHECKS = (
    (check_type_wf, _gen_type), (check_stack_wf, _gen_stack),
    (check_chi_wf, _gen_chi), (check_q_wf, _gen_q), (check_psi_wf, _gen_code),
)


class TestWfMemoInvisible:
    """A node whose memo is warm gives the verdict and message a fresh,
    structurally equal copy gives, under every environment."""

    @pytest.mark.parametrize("seed", range(40))
    def test_warm_node_agrees_with_fresh_copy(self, seed):
        import copy
        import random

        rng = random.Random(seed)
        for _ in range(10):
            check, gen = rng.choice(_CHECKS)
            node = gen(rng, 2)
            large = tuple(DeltaBind(k, n) for n in _NAMES for k in _KINDS)
            deltas = [large, _gen_delta(rng), _gen_delta(rng, 1), (),
                      _gen_delta(rng), large[:6], _gen_delta(rng)]
            for delta in deltas + deltas[::-1]:
                fresh = copy.deepcopy(node)
                assert fresh == node and getattr(fresh, "_wf", None) is None
                assert (_verdict(check, delta, node)
                        == _verdict(check, delta, fresh))

    def test_acceptance_under_larger_delta_does_not_leak(self):
        ty = TBox(TupleTy((TVar("a"), TRef((TVar("a"),)))))
        check_type_wf((ABIND, ZBIND), ty)
        assert ty._wf == (ABIND, ZBIND)
        for smaller in ((ZBIND,), (), (DeltaBind(KIND_ZETA, "a"),)):
            with pytest.raises(FTTypeError, match="unbound type variable"):
                check_type_wf(smaller, ty)
        check_type_wf((ABIND, ZBIND), ty)

    def test_memo_is_not_structure(self):
        import pickle

        from repro.link.fingerprint import stable_fingerprint

        code = CodeType((ZBIND, EBIND), RegFileTy.of(ra=cont()),
                        StackTy((TInt(),), "z"), QReg("ra"))
        fresh = pickle.loads(pickle.dumps(code))
        before = stable_fingerprint(code)
        check_psi_wf((ABIND,), code)
        assert code._wf == (ABIND,)
        assert code == fresh and hash(code) == hash(fresh)
        assert stable_fingerprint(code) == before
        assert pickle.dumps(code) == pickle.dumps(fresh)
        assert not hasattr(pickle.loads(pickle.dumps(code)), "_wf")


class TestWfMemoThreads:
    def test_shared_nodes_checked_from_many_threads(self):
        """Threads checking the same nodes under different environments
        race on their memos; a lost record only costs a re-walk, so every
        verdict still equals a fresh copy's."""
        import copy
        import random
        import sys
        import threading

        rng = random.Random(7)
        cases = []
        for _ in range(40):
            check, gen = rng.choice(_CHECKS)
            node = gen(rng, 2)
            for delta in (_gen_delta(rng), _gen_delta(rng), ()):
                cases.append((check, node, delta, _verdict(
                    check, delta, copy.deepcopy(node))))
        mismatches = []

        def worker(seed):
            order = random.Random(seed)
            for _ in range(30):
                check, node, delta, want = order.choice(cases)
                if _verdict(check, delta, node) != want:
                    mismatches.append((node, delta))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(switch)
        assert mismatches == []
