"""Rule dispatch of the T typechecker.

Instructions, operands and terminators reach their rules through tables
indexed by node class, resolved on each checker class.  These tests pin
what the tables must keep from the ``isinstance`` chains they replaced:
a subclass's rule override is used, an unlisted instruction reaches
the extension hook, and FT's ``protect`` still renames a shadowing
binder in the rest of its sequence.
"""

import dataclasses

import pytest

from repro.errors import FTTypeError
from repro.ft.syntax import Protect
from repro.ft.typecheck import FTTypechecker
from repro.tal.syntax import (
    DeltaBind, Halt, Instruction, KIND_ZETA, Mv, NIL_STACK, QEnd, RegFileTy,
    seq, StackTy, TInt, TUnit, WInt,
)
from repro.tal.typecheck import InstrState, TalTypechecker

END_INT = QEnd(TInt(), NIL_STACK)


def start(delta=(), sigma=NIL_STACK, q=END_INT):
    return InstrState(delta, RegFileTy(), sigma, q)


class TestRuleTables:
    def test_subclass_override_is_dispatched(self):
        seen = []

        class Tracing(TalTypechecker):
            def _step_mv(self, st, i):
                seen.append(i)
                return super()._step_mv(st, i)

        mv = Mv("r1", WInt(3))
        out = Tracing().step_instruction(start(), mv)
        assert seen == [mv]
        assert out.chi.get("r1") == TInt()
        assert TalTypechecker()._instr_rules[Mv] is TalTypechecker._step_mv

    def test_unlisted_instruction_reaches_extension_hook(self):
        @dataclasses.dataclass(frozen=True, slots=True)
        class Nop(Instruction):
            pass

        with pytest.raises(FTTypeError, match="not a pure T instruction"):
            TalTypechecker().step_instruction(start(), Nop())

        class WithNop(TalTypechecker):
            def step_extended_instruction(self, st, i):
                return st if isinstance(i, Nop) else \
                    super().step_extended_instruction(st, i)

        st = start()
        assert WithNop().step_instruction(st, Nop()) is st

    def test_pure_t_checker_rejects_protect(self):
        with pytest.raises(FTTypeError, match="not a pure T instruction"):
            TalTypechecker().step_instruction(start(), Protect((), "z"))


class TestProtectInSequence:
    def test_shadowing_protect_is_renamed_in_the_rest(self):
        zbind = DeltaBind(KIND_ZETA, "z")
        st = start(delta=(zbind,), sigma=StackTy((TUnit(),), "z"),
                   q=QEnd(TInt(), StackTy((TUnit(),), "z")))
        body = seq(Protect((TUnit(),), "z"), Mv("r1", WInt(7)),
                   Halt(TInt(), StackTy((TUnit(),), "z"), "r1"))
        # Stepped alone, the protect is rejected for shadowing ...
        with pytest.raises(FTTypeError, match="shadows"):
            FTTypechecker().step_instruction(st, body.instrs[0])
        # ... but in a sequence its binder, and the rest's ``z`` with
        # it, is renamed fresh, so the halt still matches the marker.
        FTTypechecker().check_sequence(st, body)
