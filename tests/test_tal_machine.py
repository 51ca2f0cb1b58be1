"""Unit tests for the T abstract machine: per-instruction execution,
jumps, component loading, traces, and stuck-state detection."""

import pytest

from repro.errors import FuelExhausted, MachineError
from repro.papers_examples import fig3_call_to_call, sec3_sequences
from repro.tal.heap import HeapCell, Memory
from repro.tal.machine import (
    HaltedState, rename_locs, run_component, TalMachine,
)
from repro.tal.syntax import (
    Aop, Balloc, Bnz, BOX, Call, CodeType, Component, DeltaBind, Fold,
    Halt, HCode, HTuple, Jmp, KIND_ALPHA, KIND_EPS, KIND_ZETA, Ld, Loc, Mv,
    NIL_STACK, Pack, QEnd, QEps, QIdx, QReg, Ralloc, REF, RegFileTy, RegOp,
    Ret, Salloc, seq, Sfree, Sld, Sst, St, StackTy, TExists, TInt, TRec,
    TUnit, TVar, TyApp, UnfoldI, Unpack, WInt, WLoc, WUnit,
)

END_INT = QEnd(TInt(), NIL_STACK)


def run_instrs(*parts, memory=None):
    machine = TalMachine(memory)
    return machine.run_seq(seq(*parts)), machine


class TestMemory:
    def test_registers(self):
        mem = Memory()
        mem.set_reg("r1", WInt(3))
        assert mem.get_reg("r1") == WInt(3)

    def test_unset_register_read_is_stuck(self):
        with pytest.raises(MachineError, match="unset register"):
            Memory().get_reg("r1")

    def test_stack_push_pop_order(self):
        mem = Memory()
        mem.push(WInt(1), WInt(2))
        assert mem.peek(0) == WInt(1)
        assert mem.pop(2) == [WInt(1), WInt(2)]

    def test_stack_underflow(self):
        with pytest.raises(MachineError, match="underflow"):
            Memory().pop(1)

    def test_store_to_box_is_stuck(self):
        mem = Memory()
        loc = mem.alloc(HTuple((WInt(1),)), BOX)
        with pytest.raises(MachineError, match="immutable"):
            mem.store_field(loc, 0, WInt(2))

    def test_double_bind_rejected(self):
        mem = Memory()
        loc = mem.alloc(HTuple(()), BOX)
        with pytest.raises(MachineError, match="already bound"):
            mem.bind_all({loc: HeapCell(BOX, HTuple(()))}, (0,), 0)


class TestArithmeticAndMoves:
    def test_mv_and_halt(self):
        halted, _ = run_instrs(Mv("r1", WInt(9)),
                               Halt(TInt(), NIL_STACK, "r1"))
        assert halted.word == WInt(9)

    @pytest.mark.parametrize("op,expected", [("add", 9), ("sub", 5),
                                             ("mul", 14)])
    def test_aops(self, op, expected):
        halted, _ = run_instrs(
            Mv("r1", WInt(7)),
            Aop(op, "r1", "r1", WInt(2)),
            Halt(TInt(), NIL_STACK, "r1"))
        assert halted.word == WInt(expected)

    def test_aop_on_non_int_is_stuck(self):
        with pytest.raises(MachineError, match="non-int"):
            run_instrs(Mv("r1", WUnit()),
                       Aop("add", "r1", "r1", WInt(1)),
                       Halt(TInt(), NIL_STACK, "r1"))


class TestStackInstructions:
    def test_salloc_initializes_with_unit(self):
        halted, _ = run_instrs(
            Salloc(2), Sld("r1", 1),
            Halt(TUnit(), StackTy((TUnit(), TUnit()), None), "r1"))
        assert halted.word == WUnit()

    def test_sst_sld_roundtrip(self):
        halted, _ = run_instrs(
            Mv("r1", WInt(5)), Salloc(1), Sst(0, "r1"), Mv("r1", WInt(0)),
            Sld("r2", 0), Halt(TInt(), NIL_STACK, "r2"))
        assert halted.word == WInt(5)

    def test_sfree_drops(self):
        _, machine = run_instrs(
            Salloc(3), Sfree(2), Mv("r1", WInt(0)),
            Halt(TInt(), NIL_STACK, "r1"))
        assert machine.memory.depth == 1


class TestHeapInstructions:
    def test_ralloc_moves_stack_to_heap(self):
        halted, machine = run_instrs(
            Mv("r1", WInt(1)), Mv("r2", WInt(2)),
            Salloc(2), Sst(0, "r1"), Sst(1, "r2"),
            Ralloc("r3", 2),
            Ld("r1", "r3", 1),
            Halt(TInt(), NIL_STACK, "r1"))
        assert halted.word == WInt(2)
        assert machine.memory.depth == 0

    def test_st_mutates_ralloc_tuple(self):
        halted, _ = run_instrs(
            Mv("r1", WInt(1)), Salloc(1), Sst(0, "r1"),
            Ralloc("r3", 1),
            Mv("r2", WInt(42)), St("r3", 0, "r2"),
            Ld("r1", "r3", 0),
            Halt(TInt(), NIL_STACK, "r1"))
        assert halted.word == WInt(42)

    def test_st_to_balloc_tuple_is_stuck(self):
        with pytest.raises(MachineError, match="immutable"):
            run_instrs(
                Mv("r1", WInt(1)), Salloc(1), Sst(0, "r1"),
                Balloc("r3", 1),
                St("r3", 0, "r1"),
                Halt(TInt(), NIL_STACK, "r1"))


class TestPackUnfold:
    def test_unpack(self):
        ex = TExists("a", TVar("a"))
        halted, _ = run_instrs(
            Mv("r1", Pack(TInt(), WInt(8), ex)),
            Unpack("b", "r2", RegOp("r1")),
            Halt(TVar("b"), NIL_STACK, "r2"))
        assert halted.word == WInt(8)

    def test_unpack_substitutes_rest(self):
        ex = TExists("a", TVar("a"))
        machine = TalMachine()
        state = machine.step(seq(
            Mv("r1", Pack(TInt(), WInt(8), ex)),
            Unpack("b", "r2", RegOp("r1")),
            Halt(TVar("b"), NIL_STACK, "r2")))
        state = machine.step(state)
        # after unpack the halt annotation mentions int, not b
        assert state.term == Halt(TInt(), NIL_STACK, "r2")

    def test_unfold(self):
        mu = TRec("a", TInt())
        halted, _ = run_instrs(
            Mv("r1", Fold(mu, WInt(3))),
            UnfoldI("r2", RegOp("r1")),
            Halt(TInt(), NIL_STACK, "r2"))
        assert halted.word == WInt(3)

    def test_unpack_of_non_package_is_stuck(self):
        with pytest.raises(MachineError, match="non-package"):
            run_instrs(Mv("r1", WInt(1)),
                       Unpack("b", "r2", RegOp("r1")),
                       Halt(TInt(), NIL_STACK, "r2"))


class TestJumps:
    def _block(self, instrs, chi=None):
        return HCode((), chi if chi is not None else RegFileTy(),
                     NIL_STACK, END_INT, instrs)

    def test_jmp_to_component_block(self):
        target = Loc("l")
        block = self._block(seq(Mv("r1", WInt(1)),
                                Halt(TInt(), NIL_STACK, "r1")))
        comp = Component(seq(Jmp(WLoc(target))), ((target, block),))
        halted, _ = run_component(comp)
        assert halted.word == WInt(1)

    def test_bnz_taken_and_not_taken(self):
        target = Loc("l")
        block = self._block(seq(Mv("r1", WInt(100)),
                                Halt(TInt(), NIL_STACK, "r1")))
        for scrutinee, expected in ((1, 100), (0, 0)):
            comp = Component(seq(
                Mv("r1", WInt(scrutinee)),
                Bnz("r1", WLoc(target)),
                Mv("r1", WInt(0)),
                Halt(TInt(), NIL_STACK, "r1"),
            ), ((target, block),))
            halted, _ = run_component(comp)
            assert halted.word == WInt(expected)

    def test_jump_with_leftover_binders_is_stuck(self):
        target = Loc("l")
        block = HCode((DeltaBind(KIND_ZETA, "z"),), RegFileTy(),
                      StackTy((), "z"), END_INT,
                      seq(Mv("r1", WInt(1)),
                          Halt(TInt(), NIL_STACK, "r1")))
        comp = Component(seq(Jmp(WLoc(target))), ((target, block),))
        with pytest.raises(MachineError, match="uninstantiated"):
            run_component(comp)

    def test_jump_to_int_is_stuck(self):
        comp = Component(seq(Mv("r1", WInt(3)), Jmp(RegOp("r1"))))
        with pytest.raises(MachineError, match="non-location"):
            run_component(comp)

    def test_jump_to_data_is_stuck(self):
        target = Loc("l")
        comp = Component(seq(Jmp(WLoc(target))),
                         ((target, HTuple((WInt(1),))),))
        with pytest.raises(MachineError, match="non-code"):
            run_component(comp)

    def test_tyapp_instantiation_at_jump(self):
        # jump to forall[alpha a] block, instantiating a := int; the block
        # halts at its own annotation a which must become int.
        target = Loc("l")
        block = HCode((DeltaBind(KIND_ALPHA, "a"),),
                      RegFileTy.of(r1=TVar("a")), NIL_STACK,
                      QEnd(TVar("a"), NIL_STACK),
                      seq(Halt(TVar("a"), NIL_STACK, "r1")))
        comp = Component(seq(
            Mv("r1", WInt(5)),
            Jmp(TyApp(WLoc(target), (TInt(),))),
        ), ((target, block),))
        halted, _ = run_component(comp)
        assert halted.ty == TInt()
        assert halted.word == WInt(5)


class TestComponentLoading:
    def test_fresh_renaming_isolates_instances(self):
        comp = fig3_call_to_call.build()
        machine = TalMachine()
        first = machine.load_component(comp)
        second = machine.load_component(comp)
        # ten blocks total, no clashes, and the two entry sequences refer
        # to different labels
        assert len(machine.memory.heap) == 10
        assert first != second

    def test_rename_locs_traverses_operands(self):
        mapping = {Loc("a"): Loc("b")}
        iseq = seq(Mv("r1", TyApp(WLoc(Loc("a")), (TInt(),))),
                   Jmp(WLoc(Loc("a"))))
        out = rename_locs(iseq, mapping)
        assert out == seq(Mv("r1", TyApp(WLoc(Loc("b")), (TInt(),))),
                          Jmp(WLoc(Loc("b"))))


class TestFig3Runtime:
    def test_result_and_stack(self):
        halted, machine = run_component(fig3_call_to_call.build())
        assert halted.word == WInt(fig3_call_to_call.EXPECTED_RESULT)
        assert machine.memory.depth == 0

    def test_trace_matches_fig4_shape(self):
        _, machine = run_component(fig3_call_to_call.build(), trace=True)
        kinds = [ev.kind for ev in machine.trace]
        assert kinds == ["enter", "call", "call", "jmp", "ret", "ret",
                         "halt"]
        targets = [ev.pretty_label() for ev in machine.trace[1:-1]]
        assert targets == ["l1", "l2", "l2aux", "l2ret", "l1ret"]

    def test_fig4_register_states(self):
        _, machine = run_component(fig3_call_to_call.build(), trace=True)
        # at the jmp to l2aux, r1 holds 1; at the first ret, r1 holds 2
        jmp_event = next(ev for ev in machine.trace if ev.kind == "jmp")
        regs = dict(jmp_event.regs)
        assert regs["r1"] == WInt(1)
        ret_event = next(ev for ev in machine.trace if ev.kind == "ret")
        assert dict(ret_event.regs)["r1"] == WInt(2)

    def test_fig4_stack_states(self):
        _, machine = run_component(fig3_call_to_call.build(), trace=True)
        # during l2 the stack holds exactly the saved l1ret continuation
        jmp_event = next(ev for ev in machine.trace if ev.kind == "jmp")
        assert len(jmp_event.stack) == 1

    def test_sec3_programs_run(self):
        halted, _ = run_component(sec3_sequences.build_sequence_program())
        assert halted.word == WInt(42)
        halted, _ = run_component(sec3_sequences.build_jmp_program())
        assert halted.word == WUnit()
        halted, _ = run_component(sec3_sequences.build_call_program())
        assert halted.word == WInt(10)


class TestFuel:
    def test_loop_exhausts_fuel(self):
        target = Loc("l")
        block = HCode((), RegFileTy(), NIL_STACK, END_INT,
                      seq(Jmp(WLoc(target))))
        comp = Component(seq(Jmp(WLoc(target))), ((target, block),))
        with pytest.raises(FuelExhausted):
            run_component(comp, fuel=1000)
