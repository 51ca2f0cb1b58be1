#!/usr/bin/env python3
"""Compile F functions to typed assembly and verify the JIT obligation.

The paper's section 6 frames JIT correctness as: every replacement of a
high-level component by compiled assembly must be a contextual
equivalence in FT.  This script is that loop, executable:

1. take an F function in the arithmetic fragment;
2. compile it to a multi-block T component (repro.compile);
3. show the generated assembly;
4. check the equivalence obligation with the differential checker.
"""

from repro.equiv.checker import check_equivalence
from repro.f.syntax import App, BinOp, FArrow, FInt, If0, IntE, Lam, Var
from repro.ft.machine import evaluate_ft
from repro.ft.typecheck import check_ft_expr
from repro.compile import compile_function, jit_rewrite
from repro.surface.pretty import pretty_component


def main() -> None:
    # |x| clamped: if0 x then 0 else x * x
    source = Lam(
        (("x", FInt()),),
        If0(Var("x"), IntE(0), BinOp("*", Var("x"), Var("x"))))
    print("=== source F function ===")
    print(source)

    result = compile_function(source)
    compiled, comp = result.wrapped, result.component
    print()
    print(f"=== compiled to {len(comp.heap)} basic blocks ===")
    print(pretty_component(comp))

    ty, _ = check_ft_expr(compiled)
    print(f"\ncompiled replacement typechecks at: {ty}")

    print("\n=== behaviour ===")
    for n in (-4, 0, 6):
        value, _ = evaluate_ft(App(compiled, (IntE(n),)))
        print(f"  compiled({n}) = {value}")

    print("\n=== the JIT correctness obligation ===")
    report = check_equivalence(source, compiled,
                               FArrow((FInt(),), FInt()), fuel=25_000)
    print(f"  source ~ compiled : {report}")

    print("\n=== whole-program rewriting ===")
    program = App(
        Lam((("f", FArrow((FInt(),), FInt())),),
            BinOp("+", App(Var("f"), (IntE(3),)),
                  App(Var("f"), (IntE(-3),)))),
        (source,))
    rewritten = jit_rewrite(program)
    before, _ = evaluate_ft(program)
    after, _ = evaluate_ft(rewritten)
    print(f"  source program value: {before}")
    print(f"  JIT-rewritten value:  {after}")


if __name__ == "__main__":
    main()
