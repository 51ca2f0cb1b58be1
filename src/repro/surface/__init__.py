"""Concrete syntax for FunTAL programs.

The paper's artifact shipped an in-browser typechecker/stepper with a
textual syntax; this package is the reproduction's equivalent:

* :mod:`repro.surface.lexer` -- tokenizer, one regular-expression scan
  over the source;
* :mod:`repro.surface.parser` -- parser for F types and expressions, T
  types/operands/instructions/components, and the FT boundary forms.
  F expressions are read by one loop over an explicit stack, so their
  nesting depth is not bounded by Python's recursion limit; types and
  T components are recursive descent;
* :mod:`repro.surface.pretty` -- the pretty-printer (the AST ``__str__``
  methods emit this syntax; parser round-trip is tested).

Grammar notes (documented in README): stack typings are
``t :: t :: z | nil``; code types are ``forall[a, zeta z, eps e].{r1: t,
...; sigma} q``; in a type-instantiation ``u[omega, ...]`` a *bare*
identifier is resolved by spelling -- names starting with ``z`` are stack
variables, names starting with ``e`` are return-marker variables, anything
else is a type variable (binder lists always carry explicit ``zeta``/
``eps`` sigils, so this convention only governs instantiation sites).
"""

from repro.surface.parser import (  # noqa: F401
    parse_fexpr, parse_ftype, parse_component, parse_ttype, parse_program,
)
from repro.surface.pretty import pretty  # noqa: F401
