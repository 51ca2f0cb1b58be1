"""``repro.compile`` -- a closure-converting whole-F -> T compiler.

The pipeline (see ``docs/compiler.md``):

1. **Typecheck** (:mod:`repro.f.typecheck`, FT's judgment on F's
   fragment) -- reject anything outside core F and give the term's
   type; one pass per compilation, whose type later stages reuse.
2. **Closure conversion** (:mod:`repro.compile.closure`) -- hoist every
   lambda to a top-level code definition with an explicit environment;
   pretty-printable IR; the compilation's interface arrows
   (:mod:`repro.compile.typerep`).
3. **Code generation** (:mod:`repro.compile.codegen`) -- stack-machine
   emission per the paper's Fig 9 calling convention; closures are
   packed existentials built and called in T, except those of an
   interface type, which keep Fig 9's bare code pointer (a capturing
   one materializes at run time through ``import``).
4. **Optimize** (:mod:`repro.tal.optimize`) -- jump threading and
   stack-traffic collapse as a post-pass.

The JIT's scope (:func:`jit_eligible`) and program rewriter
(:func:`jit_rewrite`) live in :mod:`repro.compile.pipeline` too: the JIT
compiles through the same pipeline as everything else.

Translation validation lives in :mod:`repro.compile.validate`: every
compiled component is typechecked, differentially executed against the
CEK engine, and boundedly equivalence-checked; failures quarantine the
source lambda instead of shipping wrong code.
"""

from repro.errors import CompileError
from repro.compile.closure import ClosProgram, closure_convert
from repro.compile.codegen import generate_expr, generate_function
from repro.compile.names import NameSupply
from repro.compile.pipeline import (
    COMPILE_CACHE, CompilationResult, clear_compile_cache, compile_term,
    is_general_compilable, jit_eligible, jit_rewrite,
)

__all__ = [
    "CompileError", "NameSupply", "ClosProgram", "closure_convert",
    "generate_expr", "generate_function", "COMPILE_CACHE",
    "CompilationResult", "clear_compile_cache", "compile_term",
    "is_general_compilable", "jit_eligible", "jit_rewrite",
    "validate_compilation",
]


def validate_compilation(*args, **kwargs):
    """Lazy facade for :func:`repro.compile.validate.validate_compilation`
    (imported on first use; validation pulls in the equivalence checker)."""
    from repro.compile.validate import validate_compilation as _vc
    return _vc(*args, **kwargs)
