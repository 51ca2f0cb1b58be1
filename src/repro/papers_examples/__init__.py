"""Every example program from the FunTAL paper, built programmatically.

Modules (one per figure / inline example):

* :mod:`repro.papers_examples.sec3_sequences` -- the inline section-3
  typing examples (``mv/salloc/sst``, the ``jmp`` example, the ``call``
  example);
* :mod:`repro.papers_examples.fig3_call_to_call` -- Fig 3's call-to-call
  program, whose control flow is Fig 4;
* :mod:`repro.papers_examples.push7` / ``import_example`` -- section 4.2's
  stack-modifying lambda and ``import`` examples;
* :mod:`repro.papers_examples.fig11_jit` -- the JIT compilation example,
  whose control flow is Fig 12;
* :mod:`repro.papers_examples.fig16_two_blocks` -- the one-block /
  two-block equivalent components;
* :mod:`repro.papers_examples.fig17_factorial` -- factorial, functional
  (``factF``) and imperative (``factT``).

The package also hosts the *runnable example registry* shared by the CLI
(``funtal examples``) and the evaluation service (``example`` jobs in
:mod:`repro.serve`): :func:`example_entries` maps stable names to
``(blurb, build)`` pairs and :func:`resolve_example` additionally accepts
the paper's figure numbers as aliases; :func:`example_node` builds each
example once per process.
"""

from typing import Callable, Dict, Optional, Tuple

__all__ = ["EXAMPLE_ALIASES", "example_entries", "example_node",
           "resolve_example"]


def example_entries() -> Dict[str, Tuple[str, Callable[[], object]]]:
    """Name -> (blurb, zero-arg builder) for every runnable example."""
    from repro.f.syntax import App, IntE, TupleE
    from repro.papers_examples import (
        fig11_jit, fig16_two_blocks, fig17_factorial,
    )

    return {
        "jit-source": ("Fig 11 source program (pure F)",
                       fig11_jit.build_source),
        "jit": ("Fig 11 JIT-compiled mixed program", fig11_jit.build_jit),
        "two-blocks-1": ("Fig 16 one-block add-two, applied to 5",
                         lambda: App(fig16_two_blocks.build_f1(),
                                     (IntE(5),))),
        "two-blocks-2": ("Fig 16 two-block add-two, applied to 5",
                         lambda: App(fig16_two_blocks.build_f2(),
                                     (IntE(5),))),
        "fact-f": ("Fig 17 functional factorial of 6",
                   lambda: App(fig17_factorial.build_fact_f(), (IntE(6),))),
        "fact-t": ("Fig 17 imperative factorial of 6",
                   lambda: App(fig17_factorial.build_fact_t(), (IntE(6),))),
        "fig17": ("Fig 17 both factorials of 6 (functional, then "
                  "imperative)",
                  lambda: TupleE((
                      App(fig17_factorial.build_fact_f(), (IntE(6),)),
                      App(fig17_factorial.build_fact_t(), (IntE(6),))))),
    }


#: Figure-number aliases accepted wherever an example name is.
EXAMPLE_ALIASES = {
    "fig11": "jit",
    "fig11-source": "jit-source",
    "fig16": "two-blocks-2",
}


def resolve_example(name: str) -> Optional[Tuple[str, Callable[[], object]]]:
    """Look up an example by name or figure alias; None when unknown."""
    entries = example_entries()
    return entries.get(EXAMPLE_ALIASES.get(name, name))


#: Canonical example name -> its program, built at the first request.
_NODES: Dict[str, object] = {}


def example_node(name: str) -> Optional[object]:
    """The program of an example, by name or figure alias, built once
    per process; None when unknown.  Programs are immutable, so every
    request shares one: its load templates, fast-tier blocks and
    boundary wrappers, kept on its nodes, stay warm across runs."""
    key = EXAMPLE_ALIASES.get(name, name)
    node = _NODES.get(key)
    if node is None:
        entry = example_entries().get(key)
        if entry is None:
            return None
        # a racing thread's build is dropped: one program per name
        node = _NODES.setdefault(key, entry[1]())
    return node
