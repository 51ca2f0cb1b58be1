"""How full the T engines' per-block memos get on the perfbench workloads.

Runs one workload in process with every per-block memo cap lifted and
prints, as JSON, the largest size any one memo reached and the sizes
held by the live blocks at the end:

* ``envs``  -- a fast block's omega lists (``FastBlock.envs``);
* ``sites`` -- a fast block's substituted operand sites and env
  substitutions (``FastBlock.sites``);
* ``inst``  -- a code block's reference instantiations
  (``HCode._inst``, :func:`repro.tal.subst.instantiate_code_block`);
* ``jit_fns`` -- compiled JIT sources in the module table.

``serve-mix`` jobs run through ``execute_job`` in this process, not in
worker processes, so one process sees every job.  The caps in
``repro.tal.fast`` and ``repro.tal.subst`` are sized from this output.

    PYTHONPATH=src python benchmarks/memo_occupancy.py boundary-run 1 20
"""

import gc
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from layers import UNTRACED  # noqa: E402

from repro.tal import fast, machine as tal_machine, subst  # noqa: E402
from repro.tal.syntax import HCode  # noqa: E402

LARGEST = {"envs": 0, "sites": 0, "inst": 0}


def _lift_caps() -> None:
    fast._MEMO_CAP = subst._BLOCK_MEMO_CAP = sys.maxsize
    fast._JIT_FNS.maxsize = sys.maxsize
    remember, instantiate = fast._remember, subst.instantiate_code_block

    def remembering(memo, key, value, counts):
        remember(memo, key, value, counts)
        kind = "envs" if counts is fast._BLOCK_COUNTS else "sites"
        LARGEST[kind] = max(LARGEST[kind], len(memo))

    def instantiating(h, omegas):
        result = instantiate(h, omegas)
        LARGEST["inst"] = max(LARGEST["inst"], len(h._inst[1]))
        return result

    fast._remember = remembering
    for module in (subst, tal_machine, fast):
        module.instantiate_code_block = instantiating


def _spread(sizes):
    sizes = sorted(sizes)
    if not sizes:
        return {"n": 0}
    return {"n": len(sizes), "median": statistics.median(sizes),
            "p99": sizes[int(0.99 * (len(sizes) - 1))], "max": sizes[-1]}


def live_sizes() -> dict:
    gc.collect()
    envs, sites, inst = [], [], []
    for o in gc.get_objects():
        if o.__class__ is fast.FastBlock:
            envs.append(len(o.envs or ()))
            sites.append(len(o.sites))
        elif o.__class__ is HCode and getattr(o, "_inst", None):
            inst.append(len(o._inst[1]))
    return {"blocks": len(envs), "envs": _spread(envs),
            "sites": _spread(sites), "inst": _spread(inst),
            "jit_fns": len(fast._JIT_FNS)}


def main(workload: str, seed: int, seconds: float) -> dict:
    _lift_caps()
    rng = random.Random(seed)
    if workload == "serve-mix":
        from repro.serve.executor import execute_job

        wl = workloads.ServeMix()
        wl.setup(rng)
        wl.close()
        ops = [lambda job=spec.job: execute_job(job) for spec in wl.ops]
    else:
        wl = {"build": workloads.Build, "boundary-run": workloads.BoundaryRun,
              "t-loop": workloads.TLoop}[workload]()
        wl.setup(rng)
        ops = [lambda op=op: op.run(UNTRACED) for op in wl.ops]
    passes = 0
    end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < end:
        for op in ops:
            op()
        passes += 1
    return {"workload": workload, "seed": seed, "passes": passes,
            "largest": dict(LARGEST), "live": live_sizes()}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]),
                          float(sys.argv[3]))))
