"""Hot-code profiler: attribute machine steps to content-hashed code.

Knowing *which* lambdas and TAL blocks are hot, not just how many
steps ran, is what ``funtal top`` and ``funtal flame`` report.  This
module adds that attribution layer: the F engines push an extent onto a
shadow stack at every beta reduction, the T machine tracks the current
code block, and every machine step charges one unit to whatever extent
is on top.  Code is identified by **content hash** -- the SHA-1 of its
pretty-printed form -- so the same lambda observed in different runs,
workers, or engines aggregates under one key, exactly the
identity the compile cache and artifact store already use.

The shadow stack mirrors the machines' own control structure:

* ``beta(lam, depth)`` -- an F call extent, tagged with the frame depth
  at which the body evaluates.  Extents whose depth is gone are popped
  lazily on the next step (and eagerly on a same-depth beta, so proper
  tail calls replace rather than grow the stack).
* ``enter_t(name, block)`` -- T control transfers are flat (jumps), so
  a new block *replaces* the current T extent.
* ``enter_engine()`` / ``exit_engine(base)`` -- a barrier pushed at
  engine-loop entry and popped (by index, exception-safely) on exit, so
  F extents never leak across a language boundary: an ``import`` that
  evaluates F inside T profiles under its own barrier.

Per-step cost when enabled: one depth comparison, one dict add, and one
folded-path tuple add (cached per stack shape).  When disabled the
machines pay a single attribute read (``PROFILER.enabled``), the same
guard discipline as :data:`repro.obs.events.OBS`.

Snapshots (:class:`ProfileSnapshot`) are JSON artifacts carrying the
ranked self-step table (``funtal top``) and the folded stacks
(``funtal flame``, Brendan Gregg's ``a;b;c 42`` flamegraph format);
they merge associatively, so fleet-wide profiles can be folded from
per-worker ones.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Profiler", "PROFILER", "ProfileSnapshot", "content_hash"]

_TOPLEVEL = "<toplevel>"

# Shadow-stack entry kinds.
_F, _T, _MARK = 0, 1, 2


def content_hash(node: Any, kind: str = "f") -> str:
    """The stable identity of a code object: SHA-1 of its pretty-printed
    form, truncated to 16 hex chars.  ``str()`` on the frozen syntax
    nodes is deterministic concrete syntax, so structurally equal code
    hashes identically across processes and runs."""
    blob = f"{kind}:{node}".encode("utf-8", "replace")
    return hashlib.sha1(blob).hexdigest()[:16]


class Profiler:
    """The process-wide shadow-stack profiler (singleton: PROFILER)."""

    __slots__ = ("enabled", "_stack", "_self", "_folded", "_labels",
                 "_kinds", "_hash_cache", "_pins", "_path", "_path_dirty",
                 "_published_steps")

    def __init__(self) -> None:
        self.enabled = False
        self._stack: List[Tuple[int, str, int]] = []
        self._self: Dict[str, int] = {}
        self._folded: Dict[Tuple[str, ...], int] = {}
        self._labels: Dict[str, str] = {}
        self._kinds: Dict[str, str] = {}
        # id() -> hash memo; _pins keeps the hashed objects alive so a
        # recycled id can never alias a different node.
        self._hash_cache: Dict[int, str] = {}
        self._pins: List[Any] = []
        self._path: Tuple[str, ...] = ()
        self._path_dirty = True
        self._published_steps = 0

    # -- switch ---------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._stack.clear()
        self._self.clear()
        self._folded.clear()
        self._labels.clear()
        self._kinds.clear()
        self._hash_cache.clear()
        self._pins.clear()
        self._path = ()
        self._path_dirty = True
        self._published_steps = 0

    # -- code identity --------------------------------------------------

    def _key(self, node: Any, kind: str, label: str) -> str:
        memo = self._hash_cache
        key = memo.get(id(node))
        if key is None:
            key = content_hash(node, kind)
            memo[id(node)] = key
            self._pins.append(node)
            self._labels.setdefault(key, label)
            self._kinds.setdefault(key, kind)
        return key

    # -- engine barriers ------------------------------------------------

    def enter_engine(self) -> int:
        """Push a barrier; returns the index to restore on exit."""
        base = len(self._stack)
        self._stack.append((_MARK, "", 0))
        self._path_dirty = True
        return base

    def exit_engine(self, base: int) -> None:
        del self._stack[base:]
        self._path_dirty = True

    # -- F attribution --------------------------------------------------

    def beta(self, lam: Any, depth: int) -> None:
        """A beta reduction entering ``lam``, whose body evaluates at
        frame ``depth``.  Counts the contraction step itself and opens
        the callee's extent (replacing finished/tail-call extents)."""
        stack = self._stack
        while stack and stack[-1][0] == _F and stack[-1][2] >= depth:
            stack.pop()
        key = self._hash_cache.get(id(lam))
        if key is None:
            params = getattr(lam, "params", ()) or ()
            names = ",".join(str(p[0]) for p in params)
            key = self._key(lam, "f", f"lam({names})")
        stack.append((_F, key, depth))
        self._path_dirty = True
        self._count(key)

    def step(self, depth: int) -> None:
        """A non-beta F contraction at frame ``depth``: lazily unwind
        extents whose frames are gone, then charge the top extent."""
        stack = self._stack
        while stack and stack[-1][0] == _F and stack[-1][2] > depth:
            stack.pop()
            self._path_dirty = True
        top = stack[-1] if stack else None
        self._count(top[1] if top and top[0] != _MARK else _TOPLEVEL)

    # -- T attribution --------------------------------------------------

    def enter_t(self, name: str, block: Any) -> None:
        """A jump into TAL block ``block`` (labelled ``name``): replaces
        the current T extent -- T control flow is flat."""
        stack = self._stack
        if stack and stack[-1][0] == _T:
            stack.pop()
        key = self._key(block, "t", f"block {name.split('%')[0]}")
        stack.append((_T, key, 0))
        self._path_dirty = True

    def step_t(self) -> None:
        """One T machine step: charge the current block."""
        stack = self._stack
        top = stack[-1] if stack else None
        self._count(top[1] if top and top[0] == _T else _TOPLEVEL)

    # -- accounting -----------------------------------------------------

    def _count(self, key: str) -> None:
        self._self[key] = self._self.get(key, 0) + 1
        if self._path_dirty:
            self._path = tuple(e[1] for e in self._stack if e[0] != _MARK)
            self._path_dirty = False
        path = self._path if key != _TOPLEVEL and self._path \
            else (self._path + (_TOPLEVEL,) if key == _TOPLEVEL
                  else (key,))
        self._folded[path] = self._folded.get(path, 0) + 1

    # -- reading --------------------------------------------------------

    def snapshot(self) -> "ProfileSnapshot":
        total = sum(self._self.values())
        from repro.obs.events import OBS
        if OBS.enabled:
            # Delta-publish so repeated snapshots of a live profiler
            # keep ``profile.steps`` equal to the attributed total.
            if total > self._published_steps:
                OBS.metrics.inc("profile.steps",
                                total - self._published_steps)
                self._published_steps = total
            OBS.metrics.set_gauge("profile.sites", float(len(self._self)))
        entries = [
            {"key": key, "kind": self._kinds.get(key, "f"),
             "label": self._labels.get(key, key), "self_steps": steps}
            for key, steps in self._self.items()
        ]
        entries.sort(key=lambda e: (-e["self_steps"], e["key"]))
        folded = [
            {"stack": [self._labels.get(k, k) for k in path],
             "keys": list(path), "steps": steps}
            for path, steps in sorted(self._folded.items(),
                                      key=lambda kv: (-kv[1], kv[0]))
        ]
        return ProfileSnapshot(entries=entries, folded=folded,
                               total_steps=total)


PROFILER = Profiler()


@dataclass
class ProfileSnapshot:
    """A persisted profile: ranked hot-code table + folded stacks.

    ``entries`` ranks content hashes by attributed self steps.
    """

    entries: List[Dict[str, Any]] = field(default_factory=list)
    folded: List[Dict[str, Any]] = field(default_factory=list)
    total_steps: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {"version": 1, "total_steps": self.total_steps,
                "entries": self.entries, "folded": self.folded}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProfileSnapshot":
        return cls(entries=list(data.get("entries", ())),
                   folded=list(data.get("folded", ())),
                   total_steps=int(data.get("total_steps", 0)))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "ProfileSnapshot":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def merge(self, other: "ProfileSnapshot") -> "ProfileSnapshot":
        """Associative fold of two profiles (per-key/per-stack adds)."""
        steps: Dict[str, int] = {}
        meta: Dict[str, Dict[str, str]] = {}
        for entry in self.entries + other.entries:
            steps[entry["key"]] = steps.get(entry["key"], 0) \
                + entry["self_steps"]
            meta.setdefault(entry["key"], {"kind": entry["kind"],
                                           "label": entry["label"]})
        entries = [{"key": k, "kind": meta[k]["kind"],
                    "label": meta[k]["label"], "self_steps": n}
                   for k, n in steps.items()]
        entries.sort(key=lambda e: (-e["self_steps"], e["key"]))
        stacks: Dict[Tuple[str, ...], int] = {}
        labels: Dict[Tuple[str, ...], List[str]] = {}
        for item in self.folded + other.folded:
            path = tuple(item.get("keys") or item["stack"])
            stacks[path] = stacks.get(path, 0) + item["steps"]
            labels.setdefault(path, list(item["stack"]))
        folded = [{"stack": labels[p], "keys": list(p), "steps": n}
                  for p, n in sorted(stacks.items(),
                                     key=lambda kv: (-kv[1], kv[0]))]
        return ProfileSnapshot(entries=entries, folded=folded,
                               total_steps=self.total_steps
                               + other.total_steps)

    def format_table(self, limit: int = 20) -> str:
        """The ``funtal top`` view: rank / self steps / % / kind / hash
        / label."""
        if not self.entries:
            return "(no profile data)"
        lines = [f"{'rank':>4}  {'self':>10}  {'%':>6}  kind  "
                 f"{'code hash':<16}  label",
                 "-" * 72]
        total = self.total_steps or 1
        for rank, entry in enumerate(self.entries[:limit], start=1):
            pct = 100.0 * entry["self_steps"] / total
            label = entry["label"]
            if len(label) > 40:
                label = label[:37] + "..."
            lines.append(
                f"{rank:>4}  {entry['self_steps']:>10}  {pct:>5.1f}%  "
                f"{entry['kind']:<4}  {entry['key']:<16}  {label}")
        lines.append(f"total attributed steps: {self.total_steps}")
        return "\n".join(lines)

    def format_folded(self) -> str:
        """Folded-stack flamegraph lines (``a;b;c 42``), hash-labelled
        frames so the graph aggregates by code identity."""
        lines = []
        for item in self.folded:
            frames = ";".join(
                f"{label} [{key[:8]}]" if key != label else label
                for label, key in zip(item["stack"],
                                      item.get("keys") or item["stack"]))
            lines.append(f"{frames} {item['steps']}")
        return "\n".join(lines) + ("\n" if lines else "")
