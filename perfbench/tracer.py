"""Span recording for the traced run.

The tracer rebinds public qkdauth names to wrappers that record one span
per call: span id, name, start ns, end ns, parent span id and op id.  A
function is rebound in every qkdauth module that holds it, so
``qkdauth.protocol.compose_tag`` and ``qkdauth.simulator.harvest_keys`` are
timed as well as the defining module's name; a method or classmethod is
rebound on its class.  Wrappers record nothing outside an op or the set-up,
so the benchmark's own checks run untraced.  A name missing at the current
commit is reported as absent and left alone.

Each span's self time (its duration minus its children's) is added to a
per-op, per-name total as the span closes.  The spans themselves are kept
in flat integer arrays, which the garbage collector never scans, up to
``MAX_SPANS``; later spans are counted as dropped, so a run that makes
millions of calls cannot exhaust memory.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Callable

Hook = Callable[[Counter, tuple, dict, object], None]
SETUP_OP = -1  # op id of the set-up's spans
MAX_SPANS = 200_000


class Tracer:
    def __init__(self, package: str = "qkdauth"):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span = {k: array("q") for k in ("id", "name", "start", "end", "parent", "op")}
        self.dropped = 0
        # (op, name) -> [calls, total ns, self ns]
        self.totals: dict[tuple[int, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op: "int | None" = None
        self.absent: list[str] = []
        self._stack: list[list[int]] = []  # [span id, start ns, child ns] of each open span
        self._next_id = 0
        self._bindings: list[tuple[object, str, object, object]] = []

    @property
    def recorded(self) -> int:
        return len(self._span["id"])

    # -- spans ------------------------------------------------------------------

    def _open(self) -> None:
        self._stack.append([self._next_id, perf_counter_ns(), 0])
        self._next_id += 1

    def _close(self, name: str) -> None:
        end = perf_counter_ns()
        sid, start, child_ns = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        t = self.totals[(self.op, name)]
        t[0] += 1
        t[1] += dur
        t[2] += dur - child_ns
        if self.recorded >= MAX_SPANS:
            self.dropped += 1
            return
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        s = self._span
        s["id"].append(sid)
        s["name"].append(self._name_ids[name])
        s["start"].append(start)
        s["end"].append(end)
        s["parent"].append(parent[0] if parent is not None else -1)
        s["op"].append(self.op)

    def _wrap(self, name: str, fn: Callable, hook: "Hook | None") -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name)
            if hook is not None:
                hook(tracer.counts[tracer.op], args, kwargs, result)
            return result

        return traced

    def begin(self, op: int) -> None:
        """Open the root span of op ``op`` (SETUP_OP for the set-up)."""
        self.op = op
        self._open()

    def end(self, name: str = "op") -> None:
        self._close(name)
        self.op = None

    # -- rebinding --------------------------------------------------------------

    def prepare(self, targets: "list[tuple[str, str]]",
                hooks: "dict[str, Hook] | None" = None) -> None:
        """Build the rebinding plan for ``(module, qualified name)`` targets.

        The modules must already be imported.  Nothing is rebound until
        ``install``.
        """
        hooks = hooks or {}
        loaded = [m for k, m in list(sys.modules.items())
                  if m is not None and (k == self.package or k.startswith(self.package + "."))]
        for module_name, qualname in targets:
            span_name = f"{module_name}.{qualname}"
            module = sys.modules.get(f"{self.package}.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            if attr.startswith("__"):
                raise ValueError(f"refusing to wrap dunder {span_name}")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(span_name)
                continue
            hook = hooks.get(span_name)
            if owner_name:
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(span_name, raw.__func__, hook))
                else:
                    wrapped = self._wrap(span_name, raw, hook)
                self._bindings.append((owner, attr, raw, wrapped))
                continue
            wrapped = self._wrap(span_name, raw, hook)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._bindings.append((mod, key, raw, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw, _ in self._bindings:
            setattr(owner, attr, raw)

    # -- results ----------------------------------------------------------------

    def summarize(self, ops: "set[int]") -> "dict[str, dict[str, int]]":
        """Per span name over the given ops: calls, total ns and self ns."""
        out: dict[str, dict[str, int]] = {}
        for (op, name), (calls, total, self_ns) in self.totals.items():
            if op in ops:
                s = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
                s["calls"] += calls
                s["total_ns"] += total
                s["self_ns"] += self_ns
        return out

    def write(self, path: str) -> None:
        """One JSON array per span: [id, name, start_ns, end_ns, parent, op];
        parent is null for a root span and op is -1 for the set-up."""
        s = self._span
        with open(path, "w") as fh:
            for k in range(self.recorded):
                parent = s["parent"][k]
                fh.write(json.dumps([s["id"][k], self.names[s["name"][k]], s["start"][k],
                                     s["end"][k], None if parent < 0 else parent, s["op"][k]],
                                    separators=(",", ":")))
                fh.write("\n")
