"""Outside-in span tracing of the library's public functions.

Nothing in the library is edited. Each traced function is resolved by
module attribute (``"neuroview.cells"``, ``"cell_forward"``), and every
name under which a caller can look it up (``network.cell_forward``,
``neuroview.cell_forward``, ...) is replaced by one shared wrapper, so a
call is recorded once whichever name it went through. A hook whose
function no longer exists is reported as absent rather than failing.

Spans are kept in memory as parallel lists (hook, start, end, parent, op)
and written out once the run ends. A span's self time is its duration
minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Hook:
    """One traced function: a label, the module that defines it and the
    attribute path inside that module (``"DataSet.features"`` for a
    method). ``counter`` optionally maps ``(args, kwargs, result)`` to a
    number stored with the span (a computed quantity, such as matmul
    flops from the argument shapes)."""

    label: str
    module: str
    attr: str
    counter: Optional[Callable] = None


def _resolve(hook: Hook):
    """Return ``(owner, name, function)`` or None when the hook is gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    if not callable(fn):
        return None
    return owner, name, fn


def _aliases(fn, package: str) -> List[Tuple[object, str]]:
    """Every module-level name in ``package`` that is bound to ``fn``."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for name, value in list(vars(mod).items()):
            if value is fn:
                found.append((mod, name))
    return found


class Tracer:
    """Records spans for a fixed set of hooks while installed."""

    def __init__(self, hooks: List[Hook], package: str = "neuroview"):
        self.hooks = list(hooks)
        self.package = package
        self.absent: List[str] = []
        self.op = -1
        # Span columns.
        self.hook_of: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.op_of: List[int] = []
        self.value: List[Optional[float]] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._installed = False
        self._plan = []
        for i, hook in enumerate(self.hooks):
            found = _resolve(hook)
            if found is None:
                self.absent.append(hook.label)
                continue
            owner, name, fn = found
            targets = [(owner, name)]
            if not isinstance(owner, type):
                targets = _aliases(fn, self.package) or targets
            self._plan.append((hook.label, targets, fn, self._wrap(fn, i, hook)))

    def _wrap(self, fn, index: int, hook: Hook):
        clock = time.perf_counter
        hook_of, start, end = self.hook_of, self.start, self.end
        parent, op_of, stack = self.parent, self.op_of, self._stack
        value, counter = self.value, hook.counter
        tracer = self

        def traced(*args, **kwargs):
            span = len(start)
            hook_of.append(index)
            parent.append(stack[-1] if stack else -1)
            op_of.append(tracer.op)
            value.append(None)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if counter is not None:
                try:
                    value[span] = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass  # a changed signature loses the count, not the call
            return result

        return functools.update_wrapper(traced, fn)

    @contextmanager
    def installed(self, op: int):
        """Patch every alias of every resolved hook for the duration."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self.op = op
        self._installed = True
        try:
            for _, targets, fn, wrapper in self._plan:
                for owner, name in targets:
                    self._patches.append((owner, name, fn))
                    setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, fn in reversed(self._patches):
                setattr(owner, name, fn)
            self._patches.clear()
            self._stack.clear()
            self._installed = False
            self.op = -1

    def aliases(self) -> Dict[str, List[str]]:
        """Hook label -> the qualified names it patches (for the record)."""
        return {
            label: [f"{getattr(o, '__module__', '')}.{o.__name__}.{n}"
                    if isinstance(o, type) else f"{o.__name__}.{n}"
                    for o, n in targets]
            for label, targets, _, _ in self._plan
        }

    def summary(self, ops: Callable[[int], bool]) -> Dict[str, dict]:
        """Per resolved hook, over the spans of the ops ``ops`` selects:
        calls, inclusive ms, self ms and the sum of counter values."""
        selfs = self_times(self.start, self.end, self.parent)
        stats = {
            h.label: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "value": 0.0}
            for h in self.hooks if h.label not in self.absent
        }
        for span, hook in enumerate(self.hook_of):
            if not ops(self.op_of[span]):
                continue
            s = stats[self.hooks[hook].label]
            s["calls"] += 1
            s["ms"] += (self.end[span] - self.start[span]) * 1e3
            s["self_ms"] += selfs[span] * 1e3
            if self.value[span] is not None:
                s["value"] += self.value[span]
        return stats

    def calls_under(self, label: str, ancestor: str, ops: Callable[[int], bool]) -> int:
        """Number of spans of ``label`` with an ``ancestor`` span above
        them, over the ops ``ops`` selects."""
        labels = [h.label for h in self.hooks]
        if label not in labels or ancestor not in labels:
            return 0
        want, above = labels.index(label), labels.index(ancestor)
        count = 0
        for span, hook in enumerate(self.hook_of):
            if hook != want or not ops(self.op_of[span]):
                continue
            p = self.parent[span]
            while p >= 0 and self.hook_of[p] != above:
                p = self.parent[p]
            count += p >= 0
        return count

    def dump(self, path) -> None:
        """Write every span (columnar, times relative to the first span)."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "hooks": [h.label for h in self.hooks],
            "absent": self.absent,
            "columns": ["hook", "start_us", "end_us", "parent", "op"],
            "spans": [
                [h, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p, o]
                for h, s, e, p, o in zip(self.hook_of, self.start, self.end,
                                         self.parent, self.op_of)
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(start: List[float], end: List[float], parent: List[int]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[int]] = {}
    for span, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(span)
    out = []
    for span in range(len(start)):
        covered = 0.0
        lo = hi = None
        for c in sorted(children.get(span, ()), key=start.__getitem__):
            cs, ce = max(start[c], start[span]), min(end[c], end[span])
            if ce <= cs:
                continue
            if hi is None or cs > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = cs, ce
            else:
                hi = max(hi, ce)
        if hi is not None:
            covered += hi - lo
        out.append((end[span] - start[span]) - covered)
    return out
