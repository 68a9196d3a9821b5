"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions at each ottofridge module boundary,
records one span per call (name, start, end, parent, exception type, extra)
in memory, and restores every wrapped attribute on exit.  A wrapped function
is replaced wherever a loaded ottofridge module holds a reference to it, so
``from .cycle import limit_cycle`` call sites are traced too.  A boundary
that no longer exists is recorded in ``absent`` instead of failing the run.

Propagator builds are keyed by ``schedule.kind`` at ``schedule_propagator``,
never by the kind-specific builder it dispatches to.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


def _propagator_name(args, kwargs):
    schedule = args[0] if args else kwargs.get("schedule")
    return f"dynamics.propagator.{getattr(schedule, 'kind', 'unknown')}"


def _cycle_iterations(result):
    record = result[1] if isinstance(result, tuple) and len(result) > 1 else None
    return getattr(record, "iterations", None)


# (module, attribute, span name or namer(args, kwargs), extra(result) or None).
# "Class.method" attributes are classmethods wrapped on the class.
BOUNDARIES = (
    ("ottofridge.cli", "parse_config", "cli.parse_config", None),
    ("ottofridge.cli", "run_command", "cli.run_command", None),
    ("ottofridge.scaling", "temperature_sweep", "scaling.temperature_sweep", None),
    ("ottofridge.scaling", "build_point", "scaling.build_point", None),
    ("ottofridge.optimize", "optimize_time_allocation",
     "optimize.optimize_time_allocation", None),
    ("ottofridge.optimize", "solve_isochore_z", "optimize.solve_isochore_z", None),
    ("ottofridge.cycle", "limit_cycle", "cycle.limit_cycle", _cycle_iterations),
    ("ottofridge.dynamics", "schedule_propagator", _propagator_name, None),
    ("ottofridge.dynamics", "isochore_affine", "dynamics.isochore_affine", None),
    ("ottofridge.schedules", "Schedule.const_mu", "schedules.build", None),
    ("ottofridge.schedules", "Schedule.linear", "schedules.build", None),
    ("ottofridge.schedules", "Schedule.exponential", "schedules.build", None),
    ("ottofridge.schedules", "Schedule.piecewise", "schedules.build", None),
    ("ottofridge.schedules", "build_three_jump", "schedules.build", None),
)

MODULES = ("cli", "scaling", "optimize", "cycle", "dynamics", "schedules")


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "extra")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.error = None
        self.extra = None


class Tracer:
    """Context manager: wraps the boundaries on entry, restores them on exit.

    Spans accumulate across every ``with`` block of one Tracer.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _call(self, name, extra, fn, args, kwargs):
        stack = self._stack
        span = Span(name, perf_counter(), stack[-1] if stack else -1)
        stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
            if extra is not None:
                span.extra = extra(result)
            return result
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            stack.pop()

    def _wrap(self, fn, name, extra):
        namer = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(namer(args, kwargs), extra, fn, args, kwargs)
        return traced

    # -- patching ------------------------------------------------------------

    def __enter__(self):
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "ottofridge" or n.startswith("ottofridge."))]
        try:
            for module_name, attr, name, extra in BOUNDARIES:
                self._patch(loaded, module_name, attr, name, extra)
        except BaseException:
            self._unpatch()
            raise
        return self

    def _patch(self, loaded, module_name, attr, name, extra):
        module = sys.modules.get(module_name)
        label = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".", 1)
            cls = getattr(module, cls_name, None)
            desc = getattr(cls, "__dict__", {}).get(meth)
            if not isinstance(desc, classmethod):
                self.absent.add(label)
                return
            setattr(cls, meth, classmethod(self._wrap(desc.__func__, name, extra)))
            self._restore.append((cls, meth, desc))
            return
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.add(label)
            return
        traced = self._wrap(original, name, extra)
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._restore.append((mod, key, original))

    def _unpatch(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __exit__(self, *exc):
        self._unpatch()
        return False

    # -- output ----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as [name, start_us, end_us, parent, error, extra]."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [[s.name, round((s.start - t0) * 1e6, 3), round((s.end - t0) * 1e6, 3),
                 s.parent, s.error, s.extra] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": sorted(self.absent), "spans": rows}, fh)


def summarize(spans: list[Span]) -> dict:
    """Per-name call counts, durations, self times and exception counts.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap (single thread).
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out = defaultdict(lambda: {"durations": [], "self": 0.0, "errors": defaultdict(int),
                               "extras": []})
    for i, s in enumerate(spans):
        entry = out[s.name]
        entry["durations"].append(s.end - s.start)
        entry["self"] += s.end - s.start - child[i]
        if s.error is not None:
            entry["errors"][s.error] += 1
        if s.extra is not None:
            entry["extras"].append(s.extra)
    return out


def descendants_of(spans: list[Span], ancestor: str, name: str) -> int:
    """Number of spans called ``name`` with an ancestor span called ``ancestor``."""
    count = 0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0:
            if spans[p].name == ancestor:
                count += 1
                break
            p = spans[p].parent
    return count


def children_of(spans: list[Span], parent: str, name: str) -> int:
    """Number of spans called ``name`` whose direct parent is called ``parent``."""
    return sum(1 for s in spans if s.name == name and s.parent >= 0
               and spans[s.parent].name == parent)
