"""In-memory span tracer that wraps svpipe's public functions from outside.

A traced run replaces every public function of the svpipe modules with a
timing wrapper in each namespace that binds it: modules such as cli, e2e and
statsnet call helpers through ``from .x import f`` bindings, so patching only
the defining module would miss those calls. The TrialBatch methods are
wrapped on the class. Nothing is installed until ``install`` is called, and
``restore`` puts every original binding back.

A span records its name, start, end, the index of the span that was open when
it began (its parent, -1 for a root) and a run id. The run id groups the spans
under one root call and carries the benchmark phase the root ran in. Spans
stay in memory until the caller writes them out with ``write_jsonl``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from dataclasses import asdict, dataclass, field

PACKAGE = "svpipe"
MODULES = (
    "cli",
    "corpus",
    "fileio",
    "frontend",
    "gmm",
    "ivector",
    "plda",
    "dplda",
    "netcore",
    "statsnet",
    "ivecnet",
    "e2e",
    "metrics",
)
# class-level methods wrapped besides the module functions: (module, class, attr)
METHODS = (
    ("dplda", "TrialBatch", "all_trials"),
    ("dplda", "TrialBatch", "scores"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: str
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start

    @property
    def module(self):
        return self.name.split(".", 1)[0]


def self_times(spans):
    """Per-span duration minus the time covered by its direct children.

    Spans come from one thread, so the children of a span never overlap and
    their durations can simply be subtracted.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def public_bindings():
    """Every (namespace, attribute, object) slot the tracer would replace."""
    slots = []
    for name in MODULES:
        module = importlib.import_module(f"{PACKAGE}.{name}")
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and isinstance(obj, types.FunctionType)
                and obj.__module__.startswith(PACKAGE + ".")
            ):
                slots.append((module, attr, obj))
    for mod_name, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), cls_name)
        slots.append((cls, attr, cls.__dict__[attr]))
    return slots


class Tracer:
    """Collects spans from wrapped svpipe functions.

    ``counters`` maps a span name to ``fn(args, kwargs, result) -> dict``;
    the dict is stored as the span's ``info`` (work counts such as frames or
    trials). It runs after the span closes, so its cost lands in the parent's
    self time and shows up in the measured tracing overhead.
    """

    def __init__(self, counters=None):
        self.counters = dict(counters or {})
        self.spans: list[Span] = []
        self.phase = "none"
        self._stack: list[int] = []
        self._roots = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._roots += 1
        span = Span(name, 0.0, 0.0, parent, f"{self.phase}#{self._roots}")
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def wrap(self, name, fn):
        counter = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.info = counter(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------
    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.restore()
            raise

    def _install(self):
        wrappers = {}
        for owner, attr, obj in public_bindings():
            if isinstance(owner, type):
                name = f"{owner.__module__.rsplit('.', 1)[1]}.{owner.__name__}.{attr}"
                if isinstance(obj, classmethod):
                    new = classmethod(self.wrap(name, obj.__func__))
                else:
                    new = self.wrap(name, obj)
            else:
                if obj not in wrappers:
                    home = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self.wrap(f"{home}.{obj.__name__}", obj)
                new = wrappers[obj]
            self._saved.append((owner, attr, obj))
            setattr(owner, attr, new)

    def restore(self):
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- output ------------------------------------------------------------
    def write_jsonl(self, path):
        """One JSON object per span, with its self time, in recording order."""
        with open(path, "w") as fh:
            for span, self_s in zip(self.spans, self_times(self.spans)):
                record = asdict(span)
                record["self_s"] = self_s
                fh.write(json.dumps(record, default=_jsonable) + "\n")


def _jsonable(value):
    if hasattr(value, "item"):
        return value.item()
    return str(value)
