"""In-memory spans around the public functions the program calls through.

Spans are recorded from outside the program: ``Tracer.wrap`` replaces a
module (or class) attribute with a wrapper that records the call's name,
backend label, start, end and parent span, and ``Tracer.restore`` puts the
original back.  Nothing is written until the run ends (``write_csv``).
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

NAME, LABEL, START, END, PARENT = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.captured: dict[str, list[tuple]] = defaultdict(list)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Span every call of ``owner.attr`` as ``name``.  Functions taking a
        ``backend`` argument get its class name as the span label."""
        fn = getattr(owner, attr)
        params = list(inspect.signature(fn).parameters)
        at = params.index("backend") if "backend" in params else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def spanned(*args, **kwargs):
            label = None
            if at is not None:
                backend = kwargs.get("backend", args[at] if len(args) > at else None)
                label = "oracle" if backend is None else type(backend).__name__.lower()
            rec = [name, label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        self._replace(owner, attr, spanned)

    def capture(self, owner, attr: str, name: str) -> None:
        """Keep the positional arguments of every call of ``owner.attr``."""
        fn = getattr(owner, attr)
        calls = self.captured[name]

        def capturing(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        self._replace(owner, attr, capturing)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,label,start_s,end_s,parent\n")
            for i, (name, label, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{label or ''},{start!r},{end!r},{parent}\n")


class SpanStats:
    """Call counts, total and self time per (name, label); self time is the
    span minus the time its direct children cover."""

    def __init__(self, spans: list[list]) -> None:
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        self.calls: dict[tuple, int] = defaultdict(int)
        self.total: dict[tuple, float] = defaultdict(float)
        self.self_time: dict[tuple, float] = defaultdict(float)
        for i, rec in enumerate(spans):
            dur = rec[END] - rec[START]
            for key in ((rec[NAME], rec[LABEL]), (rec[NAME], "*")):
                self.calls[key] += 1
                self.total[key] += dur
                self.self_time[key] += dur - child[i]

    def count(self, name: str, label: str = "*") -> int:
        return self.calls.get((name, label), 0)

    def mean_self(self, name: str, label: str = "*") -> float:
        """Mean self time per call in seconds; 0 when never called."""
        n = self.count(name, label)
        return self.self_time[(name, label)] / n if n else 0.0

    def mean_total(self, name: str, label: str = "*") -> float:
        n = self.count(name, label)
        return self.total[(name, label)] / n if n else 0.0


def sample_durations(spans: list[list], loop: str, first_child: str) -> list[float]:
    """Per-sample wall time inside each ``loop`` span: a sample runs from one
    ``first_child`` span of the driving backend (a direct child of the loop)
    to the next, the last one to the end of the loop.  The driving backend is
    the label of the loop's first such child; each sample calls it twice
    (master and slave side), so every other span starts a sample."""
    out: list[float] = []
    loops = [i for i, rec in enumerate(spans) if rec[NAME] == loop]
    for li in loops:
        children = [rec for rec in spans if rec[PARENT] == li and rec[NAME] == first_child]
        if not children:
            continue
        driver = children[0][LABEL]
        starts = [rec[START] for rec in children if rec[LABEL] == driver][::2]
        starts.append(spans[li][END])
        out.extend(b - a for a, b in zip(starts, starts[1:]))
    return out

