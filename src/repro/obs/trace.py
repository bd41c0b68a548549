"""Structured tracing: nestable spans with durations and attributes.

A :class:`Span` is one timed operation; entering a span inside another
produces a tree mirroring the pipeline's call structure, e.g. for one
F2PM execution::

    f2pm.run                                    1.63s
      aggregate                                 0.21s rows_in=7831 rows_out=412
      select                                    0.38s lambda=1e+06 n_selected=6
      split                                     0.01s
      evaluate model=m5p feature_set=all        0.52s
        train                                   0.49s
        validate                                0.03s

Spans are produced through a :class:`Tracer`, which keeps the tree and
the currently-open stack. The module-level default tracer (used by all
of :mod:`repro`) is reached via :func:`get_tracer` / :func:`span`; when
tracing is disabled, :func:`span` hands back the shared
:data:`NULL_SPAN` whose every operation is a no-op, so instrumented code
pays one attribute check and nothing else.

Span trees export to JSON (``Tracer.to_dict`` / ``Span.to_dict``, loss-
lessly reloadable via :meth:`Span.from_dict`) and to an indented text
tree (``render``) for terminal inspection (``f2pm obs trace.json``).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Iterator


def _fmt_duration(seconds: float) -> str:
    """Human-scale duration: ns/us/ms/s picked by magnitude."""
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.1f}us"
    return f"{seconds * 1e9:.0f}ns"


def _fmt_attr(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


class Span:
    """One timed operation: name, wall-clock duration, attributes, children.

    A span may be used standalone, as a bare timer, or through a
    :class:`Tracer`, which links it into the span tree on ``__enter__``.
    ``duration`` reads live while the span is running and freezes at
    ``finish()``; re-starting a span resets the clock (restartable-timer
    semantics).
    """

    __slots__ = ("name", "attributes", "children", "_start", "_elapsed", "_tracer")

    def __init__(
        self,
        name: str,
        attributes: "dict[str, Any] | None" = None,
        _tracer: "Tracer | None" = None,
    ) -> None:
        self.name = name
        self.attributes: dict[str, Any] = dict(attributes or {})
        self.children: list[Span] = []
        self._start: "float | None" = None
        self._elapsed: "float | None" = None
        self._tracer = _tracer

    # -- clock -----------------------------------------------------------------

    def start(self) -> "Span":
        """Start (or restart) the span's clock."""
        self._elapsed = None
        self._start = time.perf_counter()
        return self

    def finish(self) -> "Span":
        """Freeze the duration."""
        if self._start is None:
            raise RuntimeError(f"span {self.name!r} was never started")
        self._elapsed = time.perf_counter() - self._start
        return self

    @property
    def running(self) -> bool:
        """True between ``start()`` and ``finish()``."""
        return self._start is not None and self._elapsed is None

    @property
    def duration(self) -> float:
        """Elapsed seconds (live while running, frozen after finish)."""
        if self._start is None:
            raise RuntimeError(f"span {self.name!r} was never started")
        if self._elapsed is None:
            return time.perf_counter() - self._start
        return self._elapsed

    # -- structure -------------------------------------------------------------

    def set(self, **attributes: Any) -> "Span":
        """Attach key=value attributes (chains)."""
        self.attributes.update(attributes)
        return self

    def child(self, name: str, **attributes: Any) -> "Span":
        """Create an (unstarted) child span attached to this one."""
        node = Span(name, attributes, _tracer=self._tracer)
        self.children.append(node)
        return node

    def walk(self) -> "Iterator[Span]":
        """Depth-first iteration over this span and all descendants."""
        yield self
        for c in self.children:
            yield from c.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with the given name, depth-first."""
        for node in self.walk():
            if node.name == name:
                return node
        return None

    # -- context manager -------------------------------------------------------

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.finish()
        if self._tracer is not None:
            self._tracer._pop(self)

    # -- export ----------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation of this subtree."""
        return {
            "name": self.name,
            "duration_s": self.duration if self._start is not None else None,
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Rebuild a (frozen) span tree from :meth:`to_dict` output."""
        node = cls(str(data["name"]), dict(data.get("attributes") or {}))
        duration = data.get("duration_s")
        if duration is not None:
            node._start = 0.0
            node._elapsed = float(duration)
        node.children = [cls.from_dict(c) for c in data.get("children") or []]
        return node

    def render(self, indent: int = 0) -> str:
        """Indented text tree of this subtree."""
        dur = _fmt_duration(self.duration) if self._start is not None else "-"
        attrs = " ".join(
            f"{k}={_fmt_attr(v)}" for k, v in self.attributes.items()
        )
        line = f"{'  ' * indent}{self.name:<{max(1, 40 - 2 * indent)}} {dur:>9}"
        if attrs:
            line = f"{line}  {attrs}"
        return "\n".join([line, *(c.render(indent + 1) for c in self.children)])

    def __repr__(self) -> str:
        state = (
            f"{self.duration:.6f}s" if self._start is not None else "unstarted"
        )
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class NullSpan:
    """Do-nothing stand-in returned while tracing is disabled.

    Supports the whole :class:`Span` surface so instrumented code never
    branches on the tracing switch; every method returns ``self`` or a
    neutral value.
    """

    __slots__ = ()

    name = "null"
    attributes: dict[str, Any] = {}
    children: list = []
    running = False
    duration = 0.0

    def start(self) -> "NullSpan":
        return self

    def finish(self) -> "NullSpan":
        return self

    def set(self, **attributes: Any) -> "NullSpan":
        return self

    def child(self, name: str, **attributes: Any) -> "NullSpan":
        return self

    def walk(self) -> Iterator[Any]:
        return iter(())

    def find(self, name: str) -> None:
        return None

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def to_dict(self) -> dict[str, Any]:
        return {}

    def render(self, indent: int = 0) -> str:
        return ""

    def __repr__(self) -> str:
        return "NullSpan()"

    def __bool__(self) -> bool:
        return False


#: The shared no-op span (falsy, so ``if span:`` skips disabled tracing).
NULL_SPAN = NullSpan()


class Tracer:
    """Collects span trees; one stack of open spans per thread."""

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._roots: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- switch ----------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    # -- span production -------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attributes: Any) -> "Span | NullSpan":
        """A new span, linked into the tree when entered as a context."""
        if not self._enabled:
            return NULL_SPAN
        return Span(name, attributes, _tracer=self)

    def current(self) -> "Span | None":
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def attach(self, span: Span) -> None:
        """Adopt an externally-built (finished) span tree.

        Used to graft a worker process's exported spans (rebuilt with
        :meth:`Span.from_dict`) into this tracer's tree: the subtree
        becomes a child of the innermost open span on this thread, or a
        new root when none is open. No-op while tracing is disabled.
        """
        if not self._enabled:
            return
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)

    # -- inspection / export ---------------------------------------------------

    @property
    def roots(self) -> list[Span]:
        return list(self._roots)

    def reset(self) -> None:
        """Drop every recorded span (open spans stay linked to callers)."""
        with self._lock:
            self._roots.clear()
        self._local = threading.local()

    def to_dict(self) -> dict[str, Any]:
        return {"spans": [s.to_dict() for s in self._roots]}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """Indented text rendering of every recorded tree."""
        return "\n".join(s.render() for s in self._roots)


#: Process-wide default tracer used by all repro instrumentation.
_DEFAULT = Tracer(enabled=True)


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return _DEFAULT


def span(name: str, **attributes: Any) -> "Span | NullSpan":
    """Open a span on the default tracer (``with span("phase"): ...``)."""
    return _DEFAULT.span(name, **attributes)
