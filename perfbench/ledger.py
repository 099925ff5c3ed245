"""Per-layer time ledger built from wrappers around calls into each layer.

Tracing is done entirely from outside the program: the traced run
replaces selected functions and methods with timing wrappers for the
duration of one attempt and restores them afterwards.  The untraced run
installs nothing.

A wrapper books the *self* time of its call: the call's duration minus
the time of wrapped calls nested inside it.  A ``detail`` wrapper books
its full duration and is invisible to the enclosing call, for sub-layers
such as the control sends inside a chunk wait, which are reported next
to their parent rather than carved out of it.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Ledger:
    """Accumulated seconds and call counts per layer name."""

    def __init__(self) -> None:
        self.total: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self._stack: list[float] = [0.0]
        self._undo: list = []

    def snapshot(self) -> dict[str, float]:
        return dict(self.total)

    def wrap(self, layer: str, fn, *, detail: bool = False):
        """``fn`` with its calls booked under ``layer``."""
        total, calls, stack = self.total, self.calls, self._stack
        if detail:
            def timed(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    total[layer] += perf_counter() - t0
                    calls[layer] += 1
        else:
            def timed(*args, **kwargs):
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    total[layer] += dt - stack.pop()
                    stack[-1] += dt
                    calls[layer] += 1
        return timed

    def patch(self, owner, name: str, layer: str, *, detail: bool = False,
              replacement=None) -> None:
        """Replace ``owner.name`` (module, class or instance attribute) by a
        timed wrapper until :meth:`restore`.

        ``replacement``, when given, is wrapped instead of the original;
        it lets a caller intercept a factory to instrument what it builds.
        """
        raw = vars(owner).get(name) if hasattr(owner, "__dict__") else None
        if isinstance(owner, type) and isinstance(raw, (classmethod, staticmethod)):
            target = replacement or getattr(owner, name)
            new = staticmethod(self.wrap(layer, target, detail=detail))
        elif isinstance(owner, type) and raw is not None:
            new = self.wrap(layer, replacement or raw, detail=detail)
        else:
            new = self.wrap(layer, replacement or getattr(owner, name), detail=detail)
        self._undo.append((owner, name, raw))
        setattr(owner, name, new)

    def restore(self) -> None:
        """Undo every :meth:`patch`, most recent first."""
        while self._undo:
            owner, name, raw = self._undo.pop()
            if raw is None:
                delattr(owner, name)
            else:
                setattr(owner, name, raw)
