"""Host-clock probes installed around the program's public functions.

The benchmark measures the simulator from the outside: it never edits
``src/``.  A ``Patcher`` swaps a function for a wrapper wherever callers
look it up -- the defining class or module, plus every other ``repro``
module that imported the same function object by name (``from
repro.checkpoint import checkpoint_node`` in ``repro.fleet.failover``) --
and puts every original back when the run ends.

Two users sit on top of it:

* ``Stopwatch`` -- the few harness hooks every run needs, traced or not:
  inclusive host time of server-tree boots (``setup_s``) and of
  ``McrCtl.live_update`` (``update_s``), and the client objects a replay
  scenario builds internally.  They fire a handful of times per
  repetition, so they cost nothing measurable.
* ``Tracer`` -- the per-layer probes of a traced run.  Each probe keeps a
  call count and the layer's *self* time: a wrapper pushes a frame on one
  shared stack, and on return charges its elapsed time minus the time of
  the probed calls nested inside it.  Self times therefore add up to the
  time spent inside probed calls, and ``wall - sum(self)`` is the time no
  probe covered.

Wrappers only read the host clock and count; they pass arguments and
results through untouched, so the virtual clock never sees them (the
benchmark asserts that a traced run's virtual outputs equal an untraced
run's).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter_ns


class Patcher:
    """Install wrappers by attribute, remember every swap, undo them all."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []
        self._wrappers: Dict[int, Any] = {}  # id(wrapper) -> original

    def wrap(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` with ``make(original)``.

        Class-, static- and plain methods are unwrapped and re-wrapped in
        kind; a module-level function is also replaced in every loaded
        ``repro`` module that bound the same object under any name.
        """
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, classmethod):
            original, rewrap = raw.__func__, classmethod
        elif isinstance(raw, staticmethod):
            original, rewrap = raw.__func__, staticmethod
        else:
            original, rewrap = raw, None
        wrapper = make(original)
        self._wrappers[id(wrapper)] = original
        self._set(owner, name, raw, rewrap(wrapper) if rewrap else wrapper)
        if inspect.ismodule(owner):
            for module in _repro_modules():
                if module is owner:
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, alias, original, wrapper)

    def _set(self, owner: Any, name: str, previous: Any, value: Any) -> None:
        self._undo.append((owner, name, previous))
        setattr(owner, name, value)

    def restore(self) -> None:
        """Put every original back, newest swap first.

        A module that copied a wrapper into its own namespace after the
        install (a lazy ``from x import y`` inside a function) is swept
        too, so no wrapper survives the run.
        """
        while self._undo:
            owner, name, previous = self._undo.pop()
            setattr(owner, name, previous)
        if self._wrappers:
            for module in _repro_modules():
                for alias, value in list(vars(module).items()):
                    original = self._wrappers.get(id(value))
                    if original is not None and value is not original:
                        setattr(module, alias, original)
        self._wrappers.clear()


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Stopwatch:
    """Inclusive host time of a few coarse operations, in every run."""

    def __init__(self) -> None:
        self.total_ns: Dict[str, int] = defaultdict(int)
        self._open: Dict[str, int] = defaultdict(int)
        # Set by a workload around work whose updates are not its own
        # (the replay re-executes a recorded update).
        self.paused: Dict[str, bool] = defaultdict(bool)
        self.captured: Dict[str, list] = defaultdict(list)

    def timing(self, key: str) -> Callable[[Callable], Callable]:
        """Wrapper factory: time the outermost call of ``key`` only."""

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self._open[key] or self.paused[key]:
                    return fn(*args, **kwargs)
                self._open[key] += 1
                start = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.total_ns[key] += _clock() - start
                    self._open[key] -= 1

            return wrapper

        return make

    def capturing(self, key: str) -> Callable[[Callable], Callable]:
        """Wrapper factory: keep every object the function returns."""
        keep = self.captured[key]

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                value = fn(*args, **kwargs)
                keep.append(value)
                return value

            return wrapper

        return make

    def seconds(self, key: str) -> float:
        return self.total_ns[key] / 1e9


class Tracer:
    """Per-layer call counts, self time and byte totals."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.bytes: Dict[str, int] = defaultdict(int)
        self._stack: List[List[Any]] = []

    # -- wrapper factories ------------------------------------------------------

    def timed(
        self,
        key: Any,
        measure: Optional[Callable[[Any], int]] = None,
    ) -> Callable[[Callable], Callable]:
        """Count and self-time a plain function.

        ``key`` is a layer name, or a callable taking the call's
        arguments and returning one.  A call made while the innermost
        probe frame already has the same key (recursion, or a public
        entry point calling its sibling) is neither counted nor framed:
        its time stays with the outer call.  ``measure(result)`` adds to
        the key's byte total.
        """
        stack, calls, self_ns, totals = self._stack, self.calls, self.self_ns, self.bytes

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                name = key(*args) if callable(key) else key
                if stack and stack[-1][0] == name:
                    return fn(*args, **kwargs)
                calls[name] += 1
                frame = [name, 0, _clock()]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = _clock() - frame[2]
                    stack.pop()
                    self_ns[name] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
                if measure is not None and result is not None:
                    totals[name] += measure(result)
                return result

            return wrapper

        return make

    def timed_generator(self, key: str) -> Callable[[Callable], Callable]:
        """Count a generator function's calls; self-time each resumption.

        The wrapper delegates ``send``/``throw``/``close`` exactly as
        ``yield from`` would, so the driving scheduler cannot tell it is
        there.
        """
        stack, calls, self_ns = self._stack, self.calls, self.self_ns

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return _resumed(fn(*args, **kwargs))

            def _resumed(gen):
                value, error = None, None
                while True:
                    frame = [key, 0, _clock()]
                    stack.append(frame)
                    try:
                        if error is not None:
                            item = gen.throw(error)
                        else:
                            item = gen.send(value)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        elapsed = _clock() - frame[2]
                        stack.pop()
                        self_ns[key] += elapsed - frame[1]
                        if stack:
                            stack[-1][1] += elapsed
                    value, error = None, None
                    try:
                        value = yield item
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as thrown:  # re-raised inside gen
                        error = thrown

            return wrapper

        return make

    def counted(self, key: str) -> Callable[[Callable], Callable]:
        """Count calls only (for hot helpers whose time stays with the caller)."""
        calls = self.calls

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    # -- results ----------------------------------------------------------------

    def self_seconds(self) -> float:
        return sum(self.self_ns.values()) / 1e9
