"""Span tracing installed from outside the program, for traced runs only.

``Tracer.install`` replaces public methods of the program with wrappers
that time each call with ``time.thread_time_ns``, so time a thread
spends waiting for the interpreter lock stays out of its spans. Spans
nest per thread; a span's self time is its duration minus that of its
child spans. Every thread keeps its own counters, so wrappers take no
lock; ``totals`` merges them after the threads have joined.

The wrappers cost time of their own. ``calibrate`` measures that cost
on an empty span, both inside the span's clock reads (charged to the
span) and outside them (charged to the caller), and ``totals``
subtracts it.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

IDLE = "idle"


class _ThreadState:
    """Counters of one thread."""

    def __init__(self, n_spans: int):
        self.calls = [0] * n_spans
        self.self_ns = [0] * n_spans
        self.child_calls = [0] * n_spans
        self.misses = [0] * n_spans  # calls that returned the span's miss value
        self.stack: List[list] = []  # [child duration, child calls] per open span
        self.idle_wall_ns = 0
        self.enqueued_at: List[int] = []  # wall time of each plain-tuple enqueue
        self.first_enqueued = None
        self.releases: List[Tuple[int, int]] = []  # (window start, wall time)


class _Local(threading.local):
    """Gives each thread its own _ThreadState, registered for merging."""

    def __init__(self, n_spans: int, registry: list, lock: threading.Lock):
        self.state = _ThreadState(n_spans)
        with lock:
            registry.append(self.state)


def _noop() -> None:
    return None


_NO_MISS = object()


class Tracer:
    """Per-thread span counters for a fixed list of span names."""

    def __init__(self, spans: Tuple[str, ...]):
        self.spans = spans + ("calibration",)
        self._index = {name: i for i, name in enumerate(self.spans)}
        self.states: List[_ThreadState] = []
        self._local = _Local(len(self.spans), self.states, threading.Lock())
        self._patched: List[Tuple[object, str, object]] = []
        self.inner_ns = 0.0  # empty-span cost between a span's own clock reads
        self.outer_ns = 0.0  # the rest of it, seen by the caller

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, miss=None,
              after: Optional[Callable] = None) -> Callable:
        idx = self._index[name]
        local = self._local
        clock = time.thread_time_ns
        if miss is None:
            miss = _NO_MISS

        def span(*args, **kwargs):
            st = local.state
            stack = st.stack
            frame = [0, 0]
            stack.append(frame)
            t0 = clock()
            result = _NO_MISS
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                st.calls[idx] += 1
                st.self_ns[idx] += dur - frame[0]
                if result is miss:
                    st.misses[idx] += 1
                st.child_calls[idx] += frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    parent[1] += 1
            if after is not None:
                after(st, args, result)
            return result

        return span

    def _wrap_idle(self, fn: Callable) -> Callable:
        inner = self._wrap(IDLE, fn)
        local = self._local
        wall = time.perf_counter_ns

        def idle(*args, **kwargs):
            t0 = wall()
            try:
                return inner(*args, **kwargs)
            finally:
                local.state.idle_wall_ns += wall() - t0

        return idle

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, targets: Dict[str, List[Tuple[object, str]]],
                misses: Dict[str, object], hooks: Dict[str, Callable],
                sleep_owner) -> None:
        """Wrap ``attr`` of each ``owner`` listed under a span name.

        ``misses`` maps a span name to the return value that counts as a
        miss (a full or empty queue). ``hooks`` maps a span name to a
        callable run after each call with ``(thread state, args,
        result)``, outside the span's clock. ``sleep_owner.sleep``
        becomes the idle span.
        """
        for name, places in targets.items():
            for owner, attr in places:
                wrapper = self._wrap(name, owner.__dict__[attr],
                                     misses.get(name), hooks.get(name))
                self._patch(owner, attr, wrapper)
        self._patch(sleep_owner, "sleep", self._wrap_idle(sleep_owner.sleep))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- calibration ------------------------------------------------------

    def calibrate(self, calls: int = 20_000, reps: int = 7) -> None:
        """Measure the cost of an empty span on this thread.

        The calibration span is the last one and is left out of
        ``totals`` and ``overhead_ns``.
        """
        traced = self._wrap("calibration", _noop)
        idx = self._index["calibration"]
        clock = time.thread_time_ns
        totals, inners = [], []
        for _ in range(reps):
            before = self._local.state.self_ns[idx]
            t0 = clock()
            for _ in range(calls):
                _noop()
            plain = clock() - t0
            t0 = clock()
            for _ in range(calls):
                traced()
            wrapped = clock() - t0
            totals.append((wrapped - plain) / calls)
            inners.append((self._local.state.self_ns[idx] - before) / calls)
        self.inner_ns = statistics.median(inners)
        self.outer_ns = max(0.0, statistics.median(totals) - self.inner_ns)

    # -- results ----------------------------------------------------------

    def totals(self) -> Dict[str, dict]:
        """Calls and calibrated self time (ns) per span, all threads merged."""
        out = {}
        for i, name in enumerate(self.spans[:-1]):
            calls = sum(st.calls[i] for st in self.states)
            self_ns = sum(st.self_ns[i] for st in self.states)
            child_calls = sum(st.child_calls[i] for st in self.states)
            cost = calls * self.inner_ns + child_calls * self.outer_ns
            out[name] = {
                "calls": calls,
                "misses": sum(st.misses[i] for st in self.states),
                "self_ns": max(0.0, self_ns - cost),
            }
        return out

    def overhead_ns(self) -> float:
        """Total calibrated tracing cost of every span call so far."""
        calls = sum(sum(st.calls[:-1]) for st in self.states)
        return calls * (self.inner_ns + self.outer_ns)
