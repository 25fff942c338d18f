"""Sliding-window stream aggregation.

Stream elements are plain ``(timestamp, value)`` pairs with integer,
non-negative timestamps. Time is split into half-open windows
``[k*advance, k*advance + size)`` starting at every non-negative
multiple of the advance. A stage-2 ``WindowAggregator`` consumes one
sorted stream, sums it into panes of width ``gcd(size, advance)`` and
emits each window that holds a tuple once its end has passed the
watermark, from one running sum over the window's panes. A
``FinalAggregator`` merges the per-source partial sums, which each
source reports in ascending start order, tracking the watermark of each
source still active, and releases every window exactly once as soon as
no active source can still report it.

``window_starts`` lists the windows of one timestamp directly. The
aggregators do not use it; it is the route of ``oracle_aggregate``, the
independent slow check the pipeline is compared against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from math import gcd, inf
from typing import Deque, Dict, FrozenSet, Iterable, List, NamedTuple, Tuple


class OutOfOrderTuple(ValueError):
    """A tuple arrived with a timestamp below the aggregator watermark."""


class DuplicateContribution(ValueError):
    """A source reported twice for the same window start."""


class InactiveSource(ValueError):
    """A partial arrived from a source already marked inactive."""


class AlreadyInactive(ValueError):
    """A source was marked inactive twice."""


@dataclass(frozen=True)
class WindowSpec:
    """Window geometry: ``size`` time units, sliding by ``advance``."""

    size: int
    advance: int

    def __post_init__(self):
        if self.size < 1 or self.advance < 1:
            raise ValueError("window size and advance must be positive")
        if self.advance > self.size:
            raise ValueError(
                f"advance {self.advance} must not exceed size {self.size}"
            )


class WindowPartial(NamedTuple):
    """Per-source running sum of one window, as sent downstream."""

    start: int
    total: int
    source: int


def window_starts(t: int, spec: WindowSpec) -> List[int]:
    """All window starts whose window contains timestamp ``t``, ascending.

    A start ``s`` qualifies when it is a non-negative multiple of the
    advance and ``s <= t < s + size``.
    """
    if t < 0:
        raise ValueError(f"timestamp must be non-negative, got {t}")
    a = spec.advance
    k_hi = t // a
    k_lo = -((t - spec.size + 1) // -a)  # ceil division
    if k_lo < 0:
        k_lo = 0
    return [k * a for k in range(k_lo, k_hi + 1)]


class WindowAggregator:
    """Stage-2 aggregator: windowed sums over one sorted input stream.

    Time is cut into panes of width ``g = gcd(size, advance)``, so a
    window is ``size/g`` whole panes and windows start every
    ``advance/g`` panes. The aggregator keeps the non-empty panes it
    still needs, ascending, each as ``[pane, sum]``, and one running sum
    over the leading panes that lie in the next window to emit. Sums are
    invertible, so moving to the next window adds each pane once and
    evicts it once: per-tuple work does not grow with ``size/advance``.

    A pane exists only once a tuple lands in it, so a window is emitted
    iff it holds a pane, that is a tuple; its sum never decides, since
    values may be 0 or negative. Across a gap the aggregator jumps to
    the first window that holds its oldest pane.

    ``update`` feeds one tuple and returns the windows that expired as a
    result, oldest first; ``finalize`` flushes whatever is still open
    once the input is exhausted and closes the stream: it raises the
    watermark to infinity, so a later ``update`` raises OutOfOrderTuple
    and a later ``finalize`` returns [].
    """

    def __init__(self, spec: WindowSpec, source: int = 0):
        self.spec = spec
        self.source = source
        self.watermark = -1
        self.emitted_count = 0
        g = gcd(spec.size, spec.advance)
        self._pane_width = g
        self._stride = spec.advance // g  # panes from one window start to the next
        self._span = spec.size // g  # panes per window
        self._panes: Deque[list] = deque()
        self._next = 0  # index of the next window to emit
        self._due = self.spec.size  # that window's end: a tuple there expires it
        self._held = 0  # leading panes inside the running sum
        self._sum = 0

    def update(self, timestamp: int, value: int) -> List[WindowPartial]:
        if timestamp < 0:
            raise ValueError(f"timestamp must be non-negative, got {timestamp}")
        if timestamp < self.watermark:
            raise OutOfOrderTuple(
                f"timestamp {timestamp} below watermark {self.watermark}"
            )
        self.watermark = timestamp
        pane = timestamp // self._pane_width
        panes = self._panes
        if panes and panes[-1][0] == pane:
            panes[-1][1] += value
        else:
            panes.append([pane, value])
        if timestamp < self._due:
            return []
        spec = self.spec
        return self._emit((timestamp - spec.size) // spec.advance)

    def finalize(self) -> List[WindowPartial]:
        self.watermark = inf
        if not self._panes:
            return []
        return self._emit(self._panes[-1][0] // self._stride)

    def _emit(self, last: int) -> List[WindowPartial]:
        """The non-empty windows from the next one up to ``last``,
        ascending. Their panes are complete: any later tuple lands in a
        later pane."""
        panes, stride, span = self._panes, self._stride, self._span
        k, held, total = self._next, self._held, self._sum
        out = []
        while k <= last:
            lo = k * stride
            while held and panes[0][0] < lo:
                total -= panes.popleft()[1]
                held -= 1
            if not held:
                first = (panes[0][0] - span) // stride + 1
                if first > k:
                    k = first
                    if k > last:
                        break
                    lo = k * stride
            hi = lo + span
            n = len(panes)
            while held < n and panes[held][0] < hi:
                total += panes[held][1]
                held += 1
            out.append(WindowPartial(k * self.spec.advance, total, self.source))
            k += 1
        self._next, self._held, self._sum = k, held, total
        self._due = k * self.spec.advance + self.spec.size
        self.emitted_count += len(out)
        return out


class FinalAggregator:
    """Merges per-source window partials into final totals.

    Each source reports its windows in strictly ascending start order, as
    ``WindowAggregator`` emits them. A source's watermark is the end of
    the last window it reported, and a partial whose end is not past it
    raises DuplicateContribution: that one rule catches both a second
    report of a window and a report out of order. A partial whose start
    is no window start of the spec (negative, or not a multiple of the
    advance) raises ValueError, before any other error.

    A window is released once every source has either gone inactive or
    reported past this window's end. Each window is released at most
    once; windows nobody contributed to never appear. One map holds the
    watermark of each active source; a source leaves it when it goes
    inactive. The release floor, the lowest of these watermarks, is
    cached with the number of active sources at it. It is recomputed
    only when the last of those advances or a source goes inactive, and
    it is infinite once no source is active.

    A pending window keeps only its running total. The floor never
    falls, and a new window ends past its source's watermark and so past
    the floor: every window is released after the ones before it. The
    released starts are therefore kept as ascending runs, each standing
    for ``first, first + advance, ...`` up to the start just past it, and
    a release either extends the last run or appends one. On a dense
    stream that is one run; a stream with a gap wider than the window
    (``WindowAggregator`` skips empty windows) adds one run per gap.
    ``reported`` rebuilds the set of released starts from the runs.
    """

    def __init__(self, spec: WindowSpec, sources: Iterable[int]):
        self.spec = spec
        self._size, self._advance = spec.size, spec.advance
        self.partials: Dict[int, int] = {}  # start -> total
        self._sources = frozenset(sources)
        self._watermarks: Dict[int, int] = dict.fromkeys(self._sources, 0)
        # Released runs, ascending: their first starts and the starts
        # just past them.
        self._firsts: List[int] = []
        self._afters: List[int] = []
        self._pending_heap: List[int] = []
        self._set_floor()

    @property
    def reported(self) -> FrozenSet[int]:
        """The start of every window released so far."""
        advance = self._advance
        return frozenset(
            start
            for first, after in zip(self._firsts, self._afters)
            for start in range(first, after, advance)
        )

    def accept(self, partial: WindowPartial) -> List[Tuple[int, int]]:
        start, total, source = partial
        old = self._watermarks.get(source)
        if old is None:
            state = "inactive" if source in self._sources else "unknown"
            raise InactiveSource(f"{state} source {source}")
        size = self._size
        end = start + size
        partials = self.partials
        entry = partials.get(start)
        if entry is None and (start < 0 or start % self._advance):
            raise ValueError(f"start {start} is not a window start of {self.spec}")
        if end <= old:
            raise DuplicateContribution(
                f"window {start} of source {source} ends at {end}, "
                f"not past its watermark {old}"
            )
        if entry is None:
            partials[start] = total
            heappush(self._pending_heap, start)
        else:
            partials[start] = entry + total
        self._watermarks[source] = end
        if old == self._floor:
            self._at_floor -= 1
            if not self._at_floor:
                self._set_floor()
        if self._pending_heap[0] + size > self._floor:
            return []
        return self._release_ready()

    def mark_inactive(self, source: int) -> List[Tuple[int, int]]:
        if self._watermarks.pop(source, None) is None:
            if source in self._sources:
                raise AlreadyInactive(f"source {source} already inactive")
            raise InactiveSource(f"unknown source {source}")
        self._set_floor()
        return self._release_ready()

    def all_inactive(self) -> bool:
        return not self._watermarks

    def _set_floor(self) -> None:
        live = list(self._watermarks.values())
        self._floor = min(live, default=inf)
        self._at_floor = live.count(self._floor)

    def _release_ready(self) -> List[Tuple[int, int]]:
        # A window is ready when its end is at or below the floor.
        heap, partials, afters = self._pending_heap, self.partials, self._afters
        floor = self._floor - self._size
        advance = self._advance
        after = afters[-1] if afters else -1  # -1 is no start
        released = []
        while heap and heap[0] <= floor:
            start = heappop(heap)
            if start == after:  # extends the last run
                afters[-1] = after = start + advance
            else:  # past a gap: a run of its own
                self._firsts.append(start)
                afters.append(after := start + advance)
            released.append((start, partials.pop(start)))
        return released
