"""Sliding-window stream aggregation.

Stream elements are plain ``(timestamp, value)`` pairs with integer,
non-negative timestamps. Time is split into half-open windows
``[k*advance, k*advance + size)`` starting at every non-negative
multiple of the advance. A stage-2 ``WindowAggregator`` consumes one
sorted stream, sums it into panes of width ``gcd(size, advance)`` and
emits each window that holds a tuple once its end has passed the
watermark, from one running sum over the window's panes. A
``FinalAggregator`` merges the per-source partial sums, tracking which
sources contributed to each window and the watermark of each source
still active, and releases every window exactly once as soon as no
active source can still report it.

``window_starts`` lists the windows of one timestamp directly. The
aggregators do not use it; it is the route of ``oracle_aggregate``, the
independent slow check the pipeline is compared against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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

    A window is released once every source has either gone inactive or
    reported a window whose end is at or beyond this window's end
    (sources emit in ascending start order, so a later report implies
    the earlier window is complete for that source). Each window is
    released at most once; windows nobody contributed to never appear.
    A partial whose start is no window start of the spec (negative, or
    not a multiple of the advance) raises ValueError.

    Each source, whatever int names it, gets one bit when the aggregator
    is built, and a pending window keeps its contributors as the OR of
    their bits.

    One map holds the watermark of each active source, the end of the
    last window it reported; a source leaves it when it goes inactive.
    The release floor, the lowest of these watermarks, is cached with
    the number of active sources at it. It is recomputed only when the
    last of those advances or a source goes inactive, and it is infinite
    once no source is active. The floor never falls, so every released
    window ends at or below it: the released starts are looked up only
    for a window that does too.

    The released starts are kept as ascending runs, each standing for
    ``first, first + advance, ...`` up to the start just past it, so
    memory grows with the gaps among released windows, not with the
    stream. A release right after the last run extends it in place; on
    a dense stream, where every window holds a tuple, that is all the
    pipeline does, and one run is kept. Any other release goes in by
    bisection and merges with the runs next to it. That happens when the
    stream has a gap wider than the window (``WindowAggregator`` skips
    empty windows), which leaves one more run per gap, and for a stray
    partial below the floor that opens a window no source had reported:
    it is released at once, below starts already released. ``reported``
    rebuilds the set of released starts from the runs.
    """

    def __init__(self, spec: WindowSpec, sources: Iterable[int]):
        self.spec = spec
        self._size, self._advance = spec.size, spec.advance
        self.partials: Dict[int, list] = {}  # start -> [total, contributor bits]
        self._bits = {s: 1 << i for i, s in enumerate(set(sources))}
        self._watermarks: Dict[int, int] = dict.fromkeys(self._bits, 0)
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
            state = "inactive" if source in self._bits else "unknown"
            raise InactiveSource(f"{state} source {source}")
        size = self._size
        end = start + size
        if end <= self._floor and self._released(start):
            raise DuplicateContribution(
                f"window {start} was already reported"
            )
        entry = self.partials.get(start)
        if entry is None:
            if start < 0 or start % self._advance:
                raise ValueError(
                    f"start {start} is not a window start of {self.spec}"
                )
            self.partials[start] = [total, self._bits[source]]
            heappush(self._pending_heap, start)
        else:
            bits = entry[1]
            merged = bits | self._bits[source]
            if merged == bits:  # the source's bit was set already
                raise DuplicateContribution(
                    f"source {source} already contributed to window {start}"
                )
            entry[0] += total
            entry[1] = merged
        if end > old:
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
            if source in self._bits:
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

    def _released(self, start: int) -> bool:
        if start % self._advance:
            return False
        i = bisect_right(self._firsts, start) - 1
        return i >= 0 and start < self._afters[i]

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
                after = afters[-1] = start + advance
            else:
                self._insert_run(start)
                after = afters[-1]
            released.append((start, partials.pop(start)[0]))
        return released

    def _insert_run(self, start: int) -> None:
        """Adds a released start that does not extend the last run, as a
        run of its own merged with the runs it touches."""
        firsts, afters = self._firsts, self._afters
        after = start + self._advance
        i = bisect_left(firsts, start)
        firsts.insert(i, start)
        afters.insert(i, after)
        if i + 1 < len(firsts) and firsts[i + 1] == after:
            afters[i] = afters.pop(i + 1)
            del firsts[i + 1]
        if i and afters[i - 1] == start:
            afters[i - 1] = afters.pop(i)
            del firsts[i]
