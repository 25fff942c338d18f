"""Benchmark worker: runs passes of one workload on request.

``run.py`` starts this script as a child process, so that a pass that
stalls can be abandoned by killing the child. The worker builds the
workload's inputs and the oracle's answers from the seed, then reads
one JSON request per line on stdin and writes one JSON reply per line
on the standard output it was started with. Anything the program
prints goes to stderr.

Requests: ``{"op": "pass", "kind": k}`` (one timed, untraced pass),
``{"op": "layers"}`` (the single-thread replays),
``{"op": "memory", "kind": k}`` (one pass under ``tracemalloc``) and
``{"op": "trace", "kind": k}`` (handoff stats, then an untraced and a
traced pass). The program is used only through its public functions.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import heapq
import json
import os
import statistics
import sys
import threading
import time
import traceback
import tracemalloc

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from catalogue import FAULTS, FIXED_COUNT_SPANS, SPANS, WORKLOADS, Workload, make_streams, percentile  # noqa: E402
from tracer import IDLE, Tracer  # noqa: E402

from streamq.aggregation import FinalAggregator, WindowAggregator, WindowSpec  # noqa: E402
from streamq.oracle import oracle_aggregate  # noqa: E402
from streamq.pipeline import PipelineConfig, partition_aggregators, run_pipeline  # noqa: E402
from streamq.queues import EMPTY, ProducerEndpoint, QueueConfig, QueueKind, new_queue  # noqa: E402


class PassFailed(Exception):
    """A pass produced output that disagrees with the expected answer."""


# ---------------------------------------------------------------------------
# The two-thread handoff harness (spsc-tight, and the handoff replay of
# the pipeline workloads).


_END = "end of handoff"


def handoff_pass(kind: QueueKind, capacity: int, elements: list,
                 expected: list | None = None, drop: int = -1) -> dict:
    """Move ``elements`` from a producer thread to this thread.

    Both threads wait through the program's own spin wrappers,
    ``enqueue_spin`` and ``dequeue_spin``, so the pass measures the
    program's wait policy along with its queues. Each payload is
    ``(index, element, wall time before enqueue_spin)``; an end marker
    follows the last one. The consumer checks every element in order
    against ``expected`` (default: ``elements``), draining the queue to
    the marker even after a mismatch so that the producer ends, then
    checks the count and ``finished()``. ``drop`` makes the producer
    skip one element, a fault for self-tests.
    """
    if expected is None:
        expected = elements
    go = threading.Event()
    clock = time.perf_counter_ns

    t_setup = time.perf_counter()
    prod, cons = new_queue(kind, QueueConfig(capacity))

    def produce():
        go.wait()
        enqueue = prod.enqueue_spin
        for i, element in enumerate(elements):
            if i != drop:
                enqueue((i, element, clock()))
        enqueue(_END)
        prod.producer_finish()

    thread = threading.Thread(target=produce, name="handoff-producer", daemon=True)
    thread.start()
    setup_s = time.perf_counter() - t_setup

    dequeue = cons.dequeue_spin
    n = len(expected)
    lat_ns = [0] * n
    got = 0
    t0 = time.perf_counter()
    go.set()
    wrong = None  # the first bad element; the rest is still drained
    while True:
        item = dequeue()
        if item is _END:
            break
        now = clock()
        if got < n and item[0] == got and item[1] == expected[got]:
            lat_ns[got] = now - item[2]
        elif wrong is None:
            wrong = f"element {got}: got {item[:2]!r}"
        got += 1
    thread.join()
    elapsed = time.perf_counter() - t0
    if wrong is not None:
        raise PassFailed(wrong)
    if got != n:
        raise PassFailed(f"end marker after {got} of {n} elements")
    if cons.try_dequeue() is not EMPTY or not cons.finished():
        raise PassFailed("queue not finished after the end marker")
    lat_ns.sort()
    ps, cs = prod.stats(), cons.stats()
    return {
        "items": n,
        "elapsed_s": elapsed,
        "setup_s": setup_s,
        "lat_ns": lat_ns,
        "enq_attempts": ps.enq_attempts,
        "enq_successes": ps.enq_successes,
        "deq_attempts": cs.deq_attempts,
        "deq_successes": cs.deq_successes,
        "publications": ps.publication_events + cs.publication_events,
    }


# ---------------------------------------------------------------------------


class Bench:
    """One workload's inputs, expected answers and passes."""

    def __init__(self, workload: Workload, seed: int, fault: str | None):
        self.w = workload
        self.fault = fault
        self.spec = WindowSpec(*workload.window)
        self.streams = make_streams(workload, seed)
        merged = list(heapq.merge(*self.streams, key=lambda t: t[0]))
        self.merged = merged
        self.expected = oracle_aggregate(merged, self.spec)
        if fault == "wrong-expected":
            first = min(self.expected)
            self.expected[first] += 1
        self.elements = merged[: workload.l1_elements]
        self.timestamps = [[ts for ts, _ in s] for s in self.streams]

    def info(self) -> dict:
        return {
            "tuples": len(self.merged),
            "timestamp_span": [self.merged[0][0], self.merged[-1][0]],
            "windows": len(self.expected),
            "python_gc_enabled": gc.isenabled(),
            "switch_interval_s": sys.getswitchinterval(),
        }

    # -- passes -----------------------------------------------------------

    def _pipeline_inputs(self):
        if self.fault == "drop-element":
            first = list(self.streams[0])
            del first[len(first) // 2]
            return [first] + self.streams[1:]
        return self.streams

    def pipeline_pass(self, kind: QueueKind) -> dict:
        w = self.w
        config = PipelineConfig(
            producers=w.producers,
            aggregators=w.aggregators,
            queue_kind=kind,
            queue_config=QueueConfig(w.capacity),
            spec=self.spec,
            workloads=self._pipeline_inputs(),
        )
        cpu0, wall0 = time.process_time(), time.perf_counter()
        results, metrics = run_pipeline(config)
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        if results != self.expected:
            wrong = sum(1 for s, v in self.expected.items() if results.get(s) != v)
            raise PassFailed(
                f"{wrong} of {len(self.expected)} windows differ from the oracle "
                f"({len(results)} windows returned)"
            )
        return {
            "items": len(self.merged),
            "elapsed_s": metrics.elapsed_s,
            "cpu_s": cpu,  # a diagnostic: wall time minus waits and steal
            "setup_s": wall - metrics.elapsed_s,
            "partials": metrics.partials,
        }

    def spsc_pass(self, kind: QueueKind) -> dict:
        elements = self.elements
        expected = elements
        if self.fault == "wrong-expected":
            expected = list(elements)
            expected[len(expected) // 2] = (-1, -1)
        drop = len(elements) // 2 if self.fault == "drop-element" else -1
        return handoff_pass(kind, self.w.capacity, elements, expected, drop)

    def memory_pass(self, kind: QueueKind) -> dict:
        """Peak bytes Python allocates during one pass, over the level
        before it: the pass's own memory, without the interpreter, the
        inputs or the expected answers."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            self.run_pass(kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"peak_bytes": peak - base}

    def run_pass(self, kind: QueueKind) -> dict:
        if self.fault == "stall":
            while True:
                time.sleep(1)
        if self.w.mode == "pipeline":
            return self.pipeline_pass(kind)
        return self.spsc_pass(kind)

    # -- single-thread replays ----------------------------------------------

    def replays(self) -> dict:
        out = {}
        for kind in QueueKind:
            out[f"queues.pair_ns.{kind.value}"] = self._pair_ns(kind)
        out.update(self._aggregation_replay())
        out["pipeline.sequential_items_per_s"] = self._sequential()
        t0 = time.perf_counter()
        again = oracle_aggregate(self.merged, self.spec)
        out["oracle.us_per_tuple"] = (time.perf_counter() - t0) * 1e6 / len(self.merged)
        if again != self.expected:
            raise PassFailed("timed oracle replay differs from the expected map")
        return out

    @staticmethod
    def _pair_ns(kind: QueueKind, blocks: int = 300, block: int = 64, reps: int = 5) -> float:
        # Blocks of 64 fill exactly one BatchQueue half, so every kind
        # hands each block over before the consumer asks for it.
        timings = []
        payload = list(range(block))
        for _ in range(reps):
            prod, cons = new_queue(kind, QueueConfig(128))
            enq, deq = prod.try_enqueue, cons.try_dequeue
            t0 = time.perf_counter_ns()
            for _ in range(blocks):
                for x in payload:
                    enq(x)
                for _ in payload:
                    deq()
            timings.append(time.perf_counter_ns() - t0)
            prod.producer_finish()
            if cons.try_dequeue() is not EMPTY or not cons.finished():
                raise PassFailed(f"{kind.value}: queue not empty after the pair replay")
            s = prod.stats()
            if s.enq_successes != blocks * block or cons.stats().deq_successes != blocks * block:
                raise PassFailed(f"{kind.value}: pair replay lost elements")
        return statistics.median(timings) / (blocks * block)

    def _dealt(self):
        """Each aggregator's input, dealt as the pipeline deals it."""
        w = self.w
        blocks = partition_aggregators(w.producers, w.aggregators)
        per_agg = [[] for _ in range(w.aggregators)]
        routed = []  # (aggregator, timestamp, value) in merged time order
        for p, (stream, block) in enumerate(zip(self.streams, blocks)):
            ids = list(block)
            for k, (ts, v) in enumerate(stream):
                a = ids[k % len(ids)]
                per_agg[a].append((ts, v))
                routed.append((ts, p, k, a, v))
        routed.sort()
        return per_agg, [(a, ts, v) for ts, _p, _k, a, v in routed]

    def _aggregation_replay(self) -> dict:
        per_agg, _ = self._dealt()
        spec = self.spec
        aggs = [WindowAggregator(spec, source=a) for a in range(len(per_agg))]
        partials = []
        t0 = time.perf_counter()
        for agg, tuples in zip(aggs, per_agg):
            update = agg.update
            out = []
            for ts, v in tuples:
                out.extend(update(ts, v))
            partials.append(out)
        update_s = time.perf_counter() - t0
        for agg, out in zip(aggs, partials):
            out.extend(agg.finalize())  # cheap, and outside the update timing
        n_partials = sum(len(p) for p in partials)

        fa = FinalAggregator(spec, sources=range(len(per_agg)))
        accept, pending = fa.accept, fa.partials
        results = {}
        peak = 0
        pos = [0] * len(partials)
        live = list(range(len(partials)))
        t0 = time.perf_counter()
        while live:
            for a in list(live):
                i = pos[a]
                if i == len(partials[a]):
                    released = fa.mark_inactive(a)
                    live.remove(a)
                else:
                    pos[a] = i + 1
                    released = accept(partials[a][i])
                    if len(pending) > peak:
                        peak = len(pending)
                for start, total in released:
                    results[start] = total
        accept_s = time.perf_counter() - t0
        if results != self.expected:
            raise PassFailed("aggregation replay differs from the oracle")
        return {
            "aggregation.update_us": update_s * 1e6 / len(self.merged),
            "aggregation.accept_us": accept_s * 1e6 / n_partials,
            "aggregation.partials_per_tuple": n_partials / len(self.merged),
            "aggregation.peak_pending": peak,
            "aggregation.reported_entries": len(fa.reported),
        }

    def _sequential(self) -> float:
        _, routed = self._dealt()
        w = self.w
        aggs = [WindowAggregator(self.spec, source=a) for a in range(w.aggregators)]
        fa = FinalAggregator(self.spec, sources=range(w.aggregators))
        results = {}
        t0 = time.perf_counter()
        for a, ts, v in routed:
            for partial in aggs[a].update(ts, v):
                for start, total in fa.accept(partial):
                    results[start] = total
        for a, agg in enumerate(aggs):
            for partial in agg.finalize():
                for start, total in fa.accept(partial):
                    results[start] = total
            for start, total in fa.mark_inactive(a):
                results[start] = total
        elapsed = time.perf_counter() - t0
        if results != self.expected:
            raise PassFailed("sequential replay differs from the oracle")
        return len(routed) / elapsed

    # -- traced run ---------------------------------------------------------

    def trace(self, kind: QueueKind) -> dict:
        w = self.w
        handoff = self.spsc_pass(kind) if w.mode == "spsc" else handoff_pass(
            kind, w.capacity, self.elements)
        untraced = self.run_pass(kind) if w.mode == "pipeline" else handoff
        tracer = Tracer(SPANS + (IDLE,))
        tracer.calibrate()
        tracer.install(*self._trace_targets(), sleep_owner=time)
        try:
            cpu0 = time.process_time_ns()
            traced = self.run_pass(kind)
            cpu = time.process_time_ns() - cpu0
        finally:
            tracer.uninstall()
        spans = tracer.totals()
        self._check_trace(spans, traced)

        program_ns = max(1.0, cpu - tracer.overhead_ns())
        k = kind.value
        out = {}
        for name in SPANS:
            if name not in FIXED_COUNT_SPANS:
                out[f"trace.{name}.calls.{k}"] = spans[name]["calls"]
            out[f"trace.{name}.cpu_frac.{k}"] = spans[name]["self_ns"] / program_ns
        spanned = sum(s["self_ns"] for s in spans.values())
        out[f"trace.pipeline.cpu_frac.{k}"] = max(0.0, program_ns - spanned) / program_ns
        out[f"trace.pipeline.process_cpu_s.{k}"] = program_ns / 1e9
        enq, deq = spans["queues.try_enqueue"], spans["queues.try_dequeue"]
        out[f"trace.queues.full_frac.{k}"] = enq["misses"] / max(1, enq["calls"])
        out[f"trace.queues.empty_frac.{k}"] = deq["misses"] / max(1, deq["calls"])
        out[f"trace.idle.sleep_calls.{k}"] = spans[IDLE]["calls"]
        idle_ns = sum(st.idle_wall_ns for st in tracer.states)
        out[f"trace.idle.wall_frac.{k}"] = idle_ns / (traced["elapsed_s"] * 1e9)

        lat = handoff["lat_ns"]
        out[f"queues.enq_retry_frac.{k}"] = 1 - handoff["enq_successes"] / handoff["enq_attempts"]
        out[f"queues.deq_empty_frac.{k}"] = 1 - handoff["deq_successes"] / handoff["deq_attempts"]
        out[f"queues.pubs_per_item.{k}"] = handoff["publications"] / handoff["items"]
        out[f"queues.handoff_p50_us.{k}"] = percentile(lat, 0.50) / 1e3
        out[f"queues.handoff_p99_us.{k}"] = percentile(lat, 0.99) / 1e3
        lags = traced["lat_ns"] if w.mode == "spsc" else self._release_lags(tracer)
        return {
            "metrics": out,
            "handoff_samples": len(lat),
            "lag_us": [x // 1000 for x in lags],
            "untraced_s": untraced["elapsed_s"],
            "traced_s": traced["elapsed_s"],
            "kind": k,
        }

    def _trace_targets(self):
        producers, consumers = [], []
        for kind in QueueKind:
            p, c = new_queue(kind, QueueConfig(4))
            producers.append((type(p), "try_enqueue"))
            consumers.append((type(c), "try_dequeue"))
        targets = {
            "queues.enqueue_spin": [(ProducerEndpoint, "enqueue_spin")],
            "queues.try_enqueue": producers,
            "queues.try_dequeue": consumers,
            "aggregation.update": [(WindowAggregator, "update")],
            "aggregation.finalize": [(WindowAggregator, "finalize")],
            "aggregation.accept": [(FinalAggregator, "accept")],
            "aggregation.mark_inactive": [(FinalAggregator, "mark_inactive")],
        }
        misses = {"queues.try_enqueue": False, "queues.try_dequeue": EMPTY}
        hooks = {
            "queues.enqueue_spin": _note_enqueue,
            "aggregation.accept": _note_release,
            "aggregation.mark_inactive": _note_release,
        }
        return targets, misses, hooks

    def _check_trace(self, spans: dict, traced: dict) -> None:
        """The traced pass must count exactly the work it did."""
        if self.w.mode != "pipeline":
            return
        want = {
            "aggregation.update": len(self.merged),
            "aggregation.accept": traced["partials"],
            "aggregation.finalize": self.w.aggregators,
            "aggregation.mark_inactive": self.w.aggregators,
            "queues.enqueue_spin": len(self.merged) + traced["partials"] + self.w.aggregators,
        }
        for name, n in want.items():
            if spans[name]["calls"] != n:
                raise PassFailed(f"trace counted {spans[name]['calls']} {name} calls, expected {n}")

    def _release_lags(self, tracer: Tracer) -> list:
        """Wall time from the enqueue of each window's last contributing
        tuple, over every producer, to the call that released it."""
        enq_at = [None] * len(self.streams)
        releases = []
        for st in tracer.states:
            releases.extend(st.releases)
            for p, stream in enumerate(self.streams):
                if stream and st.first_enqueued is stream[0]:
                    enq_at[p] = st.enqueued_at
        for p, times in enumerate(enq_at):
            if times is None or len(times) != len(self.streams[p]):
                raise PassFailed(f"trace missed enqueues of producer {p}")
        if len(releases) != len(self.expected):
            raise PassFailed(f"trace saw {len(releases)} releases, expected {len(self.expected)}")
        size = self.spec.size
        lags = []
        for start, released_at in releases:
            last = None
            for ts_list, times in zip(self.timestamps, enq_at):
                k = bisect.bisect_left(ts_list, start + size) - 1
                if k >= 0 and ts_list[k] >= start and (last is None or times[k] > last):
                    last = times[k]
            lags.append(released_at - last)
        return lags


def _note_enqueue(state, args, _result) -> None:
    item = args[1]
    if type(item) is tuple:  # a workload tuple, not a partial or marker
        if state.first_enqueued is None:
            state.first_enqueued = item
        state.enqueued_at.append(time.perf_counter_ns())


def _note_release(state, _args, released) -> None:
    if released:
        now = time.perf_counter_ns()
        state.releases.extend((start, now) for start, _total in released)


# ---------------------------------------------------------------------------


def serve(bench: Bench, inp, out) -> None:
    def reply(obj):
        out.write(json.dumps(obj) + "\n")
        out.flush()

    reply({"ready": True, "info": bench.info()})
    for line in inp:
        req = json.loads(line)
        op = req["op"]
        try:
            if op == "layers":
                result = bench.replays()
            else:
                kind = QueueKind(req["kind"])
                run = {"pass": bench.run_pass, "memory": bench.memory_pass,
                       "trace": bench.trace}[op]
                result = run(kind)
                result.pop("lat_ns", None)
            reply({"ok": True, "result": result})
        except Exception as exc:  # a failed pass is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            reply({"ok": False, "error": f"{type(exc).__name__}: {exc}"})


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--fault", choices=FAULTS)
    args = ap.parse_args()
    out = os.fdopen(os.dup(1), "w")
    sys.stdout = sys.stderr  # keep the reply channel clean
    bench = Bench(WORKLOADS[args.workload].sized(args.scale), args.seed, args.fault)
    serve(bench, sys.stdin, out)


if __name__ == "__main__":
    main()
