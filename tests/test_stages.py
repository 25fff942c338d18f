"""run_stages, the one thread runner: its lifecycle, its placement of
the threads on one CPU, and the threaded runs that rely on it raising a
failing side's error instead of hanging."""

import ast
import os
import threading
from functools import partial
from pathlib import Path

import pytest

import streamq
from streamq import QueueConfig, QueueKind, check_fifo, new_queue
from streamq.bench import fifo_stress_run
from streamq.pipeline import run_stages


class InjectedFault(Exception):
    """The error a fault-injection test makes one stage raise."""


def raised_within(seconds, fn, *args):
    """The errors ``fn(*args)`` raised, run in a daemon thread that must
    end within ``seconds``."""
    outcome = []

    def run():
        try:
            fn(*args)
        except BaseException as exc:
            outcome.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=seconds)
    assert not runner.is_alive(), f"{fn.__name__} still waiting after {seconds} s"
    return outcome


def test_stages_run_in_named_threads_and_are_timed():
    names = []
    elapsed = run_stages({
        name: lambda _abort: names.append(threading.current_thread().name)
        for name in ("left", "right")
    })
    assert sorted(names) == ["left", "right"]
    assert elapsed >= 0


needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="no CPU affinity calls here"
)


@needs_affinity
def test_stages_share_one_cpu():
    masks = {}

    def record(name, _abort):
        masks[name] = frozenset(os.sched_getaffinity(0))

    run_stages({name: partial(record, name) for name in ("a", "b", "c")})
    assert sorted(masks) == ["a", "b", "c"]
    shared = set(masks.values())
    assert len(shared) == 1, masks
    (mask,) = shared
    assert len(mask) == 1 and mask <= os.sched_getaffinity(0), mask


@needs_affinity
def test_caller_mask_is_restored(monkeypatch):
    before = os.sched_getaffinity(0)
    run_stages({"idle": lambda _abort: None})
    assert os.sched_getaffinity(0) == before

    def fails(_abort):
        raise InjectedFault("stage fault")

    with pytest.raises(InjectedFault):
        run_stages({"fails": fails, "idle": lambda _abort: None})
    assert os.sched_getaffinity(0) == before

    def cannot_start(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", cannot_start)
    with pytest.raises(RuntimeError):
        run_stages({"idle": lambda _abort: None})
    assert os.sched_getaffinity(0) == before


def test_failed_start_leaves_no_stage_running(monkeypatch):
    # The second stage thread cannot start. The first one is a daemon,
    # so that a leak fails this test without keeping the suite alive.
    original = threading.Thread.start
    names = ("started", "unstartable")
    ran = []

    def start(self):
        if self.name == "unstartable":
            raise RuntimeError("can't start new thread")
        if self.name == "started":
            self.daemon = True
        original(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    stages = {name: lambda _abort, name=name: ran.append(name) for name in names}
    outcome = raised_within(10.0, run_stages, stages)
    assert [type(exc) for exc in outcome] == [RuntimeError], outcome
    assert ran == []
    leaked = [t for t in threading.enumerate() if t.name in names]
    for t in leaked:
        t.join(timeout=0.5)
    assert not any(t.is_alive() for t in leaked), leaked


def test_stages_run_unconfined_without_affinity_calls(monkeypatch):
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    test_stages_run_in_named_threads_and_are_timed()


def test_mcr_largest_accepted_batch_is_live():
    # Batch 4 of 8 is the largest an MCRingBuffer of 8 accepts; a batch
    # of the whole ring is rejected because it would stall.
    count = 5_000

    def run():
        log = fifo_stress_run(
            QueueKind.MCRINGBUFFER, 8, count, QueueConfig(capacity=8, mcr_batch_size=4)
        )
        assert check_fifo(log) is None
        assert list(log.dequeued) == list(range(count))

    assert raised_within(10.0, run) == []


def test_root_cause_is_raised_over_aborts_and_asserts():
    # The root cause is recorded after the assert it did not cause.
    def asserts(_abort):
        raise AssertionError("a consistency check")

    def waits(abort):
        _, consumer = new_queue(QueueKind.LAMPORT, QueueConfig(capacity=4))
        consumer.dequeue_spin(abort=abort)  # empty and never finished

    def fails(abort):
        abort.wait()
        raise InjectedFault("root cause")

    stages = {"asserts": asserts, "waits": waits, "fails": fails}
    outcome = raised_within(10.0, run_stages, stages)
    assert [type(exc) for exc in outcome] == [InjectedFault], outcome


@pytest.mark.parametrize("kind", list(QueueKind))
@pytest.mark.parametrize("side", ["try_enqueue", "try_dequeue"])
def test_handoff_fault_is_raised_not_hung(monkeypatch, kind, side):
    # The side fails at its 100th call; the other side is then waiting on
    # a full or an empty ring of 4, which only the abort can end.
    endpoint = new_queue(kind, QueueConfig(capacity=4))[side == "try_dequeue"]
    owner = type(endpoint)
    original = owner.__dict__[side]
    calls = [0]

    def faulty(self, *args):
        calls[0] += 1
        if calls[0] == 100:
            raise InjectedFault(f"{side} fault")
        return original(self, *args)

    monkeypatch.setattr(owner, side, faulty)
    outcome = raised_within(10.0, fifo_stress_run, kind, 4, 5_000)
    assert calls[0] >= 100, "the fault was never injected"
    assert [type(exc) for exc in outcome] == [InjectedFault], outcome


def calls_in_package(names):
    """``(scope, name)`` of every call in the package to a callable
    named in ``names``, sorted; a scope reads ``module.Class.function``."""
    scopes = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

    def calls(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = f"{scope}.{child.name}" if isinstance(child, scopes) else scope
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    yield inner, name
            yield from calls(child, inner)

    package = Path(streamq.__file__).parent
    return sorted(
        found
        for path in sorted(package.glob("*.py"))
        for found in calls(ast.parse(path.read_text()), path.stem)
    )


def test_run_stages_is_the_only_thread_runner():
    # Threads and the start and abort events are made in one place.
    assert calls_in_package({"Thread", "Event"}) == [
        ("pipeline.run_stages", "Event"),
        ("pipeline.run_stages", "Event"),
        ("pipeline.run_stages", "Thread"),
    ]


def test_waiters_are_made_by_the_spin_wrappers_and_the_final_sweep_only():
    assert calls_in_package({"Waiter"}) == [
        ("pipeline._run_final", "Waiter"),
        ("queues.ConsumerEndpoint.dequeue_spin", "Waiter"),
        ("queues.ProducerEndpoint.enqueue_spin", "Waiter"),
    ]
