"""Two-thread stress runs; the heavyweight version lives in acceptance."""

import threading
from collections import Counter

import pytest

from streamq import EMPTY, QueueConfig, QueueKind, check_fifo, new_queue
from streamq.bench import fifo_stress_run
from streamq.pipeline import run_stages

ALL_KINDS = list(QueueKind)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("capacity", [2, 128])
def test_fifo_and_conservation_under_concurrency(kind, capacity):
    if kind is QueueKind.BATCHQUEUE and capacity % 2:
        pytest.skip("BatchQueue needs an even capacity")
    count = 20_000
    log = fifo_stress_run(kind, capacity, count)
    violation = check_fifo(log)
    assert violation is None, f"{kind.value}@{capacity}: {violation}"
    assert len(log.dequeued) == count
    assert Counter(log.dequeued) == Counter(range(count))


def test_mcr_batched_stress_with_flush():
    log = fifo_stress_run(
        QueueKind.MCRINGBUFFER, 128, 50_000,
        QueueConfig(capacity=128, mcr_batch_size=32),
    )
    assert check_fifo(log) is None
    assert list(log.dequeued) == list(range(50_000))


def test_mcr_publication_arithmetic_under_concurrency():
    # Publications depend only on the success count, not the schedule.
    for count in (100, 320, 1000):
        producer, consumer = new_queue(
            QueueKind.MCRINGBUFFER, QueueConfig(capacity=64, mcr_batch_size=32)
        )

        def produce(abort):
            for i in range(count):
                producer.enqueue_spin(i, abort=abort)
            producer.producer_finish()

        def consume(abort):
            for _ in range(count):
                assert consumer.dequeue_spin(abort=abort) is not EMPTY

        run_stages({"producer": produce, "consumer": consume})
        expected = count // 32 + (1 if count % 32 else 0)
        assert producer.stats().publication_events == expected


def test_batchqueue_leftover_every_remainder():
    # Every total in 1..2N must drain exactly through finish + leftover.
    for total in range(1, 17):
        log = fifo_stress_run(QueueKind.BATCHQUEUE, 16, total)
        assert check_fifo(log) is None, total
        assert list(log.dequeued) == list(range(total))


def test_spin_wrappers_make_progress_against_a_live_peer():
    producer, consumer = new_queue(QueueKind.LAMPORT, QueueConfig(capacity=4))
    count = 2_000
    got = []

    def consume():
        for _ in range(count):
            got.append(consumer.dequeue_spin())

    tc = threading.Thread(target=consume)
    tc.start()
    for i in range(count):
        producer.enqueue_spin(i)  # blocks on a full ring until drained
    tc.join()
    assert got == list(range(count))
