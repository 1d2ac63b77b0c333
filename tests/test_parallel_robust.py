"""Worker-pool failure semantics of :func:`repro.util.parallel.parallel_map`.

The contract under test: exceptions raised *by the mapped function*
propagate unchanged (they are the caller's domain errors); failures of
the pool *infrastructure* — a worker process dying, an unpicklable
payload — become a typed :class:`WorkerPoolError` carrying the failed
task ids, or are healed transparently by the documented
``retry_serial`` fallback.
"""

import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.obs.metrics import get_registry
from repro.util import parallel
from repro.util.parallel import (WorkerPoolError, chunked, parallel_map,
                                 resolve_workers)


def square(value):
    return value * value


def fail_on_three(value):
    if value == 3:
        raise ValueError("three is right out")
    return value


def die_on_flag(payload):
    value, flag_path = payload
    if value == 3 and _trip(flag_path):
        os._exit(17)  # a SIGKILLed/OOM-killed worker, as the pool sees it
    return value * value


def _trip(flag_path):
    try:
        fd = os.open(flag_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


class TestHappyPath:
    def test_serial_when_one_worker(self):
        assert parallel_map(square, range(5), workers=1) \
            == [0, 1, 4, 9, 16]

    def test_parallel_matches_serial(self):
        items = list(range(20))
        assert parallel_map(square, items, workers=4) \
            == [square(i) for i in items]

    def test_empty_items(self):
        assert parallel_map(square, [], workers=4) == []

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(-1) >= 1

    def test_chunked_covers_everything_in_order(self):
        items = list(range(11))
        chunks = list(chunked(items, 3))
        assert [x for chunk in chunks for x in chunk] == items
        assert all(chunks)


class TestFunctionErrors:
    """fn's own exceptions are domain errors: raised unchanged."""

    def test_serial_path_propagates(self):
        with pytest.raises(ValueError, match="three"):
            parallel_map(fail_on_three, range(5), workers=1)

    def test_parallel_path_propagates_original_type(self):
        with pytest.raises(ValueError, match="three"):
            parallel_map(fail_on_three, range(5), workers=3)

    def test_retry_serial_does_not_swallow_fn_errors(self):
        # retry_serial heals *pool* failures, not domain failures.
        with pytest.raises(ValueError, match="three"):
            parallel_map(fail_on_three, range(5), workers=3,
                         retry_serial=True)


class TestWorkerDeath:
    def test_dead_worker_raises_typed_error_with_task_ids(self, tmp_path):
        flag = str(tmp_path / "died")
        payloads = [(i, flag) for i in range(8)]
        with pytest.raises(WorkerPoolError) as info:
            parallel_map(die_on_flag, payloads, workers=2)
        assert info.value.failed, "failed task ids must be reported"
        assert all(0 <= i < 8 for i in info.value.failed)
        assert 3 in info.value.failed
        assert "serial" in str(info.value).lower() \
            or "retry" in str(info.value).lower()

    def test_retry_serial_heals_dead_worker(self, tmp_path):
        flag = str(tmp_path / "died")
        payloads = [(i, flag) for i in range(8)]
        results = parallel_map(die_on_flag, payloads, workers=2,
                               retry_serial=True)
        assert results == [i * i for i in range(8)]
        assert os.path.exists(flag), "the kill hook must have fired"

    def test_unpicklable_item_is_typed(self):
        items = [1, 2, lambda: None, 4]
        with pytest.raises((WorkerPoolError, TypeError)):
            # Depending on the executor, pickling fails at submit or
            # in flight; either way it must not hang and must surface
            # as a typed/explicit error, not a raw pool crash.
            parallel_map(square, items, workers=2)


class BreaksOnThirdSubmit(parallel.ProcessPoolExecutor):
    """A pool whose worker dies while the third task is submitted."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        if self.submitted == 3:
            raise BrokenProcessPool("a worker died during dispatch")
        return super().submit(*args, **kwargs)


class TestPoolBreaksDuringSubmit:
    def test_unsubmitted_tasks_are_retried_serially(self, monkeypatch):
        monkeypatch.setattr(parallel, "ProcessPoolExecutor",
                            BreaksOnThirdSubmit)
        retries = get_registry().counter(
            "repro_pool_serial_retries_total")
        before = retries.value()
        assert parallel_map(square, range(6), workers=2,
                            retry_serial=True) \
            == [square(i) for i in range(6)]
        assert retries.value() == before + 4

    def test_without_retry_every_lost_id_is_named(self, monkeypatch):
        monkeypatch.setattr(parallel, "ProcessPoolExecutor",
                            BreaksOnThirdSubmit)
        with pytest.raises(WorkerPoolError) as info:
            parallel_map(square, range(6), workers=2)
        assert info.value.failed == (2, 3, 4, 5)
        assert isinstance(info.value.cause, BrokenProcessPool)
