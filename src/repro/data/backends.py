"""Worker execution backends: threads or forked processes.

The paper's DataLoader forks worker *processes*, communicating through
``multiprocessing.Queue`` (shared memory); this repo defaults to thread
workers — identical queueing structure, visible to the in-process
simulated PMU — and offers a fork-based process backend for fidelity
(each worker is a real OS process with its own pid, and LotusTrace logs
must go to a file the children can append to).

Every started worker is wrapped in a :class:`WorkerHandle` that carries
the backend's cooperative *cancellation flag* alongside the raw
thread/process. ``terminate`` has real semantics on both backends:
threads are cancelled cooperatively (the worker loop polls the flag
between tasks and before shipping a finished batch), processes get the
flag set *and* a hard ``terminate()`` — the flag still matters there as
a best-effort courtesy for forked children mid-fetch.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import time
from multiprocessing.connection import wait as wait_for_readers
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import DataLoaderError

THREAD_BACKEND = "thread"
PROCESS_BACKEND = "process"
BACKENDS = (THREAD_BACKEND, PROCESS_BACKEND)


class WorkerHandle:
    """A started worker plus its cooperative cancellation flag."""

    __slots__ = ("raw", "cancel_flag")

    def __init__(self, raw: Any, cancel_flag: Any) -> None:
        self.raw = raw
        self.cancel_flag = cancel_flag

    def __repr__(self) -> str:
        return f"WorkerHandle({self.raw!r})"


class SharedDataChannel:
    """Thread workers' data channel: one ``queue.Queue`` for all.

    A cancelled thread may still put a late payload after its
    replacement started; the supervisor drops those by generation."""

    def __init__(self) -> None:
        self._queue: queue_module.Queue = queue_module.Queue()

    def for_worker(self, worker_id: int) -> queue_module.Queue:
        return self._queue

    def replace(self, worker_id: int) -> None:
        """No-op: a thread cannot die holding the queue's lock."""

    def get(self, timeout: float, readable: Callable[[int], bool]) -> Tuple:
        """Next message from any worker; raises ``queue.Empty`` after
        ``timeout`` seconds."""
        return self._queue.get(timeout=timeout)

    def drain(self, readable: Callable[[int], bool]) -> int:
        return ThreadWorkerBackend.drain_queue(self._queue)

    def close(self) -> None:
        """No-op: ``queue.Queue`` holds no fd or feeder thread."""


class PerWorkerDataChannels:
    """Process workers' data channels: one mp queue per worker.

    The main process multiplexes the queues' pipe readers with
    ``multiprocessing.connection.wait``. A dead worker's channel is
    never read (``readable`` says no): the worker may have died
    mid-message, and a read would block on bytes that never come. Its
    unread payloads are not needed — the supervisor replays every batch
    the worker had not delivered — and :meth:`replace` swaps in a fresh
    queue for the replacement incarnation.
    """

    def __init__(self, ctx: Any, num_workers: int) -> None:
        self._ctx = ctx
        self._queues: List[Any] = [ctx.Queue() for _ in range(num_workers)]
        self._next = 0  # round-robin start, so no worker starves

    def for_worker(self, worker_id: int) -> Any:
        return self._queues[worker_id]

    def replace(self, worker_id: int) -> None:
        old = self._queues[worker_id]
        self._queues[worker_id] = self._ctx.Queue()
        ProcessWorkerBackend.close_queue(old)

    def get(self, timeout: float, readable: Callable[[int], bool]) -> Tuple:
        """Next message from a live worker's channel; raises
        ``queue.Empty`` after ``timeout`` seconds without one."""
        count = len(self._queues)
        order = [(self._next + k) % count for k in range(count)]
        # ``_reader`` is the receiving end of the queue's pipe.
        readers = {
            self._queues[i]._reader: i for i in order if readable(i)
        }
        if not readers:
            time.sleep(timeout)
            raise queue_module.Empty
        ready = set(wait_for_readers(list(readers), timeout))
        for reader, worker_id in readers.items():
            if reader in ready:
                self._next = (worker_id + 1) % count
                return self._queues[worker_id].get_nowait()
        raise queue_module.Empty

    def drain(self, readable: Callable[[int], bool]) -> int:
        return sum(
            ProcessWorkerBackend.drain_queue(q)
            for i, q in enumerate(self._queues)
            if readable(i)
        )

    def close(self) -> None:
        for q in self._queues:
            ProcessWorkerBackend.close_queue(q)


class ThreadWorkerBackend:
    """Workers as daemon threads in the current process."""

    name = THREAD_BACKEND
    is_process = False

    def make_queue(self) -> queue_module.Queue:
        return queue_module.Queue()

    def make_data_channels(self, num_workers: int) -> SharedDataChannel:
        return SharedDataChannel()

    def start_worker(
        self, target: Callable, args: tuple, kwargs: dict, name: str
    ) -> WorkerHandle:
        flag = threading.Event()
        kwargs = dict(kwargs, cancel_flag=flag)
        thread = threading.Thread(
            target=target, args=args, kwargs=kwargs, name=name, daemon=True
        )
        thread.start()
        return WorkerHandle(thread, flag)

    def is_alive(self, handle: WorkerHandle) -> bool:
        return handle.raw.is_alive()

    def join(self, handle: WorkerHandle, timeout: float) -> None:
        handle.raw.join(timeout=timeout)

    def terminate(self, handle: WorkerHandle) -> None:
        """Cooperative cancellation: the worker loop polls the flag
        between tasks (and before shipping a finished batch) and exits.
        A thread blocked in an un-timed queue ``get`` also needs a
        sentinel on its index queue to wake up — the pool's shutdown and
        restart paths send one."""
        handle.cancel_flag.set()

    @staticmethod
    def drain_queue(queue: queue_module.Queue) -> int:
        """Discard everything currently readable from ``queue``."""
        drained = 0
        while True:
            try:
                queue.get_nowait()
            except queue_module.Empty:
                return drained
            drained += 1

    @staticmethod
    def close_queue(queue: queue_module.Queue) -> None:
        """No-op: ``queue.Queue`` has no feeder thread or fd to release."""


class ProcessWorkerBackend:
    """Workers as forked child processes (the paper's architecture).

    Fork keeps the dataset/transform objects without pickling (the child
    inherits the parent's memory image), exactly like PyTorch's default
    start method on Linux.
    """

    name = PROCESS_BACKEND
    is_process = True

    def __init__(self) -> None:
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # platform without fork
            raise DataLoaderError(
                "process worker backend requires fork support"
            ) from exc

    def make_queue(self):
        return self._ctx.Queue()

    def make_data_channels(self, num_workers: int) -> PerWorkerDataChannels:
        return PerWorkerDataChannels(self._ctx, num_workers)

    def start_worker(
        self, target: Callable, args: tuple, kwargs: dict, name: str
    ) -> WorkerHandle:
        flag = self._ctx.Event()
        kwargs = dict(kwargs, cancel_flag=flag)
        process = self._ctx.Process(
            target=target, args=args, kwargs=kwargs, name=name, daemon=True
        )
        process.start()
        return WorkerHandle(process, flag)

    def is_alive(self, handle: WorkerHandle) -> bool:
        return handle.raw.is_alive()

    def join(self, handle: WorkerHandle, timeout: float) -> None:
        """A bounded wait, nothing more. Joining used to hard-terminate
        stragglers as a side effect, which turned every slow-but-clean
        exit (e.g. a worker flushing its trace writer, or blocked in a
        queue put the shutdown path is about to drain) into a kill;
        escalation is now an explicit caller decision via
        :meth:`terminate`."""
        handle.raw.join(timeout=timeout)

    def terminate(self, handle: WorkerHandle) -> None:
        handle.cancel_flag.set()
        if handle.raw.is_alive():
            handle.raw.terminate()

    @staticmethod
    def drain_queue(queue: Any) -> int:
        """Discard everything currently readable from ``queue``.

        Shutdown calls this between join attempts so a worker blocked in
        ``data_queue.put`` (queue full, main no longer consuming) can
        finish the put, reach its sentinel, and exit cleanly instead of
        being terminated with the payload half-shipped.
        """
        drained = 0
        while True:
            try:
                queue.get_nowait()
            except queue_module.Empty:
                return drained
            except (EOFError, OSError):
                return drained
            drained += 1

    @staticmethod
    def close_queue(queue: Any) -> None:
        """Release an mp queue's resources without blocking on its feeder.

        ``cancel_join_thread`` first: a plain ``close`` would leave the
        feeder thread joining at interpreter exit until every buffered
        pickle is flushed to a pipe nobody reads anymore.
        """
        try:
            queue.cancel_join_thread()
            queue.close()
        except (OSError, ValueError):
            pass


def create_backend(name: str):
    """Instantiate the backend named ``name`` ("thread" or "process")."""
    if name == THREAD_BACKEND:
        return ThreadWorkerBackend()
    if name == PROCESS_BACKEND:
        return ProcessWorkerBackend()
    raise DataLoaderError(
        f"unknown worker backend {name!r}; choose from {BACKENDS}"
    )
