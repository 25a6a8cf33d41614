"""Worker processes: the one way handgeo spreads work over cores.

A job is a module-level function and its arguments, pickled by reference.
Each worker is a fresh Python interpreter whose BLAS runs one thread, so n
workers keep n cores busy and a model's bits do not depend on the core
count. Training (classifiers.train_populations) and gen
(gen.generate_corpus) both start their workers through `workers`;
gen's processes take person numbers from one NumberQueue.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
from contextlib import contextmanager, suppress
from pathlib import Path
from select import PIPE_BUF, select
from typing import Callable, Iterator

#: Thread-count variables of the BLAS builds NumPy may load; each worker
#: gets 1. A second BLAS thread gains nothing at handgeo's matrix sizes.
_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
_WORKER = "from handgeo.parallel import _worker_main; _worker_main()"

#: A job: a module-level function returning an iterable, and its arguments.
Job = tuple[Callable, tuple]


def cores() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _worker_main() -> None:
    """A worker: unpickle (caller pid, function, args) from stdin, and pickle
    (error, items) to stdout: the items function(*args) yields, in order, and
    the exception that ended them, or None. Once its caller has died it
    takes no next item and writes nothing."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # on Ctrl-C the caller kills its workers
    try:
        caller, function, args = pickle.load(sys.stdin.buffer)
    except EOFError:  # the caller closed the stream before sending a job
        return
    items: list = []
    error: Exception | None = None
    end = object()
    try:
        taken = iter(function(*args))
        while os.getppid() == caller:
            item = next(taken, end)
            if item is end:
                break
            items.append(item)
        else:  # the caller has died
            return
    except Exception as exc:
        error = exc
    pickle.dump((error, items), sys.stdout.buffer, pickle.HIGHEST_PROTOCOL)


@contextmanager
def workers(
    jobs: list[Job], lost: Callable[[int], Exception], pass_fds: tuple[int, ...] = ()
) -> Iterator[Callable[[], list[list]]]:
    """Start one worker per job, then send each its job; yields replies().

    replies() reads every worker's items in job order, re-raises the first
    job's exception, and raises lost(exit code) for a worker that exited
    before replying. The workers inherit the file descriptors in pass_fds.
    On leaving the block, unless replies() returned, every worker still
    running is killed; every worker is reaped either way.
    """
    root = str(Path(__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **_ONE_THREAD, "PYTHONPATH": path}
    started: list[subprocess.Popen] = []
    replied = False

    def replies() -> list[list]:
        nonlocal replied
        out = []
        for worker in started:
            try:
                error, items = pickle.load(worker.stdout)
            except (EOFError, pickle.UnpicklingError):
                raise lost(worker.wait()) from None
            if error is not None:
                raise error
            out.append(items)
        replied = True
        return out

    try:
        for _ in jobs:
            started.append(
                subprocess.Popen(
                    [sys.executable, "-c", _WORKER],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    env=env,
                    pass_fds=pass_fds,
                )
            )
        # All start before any is sent its job, so a job larger than a pipe
        # buffer, which waits for its worker to read it, delays no other start.
        for worker, (function, args) in zip(started, jobs):
            # A worker that died first is reported by replies(), where its
            # reply is missing.
            with suppress(BrokenPipeError):
                pickle.dump((os.getpid(), function, args), worker.stdin, pickle.HIGHEST_PROTOCOL)
                worker.stdin.close()
        yield replies
    finally:
        for worker in started:
            if not replied and worker.poll() is None:
                worker.kill()
            with suppress(OSError):  # unsent bytes of a job to a dead worker
                worker.stdin.close()
            worker.wait()
            worker.stdout.close()


#: Bytes of one number on a NumberQueue's pipe, little-endian.
_RECORD = 8


def _read_number(fd: int) -> int | None:
    """The number read from fd; None at its end. Raises BlockingIOError
    where a non-blocking read end finds the queue empty but not ended."""
    record = os.read(fd, _RECORD)
    return int.from_bytes(record, "little") if record else None


def next_number(fd: int) -> int | None:
    """The next number on the NumberQueue read from fd; None once it has ended."""
    while True:
        try:
            return _read_number(fd)
        except BlockingIOError:  # empty: wait for the caller to add records or end
            select([fd], [], [])


class NumberQueue:
    """The numbers 0 .. n-1, in order, as _RECORD-byte records on one pipe;
    each read, by this process (take) or a worker (next_number of read_fd,
    passed in pass_fds), gets the next number.

    Only this process writes. A pipe holds at most 64 KiB, and as little as
    one 4 KiB page where the user's pipe allowance is spent: fewer records
    than a large n. So take() adds as many records as the pipe takes
    without waiting, in writes of at most PIPE_BUF bytes, which a reader
    sees whole, then reads one. Both ends do not block: should the other
    readers empty the pipe first, take() waits until it can read a record
    or add more, never on a pipe only it can fill. end() closes the write
    end, after which a read past the last queued record returns nothing.
    """

    def __init__(self, n: int):
        self.read_fd, self._write_fd = os.pipe()
        os.set_blocking(self.read_fd, False)
        os.set_blocking(self._write_fd, False)
        self._n = n
        self._queued = 0

    def take(self) -> int | None:
        """This process's next number; None once the queue has ended."""
        step = PIPE_BUF // _RECORD
        while True:
            while self._write_fd is not None and self._queued < self._n:
                stop = min(self._queued + step, self._n)
                records = b"".join(i.to_bytes(_RECORD, "little") for i in range(self._queued, stop))
                try:
                    os.write(self._write_fd, records)
                except BlockingIOError:  # the pipe is full: the other readers drain it
                    break
                self._queued = stop
            if self._queued == self._n:
                self.end()
            try:
                return _read_number(self.read_fd)
            except BlockingIOError:  # emptied by the others while the write end is open
                select([self.read_fd], [self._write_fd], [])

    def end(self) -> None:
        """Queue no more numbers."""
        if self._write_fd is not None:
            os.close(self._write_fd)
            self._write_fd = None

    def drain(self) -> None:
        """End the queue and take every number still on it, so that no
        process gets another."""
        self.end()
        while next_number(self.read_fd) is not None:
            pass

    def close(self) -> None:
        self.end()
        os.close(self.read_fd)
