"""gen on every core: the caller and its workers take persons from one queue."""

import fcntl
import io
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from handgeo import gen, parallel, synthgen
from handgeo.cli import main
from handgeo.gen import generate_corpus
from handgeo.synthgen import CorpusSettings

#: Waits, so that it stands for a worker still starting.
STARTING = "import time; time.sleep(60)"

#: Reads person numbers from the queue whose file descriptor is argv[1] until
#: it ends, after a "ready" line, then pickles them to stdout.
READER = """
import os, pickle, sys
from handgeo.parallel import next_number
fd = int(sys.argv[1])
print("ready", flush=True)
taken = list(iter(lambda: next_number(fd), None))
sys.stdout.buffer.write(pickle.dumps(taken))
"""


def tree_bytes(root):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


@pytest.fixture()
def workers(monkeypatch):
    """Every process started while the test runs, on a machine of 2 cores."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(parallel, "cores", lambda: 2)
    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started


def all_reaped(started):
    return all(w.returncode is not None and w.stdin.closed and w.stdout.closed for w in started)


def wait_for(condition, what):
    deadline = time.monotonic() + 60
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.01)


def caller_waits(monkeypatch, condition, what):
    """The caller's person 0, the first it takes, renders once condition()
    holds: workers do not see the patch."""
    render_person = synthgen.render_person

    def waiting(settings, p):
        if p == 0:
            wait_for(condition, what)
        return render_person(settings, p)

    monkeypatch.setattr(synthgen, "render_person", waiting)


def test_trees_are_byte_identical_on_one_and_two_cores(workers, monkeypatch, tmp_path):
    argv = ["--persons", "5", "--samples", "3", "--dpi", "150", "--noise-level", "0.1"]
    two = tmp_path / "two"
    caller_waits(monkeypatch, (two / "person_01" / "ground_truth.csv").exists, "no worker wrote")
    assert main(["gen", "--out", str(two)] + argv) == 0
    assert len(workers) == 1 and all_reaped(workers)
    monkeypatch.setattr(parallel, "cores", lambda: 1)
    assert main(["gen", "--out", str(tmp_path / "one")] + argv) == 0
    assert len(workers) == 1
    assert tree_bytes(two) == tree_bytes(tmp_path / "one")


def test_a_gen_where_every_person_fails_is_one_line_on_any_core_count(
    workers, monkeypatch, tmp_path, capsys
):
    lines = {}
    for cores in (1, 2):
        monkeypatch.setattr(parallel, "cores", lambda: cores)
        out = tmp_path / str(cores)
        assert main(["gen", "--out", str(out), "--dpi", "10", "--persons", "4"]) == 1
        lines[cores] = capsys.readouterr().err.splitlines()
        assert not (out / "corpus_config.txt").exists()
    assert lines[2] == lines[1]
    assert len(lines[1]) == 1 and lines[1][0].startswith("corpus_error: person 0 sample 0: ")
    assert len(workers) == 1 and all_reaped(workers)


def test_a_workers_failure_below_the_callers_is_the_one_line(
    workers, monkeypatch, tmp_path, capsys
):
    # Of these 6 persons, 1, 2, 3 and 5 fail. The caller holds person 0 until
    # its worker has stopped after failing at person 1, then fails at 2 and
    # takes the rest of the queue; the lower failure is the worker's.
    argv = ["--seed", "2", "--dpi", "26", "--persons", "6", "--samples", "1"]
    monkeypatch.setattr(parallel, "cores", lambda: 1)
    assert main(["gen", "--out", str(tmp_path / "one")] + argv) == 1
    line = capsys.readouterr().err.splitlines()
    assert len(line) == 1 and line[0].startswith("corpus_error: person 1 sample 0: ")
    monkeypatch.setattr(parallel, "cores", lambda: 2)
    caller_waits(monkeypatch, lambda: workers[0].poll() is not None, "the worker did not stop")
    two = tmp_path / "two"
    assert main(["gen", "--out", str(two)] + argv) == 1
    assert capsys.readouterr().err.splitlines() == line
    assert len(workers) == 1 and workers[0].returncode == 0 and all_reaped(workers)
    assert sorted(path.name for path in two.iterdir()) == ["person_00"]


def test_a_killed_worker_is_one_corpus_error_line_and_no_config(
    workers, monkeypatch, tmp_path, capsys
):
    out = tmp_path / "g"

    def worker_killed():
        # Once the worker has written person 1, with 20 persons still queued.
        if not (out / "person_01" / "ground_truth.csv").exists():
            return False
        workers[0].kill()
        return True

    caller_waits(monkeypatch, worker_killed, "no worker wrote")
    assert main(["gen", "--out", str(out), "--persons", "22", "--samples", "2"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["corpus_error: a gen worker exited with code -9 before reporting its persons"]
    assert not (out / "corpus_config.txt").exists()
    assert len(workers) == 1 and all_reaped(workers)


def test_an_interrupt_while_the_caller_renders_kills_and_reaps_every_worker(
    workers, monkeypatch, tmp_path
):
    def interrupted(settings, p):
        # Person 0 is the caller's; it is interrupted once a worker has written person 1.
        wait_for((tmp_path / "person_01" / "ground_truth.csv").exists, "no worker wrote")
        raise KeyboardInterrupt

    monkeypatch.setattr(synthgen, "render_person", interrupted)
    before = open_fds()
    with pytest.raises(KeyboardInterrupt):
        generate_corpus(tmp_path, CorpusSettings(0, persons=22, samples=2))
    assert [w.returncode for w in workers] == [-9] and all_reaped(workers)
    assert open_fds() == before
    assert not (tmp_path / "corpus_config.txt").exists()


def test_a_corpus_the_caller_finishes_alone_stops_its_worker(workers, monkeypatch, tmp_path):
    popen = subprocess.Popen

    def starting(args, **kwargs):
        return popen([sys.executable, "-c", STARTING], **kwargs)

    monkeypatch.setattr(subprocess, "Popen", starting)
    started = time.monotonic()
    generate_corpus(tmp_path / "alone", CorpusSettings(0, persons=3, samples=2))
    assert time.monotonic() - started < 30
    assert [w.returncode for w in workers] == [-9] and all_reaped(workers)
    monkeypatch.setattr(parallel, "cores", lambda: 1)
    generate_corpus(tmp_path / "one", CorpusSettings(0, persons=3, samples=2))
    assert tree_bytes(tmp_path / "alone") == tree_bytes(tmp_path / "one")


@pytest.mark.parametrize(
    "written", [[], ["person_00"]], ids=["before_the_first_person", "while_it_renders"]
)
def test_an_orphaned_gen_worker_stops_before_its_next_person(monkeypatch, tmp_path, written):
    """The caller, process 100, dies before the worker takes a person, or
    while person 0 renders."""
    read_fd, write_fd = os.pipe()
    os.write(write_fd, b"".join(p.to_bytes(parallel._RECORD, "little") for p in range(3)))
    os.close(write_fd)

    def getppid():
        return 100 if written and not (tmp_path / "person_00").exists() else 1

    monkeypatch.setattr(os, "getppid", getppid)
    monkeypatch.setattr(parallel.signal, "signal", lambda *args: None)
    settings = CorpusSettings(0, persons=3, samples=1)
    job = pickle.dumps((100, gen._write_queued, (tmp_path, settings, read_fd)))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(job)))
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO()))
    try:
        parallel._worker_main()
        assert parallel.next_number(read_fd) == len(written)
    finally:
        os.close(read_fd)
    assert sorted(path.name for path in tmp_path.iterdir()) == written
    assert sys.stdout.buffer.getvalue() == b""


def test_a_drained_queue_gives_no_other_process_a_person():
    queue = parallel.NumberQueue(3)
    try:
        assert queue.take() == 0
        queue.drain()
        assert parallel.next_number(queue.read_fd) is None
    finally:
        queue.close()


def taken_by_the_caller_and_three_readers(queue, persons):
    """Every number taken off queue, the caller's list first, within 60 s."""
    env = dict(os.environ, PYTHONPATH=str(Path(parallel.__file__).parents[1]))
    readers = []

    def timed_out(*args):
        raise TimeoutError("the caller waited 60 s for a number")

    previous = signal.signal(signal.SIGALRM, timed_out)
    try:
        for _ in range(3):
            readers.append(
                subprocess.Popen(
                    [sys.executable, "-c", READER, str(queue.read_fd)],
                    stdout=subprocess.PIPE,
                    env=env,
                    pass_fds=(queue.read_fd,),
                )
            )
        for reader in readers:
            assert reader.stdout.readline() == b"ready\n"
        signal.alarm(60)
        mine = list(iter(queue.take, None))
        signal.alarm(0)
        theirs = [pickle.loads(reader.communicate(timeout=60)[0]) for reader in readers]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        queue.close()
        for reader in readers:
            if reader.poll() is None:
                reader.kill()
            reader.wait()
            reader.stdout.close()
    assert [reader.returncode for reader in readers] == [0, 0, 0]
    taken = mine + [p for numbers in theirs for p in numbers]
    assert sorted(taken) == list(range(persons))
    assert all(numbers == sorted(numbers) for numbers in [mine] + theirs)


def test_each_person_is_taken_once_by_more_processes_than_cores():
    # More persons than the pipe holds, so the caller refills it as it takes.
    persons = 3 * 65536 // parallel._RECORD
    taken_by_the_caller_and_three_readers(parallel.NumberQueue(persons), persons)


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="pipe sizes are Linux's")
def test_a_queue_on_a_one_page_pipe_is_taken_whole_without_waiting_forever():
    # A user whose pipe allowance is spent gets pipes of one page. The three
    # readers then often empty the pipe between the caller's refused write
    # and its read; a caller that then blocked on its read waited forever.
    persons = 3 * 65536 // parallel._RECORD
    for _ in range(3):
        queue = parallel.NumberQueue(persons)
        fcntl.fcntl(queue.read_fd, fcntl.F_SETPIPE_SZ, 4096)
        assert fcntl.fcntl(queue.read_fd, fcntl.F_GETPIPE_SZ) == 4096
        taken_by_the_caller_and_three_readers(queue, persons)
