"""gen's corpus, rendered on every core the process may run on."""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator

from . import parallel, synthgen
from .errors import CorpusError
from .synthgen import CorpusSettings


def _write_taken(
    root: str | Path, settings: CorpusSettings, take: Callable[[], int | None]
) -> Iterator[tuple[int, Exception | None]]:
    """Render and write each person take() returns until it returns None:
    yields (p, None) once person p is written. A person whose render or
    write raises yields (p, exception) and ends the run, so a process stops
    taking persons after its own failure."""
    first = True
    for p in iter(take, None):
        try:
            images, truths = synthgen.render_person(settings, p)
            # Like write_corpus: a stale config goes before the first person is written.
            if first:
                (Path(root) / "corpus_config.txt").unlink(missing_ok=True)
                first = False
            synthgen._write_person(root, p, images, truths)
        except Exception as exc:
            yield p, exc
            return
        del images, truths  # free this person before the next one is made
        yield p, None


def _write_queued(
    root: str | Path, settings: CorpusSettings, queue_fd: int
) -> Iterator[tuple[int, Exception | None]]:
    """A gen worker's job: _write_taken over the person numbers on the
    parallel.NumberQueue read from queue_fd."""
    return _write_taken(root, settings, lambda: parallel.next_number(queue_fd))


def _lost_gen_worker(code: int) -> CorpusError:
    return CorpusError(f"a gen worker exited with code {code} before reporting its persons")


def generate_corpus(root: str | Path, settings: CorpusSettings) -> None:
    """Render every person of settings and write the tree, byte for byte
    the tree write_corpus writes of their render_person rows.

    After write_corpus's stray check, min(cores, persons) - 1
    parallel.workers start (none on one core, or for one person), and every
    process, this one included, takes the next person number from one
    parallel.NumberQueue, renders that person and writes it. Each process
    stops taking persons after its own failure; when this one fails it
    empties the queue, so the workers stop after the person they hold. When this process took every person below
    its stop (the last person, or its failure), no worker can change the
    outcome: it stops them without waiting, as when it renders a small
    corpus alone. A stale corpus_config.txt goes before the first person is
    written, and the new one is written last, once every person succeeded.
    Otherwise the lowest-numbered failing person's exception is raised, the
    one a run on one core raises; persons numbered above it may then exist
    on disk, whole or cut short.
    """
    n_workers = min(parallel.cores(), settings.persons) - 1
    synthgen._refuse_strays(root, settings)
    queue = parallel.NumberQueue(settings.persons)
    try:
        jobs = [(_write_queued, (root, settings, queue.read_fd))] * n_workers
        with parallel.workers(jobs, _lost_gen_worker, pass_fds=(queue.read_fd,)) as replies:
            outcomes = list(_write_taken(root, settings, queue.take))
            queue.drain()  # after a failure here, the workers take no further person
            stop = next((p for p, exc in outcomes if exc is not None), settings.persons)
            if not set(range(stop)) <= {p for p, _ in outcomes}:
                outcomes += [outcome for items in replies() for outcome in items]
    finally:
        queue.close()
    failures = [(p, exc) for p, exc in outcomes if exc is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    synthgen._write_config(root, settings)
