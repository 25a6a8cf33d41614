"""Multi-start populations trained in worker processes."""

import io
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from handgeo import classifiers
from handgeo.classifiers import TrainConfig, mlp_train, train_populations
from handgeo.cli import main
from handgeo.errors import ConfigError, TrainingError
from handgeo.features import save_features

CFGS = [TrainConfig(loss="mse", multistart=2, seed=3), TrainConfig(loss="msereg", multistart=3)]
HIDDEN = 4
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
KILLED = "a training worker exited with code -9 before returning a model"

#: Trains the pickled (train, cfgs, hidden) one member after another and
#: pickles the populations to stdout.
SERIAL = """
import pickle, sys
from dataclasses import replace
from handgeo.classifiers import mlp_train
train, cfgs, hidden = pickle.load(sys.stdin.buffer)
pickle.dump(
    [[mlp_train(train, replace(c, seed=c.seed + k), hidden) for k in range(c.multistart)]
     for c in cfgs],
    sys.stdout.buffer,
)
"""

#: Trains one population of 2,000 rows on two workers and on one core, and
#: pickles the byte sizes of the training set and of one worker's reply, then
#: both results, to stdout.
LARGE = """
import pickle, sys
import numpy as np
from handgeo import classifiers
from handgeo.classifiers import TrainConfig, train_populations
rng = np.random.default_rng(7)
centres = rng.uniform(-1, 1, size=(100, 9))
train = [(p, centres[p] + rng.normal(0, 0.1, 9)) for p in range(100) for _ in range(20)]
def populations(cores):
    classifiers._cores = lambda: cores
    return train_populations(train, [TrainConfig(epochs=2, multistart=6)], 30)
parallel = populations(2)
share = parallel[0][0::2]  # the first worker's members
sizes = [len(pickle.dumps(x, pickle.HIGHEST_PROTOCOL)) for x in (train, share)]
pickle.dump((sizes, parallel, populations(1)), sys.stdout.buffer)
"""
PIPE_BUFFER = 64 * 1024


def worker_env():
    """The environment a worker gets: one BLAS thread, handgeo importable."""
    return dict(os.environ, **ONE_THREAD, PYTHONPATH=str(Path(classifiers.__file__).parents[1]))


def toy_set():
    """Three persons, four 9-D samples each."""
    rng = np.random.default_rng(5)
    centres = rng.uniform(-1, 1, size=(3, 9))
    return [(p, centres[p] + rng.normal(0, 0.1, 9)) for p in range(3) for _ in range(4)]


def weights(populations):
    return [
        [(m.config.seed, m.loss_history, [a.tobytes() for a in (m.w1, m.b1, m.w2, m.b2)])
         for m in members]
        for members in populations
    ]


@pytest.fixture()
def workers(monkeypatch):
    """Every process started while the test runs, on a machine of 2 cores."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.env = kwargs.get("env")
            started.append(self)

    monkeypatch.setattr(classifiers, "_cores", lambda: 2)
    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started


def all_waited(started):
    return all(w.returncode is not None and w.stdin.closed and w.stdout.closed for w in started)


@pytest.fixture()
def waiting(monkeypatch):
    """Runs a callable each time train_populations starts reading a reply."""
    load = pickle.load

    def before_reading(action):
        def reading(stream):
            action()
            return load(stream)

        monkeypatch.setattr(pickle, "load", reading)

    return before_reading


def test_members_equal_a_single_threaded_serial_run(workers):
    populations = train_populations(toy_set(), CFGS, HIDDEN)
    assert len(workers) == 2 and all_waited(workers)
    assert [[m.config.seed for m in members] for members in populations] == [[3, 4], [0, 1, 2]]

    serial = subprocess.run(
        [sys.executable, "-c", SERIAL],
        input=pickle.dumps((toy_set(), CFGS, HIDDEN)),
        capture_output=True,
        env=worker_env(),
        check=True,
    )
    assert weights(populations) == weights(pickle.loads(serial.stdout))


def test_one_core_trains_in_this_process(workers, monkeypatch):
    monkeypatch.setattr(classifiers, "_cores", lambda: 1)
    in_process = train_populations(toy_set(), CFGS, HIDDEN)
    assert workers == []
    monkeypatch.setattr(classifiers, "_cores", lambda: 2)
    assert weights(in_process) == weights(train_populations(toy_set(), CFGS, HIDDEN))


def test_only_the_workers_get_one_blas_thread(workers, monkeypatch):
    for name in ONE_THREAD:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    train_populations(toy_set(), CFGS, HIDDEN)
    assert len(workers) == 2
    assert all(w.env.items() >= ONE_THREAD.items() for w in workers)
    assert dict(os.environ) == before


@pytest.mark.parametrize(
    "train,hidden,message",
    [
        ([], HIDDEN, "empty training set"),
        (toy_set(), 0, r"hidden units must be in \[1, 100\], got 0"),
    ],
)
def test_bad_inputs_fail_before_any_worker_starts(workers, train, hidden, message):
    with pytest.raises(ConfigError, match=message):
        train_populations(train, CFGS, hidden)
    assert workers == []


def test_a_job_that_raises_is_re_raised_after_every_worker_is_waited_for(workers):
    ragged = toy_set() + [(0, np.zeros(8))]
    with pytest.raises(ValueError) as serial:
        mlp_train(ragged, CFGS[0], HIDDEN)
    with pytest.raises(ValueError) as parallel:
        train_populations(ragged, CFGS, HIDDEN)
    assert str(parallel.value) == str(serial.value)
    assert len(workers) == 2 and all_waited(workers)


def test_a_killed_worker_ends_the_call_with_a_training_error(workers, waiting):
    waiting(lambda: workers[0].kill())
    with pytest.raises(TrainingError, match=KILLED):
        train_populations(toy_set(), CFGS, HIDDEN)
    assert len(workers) == 2 and all_waited(workers)


def test_an_interrupt_while_waiting_kills_every_worker(workers, waiting):
    def interrupt():
        raise KeyboardInterrupt

    waiting(interrupt)
    with pytest.raises(KeyboardInterrupt):
        train_populations(toy_set(), CFGS, HIDDEN)
    assert [w.returncode for w in workers] == [-9, -9] and all_waited(workers)


def write_features(tmp_path):
    features = tmp_path / "features.csv"
    rng = np.random.default_rng(1)
    save_features(features, [(p, j, rng.normal(p, 0.1, 9)) for p in range(3) for j in range(10)])
    return features


@pytest.mark.parametrize("command", [["train", "--kind", "mlp"], ["eval"]])
def test_a_killed_worker_is_one_training_error_line(
    workers, waiting, tmp_path, capsys, command
):
    waiting(lambda: workers[0].kill())
    argv = command + ["--features", str(write_features(tmp_path)), "--out", str(tmp_path / "out")]
    assert main(argv + ["--hidden", "4", "--multistart", "2"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"training_error: {KILLED}"]
    assert len(workers) == 2 and all_waited(workers)


def test_a_bad_spread_fails_before_any_worker_starts(workers, tmp_path, capsys):
    argv = ["eval", "--features", str(write_features(tmp_path)), "--out", str(tmp_path / "out")]
    assert main(argv + ["--spread", "0"]) == 1
    assert capsys.readouterr().err.startswith("config_error: rbf spread must be positive")
    assert workers == []


@pytest.mark.parametrize(
    "epochs,n_workers,shares",
    [
        # The 10-epoch mse starts of eval, then its 50-epoch msereg ones.
        ([10] * 5 + [50] * 5, 2, [[5, 7, 9], [6, 8, 0, 1, 2, 3, 4]]),
        ([10] * 5 + [50] * 5, 3, [[5, 8], [6, 9], [7, 0, 1, 2, 3, 4]]),
        ([3, 3, 3], 3, [[0], [1], [2]]),
        # Member 0 goes to the first of two workers loaded with 4 epochs each.
        ([1, 4, 2, 2], 2, [[1, 0], [2, 3]]),
    ],
)
def test_shares_go_longest_first_to_the_least_loaded_worker(epochs, n_workers, shares):
    assert classifiers._shares(epochs, n_workers) == shares


def test_each_worker_trains_its_share(workers, monkeypatch):
    split = []
    shares = classifiers._shares
    monkeypatch.setattr(classifiers, "_shares", lambda *args: split.append(args) or shares(*args))
    cfgs = [TrainConfig(loss="mse"), TrainConfig(loss="msereg")]
    populations = train_populations(toy_set(), cfgs, HIDDEN)
    assert split == [([10] * 5 + [50] * 5, 2)]
    assert [[m.config.seed for m in members] for members in populations] == [[0, 1, 2, 3, 4]] * 2
    assert len(workers) == 2 and all_waited(workers)


def test_messages_larger_than_a_pipe_buffer_do_not_block():
    # In a child process, so that a deadlock fails the test instead of hanging it.
    done = subprocess.run(
        [sys.executable, "-c", LARGE], capture_output=True, env=worker_env(), timeout=300
    )
    assert done.returncode == 0, done.stderr.decode()
    sizes, parallel, in_process = pickle.loads(done.stdout)
    assert min(sizes) > PIPE_BUFFER
    assert weights(parallel) == weights(in_process)


def test_a_worker_whose_stdin_closes_first_exits_quietly():
    done = subprocess.run(
        [sys.executable, "-c", classifiers._WORKER],
        input=b"",
        capture_output=True,
        env=worker_env(),
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")


def test_an_orphaned_worker_stops_before_its_next_member(monkeypatch):
    parents = iter([100, 100, 1])  # the parent dies while the first member trains
    trained = []
    monkeypatch.setattr(os, "getppid", lambda: next(parents))
    monkeypatch.setattr(classifiers, "mlp_train", lambda train, cfg, hidden: trained.append(cfg))
    monkeypatch.setattr(classifiers.signal, "signal", lambda *args: None)
    share = (toy_set(), [replace(CFGS[0], seed=k) for k in range(3)], HIDDEN)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(pickle.dumps(share))))
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO()))
    classifiers._worker_main()
    assert [cfg.seed for cfg in trained] == [0]
    assert sys.stdout.buffer.getvalue() == b""
