"""Classifier families: nearest neighbour, LM-trained MLP, committee, RBF.

All classifiers operate on 9-dimensional feature vectors scaled to [-1, 1]
and decide closed-set identity by argmax (or minimum distance). Training is
deterministic given the seed, and ties always break toward the lowest person
id. A single mlp_train call also depends on the BLAS thread count, which
follows the core count; train_populations trains multi-start populations
in single-threaded worker processes, so their weights equal a serial run
with one BLAS thread on any number of cores.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import subprocess
import sys
from contextlib import suppress
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, TrainingError, text_input, typed_field
from .features import ScalerParams, check_span

DEFAULT_HIDDEN = 30
#: Largest accepted hidden-unit count. Each LM epoch forms a Gram of
#: (11h+1)^2 float64 at 9 inputs, 9.7 MB at this bound, so it also bounds
#: training memory.
MAX_HIDDEN = 100
DEFAULT_GAMMA = 0.8
DEFAULT_MULTISTART = 5
DAMPING_INIT = 1e-3
DAMPING_FACTOR = 10.0
_MAX_RETRIES = 10


# -- distances (template matching) -------------------------------------------


def _sum_sq(d: np.ndarray) -> np.ndarray:
    return (d * d).sum(axis=-1)


def _sum_abs(d: np.ndarray) -> np.ndarray:
    return np.abs(d).sum(axis=-1)


#: Distance of each row of a difference array; one definition serves both
#: the pairwise distances and the template scan in nn_identify.
_ROW_DISTANCES = {"mse": _sum_sq, "mad": _sum_abs}


def _difference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return x - y


def dist_mse(x: np.ndarray, y: np.ndarray) -> float:
    """Sum of squared component differences (no normalization)."""
    return float(_sum_sq(_difference(x, y)))


def dist_mad(x: np.ndarray, y: np.ndarray) -> float:
    """Sum of absolute component differences."""
    return float(_sum_abs(_difference(x, y)))


@dataclass
class TemplateDb:
    """One stored template per training image: (person-id, feature vector)."""

    entries: list[tuple[int, np.ndarray]]
    scaler: ScalerParams | None = None


def check_metric(metric: str) -> None:
    """Reject a template distance other than those in _ROW_DISTANCES."""
    if metric not in _ROW_DISTANCES:
        raise ConfigError(f"unknown metric {metric!r}; use 'mse' or 'mad'")


def nn_identify(x: np.ndarray, db: TemplateDb, metric: str = "mse") -> int:
    """Person of the closest template; ties break to the lowest person id,
    then the lowest template index."""
    check_metric(metric)
    if not db.entries:
        raise ValueError("empty template database")
    x = np.asarray(x, dtype=float)
    templates = np.array([vec for _, vec in db.entries], dtype=float)
    if templates.shape[1:] != x.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {templates.shape[1:]}")
    dists = _ROW_DISTANCES[metric](x - templates)
    persons = np.array([person for person, _ in db.entries])
    # lexsort is stable, so equal (distance, person) keys keep index order.
    return int(persons[np.lexsort((persons, dists))[0]])


# -- training losses ----------------------------------------------------------


def loss_mse(targets: np.ndarray, outputs: np.ndarray) -> float:
    """Mean squared error over every output component of every sample."""
    t, a = np.asarray(targets, dtype=float), np.asarray(outputs, dtype=float)
    if t.shape != a.shape:
        raise ValueError(f"shape mismatch: {t.shape} vs {a.shape}")
    return float(np.mean((t - a) ** 2))


def loss_msereg(
    targets: np.ndarray, outputs: np.ndarray, weights: np.ndarray, gamma: float
) -> float:
    """gamma * MSE + (1 - gamma) * mean squared parameter (biases included)."""
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"gamma {gamma} outside [0, 1]")
    w = np.asarray(weights, dtype=float).ravel()
    return gamma * loss_mse(targets, outputs) + (1.0 - gamma) * float(np.mean(w**2))


@dataclass
class TrainConfig:
    """Levenberg-Marquardt training knobs.

    epochs defaults to 10 for the plain MSE loss and 50 when regularizing.
    """

    loss: str = "mse"
    epochs: int | None = None
    gamma: float = DEFAULT_GAMMA
    multistart: int = DEFAULT_MULTISTART
    seed: int = 0

    def __post_init__(self) -> None:
        if self.loss not in ("mse", "msereg"):
            raise ConfigError(f"unknown loss {self.loss!r}; use 'mse' or 'msereg'")
        if self.epochs is None:
            self.epochs = 10 if self.loss == "mse" else 50
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma {self.gamma} outside [0, 1]")
        if self.multistart < 1:
            raise ConfigError(f"multistart count must be >= 1, got {self.multistart}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


# -- multilayer perceptron ----------------------------------------------------


@dataclass(eq=False)
class MlpModel:
    """9 -> hidden (tanh) -> persons (linear) network."""

    person_ids: tuple[int, ...]
    w1: np.ndarray  # hidden x 9
    b1: np.ndarray  # hidden
    w2: np.ndarray  # persons x hidden
    b2: np.ndarray  # persons
    config: TrainConfig
    loss_history: tuple[float, ...] = ()
    scaler: ScalerParams | None = None

    def outputs(self, x: np.ndarray) -> np.ndarray:
        """Network output vector for one vector, output rows for a batch."""
        x = np.asarray(x, dtype=float)
        out, _ = _network(np.atleast_2d(x), self.w1, self.b1, self.w2, self.b2)
        return out[0] if x.ndim == 1 else out


def _network(x: np.ndarray, w1, b1, w2, b2) -> tuple[np.ndarray, np.ndarray]:
    """Output rows and tanh hidden activations of the network for input rows x."""
    a1 = np.tanh(x @ w1.T + b1)
    return a1 @ w2.T + b2, a1


def _targets(
    train: list[tuple[int, np.ndarray]],
) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """Input rows x, the sorted person ids, and targets t: +1 at the true
    person's component, -1 elsewhere."""
    labels = np.array([p for p, _ in train])
    x = np.array([np.asarray(v, dtype=float) for _, v in train])
    person_ids = tuple(sorted(set(int(p) for p in labels)))
    t = -np.ones((len(labels), len(person_ids)))
    index = {p: i for i, p in enumerate(person_ids)}
    for n, lab in enumerate(labels):
        t[n, index[int(lab)]] = 1.0
    return x, person_ids, t


def _unpack(theta: np.ndarray, hidden: int, n_in: int, n_out: int):
    h9 = hidden * n_in
    w1 = theta[:h9].reshape(hidden, n_in)
    b1 = theta[h9 : h9 + hidden]
    w2 = theta[h9 + hidden : h9 + hidden + n_out * hidden].reshape(n_out, hidden)
    b2 = theta[h9 + hidden + n_out * hidden :]
    return w1, b1, w2, b2


def _forward(theta: np.ndarray, x: np.ndarray, hidden: int, n_out: int):
    w1, b1, w2, b2 = _unpack(theta, hidden, x.shape[1], n_out)
    return (*_network(x, w1, b1, w2, b2), w2)


class _NormalBlocks(NamedTuple):
    """J^T J and J^T r in the blocks the network gives them, for the
    residuals r = [s (t - out), reg_scale theta], whose squared sum r @ r is
    loss_msereg (s^2 = gamma / t.size, reg_scale^2 = (1 - gamma) / theta.size).

    Parameters are grouped by unit: hidden unit h owns [w1[h], b1[h]]
    (P_h = hidden * (n_in + 1) of them in all) and class c owns [w2[c], b2[c]].
    Classes never meet each other, so with u = tanh' * [x, 1], a = [a1, 1] and
    s^2 = gamma / t.size the Gram is

        hidden x hidden:       hid + reg I, hid = (w2^T w2)[h, h'] * s^2 u^T u
        class c x class c:     out + reg I, out = s^2 a^T a for every class
        hidden (h, i) x c:     w2[c, h] * cross[(h, i)], cross = s^2 u^T a
    """

    hid: np.ndarray  # P_h x P_h
    out: np.ndarray  # (hidden + 1) x (hidden + 1)
    cross: np.ndarray  # P_h x (hidden + 1)
    w2: np.ndarray  # n_out x hidden
    unit_gram: np.ndarray  # P_h x P_h: (w2^T w2)[h, h'] for every parameter of units h, h'
    g_hid: np.ndarray  # hidden x (n_in + 1)
    g_out: np.ndarray  # n_out x (hidden + 1)
    reg: float  # reg_scale**2, the regularizer's share of the diagonal


def _by_unit(v: np.ndarray, n_weights: int) -> np.ndarray:
    """[w1 rows, b1] in theta order -> one [w1[h], b1[h]] row per hidden unit
    (and likewise [w2, b2] -> one row per class)."""
    units = len(v) - n_weights
    return np.concatenate([v[:n_weights].reshape(units, -1), v[n_weights:, None]], axis=1)


def _normal_blocks(theta, x, t, hidden, gamma, reg_scale) -> _NormalBlocks:
    """J^T [J, r] of the residuals described in _NormalBlocks, without forming J.

    Per sample, d out[c] / d[w1[h], b1[h]] = w2[c, h] * tanh'_h * [x, 1] and
    d out[c] / d[w2[c], b2[c]] = [a1, 1]; the Gram blocks are sums of their
    outer products (Wilamowski & Yu, IEEE TNN 21(6), 2010).
    """
    n, n_in = x.shape
    n_out = t.shape[1]
    out, a1, w2 = _forward(theta, x, hidden, n_out)
    d1 = 1.0 - a1**2
    ones = np.ones((n, 1))
    xb = np.concatenate([x, ones], axis=1)
    u = (d1[:, :, None] * xb[:, None, :]).reshape(n, -1)
    ua = np.concatenate([u, a1, ones], axis=1)  # [u, a]: one Gram gives hid, cross, out

    s2 = gamma / t.size
    reg = reg_scale**2
    err = t - out
    n_hid = u.shape[1]
    gram = s2 * (ua.T @ ua)
    unit_gram = np.repeat(np.repeat(w2.T @ w2, n_in + 1, axis=0), n_in + 1, axis=1)
    hid = gram[:n_hid, :n_hid]
    np.multiply(hid, unit_gram, out=hid)
    return _NormalBlocks(
        hid=hid,
        out=gram[n_hid:, n_hid:],
        cross=gram[:n_hid, n_hid:],
        w2=w2,
        unit_gram=unit_gram,
        g_hid=-s2 * ((d1 * (err @ w2)).T @ xb) + reg * _by_unit(theta[:n_hid], hidden * n_in),
        g_out=-s2 * (err.T @ ua[:, n_hid:]) + reg * _by_unit(theta[n_hid:], n_out * hidden),
        reg=reg,
    )


def _lm_step(blocks: _NormalBlocks, lam: float) -> np.ndarray:
    """Solution of (J^T J + lam I) delta = -J^T r, in theta order.

    The per-class output blocks are eliminated onto the hidden block (a Schur
    complement; Hagan & Menhaj, IEEE TNN 5(6), 1994), so the largest
    solve is P_h x P_h. Raises LinAlgError when the output block's Cholesky
    factorization fails or the Schur matrix is singular; mlp_train counts
    either as a rejected retry.
    """
    b = blocks
    hidden, width = b.g_hid.shape
    mu = lam + b.reg
    # (out + mu I)^-1 = l_inv^T l_inv. Eliminating through cross_l = cross l_inv^T
    # keeps the subtracted term cross_l cross_l^T symmetric and is more accurate
    # than forming the inverse itself.
    l_inv = np.linalg.inv(np.linalg.cholesky(b.out + mu * np.eye(len(b.out))))
    cross_l = b.cross @ l_inv.T  # P_h x (hidden + 1)
    grad_l = l_inv @ b.g_out.T  # (hidden + 1) x n_out
    schur = cross_l @ cross_l.T  # the eliminated term, before weighting by unit_gram
    np.multiply(schur, b.unit_gram, out=schur)
    np.subtract(b.hid, schur, out=schur)
    schur.flat[:: len(schur) + 1] += mu
    rhs = ((cross_l @ grad_l).reshape(hidden, width, -1) * b.w2.T[:, None, :]).sum(axis=2)
    rhs -= b.g_hid
    # LU rather than Cholesky: on the 300 x 300 Schur matrix of 30 hidden
    # units it is the cheaper of the two in NumPy's LAPACK, and an indefinite
    # matrix (rounding can make one at tiny damping) still gives a step, which
    # the loss check in mlp_train accepts or rejects.
    d_hid = np.linalg.solve(schur, rhs.ravel()).reshape(hidden, width)
    # Row c is w2[c, h] * d_hid[h, i], so cross_c^T d_hid = cross^T (row c).
    per_class = (b.w2[:, :, None] * d_hid).reshape(len(b.w2), -1)
    d_out = -l_inv.T @ (grad_l + cross_l.T @ per_class.T)  # (hidden + 1) x n_out
    return np.concatenate([d_hid[:, :-1].ravel(), d_hid[:, -1], d_out[:-1].T.ravel(), d_out[-1]])


def _check_training(train: list[tuple[int, np.ndarray]], hidden: int) -> None:
    """The input rule of mlp_train and train_populations."""
    if not train:
        raise ConfigError("empty training set")
    if not 1 <= hidden <= MAX_HIDDEN:
        raise ConfigError(f"hidden units must be in [1, {MAX_HIDDEN}], got {hidden}")


def mlp_train(
    train: list[tuple[int, np.ndarray]],
    cfg: TrainConfig,
    hidden: int = DEFAULT_HIDDEN,
) -> MlpModel:
    """Levenberg-Marquardt training from a uniform [-0.5, 0.5] initialization.

    Training minimises loss_msereg, with gamma = 1 (plain loss_mse) for the
    mse loss; loss_history holds its value at the start and after each
    accepted step. Each epoch makes at most one accepted parameter update:
    the damped normal equations are solved and the step kept only if the
    loss drops, otherwise the damping grows and the solve is retried within
    the epoch. A step that cannot be solved (LinAlgError from _lm_step)
    counts as a rejected retry.
    """
    _check_training(train, hidden)
    x, person_ids, t = _targets(train)
    n_in, n_out = x.shape[1], t.shape[1]
    n_params = hidden * n_in + hidden + n_out * hidden + n_out

    gamma = cfg.gamma if cfg.loss == "msereg" else 1.0
    reg_scale = np.sqrt((1.0 - gamma) / n_params) if gamma < 1.0 else 0.0

    rng = np.random.default_rng(cfg.seed)
    theta = rng.uniform(-0.5, 0.5, n_params)

    def loss_of(th: np.ndarray) -> float:
        return loss_msereg(t, _forward(th, x, hidden, n_out)[0], th, gamma)

    lam = DAMPING_INIT
    history = [loss_of(theta)]
    for _ in range(cfg.epochs):
        blocks = _normal_blocks(theta, x, t, hidden, gamma, reg_scale)
        current = history[-1]
        for _ in range(1 + _MAX_RETRIES):
            try:
                candidate = theta + _lm_step(blocks, lam)
            except np.linalg.LinAlgError:
                lam *= DAMPING_FACTOR
                continue
            new_loss = loss_of(candidate)
            if new_loss < current:
                theta = candidate
                lam /= DAMPING_FACTOR
                history.append(new_loss)
                break
            lam *= DAMPING_FACTOR
    w1, b1, w2, b2 = _unpack(theta, hidden, n_in, n_out)
    return MlpModel(
        person_ids=person_ids,
        w1=w1.copy(),
        b1=b1.copy(),
        w2=w2.copy(),
        b2=b2.copy(),
        config=cfg,
        loss_history=tuple(history),
    )


def mlp_identify(model: MlpModel, x: np.ndarray) -> int:
    """Person with the largest output; ties break to the lowest id."""
    return model.person_ids[int(np.argmax(model.outputs(x)))]


#: Thread-count variables of the BLAS builds NumPy may load; each
#: training worker gets 1, so n workers keep n cores busy. A second BLAS thread
#: gains nothing at these matrix sizes.
_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
_WORKER = "from handgeo.classifiers import _worker_main; _worker_main()"


def _cores() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _worker_main() -> None:
    """A training worker: unpickle one share (train, cfgs, hidden) from stdin,
    train a model per config in order and pickle the list of them to stdout.
    A member whose training raises ends the list with its exception. Stops
    before the next member once its parent has died."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # on Ctrl-C the parent kills its workers
    parent = os.getppid()
    try:
        train, cfgs, hidden = pickle.load(sys.stdin.buffer)
    except EOFError:  # the parent closed the stream before sending a share
        return
    results: list[MlpModel | Exception] = []
    for cfg in cfgs:
        if os.getppid() != parent:
            return
        try:
            results.append(mlp_train(train, cfg, hidden))
        except Exception as exc:
            results.append(exc)
            break
    pickle.dump(results, sys.stdout.buffer, pickle.HIGHEST_PROTOCOL)


def _shares(epochs: list[int], n_workers: int) -> list[list[int]]:
    """Member indices per worker: longest (most epochs) first, each to the
    worker with the fewest epochs so far. sorted() keeps index order among
    members of equal length, and min() takes the first of equally loaded
    workers."""
    shares: list[list[int]] = [[] for _ in range(n_workers)]
    load = [0] * n_workers
    for i in sorted(range(len(epochs)), key=lambda i: -epochs[i]):
        w = min(range(n_workers), key=load.__getitem__)
        shares[w].append(i)
        load[w] += epochs[i]
    return shares


def train_populations(
    train: list[tuple[int, np.ndarray]],
    cfgs: list[TrainConfig],
    hidden: int = DEFAULT_HIDDEN,
) -> list[list[MlpModel]]:
    """The multi-start population of each config, one model per seed
    cfg.seed + 0..K-1 in seed order.

    The inputs are checked before any worker starts. With more than one core,
    min(cores, members) worker processes with single-threaded BLAS each get
    their share of the members (see _shares) as one message and answer with
    one message of models; on one core the members train in this process.
    A member's exception, a worker lost before replying (TrainingError) or an
    interrupt while waiting kills the workers still running; every worker is
    reaped before the call returns or raises.
    """
    _check_training(train, hidden)
    members = [replace(cfg, seed=cfg.seed + k) for cfg in cfgs for k in range(cfg.multistart)]
    cores = _cores()
    if cores < 2:
        models = [mlp_train(train, cfg, hidden) for cfg in members]
    else:
        shares = _shares([cfg.epochs for cfg in members], min(cores, len(members)))
        root = str(Path(__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, **_ONE_THREAD, "PYTHONPATH": path}
        models = [None] * len(members)
        workers: list[subprocess.Popen] = []
        try:
            for share in shares:
                worker = subprocess.Popen(
                    [sys.executable, "-c", _WORKER],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    env=env,
                )
                workers.append(worker)
                job = (train, [members[i] for i in share], hidden)
                # A worker that died first is reported below, where its reply
                # is missing.
                with suppress(BrokenPipeError):
                    pickle.dump(job, worker.stdin, pickle.HIGHEST_PROTOCOL)
                    worker.stdin.close()
            for worker, share in zip(workers, shares):
                try:
                    results = pickle.load(worker.stdout)
                except (EOFError, pickle.UnpicklingError):
                    raise TrainingError(
                        f"a training worker exited with code {worker.wait()}"
                        " before returning a model"
                    ) from None
                for i, result in zip(share, results):
                    if isinstance(result, BaseException):
                        raise result
                    models[i] = result
        except BaseException:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()
            raise
        finally:
            for worker in workers:
                with suppress(OSError):  # unsent bytes of a share to a dead worker
                    worker.stdin.close()
                worker.wait()
                worker.stdout.close()
    it = iter(models)
    return [[next(it) for _ in range(cfg.multistart)] for cfg in cfgs]


def train_members(
    train: list[tuple[int, np.ndarray]],
    cfg: TrainConfig,
    hidden: int = DEFAULT_HIDDEN,
) -> list[MlpModel]:
    """The multi-start population of one config (see train_populations)."""
    return train_populations(train, [cfg], hidden)[0]


def multistart_select(
    members: list[MlpModel], train: list[tuple[int, np.ndarray]]
) -> MlpModel:
    """Member with the highest training-set rate; ties keep the lowest seed."""
    correct = [sum(mlp_identify(m, v) == p for p, v in train) for m in members]
    return members[int(np.argmax(correct))]


def committee_identify(models: list[MlpModel], x: np.ndarray) -> int:
    """Argmax of the component-wise mean of the members' output vectors."""
    if not models:
        raise ValueError("empty committee")
    ids = models[0].person_ids
    if any(m.person_ids != ids for m in models):
        raise ValueError("committee members disagree on the output classes")
    mean = np.mean([m.outputs(x) for m in models], axis=0)
    return ids[int(np.argmax(mean))]


# -- radial basis function network --------------------------------------------


@dataclass(eq=False)
class RbfModel:
    """Gaussian-kernel network: centres, common spread, linear output weights."""

    person_ids: tuple[int, ...]
    centres: np.ndarray  # k x 9
    spread: float
    weights: np.ndarray  # persons x k
    requested_centres: int
    scaler: ScalerParams | None = None

    def outputs(self, x: np.ndarray) -> np.ndarray:
        """Output vector for one vector, output rows for a batch."""
        x = np.asarray(x, dtype=float)
        out = _kernel(np.atleast_2d(x), self.centres, self.spread) @ self.weights.T
        return out[0] if x.ndim == 1 else out


def _checked_spread(spread: float) -> float:
    """spread, if it is positive and the kernel's 2 * spread**2 is a finite,
    nonzero float; a ConfigError otherwise."""
    if not (0.0 < spread and 0.0 < 2.0 * spread * spread < math.inf):
        raise ConfigError(
            f"rbf spread must be positive with 2 * spread**2 finite and nonzero, got {spread}"
        )
    return spread


def _kernel(x: np.ndarray, centres: np.ndarray, spread: float) -> np.ndarray:
    sq = ((x[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
    # Under a spread so narrow that the exponent overflows, exp(-inf) = 0 is
    # the kernel's limit; _checked_spread keeps 2 * spread**2 nonzero.
    with np.errstate(over="ignore"):
        return np.exp(-sq / (2.0 * spread**2))


def median_pairwise_distance(x: np.ndarray) -> float:
    diffs = x[:, None, :] - x[None, :, :]
    d = np.sqrt((diffs**2).sum(axis=2))
    upper = d[np.triu_indices(len(x), k=1)]
    return float(np.median(upper))


def rbf_train(
    train: list[tuple[int, np.ndarray]],
    n_centres: int,
    spread: float | None = None,
) -> RbfModel:
    """Greedy orthogonal centre selection, then least-squares output weights.

    Candidate centres are the training points; each step adds the candidate
    whose kernel column explains the most remaining target energy. A
    rank-deficient design stops selection early at the achieved count.
    """
    if not train:
        raise ConfigError("empty training set")
    x, person_ids, t = _targets(train)
    n = len(x)
    if not 1 <= n_centres <= n:
        raise ConfigError(f"n_centres {n_centres} outside [1, {n}]")

    if spread is None:
        spread = median_pairwise_distance(x)
        if not spread > 0:
            raise TrainingError("kernel spread must be positive (duplicate training points?)")
    else:
        _checked_spread(spread)

    phi = _kernel(x, x, spread)
    residual = phi.copy()  # candidate columns, orthogonalized against picks
    t_proj = t.copy()
    norms0 = (phi**2).sum(axis=0)
    chosen: list[int] = []
    for _ in range(n_centres):
        colsq = (residual**2).sum(axis=0)
        eligible = np.ones(n, dtype=bool)
        eligible[chosen] = False
        eligible &= colsq > 1e-12 * norms0
        if not eligible.any():
            break  # remaining candidates are linearly dependent
        energy = ((residual.T @ t_proj) ** 2).sum(axis=1)
        scores = np.where(eligible, energy / np.where(colsq > 0, colsq, 1.0), -np.inf)
        pick = int(np.argmax(scores))
        chosen.append(pick)
        q = residual[:, pick] / np.sqrt(colsq[pick])
        residual -= np.outer(q, q @ residual)
        t_proj -= np.outer(q, q @ t_proj)

    centres = x[chosen]
    design = _kernel(x, centres, spread)
    weights, *_ = np.linalg.lstsq(design, t, rcond=None)
    return RbfModel(
        person_ids=person_ids,
        centres=centres.copy(),
        spread=float(spread),
        weights=weights.T.copy(),
        requested_centres=n_centres,
    )


def rbf_identify(model: RbfModel, x: np.ndarray) -> int:
    """Person with the largest output; ties break to the lowest id."""
    return model.person_ids[int(np.argmax(model.outputs(x)))]


def identify(
    model: TemplateDb | MlpModel | RbfModel | list[MlpModel], x: np.ndarray, metric: str = "mse"
) -> int:
    """Person one trained model names for vector x: a template database by
    nearest neighbour under metric, a list of MLPs as a committee."""
    if isinstance(model, TemplateDb):
        return nn_identify(x, model, metric)
    if isinstance(model, MlpModel):
        return mlp_identify(model, x)
    if isinstance(model, RbfModel):
        return rbf_identify(model, x)
    return committee_identify(model, x)


# -- plain-text model files ----------------------------------------------------


def _fmt(values: np.ndarray) -> str:
    return " ".join(f"{v:.17g}" for v in np.asarray(values, dtype=float).ravel())


def _scaler_lines(scaler: ScalerParams | None) -> list[str]:
    if scaler is None:
        return ["scaler 0"]
    return ["scaler 1", f"scaler_min {_fmt(scaler.mins)}", f"scaler_max {_fmt(scaler.maxs)}"]


def save_model(model: MlpModel | RbfModel | TemplateDb, path: str | Path) -> None:
    """Plain-text serialization; floats carry 17 significant digits."""
    lines = ["handgeo-model 1"]
    if isinstance(model, MlpModel):
        cfg = model.config
        h, n_in = model.w1.shape
        lines += [
            "type mlp",
            f"person_ids {' '.join(str(p) for p in model.person_ids)}",
            f"inputs {n_in}",
            f"hidden {h}",
            f"loss {cfg.loss}",
            f"epochs {cfg.epochs}",
            f"gamma {cfg.gamma:.17g}",
            f"multistart {cfg.multistart}",
            f"seed {cfg.seed}",
            f"loss_history {_fmt(np.array(model.loss_history))}",
        ]
        lines += _scaler_lines(model.scaler)
        lines += [f"w1 {_fmt(model.w1)}", f"b1 {_fmt(model.b1)}"]
        lines += [f"w2 {_fmt(model.w2)}", f"b2 {_fmt(model.b2)}"]
    elif isinstance(model, RbfModel):
        k = len(model.centres)
        lines += [
            "type rbf",
            f"person_ids {' '.join(str(p) for p in model.person_ids)}",
            f"inputs {model.centres.shape[1] if k else 0}",
            f"centres {k}",
            f"requested {model.requested_centres}",
            f"spread {model.spread:.17g}",
        ]
        lines += _scaler_lines(model.scaler)
        lines += [f"centre_rows {_fmt(model.centres)}", f"weights {_fmt(model.weights)}"]
    elif isinstance(model, TemplateDb):
        lines += ["type nn", f"entries {len(model.entries)}"]
        lines += _scaler_lines(model.scaler)
        for person, vec in model.entries:
            lines.append(f"template {person} {_fmt(vec)}")
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not a finite number")
    return value


def _floats(text: str) -> np.ndarray:
    return np.array([_float(v) for v in text.split()])


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is not a positive count")
    return value


def load_model(path: str | Path) -> MlpModel | RbfModel | TemplateDb:
    """Inverse of save_model; a missing or malformed key, a number that is
    not finite, an inputs, hidden or centres count below 1, a training config
    TrainConfig rejects, a spread rbf_train rejects, or a scaler range
    check_span rejects is a ConfigError naming the key; text that is not
    UTF-8 is a ConfigError.
    Fields it does not read, such as older files' damping lines, are ignored."""
    with text_input(path, ConfigError):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("handgeo-model"):
        raise ConfigError(f"{path} is not a model file")
    fields: dict[str, str] = {}
    templates: list[tuple[str, str]] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        key, _, value = line.partition(" ")
        if key == "template":
            person, _, rest = value.partition(" ")
            templates.append((person, rest))
        else:
            fields[key] = value

    def read(key: str, cast: Callable = str, text: str | None = None):
        """cast(text), by default of the field named key."""
        return typed_field(path, fields if text is None else {key: text}, key, cast, ConfigError)

    def above_mins(text: str) -> np.ndarray:
        maxs = _floats(text)
        if maxs.shape != mins.shape:
            raise ValueError(f"{len(maxs)} values for {len(mins)} in scaler_min")
        check_span(mins, maxs, ValueError)
        return maxs

    scaler = None
    if fields.get("scaler") == "1":
        mins = read("scaler_min", _floats)
        scaler = ScalerParams(mins=mins, maxs=read("scaler_max", above_mins))

    kind = read("type")
    if kind == "nn":
        entries = [(read("template", int, p), read("template", _floats, v)) for p, v in templates]
        if not entries:
            raise ConfigError(f"{path}: no templates")
        return TemplateDb(entries=entries, scaler=scaler)
    person_ids = read("person_ids", lambda t: tuple(int(v) for v in t.split()))
    n_in = read("inputs", _count)
    if kind == "mlp":
        h = read("hidden", _count)
        cfg = TrainConfig()
        for key, cast in [("loss", str), ("epochs", int), ("gamma", _float),
                          ("multistart", int), ("seed", int)]:
            cfg = read(key, lambda t: replace(cfg, **{key: cast(t)}))
        return MlpModel(
            person_ids=person_ids,
            w1=read("w1", lambda t: _floats(t).reshape(h, n_in)),
            b1=read("b1", lambda t: _floats(t).reshape(h)),
            w2=read("w2", lambda t: _floats(t).reshape(len(person_ids), h)),
            b2=read("b2", lambda t: _floats(t).reshape(len(person_ids))),
            config=cfg,
            loss_history=tuple(read("loss_history", _floats)),
            scaler=scaler,
        )
    if kind == "rbf":
        k = read("centres", _count)
        return RbfModel(
            person_ids=person_ids,
            centres=read("centre_rows", lambda t: _floats(t).reshape(k, n_in)),
            spread=read("spread", lambda t: _checked_spread(_float(t))),
            weights=read("weights", lambda t: _floats(t).reshape(len(person_ids), k)),
            requested_centres=read("requested", int),
            scaler=scaler,
        )
    raise ConfigError(f"unknown model type {kind!r} in {path}")
