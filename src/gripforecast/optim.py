"""Adam optimizer, mini-batch training loop, and evaluation metrics.

Defaults follow the tuned hyperparameters the forecasting task ships with:
learning rate 5e-4, batch size 30, 100 epochs, 2x40 LSTM, MSE loss.

The LSTM starts from zero state at t_o, so a window whose x is a prefix of
a longer window's x of the same handover and t_o ends on a hidden state
that the longer window's pass already computes. `_root_of` groups every
window under such a root window, and each recurrent pass runs over roots
only. A training batch holds at most batch_size windows, whole roots where
they fit, and all its roots have one exact length, so nothing is padded
and the batch gradient is exactly the mean of its windows' gradients.
evaluate and the per-epoch test loss run every root of their sample list
as one packed forward_batch, longest first, zero-padded; the test windows
are grouped once per train call. evaluate returns its metrics next to one
(N, 70) array of forecasts in newtons, row i for sample i; it does not
judge their finiteness, which the caller checks.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as m
from .dataset import (NormStats, TrainingSample, denormalize_grip, normalize_grip,
                      normalize_wrench)
from .errors import ContractViolation, DataError
from .numerics import derive_seed, Rng

_EPOCH_STREAM = 0x5E9


@dataclass
class TrainConfig:
    learning_rate: float = 5e-4
    batch_size: int = 30
    epochs: int = 100
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    hidden: int = 40
    clip_threshold: float | None = None

    def validate(self) -> None:
        for name in ("batch_size", "epochs", "seed", "hidden"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ContractViolation(f"{name} must be an integer, got {value!r}")
        for name in ("learning_rate", "adam_beta1", "adam_beta2", "adam_eps", "clip_threshold"):
            value = getattr(self, name)
            if name == "clip_threshold" and value is None:
                continue
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not abs(value) <= sys.float_info.max):  # an int may exceed a float
                raise ContractViolation(f"{name} must be a finite number, got {value!r}")
        if self.learning_rate <= 0:
            raise ContractViolation(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ContractViolation(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ContractViolation(f"epochs must be >= 1, got {self.epochs}")
        for name, beta in (("adam_beta1", self.adam_beta1), ("adam_beta2", self.adam_beta2)):
            if not (0.0 <= beta < 1.0):
                raise ContractViolation(f"{name} must be in [0, 1), got {beta}")
        if self.adam_eps <= 0:
            raise ContractViolation(f"adam_eps must be > 0, got {self.adam_eps}")
        if self.hidden < 1:
            raise ContractViolation(f"hidden must be >= 1, got {self.hidden}")
        if self.clip_threshold is not None and self.clip_threshold <= 0:
            raise ContractViolation("clip_threshold must be > 0 when set")


@dataclass
class AdamState:
    """First/second moment vectors in the layout of ModelParams.flat, plus step t."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def init_like(cls, params: m.ModelParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), t=0)


@dataclass
class LossHistory:
    """Per-epoch mean MSE on the training and test splits (normalized units)."""

    train: list[float] = field(default_factory=list)
    test: list[float] = field(default_factory=list)


def adam_step(
    params: m.ModelParams,
    grads: m.ModelParams,
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[m.ModelParams, AdamState]:
    """One bias-corrected Adam update over the flat vector. Pure: inputs are
    left untouched.

    t is incremented first; then m <- b1*m + (1-b1)*g, v <- b2*v + (1-b2)*g^2,
    and theta <- theta - lr * m_hat / (sqrt(v_hat) + eps).
    """
    if grads.flat.shape != params.flat.shape:
        raise ContractViolation(
            f"gradient shape {grads.flat.shape} does not match parameter "
            f"shape {params.flat.shape}"
        )
    t = state.t + 1
    b1, b2, g = cfg.adam_beta1, cfg.adam_beta2, grads.flat
    # The formulas above, operation for operation (so the bits match them),
    # written into the three new vectors and one scratch vector.
    tmp = np.multiply(g, 1.0 - b1)
    mom = np.multiply(state.m, b1)
    mom += tmp
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - b2
    vel = np.multiply(state.v, b2)
    vel += tmp
    flat = np.divide(vel, 1.0 - b2**t)  # v_hat
    np.sqrt(flat, out=flat)
    flat += cfg.adam_eps
    np.divide(mom, 1.0 - b1**t, out=tmp)  # m_hat
    tmp *= cfg.learning_rate
    tmp /= flat
    np.subtract(params.flat, tmp, out=flat)
    return replace(params, flat=flat), AdamState(m=mom, v=vel, t=t)


def clip_gradients(grads: m.ModelParams, threshold: float) -> m.ModelParams:
    """Global-norm clipping: scales the gradient vector by threshold/norm if needed."""
    norm = np.sqrt(np.dot(grads.flat, grads.flat))
    if norm <= threshold:
        return grads
    return replace(grads, flat=grads.flat * (threshold / norm))


def _root_of(samples: list[TrainingSample]) -> list[int]:
    """For each window, the index of the root window whose pass serves it.

    Longest first, each window joins the first root of its (pair_id,
    handover_id, t_o_ms) group that it is a prefix of (np.array_equal
    decides; the key only narrows the search) or becomes a root itself.
    """
    order = sorted(range(len(samples)), key=lambda i: -len(samples[i].x))
    root_of = [0] * len(samples)
    groups: dict[tuple[str, str, float], list[int]] = {}
    for i in order:
        s = samples[i]
        roots = groups.setdefault((s.pair_id, s.handover_id, s.t_o_ms), [])
        root = next((r for r in roots if np.array_equal(samples[r].x[: len(s.x)], s.x)), i)
        if root == i:
            roots.append(i)
        root_of[i] = root
    return root_of


def _root_batch(
    samples: list[TrainingSample], root_of: list[int], members: Iterable[int]
) -> tuple[np.ndarray, m.Ends]:
    """The distinct roots of `members` as one (T, roots, 6) batch, and each
    member's (last step, root column) in it. Roots come longest first, in
    order of first appearance within one length, and shorter roots are
    zero-padded to the longest.
    """
    roots = sorted(dict.fromkeys(root_of[i] for i in members), key=lambda r: -len(samples[r].x))
    col = {root: c for c, root in enumerate(roots)}
    xs = np.zeros((len(samples[roots[0]].x), len(roots), m.INPUT_DIM))
    for c, root in enumerate(roots):
        xs[: len(samples[root].x), c] = samples[root].x
    return xs, ([len(samples[i].x) - 1 for i in members], [col[root_of[i]] for i in members])


def batch_indices(
    root_of: list[int], lengths: list[int], batch_size: int, rng: Rng
) -> list[list[int]]:
    """Deterministic epoch batching of windows by their roots.

    root_of[i] is the root of window i (see _root_of) and lengths[i] its
    length. Roots are bucketed by exact length; buckets are visited in
    ascending length order and each bucket's roots are permuted with the
    provided generator. Walking them in that order, a root's windows join
    the current batch if they fit in batch_size and start the next one
    otherwise; a root with more than batch_size windows fills whole batches
    and leaves its remainder as the current one. The batch list is then
    permuted as a whole so no length systematically trains first.
    """
    families: dict[int, list[int]] = {}
    for i, root in enumerate(root_of):
        families.setdefault(root, []).append(i)
    buckets: dict[int, list[int]] = {}
    for root in families:
        buckets.setdefault(lengths[root], []).append(root)
    batches: list[list[int]] = []
    for n in sorted(buckets):
        roots = buckets[n]
        batch: list[int] = []
        for k in rng.permutation(len(roots)):
            members = families[roots[k]]
            if batch and len(batch) + len(members) > batch_size:
                batches.append(batch)
                batch = []
            batch += members
            while len(batch) > batch_size:  # a root with more than batch_size windows
                batches.append(batch[:batch_size])
                batch = batch[batch_size:]
        batches.append(batch)
    batch_order = rng.permutation(len(batches))
    return [batches[i] for i in batch_order]


def _all_roots(samples: list[TrainingSample]) -> tuple[np.ndarray, m.Ends]:
    """Every window of `samples` read off one packed batch of its roots."""
    return _root_batch(samples, _root_of(samples), range(len(samples)))


def _test_loss(samples: list[TrainingSample]) -> Callable[[m.ModelParams], float]:
    """MSE over a normalized sample list as a function of the weights: the
    expression evaluate uses for mse_norm. The windows are grouped under
    their roots once, here, so each call is one forward_batch.
    """
    if not samples:
        return lambda params: float("nan")
    xs, ends = _all_roots(samples)
    ys = np.stack([s.y for s in samples])
    return lambda params: float(np.mean((m.forward_batch(xs, params, ends) - ys) ** 2))


def train(
    train_samples: list[TrainingSample],
    test_samples: list[TrainingSample],
    cfg: TrainConfig,
    norm: NormStats,
) -> tuple[m.ModelParams, LossHistory]:
    """Mini-batch Adam training over pre-normalized samples.

    Both sample lists must already be z-scored with the train-fit stats;
    `norm` is embedded into the returned parameters so prediction can map
    back to newtons. Each epoch reshuffles with a generator derived only
    from (cfg.seed, epoch index), so identical inputs give byte-identical
    results. Each batch is one backward_batch pass over the distinct roots
    of its windows (see batch_indices). The recorded train loss is the mean
    over that epoch's batch losses as trained; test loss is a forward pass
    after the epoch. A batch whose loss or updated weights are not finite
    raises DataError naming the epoch and the batch.
    """
    cfg.validate()
    if not train_samples:
        raise ContractViolation("training set is empty")

    params = replace(m.init_params(cfg.seed, hidden=cfg.hidden), norm=norm)
    state = AdamState.init_like(params)
    history = LossHistory()
    root_of = _root_of(train_samples)
    lengths = [len(s.x) for s in train_samples]
    test_loss = _test_loss(test_samples)

    for epoch in range(cfg.epochs):
        rng = Rng(derive_seed(cfg.seed, _EPOCH_STREAM, epoch))
        epoch_loss = 0.0
        for batch, idxs in enumerate(batch_indices(root_of, lengths, cfg.batch_size, rng),
                                     start=1):
            xs, ends = _root_batch(train_samples, root_of, idxs)
            ys = np.stack([train_samples[i].y for i in idxs])
            loss, grads = m.backward_batch(xs, ys, params, ends)
            if cfg.clip_threshold is not None:
                grads = clip_gradients(grads, cfg.clip_threshold)
            params, state = adam_step(params, grads, state, cfg)
            if not (math.isfinite(loss) and np.isfinite(params.flat).all()):
                raise DataError(
                    f"training diverged at epoch {epoch + 1}, batch {batch}: the loss or "
                    "the updated weights are not finite; lower learning_rate or set "
                    "clip_threshold"
                )
            epoch_loss += loss * len(idxs)
        history.train.append(epoch_loss / len(train_samples))
        history.test.append(test_loss(params))
    return params, history


@dataclass
class EvalMetrics:
    mse_norm: float
    mse_N2: float
    final_step_mae_N: float
    n_samples: int
    predicted_N: np.ndarray  # (N, 70) de-normalized forecasts, in input order


def evaluate(params: m.ModelParams, samples: list[TrainingSample]) -> EvalMetrics:
    """Metrics over raw (newton-scale) samples using the model's own stats.

    Reports the mean MSE in normalized units, the mean MSE in N^2, and the
    mean absolute error of the final horizon step in newtons (how well the
    forecast lands at zero grip). The forecasts in newtons are returned as
    one (N, 70) array whose row i belongs to samples[i]. All windows come
    from one packed forward_batch over their roots (see _root_of).
    """
    if not samples:
        raise ContractViolation("evaluate needs a non-empty sample list")
    if params.norm is None:
        raise ContractViolation("model has no normalization stats attached")
    stats = params.norm

    xs, ends = _all_roots(samples)
    y_hat_norm = m.forward_batch(normalize_wrench(xs, stats), params, ends)
    actual = np.stack([s.y for s in samples])  # (N, 70) newtons
    predicted = denormalize_grip(y_hat_norm, stats)
    return EvalMetrics(
        mse_norm=float(np.mean((y_hat_norm - normalize_grip(actual, stats)) ** 2)),
        mse_N2=float(np.mean((predicted - actual) ** 2)),
        final_step_mae_N=float(np.mean(np.abs(predicted[:, -1] - actual[:, -1]))),
        n_samples=len(samples),
        predicted_N=predicted,
    )
