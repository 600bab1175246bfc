"""Next-token training loop: batching with PAD, Adam updates, gradient clipping.

Everything is deterministic given the config seed: batch order comes from a
seeded permutation per epoch and parameter updates run in canonical order.
A batch is right-padded to its longest trajectory; model.backward computes
only its scored positions, so the padding costs work only in attention.
Adam uses the published defaults of Kingma & Ba (2015) and every step clips
the global gradient norm to CLIP_NORM. Its moments are two flat vectors in
model.params order, updated in place, and each parameter array is updated in
place from its slice of the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TrajLMError
from .model import DTYPE, Model, backward, check_lengths
from .vocab import PAD_ID, EncodedTrajectory


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
CLIP_NORM = 1.0


class TrainingDivergedError(TrajLMError, RuntimeError):
    """Loss became non-finite; training aborted."""


@dataclass
class TrainConfig:
    n_epochs: int
    batch_size: int
    learning_rate: float
    seed: int

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.n_epochs < 0:
            raise ConfigError(f"n_epochs must be >= 0, got {self.n_epochs}")


class AdamOptimizer:
    """Adaptive moment estimation with bias correction and global-norm clipping.

    The moments m and v are two flat float64 vectors over every parameter in
    model.params order. A step gathers the gradients into one flat vector,
    updates the moments and computes the update in place with one scratch
    vector, then subtracts each parameter's slice from that parameter in
    place. Each element sees the same operations in the same order as a
    per-parameter update, so the parameters are bit-identical to one.
    """

    def __init__(self, model: Model, tc: TrainConfig):
        self.learning_rate = tc.learning_rate
        self.t = 0
        n = sum(p.size for p in model.params.values())
        self.m = np.zeros(n, dtype=DTYPE)
        self.v = np.zeros(n, dtype=DTYPE)
        self._grad = np.empty(n, dtype=DTYPE)
        self._scratch = np.empty(n, dtype=DTYPE)

    def step(self, model: Model, grads: dict[str, np.ndarray]) -> None:
        total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        g, s = self._grad, self._scratch
        np.concatenate([grads[name].ravel() for name in model.params], out=g)
        if total > CLIP_NORM:
            g *= CLIP_NORM / total
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        # m = BETA1*m + (1-BETA1)*g and v = BETA2*v + (1-BETA2)*(g*g)
        self.m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=s)
        self.m += s
        self.v *= BETA2
        np.multiply(g, g, out=s)
        s *= 1.0 - BETA2
        self.v += s
        # update = lr*mhat / (sqrt(vhat) + EPS), written over g
        np.divide(self.v, bc2, out=s)
        np.sqrt(s, out=s)
        s += EPS
        np.divide(self.m, bc1, out=g)
        g *= self.learning_rate
        g /= s
        start = 0
        for p in model.params.values():
            p -= g[start : start + p.size].reshape(p.shape)
            start += p.size


def pad_batch(batch: list[EncodedTrajectory]) -> np.ndarray:
    """Stack id sequences into an (n, max_len) array, right-padded with PAD."""
    max_len = max(len(t.ids) for t in batch)
    out = np.full((len(batch), max_len), PAD_ID, dtype=np.int64)
    for i, t in enumerate(batch):
        out[i, : len(t.ids)] = t.ids
    return out


def train(
    model: Model,
    corpus: list[EncodedTrajectory],
    tc: TrainConfig,
    log_fn=None,
) -> list[float]:
    """Train in place; returns the per-epoch mean loss log.

    Aborts with TrainingDivergedError if the loss stops being finite. With
    n_epochs=0 the model is returned untouched and the log is empty.
    """
    if not corpus:
        raise ConfigError("training corpus is empty")
    check_lengths(model, corpus)
    opt = AdamOptimizer(model, tc)
    order_rng = np.random.default_rng(tc.seed)
    epoch_losses: list[float] = []
    for epoch in range(tc.n_epochs):
        order = order_rng.permutation(len(corpus))
        losses = []
        for start in range(0, len(corpus), tc.batch_size):
            batch = [corpus[i] for i in order[start : start + tc.batch_size]]
            ids = pad_batch(batch)
            loss, grads = backward(model, ids)
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, step {len(losses)}: {loss}"
                )
            opt.step(model, grads)
            losses.append(loss)
        mean_loss = float(np.mean(losses))
        epoch_losses.append(mean_loss)
        if log_fn is not None:
            log_fn(epoch, mean_loss)
    return epoch_losses
