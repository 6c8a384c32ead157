"""The three benchmark workloads.

Each workload draws its inputs from the seed, then runs units of work: a
train step, or one clip's eval forward. ``build`` makes the model and inputs
and may run several times to time set-up; ``warmup`` runs the first unit and
returns the values the reference check compares; ``run_unit`` runs one more
chunk of work and appends each step's seconds to ``step_s``.

Every call into the program goes through the module attribute
(``training.adamw_step``, ``tensor.backward``, ...) so the tracer reaches it.
"""
from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from vidconv import data, model, tensor, training

TOY_TASK = "motion-direction"
TOY_BATCH = 4
VAL_SEED_OFFSET = 1_000_003  # validation videos differ from the training ones
TINY_LR = 1e-4


class CheckFailed(Exception):
    """A workload's output failed its check (shape, finiteness, reference)."""


def check_finite_logits(logits, shape):
    if tuple(logits.shape) != tuple(shape):
        raise CheckFailed(f"logits shape {tuple(logits.shape)}, expected {tuple(shape)}")
    if not np.all(np.isfinite(logits)):
        raise CheckFailed("logits are not finite")


def check_finite_loss(loss):
    if not math.isfinite(loss):
        raise CheckFailed(f"loss {loss} is not finite")


class StepClock:
    """Per-step wall time of ``training.train``, read from outside the loop.

    A step ends when ``adamw_step`` returns and starts where the previous one
    ended, so it covers batch generation, forward, backward, clipping and the
    update. The per-epoch validation is left out of the step and restarts the
    clock; it still counts in the wall time of the epoch.
    """

    def __init__(self):
        self.mark = time.perf_counter()
        self.step_s = []
        self.last_eval = None
        self._orig = {}

    def install(self):
        adamw, evaluate = training.adamw_step, training.evaluate_multiview
        self._orig = {"adamw_step": adamw, "evaluate_multiview": evaluate}

        def adamw_step(*args, **kwargs):
            out = adamw(*args, **kwargs)
            now = time.perf_counter()
            self.step_s.append(now - self.mark)
            self.mark = now
            return out

        def evaluate_multiview(*args, **kwargs):
            self.last_eval = evaluate(*args, **kwargs)
            self.mark = time.perf_counter()
            return self.last_eval

        training.adamw_step = adamw_step
        training.evaluate_multiview = evaluate_multiview

    def uninstall(self):
        for attr, orig in self._orig.items():
            setattr(training, attr, orig)


class ToyTrain:
    """``training.train`` on the ``toy`` variant, one epoch per unit."""

    name = "toy-train"
    unit = "train step"
    frames = 9

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.size = (64, 64)
        self.n_train, self.n_val = (8, 4) if smoke else (32, 8)
        self.clock = StepClock()
        self.clock.install()
        self.step_s = self.clock.step_s
        self.clips = 0

    def build(self):
        k = data.num_classes(TOY_TASK)
        self.model = model.build_model(model.make_config("toy", num_classes=k,
                                                         input_size=self.size), self.seed)
        # Manifests only: videos are generated on demand, inside the steps.
        self.train_ds = data.SyntheticDataset.generate(
            TOY_TASK, self.n_train, size=self.size, num_frames=self.frames, root_seed=self.seed)
        self.val_ds = data.SyntheticDataset.generate(
            TOY_TASK, self.n_val, size=self.size, num_frames=self.frames,
            root_seed=self.seed + VAL_SEED_OFFSET)
        # lr_min == lr keeps the rate constant after the one-epoch warm-up, so
        # growing the epoch count one unit at a time leaves the schedule alone.
        self.cfg = training.TrainConfig(epochs=1, batch_size=TOY_BATCH, lr=1e-3, lr_min=1e-3,
                                        crop_scales=(0.8, 1.0))
        self.state = None

    def _epoch(self):
        epochs = 1 if self.state is None else self.state.epoch + 1
        self.clock.mark = time.perf_counter()
        self.state = training.train(self.model, self.train_ds, self.val_ds,
                                    replace(self.cfg, epochs=epochs), root_seed=self.seed,
                                    state=self.state)
        record = self.state.history[-1]
        for loss in record["step_losses"]:
            check_finite_loss(loss)
        probs = self.clock.last_eval["probs"]
        check_finite_logits(probs, (self.n_val, data.num_classes(TOY_TASK)))
        if not np.allclose(probs.sum(axis=1), 1.0, atol=1e-4):
            raise CheckFailed("validation class scores do not sum to 1")
        self.clips += self.n_train
        return record

    def warmup(self):
        return {"first_step_loss": self._epoch()["step_losses"][0]}

    def run_unit(self):
        self._epoch()

    def close(self):
        self.clock.uninstall()


class TinyEval224:
    """Eval-mode forward of ``tiny`` on one 9-frame clip, one clip per unit."""

    name = "tiny-eval-224"
    unit = "eval clip"

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.size = (64, 64) if smoke else (224, 224)
        self.step_s = []
        self.clips = 0

    def build(self):
        self.model = None  # free the previous build before making the next
        self.model = model.build_model(model.make_config("tiny", input_size=self.size), self.seed)
        cfg = self.model.config
        rng = np.random.default_rng(self.seed)
        self.clip = tensor.Tensor(rng.standard_normal((cfg.frames, 3) + self.size,
                                                      dtype=np.float32))
        self.first = None

    def _forward(self):
        t0 = time.perf_counter()
        logits = self.model.forward(self.clip, training=False).data
        dt = time.perf_counter() - t0
        check_finite_logits(logits, (1, self.model.config.num_classes))
        return logits, dt

    def warmup(self):
        self.first, _ = self._forward()
        return {"logits": self.first[0].tolist()}

    def run_unit(self):
        logits, dt = self._forward()
        # Same model, same clip: every forward must give the warm-up logits.
        if not logits_match(logits[0], self.first[0]):
            raise CheckFailed("eval logits differ from the warm-up forward on the same clip")
        self.step_s.append(dt)
        self.clips += 1

    def close(self):
        pass


class TinyTrain96:
    """One full ``tiny`` training step on 2 clips at 96x96 per unit."""

    name = "tiny-train-96"
    unit = "train step"
    clips_per_step = 2

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.size = (32, 32) if smoke else (96, 96)
        self.step_s = []
        self.clips = 0

    def build(self):
        self.model = self.opt = None  # free the previous build before making the next
        self.model = model.build_model(model.make_config("tiny", input_size=self.size), self.seed)
        self.opt = training.OptimState(base_lr=TINY_LR,
                                       lr_multipliers={"backbone": 1.0, "head": 1.0})
        self.rng = np.random.default_rng(self.seed)
        self.drop_rng = np.random.default_rng(self.seed + 1)

    def _step(self):
        cfg = self.model.config
        n = self.clips_per_step
        x = self.rng.standard_normal((n * cfg.frames, 3) + self.size, dtype=np.float32)
        labels = self.rng.integers(0, cfg.num_classes, size=n)
        params = self.model.parameters()
        t0 = time.perf_counter()
        try:
            logits = self.model.forward(tensor.Tensor(x), training=True, rng=self.drop_rng)
            loss, _ = tensor.softmax_cross_entropy(logits, labels)
            loss_val = loss.item()
            check_finite_loss(loss_val)
            check_finite_logits(logits.data, (n, cfg.num_classes))
            tensor.backward(loss)
            norm = training.clip_grad_norm(params, 5.0)
            if not math.isfinite(norm):
                raise CheckFailed(f"gradient norm {norm} is not finite")
            training.adamw_step(params, self.opt, TINY_LR, group_of=self.model.param_group)
        finally:
            self.model.zero_grad()
        return loss_val, time.perf_counter() - t0

    def warmup(self):
        loss, _ = self._step()
        return {"first_step_loss": loss}

    def run_unit(self):
        _, dt = self._step()
        self.step_s.append(dt)
        self.clips += self.clips_per_step

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (ToyTrain, TinyEval224, TinyTrain96)}

# Reordered float32 sums (another BLAS thread count or kernel) move a logit
# or a loss by far less than this; a wrong kernel moves them by O(1).
REFERENCE_RTOL = 1e-3


def logits_match(got, ref) -> bool:
    got, ref = np.asarray(got, np.float64), np.asarray(ref, np.float64)
    return got.shape == ref.shape and bool(
        np.all(np.abs(got - ref) <= REFERENCE_RTOL * np.max(np.abs(ref))))


def reference_mismatch(got: dict, ref: dict):
    """None when the warm-up values match the stored reference."""
    for key, want in ref.items():
        have = got.get(key)
        if isinstance(want, list):
            if not logits_match(have, want):
                return f"{key} differ from the reference by more than {REFERENCE_RTOL} of max |ref|"
        elif have is None or abs(have - want) > REFERENCE_RTOL * abs(want):
            return f"{key} {have} differs from the reference {want} by more than rtol {REFERENCE_RTOL}"
    return None
