"""Noise schedule and the deterministic DDIM step pair.

The sampler and its inversion share one predicted noise term, which
makes each step an exact algebraic inverse of the other; round-trip
error is floating-point dust only.  Timesteps are integers 0..T with
alpha_bar[0] == 1 (the clean latent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import require

DEFAULT_STEPS = 50
DEFAULT_BETA_START = 0.00085
DEFAULT_BETA_END = 0.012


@dataclass
class NoiseSchedule:
    """Cumulative signal levels alpha_bar indexed by timestep 0..T."""

    T: int
    alpha_bar: np.ndarray

    def validate(self) -> "NoiseSchedule":
        require(self.T >= 1, f"schedule needs T >= 1, got {self.T}")
        require(len(self.alpha_bar) == self.T + 1,
                f"alpha_bar must have T+1 entries, got {len(self.alpha_bar)}")
        require(self.alpha_bar[0] == 1.0, "alpha_bar[0] must be 1.0")
        diffs = np.diff(self.alpha_bar)
        require(bool(np.all(diffs < 0.0)), "alpha_bar must strictly decrease")
        require(bool(np.all(self.alpha_bar > 0.0)), "alpha_bar must stay positive")
        return self


def make_schedule(T: int = DEFAULT_STEPS,
                  beta_start: float = DEFAULT_BETA_START,
                  beta_end: float = DEFAULT_BETA_END) -> NoiseSchedule:
    """Linear-beta schedule: alpha_bar[t] is the product of (1 - beta_s)."""
    require(T >= 1, f"make_schedule needs T >= 1, got {T}")
    require(0.0 < beta_start <= beta_end < 1.0,
            f"betas must satisfy 0 < start <= end < 1, got {beta_start}, {beta_end}")
    betas = np.linspace(beta_start, beta_end, T)
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    return NoiseSchedule(T=T, alpha_bar=alpha_bar).validate()


def _ddim_move(z_t: np.ndarray, eps: np.ndarray, sched: NoiseSchedule,
               src: int, dst: int) -> np.ndarray:
    """Move a latent from timestep src to dst along the predicted noise."""
    z_t = np.asarray(z_t, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    require(z_t.shape == eps.shape,
            f"latent/noise shape mismatch: {z_t.shape} vs {eps.shape}")
    ab_src, ab_dst = float(sched.alpha_bar[src]), float(sched.alpha_bar[dst])
    x = (z_t - math.sqrt(1.0 - ab_src) * eps) / math.sqrt(ab_src)
    return math.sqrt(ab_dst) * x + math.sqrt(1.0 - ab_dst) * eps


def ddim_step(z_t: np.ndarray, eps: np.ndarray, t: int,
              sched: NoiseSchedule) -> np.ndarray:
    """One deterministic denoising step t -> t-1.

    z_{t-1} = sqrt(ab[t-1]) * (z_t - sqrt(1-ab[t]) * eps) / sqrt(ab[t])
              + sqrt(1-ab[t-1]) * eps
    """
    require(1 <= t <= sched.T, f"ddim_step needs 1 <= t <= {sched.T}, got {t}")
    return _ddim_move(z_t, eps, sched, t, t - 1)


def ddim_invert_step(z_t: np.ndarray, eps: np.ndarray, t: int,
                     sched: NoiseSchedule) -> np.ndarray:
    """One inversion step t -> t+1; exact inverse of ddim_step at t+1."""
    require(0 <= t <= sched.T - 1,
            f"ddim_invert_step needs 0 <= t <= {sched.T - 1}, got {t}")
    return _ddim_move(z_t, eps, sched, t, t + 1)


def cfg_combine(eps_uncond: np.ndarray, eps_cond: np.ndarray,
                scale: float) -> np.ndarray:
    """Classifier-free guidance: uncond + scale * (cond - uncond).

    scale 0 and 1 short-circuit to the respective branch so those
    endpoints are exact rather than within rounding.
    """
    require(scale >= 0.0, f"guidance scale must be >= 0, got {scale}")
    eps_uncond = np.asarray(eps_uncond, dtype=np.float64)
    eps_cond = np.asarray(eps_cond, dtype=np.float64)
    require(eps_uncond.shape == eps_cond.shape,
            f"guidance branch shapes differ: {eps_uncond.shape} vs {eps_cond.shape}")
    if scale == 0.0:
        return eps_uncond.copy()
    if scale == 1.0:
        return eps_cond.copy()
    return eps_uncond + scale * (eps_cond - eps_uncond)
