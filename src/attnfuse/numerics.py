"""Dense float64 kernels and seeded randomness.

Everything downstream works on C-order float64 numpy arrays.  Public
operations validate their shape contracts and never let NaN or Inf
escape.  Randomness comes from numpy's PCG64 generator seeded with an
explicit 64-bit integer, so identical seeds give identical streams on
every platform; derived streams and per-token seeds use the FNV-1a
64-bit hash, which is fixed by definition rather than by interpreter
version.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def require(condition: bool, message: str) -> None:
    """Raise ContractViolation with *message* unless *condition* holds."""
    if not condition:
        raise ContractViolation(message)


def check_finite(name: str, x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise ContractViolation(f"{name}: non-finite values present")
    return x


def check_rows(name: str, attn: np.ndarray, tol: float) -> None:
    """Raise ContractViolation unless each row of *attn* sums to 1 within *tol*; NaN fails."""
    worst = float(np.abs(attn.sum(axis=-1) - 1.0).max())
    require(worst <= tol, f"{name} rows deviate from 1 by {worst:.3e} (tol {tol:g})")


def fnv1a64(data: bytes | str) -> int:
    """FNV-1a 64-bit hash. Stable across platforms and interpreter runs."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def derived_seed(seed: int, tag: str) -> int:
    """Fold a label into *seed* to get an independent, reproducible stream."""
    return fnv1a64(f"{tag}:{seed}")


class SeededRng:
    """Deterministic random source: numpy PCG64 behind an explicit seed."""

    def __init__(self, seed: int):
        require(0 <= int(seed) <= _MASK64, f"seed out of 64-bit range: {seed}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)


def softmax_numerators(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(x - row max) along the last axis: softmax before its divide.

    Every entry lies in [0, 1] and each row peaks at exactly 1.0, the
    exp of its own maximum minus itself.  *out*, when given, receives the
    result and may be *x* itself; the values do not depend on it.

    Finiteness is checked on the row maxima, which rejects any NaN (max
    propagates it), any +inf and any row of only -inf.  A lone -inf
    entry is accepted and gets 0.
    """
    x = np.asarray(x, dtype=np.float64)
    require(x.size > 0 and x.shape[-1] >= 1, "softmax of empty tensor")
    peaks = check_finite("softmax input", x.max(axis=-1, keepdims=True))
    out = np.subtract(x, peaks, out=out)
    np.exp(out, out=out)
    return out


def softmax_lastdim(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along the last axis: `softmax_numerators` over their row sums.

    Each slice of the result sums to 1 (within 1e-12) and keeps strictly
    positive entries for inputs of sane dynamic range.  *out* and the
    finiteness check are those of `softmax_numerators`; a lone -inf entry
    gets weight 0 and its row still sums to 1.
    """
    out = softmax_numerators(x, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def maxnorm_frame(x: np.ndarray) -> np.ndarray:
    """Divide each leading-axis slice by its own maximum.

    A 1-D input counts as a single frame.  An all-zero (or negative-max)
    frame has no meaningful normalization and is rejected.
    """
    x = np.asarray(x, dtype=np.float64)
    require(x.size > 0, "maxnorm_frame of empty tensor")
    frames = x[None, ...] if x.ndim == 1 else x
    peaks = frames.reshape(frames.shape[0], -1).max(axis=1)
    require(bool(np.all(peaks > 0.0)), "maxnorm_frame: frame with max <= 0")
    out = frames / peaks.reshape((-1,) + (1,) * (frames.ndim - 1))
    return out[0] if x.ndim == 1 else out

