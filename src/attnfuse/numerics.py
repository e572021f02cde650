"""Dense float64 kernels and seeded randomness.

Everything downstream works on C-order float64 numpy arrays.  Public
operations validate their shape contracts and never let NaN or Inf
escape.  Randomness comes from the package's own copy of numpy's PCG64
generator and standard-normal ziggurat, seeded with an explicit 64-bit
integer: identical seeds give identical streams on every platform and
under every numpy version, and no job imports numpy's random package.
Derived streams and per-token seeds use the FNV-1a 64-bit hash, which
is fixed by definition rather than by interpreter version.
"""

from __future__ import annotations

import struct
from math import exp, log1p

import numpy as np

from .errors import ContractViolation
from .ziggurat import FI_DOUBLE, KI_DOUBLE, WI_DOUBLE

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1


def require(condition: bool, message: str) -> None:
    """Raise ContractViolation with *message* unless *condition* holds."""
    if not condition:
        raise ContractViolation(message)


def check_finite(name: str, x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise ContractViolation(f"{name}: non-finite values present")
    return x


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


# numpy's SeedSequence hash constants (a pool of 4 32-bit words), PCG64's
# 128-bit multiplier, and the ziggurat's tail edge r and 1/r.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341
_ZIG_R = 3.6541528853610087963519472518
_ZIG_INV_R = 0.27366123732975827203338247596
_KI = struct.unpack("<256Q", KI_DOUBLE)
_WI = struct.unpack("<256d", WI_DOUBLE)
_FI = struct.unpack("<256d", FI_DOUBLE)


def _hashmix(const: int, mult: int):
    """numpy SeedSequence's 32-bit hash, whose constant steps by *mult* per call."""
    def mix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return mix


def _pcg64_start(seed: int) -> tuple[int, int]:
    """(state, increment) of numpy's `PCG64(seed)`.

    numpy hashes the seed's 32-bit words into a pool of 4 (`SeedSequence`),
    draws 4 64-bit words from the pool (`generate_state`), and seeds PCG64
    with the first two as its state and the last two as its stream.
    """
    hashmix = _hashmix(_INIT_A, _MULT_A)
    words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    pool = [hashmix(word) for word in words + [0] * (4 - len(words))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (_MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])) & _MASK32
                pool[dst] = mixed ^ mixed >> 16
    generate = _hashmix(_INIT_B, _MULT_B)
    state = [generate(pool[i % 4]) for i in range(8)]
    seed64 = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
    inc = ((seed64[2] << 64 | seed64[3]) << 1 | 1) & _MASK128
    start = (inc + (seed64[0] << 64 | seed64[1])) & _MASK128
    return (start * _PCG_MULT + inc) & _MASK128, inc


class SeededRng:
    """Deterministic standard normals behind an explicit 64-bit seed.

    The stream is numpy's `Generator(PCG64(seed)).standard_normal`, bit
    for bit, computed here: numpy's seed hashing, PCG64's 128-bit step
    with its XSL-RR output, and numpy's 256-layer ziggurat over numpy's
    own tables (`ziggurat`).  A draw costs about 1.2 µs on a 2-vCPU
    x86-64 host.  A benchmark job draws 5.9-6.4k normals (its weights,
    token vectors and clip texture): about 8 ms, where importing numpy's
    random package took about 17 ms and 6 MiB of peak RSS.
    """

    def __init__(self, seed: int):
        require(isinstance(seed, (int, np.integer)) and not isinstance(seed, bool),
                f"seed must be an integer, not {type(seed).__name__}: {seed!r}")
        require(0 <= seed <= _MASK64, f"seed out of 64-bit range: {seed}")
        self.seed = int(seed)
        self._state, self._inc = _pcg64_start(self.seed)

    def standard_normal(self, shape) -> np.ndarray:
        """A C-order float64 array of *shape* (an int or a tuple), drawn in order."""
        out = np.empty(shape)
        draws = []
        state, inc = self._state, self._inc

        def bits() -> int:
            nonlocal state
            state = (state * _PCG_MULT + inc) & _MASK128
            x = (state >> 64 ^ state) & _MASK64
            rot = state >> 122
            return (x >> rot | x << (64 - rot)) & _MASK64

        def uniform() -> float:
            return (bits() >> 11) * 2.0 ** -53

        while len(draws) < out.size:
            # Bits 0-7 pick the layer, bit 8 the sign, bits 9-60 the position.
            r = bits()
            idx = r & 0xFF
            rabs = r >> 9 & 0x000FFFFFFFFFFFFF
            x = -(rabs * _WI[idx]) if r >> 8 & 1 else rabs * _WI[idx]
            if rabs < _KI[idx]:  # inside the layer's rectangle: 99 % of draws
                draws.append(x)
            elif idx == 0:  # the tail beyond r, by Marsaglia's exponential method
                while True:
                    xx = -_ZIG_INV_R * log1p(-uniform())
                    yy = -log1p(-uniform())
                    if yy + yy > xx * xx:
                        break
                draws.append(-(_ZIG_R + xx) if rabs >> 8 & 1 else _ZIG_R + xx)
            elif (_FI[idx - 1] - _FI[idx]) * uniform() + _FI[idx] < exp(-0.5 * x * x):
                draws.append(x)  # under the density in the layer's wedge
        self._state = state
        out.reshape(-1)[:] = draws
        return out


# Rows up to this long take their maxima column by column (`row_max`).
SHORT_ROW = 16


def row_max(x: np.ndarray) -> np.ndarray:
    """The maximum of each row along the last axis, with that axis kept at length 1.

    A maximum is exact in any order of comparison, so the result equals
    `x.max(axis=-1, keepdims=True)` bit for bit, NaN and signed zeros
    included.  A row of
    up to SHORT_ROW entries is taken column by column, in elementwise
    maxima over all rows at once: numpy's reduction pays a fixed cost per
    row, which makes short rows, such as a cross map's one per prompt
    token, cost several times their exp.
    """
    if x.shape[-1] > SHORT_ROW:
        return x.max(axis=-1, keepdims=True)
    peaks = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(peaks, x[..., j:j + 1], out=peaks)
    return peaks


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
    peaks = check_finite("softmax input", row_max(x))
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

