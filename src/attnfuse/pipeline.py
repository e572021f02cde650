"""End-to-end flows: synthesize, encode, invert, denoise, measure.

A latent video is an (n, c, h, w) float64 array.  Inversion walks the
schedule upward at guidance scale 1 and returns its latent trajectory,
keeping no map; the editing pass walks back down, and at each step of
a fusion window hands the conditional branch the plan's `Replay`,
whose source maps the pass rebuilds from that trajectory with the
model's own weights.  Reconstruction is the identity edit.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import ContractViolation
from .fusion import FusionPlan
from .imageio import quantize, read_ppm, write_ppm
from .model import DenoiserWeights, PromptEmbedding, denoiser_forward, embed_prompt
from .numerics import SeededRng, check_finite, require
from .schedule import NoiseSchedule, cfg_combine, ddim_invert_step, ddim_step

COLOR_WORDS = {
    "black": (0, 0, 0),
    "white": (255, 255, 255),
    "red": (255, 0, 0),
    "green": (0, 255, 0),
    "blue": (0, 0, 255),
    "yellow": (255, 255, 0),
    "cyan": (0, 255, 255),
    "magenta": (255, 0, 255),
    "gray": (128, 128, 128),
}

SHAPES = ("square", "disc")

_SPECKLE_STD = 1.5  # pixel-value texture; small enough to never flip colors


@dataclass(frozen=True)
class VideoSpec:
    """A solid shape moving over a static textured background.

    offsets holds one (row, col) displacement per frame, applied to the
    start center; the object must stay fully inside the frame.
    """

    n: int
    h: int
    w: int
    shape: str = "square"
    object_color: str = "red"
    background_color: str = "black"
    size: int = 3
    start: tuple[int, int] = (8, 8)
    offsets: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        require(self.n >= 1 and self.h >= 1 and self.w >= 1,
                f"video geometry must be positive, got {self.n}x{self.h}x{self.w}")
        require(self.shape in SHAPES, f"shape must be one of {SHAPES}, got {self.shape!r}")
        for name in (self.object_color, self.background_color):
            require(name in COLOR_WORDS,
                    f"unknown color {name!r}; choose from {sorted(COLOR_WORDS)}")
        require(self.size >= 1, f"object size must be >= 1, got {self.size}")
        offs = self.offsets if self.offsets else tuple((0, 0) for _ in range(self.n))
        require(len(offs) == self.n,
                f"need one offset per frame: {len(offs)} offsets for {self.n} frames")
        object.__setattr__(self, "offsets", tuple((int(r), int(c)) for r, c in offs))
        for idx, (dr, dc) in enumerate(self.offsets):
            cy, cx = self.start[0] + dr, self.start[1] + dc
            inside = (cy - self.size >= 0 and cy + self.size < self.h
                      and cx - self.size >= 0 and cx + self.size < self.w)
            require(inside, f"object leaves the frame at index {idx} "
                            f"(center ({cy}, {cx}), size {self.size})")


def synth_video(spec: VideoSpec, rng: SeededRng) -> tuple[np.ndarray, np.ndarray]:
    """Render (pixels, masks): (n, 3, h, w) float64 in 0..255 and exact
    boolean object masks (n, h, w).

    The speckle texture is drawn once and shared by all frames, so zero
    motion gives bit-identical frames.
    """
    speckle = rng.standard_normal((3, spec.h, spec.w)) * _SPECKLE_STD
    obj = np.array(COLOR_WORDS[spec.object_color], dtype=np.float64)
    bg = np.array(COLOR_WORDS[spec.background_color], dtype=np.float64)
    yy, xx = np.mgrid[0:spec.h, 0:spec.w]
    pixels = np.empty((spec.n, 3, spec.h, spec.w))
    masks = np.empty((spec.n, spec.h, spec.w), dtype=bool)
    for i, (dr, dc) in enumerate(spec.offsets):
        cy, cx = spec.start[0] + dr, spec.start[1] + dc
        if spec.shape == "square":
            region = (np.abs(yy - cy) <= spec.size) & (np.abs(xx - cx) <= spec.size)
        else:
            region = (yy - cy) ** 2 + (xx - cx) ** 2 <= spec.size ** 2
        frame = np.where(region[None], obj[:, None, None], bg[:, None, None])
        pixels[i] = np.clip(frame + speckle, 0.0, 255.0)
        masks[i] = region
    return pixels, masks


def encode(pixels: np.ndarray) -> np.ndarray:
    """Affine map of 0..255 pixel values onto [-1, 1] latents."""
    pixels = np.asarray(pixels, dtype=np.float64)
    require(bool(np.all((pixels >= 0.0) & (pixels <= 255.0))),
            "encode input must lie in 0..255")
    return pixels / 127.5 - 1.0


def decode(latent: np.ndarray) -> np.ndarray:
    """Inverse of encode; exact up to quantization when written to bytes."""
    latent = np.asarray(latent, dtype=np.float64)
    check_finite("decode input", latent)
    return (latent + 1.0) * 127.5


def pixels_to_latent(pixels: np.ndarray, c: int) -> np.ndarray:
    """Encode an (n, 3, h, w) pixel video into c latent channels.

    c = 3 keeps RGB; c = 1 averages to luminance first.
    """
    require(pixels.ndim == 4 and pixels.shape[1] == 3,
            f"pixel video must be (n, 3, h, w), got {pixels.shape}")
    if c == 3:
        return encode(pixels)
    if c == 1:
        return encode(pixels.mean(axis=1, keepdims=True))
    raise ContractViolation(f"latent channels must be 1 or 3, got {c}")


def latent_to_pixels(latent: np.ndarray, c: int) -> np.ndarray:
    """Decode latents back to an (n, 3, h, w) pixel video."""
    require(latent.ndim == 4 and latent.shape[1] == c,
            f"latent shape {latent.shape} does not carry {c} channels")
    decoded = decode(latent)
    if c == 1:
        decoded = np.repeat(decoded, 3, axis=1)
    return decoded


def invert_video(z_0: np.ndarray, prompt: PromptEmbedding, sched: NoiseSchedule,
                 weights: DenoiserWeights,
                 record: Callable[[int, int, str, np.ndarray], None] | None = None
                 ) -> np.ndarray:
    """Deterministic inversion: the read-only trajectory z_0 ... z_T, (T+1, n, c, h, w).

    It keeps no map.  Each step's latent is all an edit replays: the
    pass rebuilds every source map it needs from it with the model's own
    weights, and `store.write_store_dump` writes it for `invert`.
    *record*, if given, is every step's `denoiser_forward` record hook;
    `store.AttentionStore.add` keeps what it sees, the whole grid.  Runs
    at guidance scale 1, which reduces to the conditional branch alone,
    so only that branch is evaluated.
    """
    z = np.asarray(z_0, dtype=np.float64)
    trajectory = np.empty((sched.T + 1,) + z.shape)
    trajectory[0] = z
    for t in range(sched.T):
        eps = denoiser_forward(trajectory[t], t, prompt, weights, n_steps=sched.T,
                               record=record)
        trajectory[t + 1] = ddim_invert_step(trajectory[t], eps, t, sched)
    trajectory.setflags(write=False)
    return trajectory


def run_denoise(z_start: np.ndarray, prompt: PromptEmbedding,
                sched: NoiseSchedule, weights: DenoiserWeights, s_cfg: float,
                plan: FusionPlan | None = None) -> np.ndarray:
    """Denoise from z_T down to z_0 under classifier-free guidance at s_cfg.

    Without a plan this is plain sampling.  With one, the conditional
    branch replays each step's `plan.step(t)`, which rewrites its maps
    from the inversion trajectory the plan reads; that must be (T+1,) +
    z_start's shape, under a plan of the weights' number of blocks.  The
    unconditional branch replays nothing, on a one-thread pool, while
    the conditional branch runs on the calling thread; the two share no
    mutable state, so the result equals their sequential evaluation bit
    for bit.  At s_cfg = 1 the unconditional branch is not evaluated and
    the pool starts no thread.
    """
    cfg = weights.config
    z = np.asarray(z_start, dtype=np.float64)
    if plan is not None:
        want = (sched.T + 1,) + z.shape
        require(plan.trajectory.shape == want,
                f"plan's trajectory is {plan.trajectory.shape}, a {sched.T}-step "
                f"schedule from latents of {z.shape} needs {want}")
        require(plan.blocks == cfg.blocks,
                f"plan has {plan.blocks} blocks, the weights {cfg.blocks}")
    uncond = embed_prompt("", cfg)
    with ThreadPoolExecutor(max_workers=1) as pool:
        for t in range(sched.T, 0, -1):
            replay = plan.step(t) if plan is not None else None
            fut = (pool.submit(denoiser_forward, z, t, uncond, weights, sched.T)
                   if s_cfg != 1.0 else None)
            eps = denoiser_forward(z, t, prompt, weights, n_steps=sched.T,
                                   replay=replay)
            if fut is not None:
                eps = cfg_combine(fut.result(), eps, s_cfg)
            z = ddim_step(z, eps, t, sched)
    return z


@dataclass
class MetricsReport:
    """Video-level error measures plus an echo of the run configuration."""

    mse: float
    psnr: list[float]
    temporal_consistency: float
    config: Optional[dict] = field(default=None)

    def to_json(self) -> str:
        def clean(x):
            return None if isinstance(x, float) and not np.isfinite(x) else x

        payload = {
            "mse": clean(self.mse),
            "psnr": [clean(v) for v in self.psnr],
            "temporal_consistency": clean(self.temporal_consistency),
            "config": self.config,
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def compute_metrics(source: np.ndarray, output: np.ndarray,
                    config_echo: dict | None = None) -> MetricsReport:
    """MSE, per-frame PSNR, and temporal consistency of output vs source.

    Temporal consistency is the mean absolute deviation between the
    consecutive-frame deltas of the two videos, so a constant brightness
    shift scores 0.
    """
    source = np.asarray(source, dtype=np.float64)
    output = np.asarray(output, dtype=np.float64)
    require(source.shape == output.shape,
            f"video shapes differ: {source.shape} vs {output.shape}")
    require(source.ndim == 4 and source.shape[0] >= 1,
            f"videos must be (n, ch, h, w), got {source.shape}")
    diff = output - source
    mse = float(np.mean(diff * diff))
    psnr = []
    for i in range(source.shape[0]):
        frame_mse = float(np.mean(diff[i] * diff[i]))
        if frame_mse == 0.0:
            psnr.append(float("inf"))
        else:
            psnr.append(float(10.0 * np.log10(255.0 ** 2 / frame_mse)))
    if source.shape[0] >= 2:
        d_src = np.diff(source, axis=0)
        d_out = np.diff(output, axis=0)
        temporal = float(np.mean(np.abs(d_out - d_src)))
    else:
        temporal = 0.0
    return MetricsReport(mse=mse, psnr=psnr, temporal_consistency=temporal,
                         config=config_echo)


def write_frame_dir(directory: Path, pixels: np.ndarray) -> None:
    """Write an (n, 3, h, w) video as zero-padded binary PPM frames."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    require(pixels.ndim == 4 and pixels.shape[1] == 3,
            f"pixel video must be (n, 3, h, w), got {pixels.shape}")
    for i in range(pixels.shape[0]):
        write_ppm(directory / f"{i:04d}.ppm", quantize(pixels[i]))


def read_frame_dir(directory: Path) -> np.ndarray:
    """Read a directory of PPM frames back into (n, 3, h, w) float64."""
    directory = Path(directory)
    files = sorted(directory.glob("*.ppm"))
    require(len(files) >= 1, f"no .ppm frames found in {directory}")
    frames = [read_ppm(f).astype(np.float64) for f in files]
    shapes = {f.shape for f in frames}
    require(len(shapes) == 1, f"frames disagree on shape: {sorted(shapes)}")
    return np.stack(frames)
