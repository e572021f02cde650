"""Command-line front end.

Subcommands: `invert` (archive the latent trajectory and z_T),
`edit` (inversion followed by a fused editing pass) and `reconstruct`
(the identity edit).

Exit codes: 0 success, 1 contract violation, 2 I/O failure, 3 bad
configuration.  A guided edit evaluates its two guidance branches
concurrently; the output equals their sequential evaluation bit for bit.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractViolation
from .fusion import (EditConfig, FusionPlan, MODES, align_prompts, preset,
                     word_attention)
from .imageio import quantize, write_pgm
from .model import KIND_CROSS, ModelConfig, embed_prompt, make_denoiser_weights
from .numerics import SeededRng, derived_seed, require
from .pipeline import (VideoSpec, compute_metrics, invert_video,
                       latent_to_pixels, pixels_to_latent, read_frame_dir,
                       run_denoise, synth_video, write_frame_dir)
from .schedule import (DEFAULT_BETA_END, DEFAULT_BETA_START, DEFAULT_STEPS,
                       NoiseSchedule, make_schedule)
from .store import write_store_dump

# section -> key -> (caster, default, help). The parser rejects anything
# not listed here.
_SCHEMA = {
    "model": {
        "frames": (int, 4, "latent frames n"),
        "height": (int, 16, "latent rows"),
        "width": (int, 16, "latent columns"),
        "channels": (int, 1, "latent channels (1 = luminance, 3 = RGB)"),
        "d_model": (int, 16, "token width, must equal heads * d_head"),
        "heads": (int, 2, "attention heads"),
        "d_head": (int, 8, "per-head width"),
        "blocks": (int, 2, "transformer blocks"),
        "d_text": (int, 16, "prompt embedding width"),
        "seed": (int, 0, "seed of the weights and the synth texture"),
    },
    "schedule": {
        "steps": (int, DEFAULT_STEPS, "diffusion steps T"),
        "beta_start": (float, DEFAULT_BETA_START, "first per-step beta"),
        "beta_end": (float, DEFAULT_BETA_END, "last per-step beta"),
    },
    "edit": {
        "preset": (str, "style", f"editing mode, one of {', '.join(MODES)}"),
        "t_s": (float, None, "self-attention window fraction (preset override)"),
        "t_c": (float, None, "cross-attention window fraction (preset override)"),
        "tau": (float, None, "blend mask threshold (preset override)"),
        "s_cfg": (float, None, "guidance scale (preset override)"),
        "source_prompt": (str, "", "prompt describing the input video"),
        "edit_prompt": (str, "", "prompt describing the desired output"),
    },
    "video": {
        "source": (str, "synth", "synth or dir"),
        "dir": (str, "", "frame directory when source = dir"),
        "shape": (str, "square", "synth object shape: square or disc"),
        "object_color": (str, "red", "synth object color word"),
        "background_color": (str, "black", "synth background color word"),
        "object_size": (int, 3, "synth object half-extent in pixels"),
        "start_row": (int, 8, "synth object start center row"),
        "start_col": (int, 8, "synth object start center column"),
        "step_row": (int, 0, "synth per-frame row motion"),
        "step_col": (int, 1, "synth per-frame column motion"),
    },
}


@dataclass
class RunConfig:
    """Everything one run needs, resolved from file plus flag overrides."""

    model: ModelConfig
    schedule: NoiseSchedule
    edit: EditConfig
    source_prompt: str
    edit_prompt: str
    video: VideoSpec | None
    video_seed: int
    video_dir: Path | None
    out_dir: Path
    echo: dict

    @property
    def steps(self) -> int:
        return self.schedule.T


def _parse_lines(path: Path) -> dict[str, dict[str, str]]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values: dict[str, dict[str, str]] = {s: {} for s in _SCHEMA}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if key in values[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        caster = _SCHEMA[section][key][0]
        if caster is str:
            values[section][key] = value
        else:
            try:
                values[section][key] = caster(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: {key} expects {caster.__name__}, got {value!r}"
                ) from None
    return values


def _resolved(values: dict, section: str, key: str):
    if key in values[section]:
        return values[section][key]
    return _SCHEMA[section][key][1]


def parse_config(path: Path) -> RunConfig:
    """Parse and validate a sectioned key = value run configuration."""
    values = _parse_lines(path)
    g = lambda s, k: _resolved(values, s, k)

    try:
        model = ModelConfig(
            n=g("model", "frames"), h=g("model", "height"),
            w=g("model", "width"), c=g("model", "channels"),
            d_model=g("model", "d_model"), heads=g("model", "heads"),
            d_head=g("model", "d_head"), blocks=g("model", "blocks"),
            d_text=g("model", "d_text"), seed=g("model", "seed"))
        require(model.c in (1, 3),
                f"channels must be 1 (luminance) or 3 (RGB), got {model.c}")
        schedule = make_schedule(g("schedule", "steps"),
                                 g("schedule", "beta_start"),
                                 g("schedule", "beta_end"))

        mode = g("edit", "preset")
        edit = preset(mode)
        overrides = {k: values["edit"][k]
                     for k in ("t_s", "t_c", "tau", "s_cfg")
                     if k in values["edit"]}
        if overrides:
            edit = dataclasses.replace(edit, **overrides)
    except ContractViolation as exc:
        raise ConfigError(str(exc)) from exc

    video = None
    video_dir = None
    source = g("video", "source")
    if source == "synth":
        n = model.n
        start = (g("video", "start_row"), g("video", "start_col"))
        step = (g("video", "step_row"), g("video", "step_col"))
        offsets = tuple((i * step[0], i * step[1]) for i in range(n))
        try:
            video = VideoSpec(n=n, h=model.h, w=model.w,
                              shape=g("video", "shape"),
                              object_color=g("video", "object_color"),
                              background_color=g("video", "background_color"),
                              size=g("video", "object_size"),
                              start=start, offsets=offsets)
        except ContractViolation as exc:
            raise ConfigError(str(exc)) from exc
    elif source == "dir":
        if not g("video", "dir"):
            raise ConfigError("[video] source = dir needs a [video] dir")
        video_dir = Path(g("video", "dir"))
        if not video_dir.is_dir():
            raise ConfigError(f"video dir does not exist: {video_dir}")
    else:
        raise ConfigError(f"video source must be synth or dir, got {source!r}")

    echo = {section: {key: _resolved(values, section, key)
                      for key in sorted(_SCHEMA[section])}
            for section in _SCHEMA}
    if video_dir is None:
        echo["video"]["seed"] = model.seed
    echo["edit"].update(preset=edit.mode, t_s=edit.t_s, t_c=edit.t_c,
                        tau=edit.tau, s_cfg=edit.s_cfg)
    return RunConfig(model=model, schedule=schedule, edit=edit,
                     source_prompt=g("edit", "source_prompt"),
                     edit_prompt=g("edit", "edit_prompt"),
                     video=video, video_seed=model.seed, video_dir=video_dir,
                     out_dir=Path("out"), echo=echo)


def _apply_overrides(rc: RunConfig, seed: int | None, out: str | None) -> RunConfig:
    if seed is not None:
        if rc.video_dir is not None:
            raise ConfigError("--seed draws the synthetic clip and has no "
                              "effect with [video] source = dir")
        rc.video_seed = seed
        rc.echo["video"]["seed"] = seed
    if out is not None:
        rc.out_dir = Path(out)
    return rc


def _load_source_video(rc: RunConfig) -> np.ndarray:
    if rc.video_dir is not None:
        pixels = read_frame_dir(rc.video_dir)
        require(pixels.shape[0] == rc.model.n,
                f"input has {pixels.shape[0]} frames, config expects {rc.model.n}")
        require(pixels.shape[2:] == (rc.model.h, rc.model.w),
                f"input frames are {pixels.shape[2:]}, config expects "
                f"({rc.model.h}, {rc.model.w})")
        return pixels
    rng = SeededRng(derived_seed(rc.video_seed, "video"))
    pixels, _ = synth_video(rc.video, rng)
    return pixels


def write_heatmap(map2d: np.ndarray, path: Path) -> None:
    """Grayscale PGM of a 2-D map of values in [0, 1], such as one frame of
    `word_attention`; 1 is drawn as 255.  The map is not rescaled."""
    arr = np.asarray(map2d, dtype=np.float64)
    require(arr.ndim == 2, f"heatmap expects a 2-D map, got {arr.shape}")
    require(bool(np.all((arr >= 0.0) & (arr <= 1.0))),
            "heatmap values must lie in [0, 1]")
    write_pgm(path, quantize(255.0 * arr))


def _write_visuals(out_dir: Path, rc: RunConfig, plan: FusionPlan,
                   heatmap: np.ndarray) -> None:
    h, w = rc.model.h, rc.model.w

    mask_dir = out_dir / "masks"
    mask_dir.mkdir(parents=True, exist_ok=True)
    mask = plan.self_mask(plan.first_self, 0)
    for i in range(rc.model.n):
        write_pgm(mask_dir / f"{i:04d}.pgm",
                  np.where(mask[i].reshape(h, w), 255, 0).astype(np.uint8))

    heat_dir = out_dir / "heatmaps"
    heat_dir.mkdir(parents=True, exist_ok=True)
    # The mask's words, or every word (the start token if there is none).
    columns = plan.positions or tuple(range(1, heatmap.shape[-1])) or (0,)
    heat = word_attention(heatmap, columns)
    for i in range(rc.model.n):
        write_heatmap(heat[i].reshape(h, w), heat_dir / f"{i:04d}.pgm")


def _source_latent(rc: RunConfig) -> np.ndarray:
    return pixels_to_latent(_load_source_video(rc), rc.model.c)


def _run_edit(rc: RunConfig, identity: bool) -> int:
    edit_text = rc.source_prompt if identity else rc.edit_prompt
    if not identity and not rc.edit_prompt:
        raise ConfigError("edit requires edit_prompt in [edit]")

    weights = make_denoiser_weights(rc.model)
    z0 = _source_latent(rc)
    src_emb = embed_prompt(rc.source_prompt, rc.model)
    edit_emb = embed_prompt(edit_text, rc.model)
    heatmaps = []  # inversion step 0's cross map of block 0, which heatmaps/ draws

    def keep_heatmap(t, layer, kind, array):
        if (t, layer, kind) == (0, 0, KIND_CROSS):
            heatmaps.append(array)

    trajectory = invert_video(z0, src_emb, rc.schedule, weights, record=keep_heatmap)
    plan = FusionPlan(rc.edit, align_prompts(src_emb.tokens, edit_emb.tokens), trajectory,
                      src_emb, rc.model.blocks)
    z_out = run_denoise(trajectory[-1], edit_emb, rc.schedule, weights, rc.edit.s_cfg,
                        plan=plan)
    out_pixels = quantize(latent_to_pixels(z_out, rc.model.c)).astype(np.float64)

    rc.out_dir.mkdir(parents=True, exist_ok=True)
    write_frame_dir(rc.out_dir / "frames", out_pixels)
    _write_visuals(rc.out_dir, rc, plan, heatmaps[0])
    echo = dict(rc.echo)
    echo["prompts"] = {"source": rc.source_prompt, "edit": edit_text}
    # The output can only reproduce what the latent channels carry, so it
    # is scored against the source projected onto them (luminance for c = 1).
    reference = latent_to_pixels(z0, rc.model.c)
    report = compute_metrics(reference, out_pixels, config_echo=echo)
    (rc.out_dir / "metrics.json").write_text(report.to_json())
    print(f"wrote {rc.model.n} frames, masks, heatmaps, metrics to {rc.out_dir}")
    return 0


def _run_invert(rc: RunConfig) -> int:
    weights = make_denoiser_weights(rc.model)
    z0 = _source_latent(rc)
    trajectory = invert_video(z0, embed_prompt(rc.source_prompt, rc.model), rc.schedule,
                              weights)
    # The latents go to store/, then z_T.bin; the index comes last.
    betas = rc.echo["schedule"]["beta_start"], rc.echo["schedule"]["beta_end"]
    store_dir = rc.out_dir / "store"
    written = write_store_dump(store_dir, rc.model, trajectory, betas, rc.source_prompt,
                               rc.out_dir / "z_T.bin")
    print(f"inverted {rc.model.n} frames over {rc.steps} steps; {rc.steps} latents "
          f"({written / 1e6:.2f} MB) in {store_dir}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    lines = ["config file keys and defaults:"]
    for section, keys in _SCHEMA.items():
        lines.append(f"  [{section}]")
        for key, (caster, default, help_text) in keys.items():
            # Each line parses as written: the parser knows no inline comments.
            setting = (f"{key} = {default}" if default is not None
                       else f"# {key} = (from preset)")
            lines += [f"    # {help_text}", f"    {setting}"]
    parser = _Parser(
        prog="attnfuse",
        description="Prompt-driven video editing by attention fusion on a "
                    "deterministic toy diffusion stack.",
        epilog="\n".join(lines),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=("invert", "edit", "reconstruct"))
    parser.add_argument("--config", help="path to the run configuration file")
    parser.add_argument("--seed", type=int, default=None,
                        help="redraw the synthetic clip (default [model] seed)")
    parser.add_argument("--out", default=None,
                        help="output directory (default ./out)")
    return parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad usage should exit 3, not argparse's 2
        raise ConfigError(message)


# glibc's mallopt parameters, and the values `_keep_heap_mapped` sets.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 64 << 20, 32 << 20


@functools.cache
def _keep_heap_mapped() -> None:
    """Keep a forward pass's freed temporaries mapped for the next one.

    By default glibc hands freed memory at the top of its heap back to
    the OS and adapts its mmap threshold, so each forward pass's
    temporaries are unmapped and faulted in again.  Fixed thresholds (an
    allocation below 32 MiB comes from the heap; the heap is trimmed
    only past 64 MiB free) keep them mapped for reuse.  Setting one
    switches glibc's adaptive thresholds off, so both are set.  Where
    the C library has no `mallopt` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def run(argv: list[str]) -> int:
    """Execute one subcommand; returns the process exit code."""
    _keep_heap_mapped()
    try:
        args = _build_parser().parse_args(argv)
        if not args.config:
            raise ConfigError(f"{args.command} requires --config")
        rc = parse_config(Path(args.config))
        rc = _apply_overrides(rc, args.seed, args.out)
        if args.command == "invert":
            return _run_invert(rc)
        if args.command == "edit":
            return _run_edit(rc, identity=False)
        return _run_edit(rc, identity=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
