"""The README's promises as properties over drawn valid configs, run through `cli.run`.

Each example writes a config of every section's keys, drawn from small
ranges that reach the edges (one frame, sides of 3, T = 1, one block,
one head, d_head 1, guidance 0, betas near 1), with the object inside
every frame, and checks what the command line writes.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from attnfuse.cli import parse_config, run
from attnfuse.fusion import MODES, FusionPlan, align_prompts
from attnfuse.model import denoiser_forward, embed_prompt, make_denoiser_weights
from attnfuse.numerics import SeededRng, derived_seed
from attnfuse.pipeline import (COLOR_WORDS, SHAPES, compute_metrics, invert_video,
                               latent_to_pixels, pixels_to_latent, read_frame_dir,
                               run_denoise, synth_video)
from attnfuse.schedule import cfg_combine, ddim_step
from attnfuse.store import load_store_dump

from conftest import _branch_replay

SOURCE = "a {color} {shape} drifting right"
# Edit prompts of the source's words: the same, one word swapped, one dropped.
EDITS = ("a {color} {shape} drifting right", "a blue {shape} drifting right",
         "a {color} disc drifting right", "a {color} {shape} drifting",
         "a {shape} drifting right")

# (section, key, value) that takes a valid config out of range, one key at a time.
OUT_OF_RANGE = (("model", "frames", 0), ("model", "height", 0), ("model", "channels", 2),
                ("model", "heads", 0), ("schedule", "steps", 0),
                ("schedule", "beta_end", 1.0), ("schedule", "beta_start", 0.0),
                ("edit", "t_s", 1.5), ("edit", "tau", -0.25), ("edit", "s_cfg", -1.0),
                ("edit", "preset", "sepia"), ("video", "object_size", 0),
                ("video", "shape", "star"), ("video", "object_color", "teal"))


@st.composite
def _video(draw, n: int, h: int, w: int) -> dict:
    """[video] keys whose object stays inside all n frames of h x w."""
    size = draw(st.integers(1, (min(h, w) - 1) // 2))
    keys = {"shape": draw(st.sampled_from(SHAPES)), "object_size": size,
            "object_color": draw(st.sampled_from(sorted(COLOR_WORDS))),
            "background_color": draw(st.sampled_from(sorted(COLOR_WORDS)))}
    for axis, side in (("row", h), ("col", w)):
        step = draw(st.integers(-1, 1))
        travel = (n - 1) * step
        lo, hi = size - min(0, travel), side - 1 - size - max(0, travel)
        if lo > hi:  # too far to travel in this frame: stand still
            step, lo, hi = 0, size, side - 1 - size
        keys[f"step_{axis}"], keys[f"start_{axis}"] = step, draw(st.integers(lo, hi))
    return keys


@st.composite
def _config(draw) -> dict:
    """{section: {key: value}} of a valid run config."""
    n, h, w = draw(st.integers(1, 3)), draw(st.integers(3, 7)), draw(st.integers(3, 7))
    heads, d_head = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    beta_end = draw(st.sampled_from([0.01, 0.2, 0.9, 0.999]))
    words = {"color": draw(st.sampled_from(["red", "green"])),
             "shape": draw(st.sampled_from(["square", "disc"]))}
    edit = {"preset": draw(st.sampled_from(MODES)),
            "s_cfg": draw(st.sampled_from([0.0, 1.0, 2.5, 7.5])),
            "source_prompt": SOURCE.format(**words),
            "edit_prompt": draw(st.sampled_from(EDITS)).format(**words)}
    for key in ("t_s", "t_c", "tau"):
        fraction = draw(st.none() | st.sampled_from([0.0, 0.3, 0.6, 1.0]))
        if fraction is not None:
            edit[key] = fraction
    return {"model": {"frames": n, "height": h, "width": w,
                      "channels": draw(st.sampled_from([1, 3])), "heads": heads,
                      "d_head": d_head, "d_model": heads * d_head,
                      "blocks": draw(st.integers(1, 2)), "d_text": draw(st.integers(1, 6)),
                      "seed": draw(st.integers(0, 2 ** 16))},
            "schedule": {"steps": draw(st.integers(1, 5)),
                         "beta_start": draw(st.sampled_from([1e-4, beta_end])),
                         "beta_end": beta_end},
            "edit": edit, "video": draw(_video(n, h, w))}


def _write(path: Path, config: dict) -> Path:
    path.write_text("".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                            for section, keys in config.items()))
    return path


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _sequential(rc, plan):
    """z_0 of the edit's denoising loop, each guided step's branches run one after the other."""
    weights, sched, s_cfg = make_denoiser_weights(rc.model), rc.schedule, rc.edit.s_cfg
    branches = (embed_prompt(rc.edit_prompt, rc.model), plan.prompt)[:1 + (s_cfg != 1.0)]
    z = plan.trajectory[-1]
    for t in range(sched.T, 0, -1):
        replay = plan.step(t, guided=len(branches) == 2)
        eps = [denoiser_forward(z, t, (prompt,), weights, sched.T,
                                replay=_branch_replay(replay, i))[0]
               for i, prompt in enumerate(branches)]
        z = ddim_step(z, eps[0] if len(eps) == 1 else cfg_combine(eps[1], eps[0], s_cfg),
                      t, sched)
    return z


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(config=_config(), command=st.sampled_from(["edit", "reconstruct"]),
       bad=st.sampled_from(OUT_OF_RANGE))
def test_every_valid_config_keeps_the_readme_promises(config, command, bad):
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        path = _write(work / "run.cfg", config)
        rc = parse_config(path)

        # Exit 0, and a rerun writes the same tree byte for byte.
        outs = [work / f"{command}{i}" for i in range(2)]
        assert [run([command, "--config", str(path), "--out", str(out)])
                for out in outs] == [0, 0]
        assert _tree(outs[0]) == _tree(outs[1])

        # metrics.json scores the written frames against the source as the
        # latent channels carry it.
        pixels, _ = synth_video(rc.video, SeededRng(derived_seed(rc.video_seed, "video")))
        z0 = pixels_to_latent(pixels, rc.model.c)
        report = compute_metrics(latent_to_pixels(z0, rc.model.c),
                                 read_frame_dir(outs[0] / "frames"))
        written = json.loads((outs[0] / "metrics.json").read_text())
        assert written["mse"] == report.mse
        assert written["psnr"] == [p if np.isfinite(p) else None for p in report.psnr]
        assert written["temporal_consistency"] == report.temporal_consistency

        # What invert writes loads: the replay of its trajectory is the whole grid.
        assert run(["invert", "--config", str(path), "--out", str(work / "inv")]) == 0
        store = load_store_dump(work / "inv" / "store")
        assert len(store) == 2 * rc.steps * rc.model.blocks
        assert store.self_record(0, 0).tobytes() == z0.tobytes()

        # The guided edit equals the sequential evaluation of its branches.
        weights = make_denoiser_weights(rc.model)
        src, edit = (embed_prompt(p, rc.model) for p in (rc.source_prompt, rc.edit_prompt))
        trajectory = invert_video(z0, src, rc.schedule, weights)
        plan = lambda: FusionPlan(rc.edit, align_prompts(src.tokens, edit.tokens), trajectory,
                                  src, rc.model.blocks)
        z = run_denoise(trajectory[-1], edit, rc.schedule, weights, rc.edit.s_cfg, plan())
        assert z.tobytes() == _sequential(rc, plan()).tobytes()

        # One key out of range: exit 3, and nothing written.
        section, key, value = bad
        config[section][key] = value
        _write(path, config)
        for cmd in (command, "invert"):
            assert run([cmd, "--config", str(path), "--out", str(work / "bad")]) == 3, bad
            assert not (work / "bad").exists()
