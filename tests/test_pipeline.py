"""Video synthesis, the latent codec, inversion, denoising, and metrics."""

import dataclasses
import json
import math
import threading

import numpy as np
import pytest

from attnfuse import pipeline
from attnfuse.errors import ContractViolation
from attnfuse.fusion import (BLEND, FUSE, EditConfig, FusionPlan,
                             align_prompts, identity_alignment)
from attnfuse.imageio import quantize
from attnfuse.model import (KIND_CROSS, KIND_SELF, ModelConfig,
                            denoiser_forward, embed_prompt,
                            make_denoiser_weights)
from attnfuse.numerics import SeededRng
from attnfuse.pipeline import (VideoSpec, compute_metrics, decode, encode,
                               invert_video, latent_to_pixels,
                               pixels_to_latent, read_frame_dir, run_denoise,
                               synth_video, write_frame_dir)
from attnfuse.schedule import cfg_combine, ddim_step, make_schedule


def test_video_spec_validation():
    with pytest.raises(ContractViolation):
        VideoSpec(n=2, h=16, w=16, shape="triangle")
    with pytest.raises(ContractViolation):
        VideoSpec(n=2, h=16, w=16, object_color="maroon")
    with pytest.raises(ContractViolation):
        VideoSpec(n=2, h=16, w=16, offsets=((0, 0),))
    # size-3 square centered at (8, 14) pokes out of a 16-wide frame
    with pytest.raises(ContractViolation):
        VideoSpec(n=1, h=16, w=16, size=3, start=(8, 14))


def test_synth_zero_motion_repeats_frames():
    spec = VideoSpec(n=4, h=16, w=16, size=2, start=(8, 8))
    pixels, masks = synth_video(spec, SeededRng(3))
    for i in range(1, 4):
        assert np.array_equal(pixels[i], pixels[0])
        assert np.array_equal(masks[i], masks[0])
    assert pixels.shape == (4, 3, 16, 16)
    assert np.all((pixels >= 0.0) & (pixels <= 255.0))


def test_synth_square_mask_geometry():
    spec = VideoSpec(n=1, h=16, w=16, size=2, start=(5, 9))
    _, masks = synth_video(spec, SeededRng(0))
    yy, xx = np.mgrid[0:16, 0:16]
    want = (np.abs(yy - 5) <= 2) & (np.abs(xx - 9) <= 2)
    assert np.array_equal(masks[0], want)
    assert masks[0].sum() == 25


def test_synth_unit_step_moves_centroid():
    spec = VideoSpec(n=4, h=16, w=16, size=2, start=(8, 4),
                     offsets=tuple((0, i) for i in range(4)))
    _, masks = synth_video(spec, SeededRng(1))
    _, xx = np.mgrid[0:16, 0:16]
    for i in range(4):
        centroid = float((xx * masks[i]).sum() / masks[i].sum())
        assert centroid == 4.0 + i
    # background pixels shared between frames are bit-identical
    pixels, _ = synth_video(spec, SeededRng(1))
    common = ~(masks[0] | masks[1])
    assert np.array_equal(pixels[0][:, common], pixels[1][:, common])


def test_synth_disc_shape():
    spec = VideoSpec(n=1, h=16, w=16, shape="disc", size=3, start=(8, 8))
    _, masks = synth_video(spec, SeededRng(2))
    yy, xx = np.mgrid[0:16, 0:16]
    want = (yy - 8) ** 2 + (xx - 8) ** 2 <= 9
    assert np.array_equal(masks[0], want)


def test_synth_deterministic_per_seed():
    spec = VideoSpec(n=2, h=16, w=16)
    a, _ = synth_video(spec, SeededRng(9))
    b, _ = synth_video(spec, SeededRng(9))
    c, _ = synth_video(spec, SeededRng(10))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_codec_endpoints():
    assert np.allclose(encode(np.array([0.0, 127.5, 255.0])),
                       [-1.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(decode(np.array([-1.0, 0.0, 1.0])),
                       [0.0, 127.5, 255.0], atol=1e-12)
    with pytest.raises(ContractViolation):
        encode(np.array([-0.5]))
    with pytest.raises(ContractViolation):
        encode(np.array([255.5]))


def test_codec_round_trip():
    pixels, _ = synth_video(VideoSpec(n=2, h=8, w=8, start=(4, 4), size=1),
                            SeededRng(4))
    back = decode(encode(pixels))
    assert np.max(np.abs(back - pixels)) <= 1e-12
    # Every byte value, on each of the three channels, comes back as that byte.
    levels = np.broadcast_to(np.arange(256.0)[None, None, :, None], (1, 3, 256, 1))
    assert np.array_equal(quantize(decode(encode(levels))), levels.astype(np.uint8))


def test_latent_channel_conversion():
    pixels, _ = synth_video(VideoSpec(n=2, h=8, w=8, start=(4, 4), size=1),
                            SeededRng(5))
    rgb = pixels_to_latent(pixels, 3)
    assert rgb.shape == (2, 3, 8, 8)
    assert np.array_equal(rgb, encode(pixels))
    lum = pixels_to_latent(pixels, 1)
    assert lum.shape == (2, 1, 8, 8)
    assert np.allclose(lum, encode(pixels.mean(axis=1, keepdims=True)),
                       atol=1e-15)
    with pytest.raises(ContractViolation):
        pixels_to_latent(pixels, 2)
    out = latent_to_pixels(lum, 1)
    assert out.shape == (2, 3, 8, 8)
    assert np.array_equal(out[:, 0], out[:, 1])


def test_invert_is_deterministic(tiny_cfg, tiny_weights, tiny_inversion, store_maps,
                                recorded_inversion):
    sched, prompt, z0, trajectory, store = tiny_inversion
    trajectory2, store2 = recorded_inversion(z0, prompt, sched, tiny_weights)
    assert trajectory.tobytes() == trajectory2.tobytes()
    maps, maps2 = store_maps(store, tiny_weights), store_maps(store2, tiny_weights)
    assert maps.keys() == maps2.keys()
    for key in maps:
        assert np.array_equal(maps[key], maps2[key])
    assert trajectory.shape == (sched.T + 1,) + z0.shape and not trajectory.flags.writeable
    assert trajectory[0].tobytes() == z0.tobytes()
    assert not np.array_equal(trajectory[-1], z0)


SMOKE_CFG = ModelConfig(n=2, h=8, w=8, c=1, d_model=16, heads=2, d_head=8,
                        blocks=2, d_text=16, seed=3)


def test_plain_reconstruction_smoke():
    weights = make_denoiser_weights(SMOKE_CFG)
    prompt = embed_prompt("a small bright disc", SMOKE_CFG)
    sched = make_schedule(10, 0.00085, 0.012)
    z0 = SeededRng(101).standard_normal((2, 1, 8, 8)) * 0.5
    z_T = invert_video(z0, prompt, sched, weights)[-1]
    recon = run_denoise(z_T, prompt, sched, weights, 1.0)
    assert float(np.mean((recon - z0) ** 2)) <= 5e-3


def test_fused_reconstruction_at_t50():
    cfg = ModelConfig(n=4, h=16, w=16, c=1, d_model=16, heads=2, d_head=8,
                      blocks=2, d_text=16, seed=0)
    weights = make_denoiser_weights(cfg)
    prompt = embed_prompt("a red square drifting right", cfg)
    sched = make_schedule(50, 0.00085, 0.012)
    z0 = SeededRng(0).standard_normal((4, 1, 16, 16)) * 0.5
    trajectory = invert_video(z0, prompt, sched, weights)
    plan = FusionPlan(EditConfig(t_s=0.0, t_c=0.0, tau=1.0, s_cfg=1.0),
                      identity_alignment(len(prompt.tokens)), trajectory, prompt, 2)
    recon = run_denoise(trajectory[-1], prompt, sched, weights, 1.0, plan=plan)
    assert float(np.mean((recon - z0) ** 2)) <= 1e-3


def test_guided_edit_equals_its_sequential_branches(tiny_cfg, tiny_weights,
                                                    tiny_inversion, monkeypatch):
    sched, prompt, _, trajectory, _ = tiny_inversion
    z_T = trajectory[-1]
    edit_emb = embed_prompt("a blue square drifting right", tiny_cfg)
    align = align_prompts(prompt.tokens, edit_emb.tokens)
    make_plan = lambda: FusionPlan(
        EditConfig(t_s=0.0, t_c=0.0, tau=0.3, s_cfg=7.5), align, trajectory, prompt,
        tiny_cfg.blocks)
    plan = make_plan()
    steps = range(sched.T, 0, -1)
    assert FUSE in {plan.action(t, KIND_CROSS) for t in steps}
    assert BLEND in {plan.action(t, KIND_SELF) for t in steps}

    uncond = embed_prompt("", tiny_cfg)
    z = z_T
    for t in steps:
        eps_c = denoiser_forward(z, t, edit_emb, tiny_weights, sched.T,
                                 replay=plan.step(t))
        eps_u = denoiser_forward(z, t, uncond, tiny_weights, sched.T)
        z = ddim_step(z, cfg_combine(eps_u, eps_c, 7.5), t, sched)
    assert any(plan.self_mask(t, 0).any() for t in steps)  # not all-clear

    calls = []

    def spy(z_t, t, branch, *args, **kwargs):
        calls.append((branch is edit_emb, threading.get_ident()))
        return denoiser_forward(z_t, t, branch, *args, **kwargs)

    monkeypatch.setattr(pipeline, "denoiser_forward", spy)
    out = run_denoise(z_T, edit_emb, sched, tiny_weights, 7.5, plan=make_plan())
    assert np.array_equal(out, z)
    caller = threading.get_ident()
    cond = [ident for is_cond, ident in calls if is_cond]
    other = [ident for is_cond, ident in calls if not is_cond]
    assert cond == [caller] * sched.T
    assert len(other) == sched.T and caller not in other


def test_edit_pass_runs_with_real_alignment(tiny_cfg, tiny_weights,
                                            tiny_inversion):
    sched, prompt, _, trajectory, _ = tiny_inversion
    edit_emb = embed_prompt("a blue square drifting right", tiny_cfg)
    plan = FusionPlan(EditConfig(t_s=0.0, t_c=0.0, tau=0.3, s_cfg=7.5),
                      align_prompts(prompt.tokens, edit_emb.tokens), trajectory, prompt,
                      tiny_cfg.blocks)
    out = run_denoise(trajectory[-1], edit_emb, sched, tiny_weights, 7.5, plan=plan)
    assert out.shape == trajectory[-1].shape
    assert np.all(np.isfinite(out))


def test_run_denoise_store_validation(tiny_cfg, tiny_weights, tiny_inversion):
    # A plan replays a trajectory of T + 1 latents of z's shape, under
    # weights of its number of blocks.
    sched, prompt, _, trajectory, _ = tiny_inversion
    z_T = trajectory[-1]
    edit_cfg = EditConfig(t_s=0.0, t_c=0.0, tau=1.0, s_cfg=1.0)
    plan = lambda trajectory, blocks=tiny_cfg.blocks: FusionPlan(
        edit_cfg, identity_alignment(len(prompt.tokens)), trajectory, prompt, blocks)
    three_blocks = make_denoiser_weights(dataclasses.replace(tiny_cfg, blocks=3))
    for args, fragment in [
            ((z_T, make_schedule(sched.T + 1, 0.05, 0.1), tiny_weights, plan(trajectory)),
             r"trajectory is \(5, 3, 1, 4, 4\), a 5-step schedule .* needs \(6, 3, 1, 4, 4\)"),
            ((z_T, sched, tiny_weights, plan(trajectory[:-1])), r"is \(4, 3, 1, 4, 4\)"),
            ((z_T, sched, tiny_weights, plan(trajectory[:, :2])), r"is \(5, 2, 1, 4, 4\)"),
            ((z_T, sched, three_blocks, plan(trajectory)), "plan has 2 blocks, the weights 3"),
            ((z_T, sched, tiny_weights, plan(trajectory, 3)), "plan has 3 blocks, the weights 2")]:
        z, schedule, weights, fusion_plan = args
        with pytest.raises(ContractViolation, match=fragment):
            run_denoise(z, prompt, schedule, weights, 1.0, plan=fusion_plan)
    out = run_denoise(z_T, prompt, sched, tiny_weights, 1.0, plan=plan(trajectory))
    assert out.shape == z_T.shape


def test_metrics_constant_shift():
    src = SeededRng(6).standard_normal((3, 3, 4, 4)) * 20 + 128
    report = compute_metrics(src, src + 1.0)
    assert report.mse == pytest.approx(1.0, abs=1e-12)
    assert report.temporal_consistency == pytest.approx(0.0, abs=1e-12)
    want_psnr = 20.0 * math.log10(255.0)
    for v in report.psnr:
        assert v == pytest.approx(want_psnr, abs=1e-9)


def test_metrics_identical_videos_serialize():
    src = SeededRng(7).standard_normal((2, 3, 4, 4))
    report = compute_metrics(src, src.copy(), config_echo={"seed": 7})
    assert report.mse == 0.0
    assert report.psnr == [float("inf")] * 2
    payload = json.loads(report.to_json())
    assert payload["mse"] == 0.0
    assert payload["psnr"] == [None, None]
    assert payload["config"] == {"seed": 7}


def test_metrics_single_frame_and_validation():
    src = np.zeros((1, 3, 2, 2))
    report = compute_metrics(src, src + 2.0)
    assert report.temporal_consistency == 0.0
    assert report.mse == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ContractViolation):
        compute_metrics(np.zeros((2, 3, 4, 4)), np.zeros((2, 3, 4, 5)))


def test_metrics_track_motion_mismatch():
    src = np.zeros((2, 1, 2, 2))
    out = np.zeros((2, 1, 2, 2))
    out[1] += 3.0  # output moves where the source holds still
    report = compute_metrics(src, out)
    assert report.temporal_consistency == pytest.approx(3.0, abs=1e-12)


def test_frame_dir_round_trip(tmp_path):
    pixels, _ = synth_video(VideoSpec(n=3, h=8, w=8, start=(4, 4), size=1),
                            SeededRng(8))
    from attnfuse.imageio import quantize
    write_frame_dir(tmp_path / "frames", pixels)
    files = sorted((tmp_path / "frames").glob("*.ppm"))
    assert [f.name for f in files] == ["0000.ppm", "0001.ppm", "0002.ppm"]
    back = read_frame_dir(tmp_path / "frames")
    assert np.array_equal(back, quantize(pixels).astype(np.float64))


def test_read_frame_dir_validation(tmp_path):
    with pytest.raises(ContractViolation):
        read_frame_dir(tmp_path)
