"""End-to-end acceptance checks.

One test per shipped guarantee, in order, so `pytest -v` prints a
pass/fail line for each:

  1.  inversion/sampling algebraic round trip
  2.  reconstruction fidelity at guidance 1, improving with more steps
  3.  high guidance strictly degrades unfused reconstruction
  4.  identity edit is bit-identical to reconstruction
  5.  editing-mode presets carry the documented values
  6.  mask threshold extremes select source/edit maps exactly
  7.  oracle denoiser localizes the edited word (IoU vs ground truth)
  8.  inflated attention leaves the middle frame unchanged
  9.  every captured attention map has contract shape and rows (cross
      rows sum to 1, self rows peak at 1)
  10. the edit subcommand is byte-for-byte deterministic
  11. a no-op edit at guidance 7.5 writes its guidance-1 frames and
      reconstructs the source
"""

import json
import statistics
import time

import numpy as np
import pytest

from attnfuse.cli import run
from attnfuse.fusion import (BLEND, MODES, EditConfig, FusionPlan, align_prompts,
                             build_blend_mask, identity_alignment, preset)
from attnfuse.imageio import quantize
from attnfuse.model import (KIND_SELF, BlockWeights, ModelConfig, SelfTiles, _attention_map,
                            _block_input, denoiser_forward, embed_prompt,
                            make_denoiser_weights, make_oracle_denoiser,
                            spatiotemporal_attend, _merge_heads, _split_heads)
from attnfuse.numerics import SeededRng, derived_seed
from attnfuse.pipeline import (VideoSpec, compute_metrics, invert_video, latent_to_pixels,
                               pixels_to_latent, run_denoise, synth_video)
from attnfuse.schedule import (cfg_combine, ddim_invert_step, ddim_step,
                               make_schedule)
from attnfuse.store import AttentionStore, StoreMeta

SWEEP_CFG = ModelConfig(n=4, h=16, w=16, c=1, d_model=16, heads=2, d_head=8,
                        blocks=2, d_text=16, seed=0)
SWEEP_PROMPT = "a red square drifting right"
SWEEP_STEPS = (10, 25, 50, 100)
SWEEP_SEEDS = range(5)
PLAIN = EditConfig(t_s=0.0, t_c=0.0, tau=1.0, s_cfg=1.0)
GUIDED = EditConfig(t_s=0.0, t_c=0.0, tau=1.0, s_cfg=7.5)


def test_criterion_01_algebraic_round_trip():
    sched = make_schedule(50, 0.00085, 0.012)
    rng = np.random.default_rng(123)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        t = int(rng.integers(0, sched.T))
        z = rng.standard_normal(4)
        eps = rng.standard_normal(4)
        scale = max(float(np.max(np.abs(z))), 1e-300)
        up_down = ddim_step(ddim_invert_step(z, eps, t, sched), eps, t + 1, sched)
        worst = max(worst, float(np.max(np.abs(up_down - z))) / scale)
        down_up = ddim_invert_step(ddim_step(z, eps, t + 1, sched), eps, t, sched)
        worst = max(worst, float(np.max(np.abs(down_up - z))) / scale)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 5.0
    print(f"criterion 1 pass: worst relative error {worst:.3e} "
          f"over 1000 triples, both orders, in {elapsed:.2f}s")


@pytest.fixture(scope="module")
def sweep():
    """Reconstruction MSE per (seed, T) at guidance 1, plus guidance 7.5
    at T = 50; inversions are shared between the two measurements."""
    weights = make_denoiser_weights(SWEEP_CFG)
    prompt = embed_prompt(SWEEP_PROMPT, SWEEP_CFG)
    mse = {T: [] for T in SWEEP_STEPS}
    mse_guided_50 = []
    elapsed_plain = 0.0
    for seed in SWEEP_SEEDS:
        z0 = SeededRng(seed).standard_normal(
            (SWEEP_CFG.n, SWEEP_CFG.c, SWEEP_CFG.h, SWEEP_CFG.w))
        for T in SWEEP_STEPS:
            sched = make_schedule(T, 0.00085, 0.012)
            start = time.perf_counter()
            z_T = invert_video(z0, prompt, sched, weights)[-1]
            recon = run_denoise(z_T, prompt, sched, weights, PLAIN.s_cfg)
            elapsed_plain += time.perf_counter() - start
            mse[T].append(float(np.mean((recon - z0) ** 2)))
            if T == 50:
                guided = run_denoise(z_T, prompt, sched, weights,
                                     GUIDED.s_cfg)
                mse_guided_50.append(float(np.mean((guided - z0) ** 2)))
    return mse, mse_guided_50, elapsed_plain


def test_criterion_02_reconstruction_fidelity(sweep):
    mse, _, elapsed = sweep
    worst_50 = max(mse[50])
    assert worst_50 <= 1e-3
    medians = [statistics.median(mse[T]) for T in SWEEP_STEPS]
    for earlier, later in zip(medians, medians[1:]):
        assert later <= earlier
    assert elapsed < 60.0
    meds = ", ".join(f"T={T}: {m:.3e}" for T, m in zip(SWEEP_STEPS, medians))
    print(f"criterion 2 pass: worst MSE at T=50 is {worst_50:.3e} <= 1e-3; "
          f"medians non-increasing ({meds}); sweep took {elapsed:.1f}s")


def test_criterion_03_guidance_gap(sweep):
    mse, mse_guided_50, _ = sweep
    for seed, (plain, guided) in enumerate(zip(mse[50], mse_guided_50)):
        assert guided > plain, f"seed {seed}: {guided:.3e} vs {plain:.3e}"
    ratios = [g / p for g, p in zip(mse_guided_50, mse[50])]
    print(f"criterion 3 pass: guidance 7.5 degrades reconstruction for all "
          f"{len(ratios)} seeds (MSE ratio {min(ratios):.0f}x to "
          f"{max(ratios):.0f}x)")


def test_criterion_04_identity_edit_is_reconstruction():
    cfg = ModelConfig(n=3, h=8, w=8, c=1, d_model=16, heads=2, d_head=8,
                      blocks=2, d_text=16, seed=4)
    weights = make_denoiser_weights(cfg)
    prompt = embed_prompt("a gray disc sliding down", cfg)
    sched = make_schedule(8, 0.00085, 0.012)
    z0 = SeededRng(40).standard_normal((3, 1, 8, 8)) * 0.5
    trajectory = invert_video(z0, prompt, sched, weights)
    z_T = trajectory[-1]
    edit_plan = FusionPlan(GUIDED, align_prompts(prompt.tokens, prompt.tokens),
                           trajectory, prompt, cfg.blocks)
    recon_plan = FusionPlan(GUIDED, identity_alignment(len(prompt.tokens)),
                            trajectory, prompt, cfg.blocks)
    edit = run_denoise(z_T, prompt, sched, weights, GUIDED.s_cfg,
                       plan=edit_plan)
    recon = run_denoise(z_T, prompt, sched, weights, GUIDED.s_cfg,
                        plan=recon_plan)
    assert np.array_equal(edit, recon)
    assert float(np.max(np.abs(edit - recon))) <= 1e-12
    print("criterion 4 pass: identity edit equals reconstruction "
          "bit for bit at guidance 7.5")


def test_criterion_05_preset_values():
    for mode in ("style", "attribute"):
        cfg = preset(mode)
        assert (cfg.t_s, cfg.t_c, cfg.tau) == (0.2, 0.3, 1.0)
    shape = preset("shape")
    assert (shape.t_s, shape.t_c, shape.tau) == (0.5, 0.5, 0.3)
    assert preset("removal") == EditConfig(t_s=0.5, t_c=0.5, tau=0.3,
                                           s_cfg=7.5, mode="removal")
    assert preset("enhancement").tau == 1.0
    print("criterion 5 pass: presets carry (0.2, 0.3, 1.0) for "
          "style/attribute and (0.5, 0.5, 0.3) for shape/removal, exactly")


@pytest.fixture(scope="module")
def small_inversion():
    """(config, trajectory, whole store, schedule) of a small recorded inversion."""
    cfg = ModelConfig(n=2, h=4, w=4, c=1, d_model=8, heads=2, d_head=4,
                      blocks=1, d_text=8, seed=6)
    weights = make_denoiser_weights(cfg)
    prompt = embed_prompt("a white square", cfg)
    sched = make_schedule(6, 0.002, 0.02)
    z0 = SeededRng(60).standard_normal((2, 1, 4, 4)) * 0.4
    store = AttentionStore(StoreMeta(T=sched.T, blocks=1))
    trajectory = invert_video(z0, prompt, sched, weights, record=store.add)
    return cfg, trajectory, store, sched


def test_criterion_06_threshold_extremes(small_inversion, monkeypatch, self_map):
    cfg, trajectory, store, sched = small_inversion
    src_cross = store.query(3, 0)
    assert not build_blend_mask(src_cross, (1,), 1.0).any()
    assert build_blend_mask(src_cross, (1,), 0.0).all()

    # "white" -> "black" drops a source word, so the mask is thresholded
    # from its attention; step 4 replays inversion step 3's record.
    weights = make_denoiser_weights(cfg)
    edit = embed_prompt("a black square", cfg)
    src = embed_prompt("a white square", cfg)
    align = align_prompts(src.tokens, edit.tokens)
    z = SeededRng(61).standard_normal((cfg.n, cfg.c, cfg.h, cfg.w))
    source = store.self_record(3, 0)
    source_map = self_map(source, 3, 0, weights, sched.T)
    built = []
    original = SelfTiles.rows

    def spy(tiles, lo, hi):
        rows = original(tiles, lo, hi)
        built.append((tiles.feats, lo, rows.copy()))
        return rows

    monkeypatch.setattr(SelfTiles, "rows", spy)
    applied, own = {}, {}  # own: the pass's self record of each block

    def keep_own(t, layer, kind, array):
        if kind == KIND_SELF:
            own[layer] = array

    for tau in (1.0, 0.0):
        plan = FusionPlan(EditConfig(t_s=0.0, t_c=1.0, tau=tau), align, trajectory, src, 1)
        built.clear()
        denoiser_forward(z, 4, (edit,), weights, sched.T, replay=plan.step(4), record=keep_own)
        applied[tau] = list(built)
        own_map = self_map(own[0], 4, 0, weights, sched.T)
        assert plan.self_mask(4, 0).all() == (tau == 0.0)
        # 4x4 pixels: one tile.  At tau 0.0 the mask thresholds the source's
        # cross map, so the pass builds the source's tile first, then its
        # own, whose rows the all-one mask applies.
        sides = [(source, 3)] + ([] if tau == 1.0 else [(own[0], 4)])
        assert [lo for _, lo, _ in applied[tau]] == [0] * len(sides)
        for (feats, lo, rows), (latent, t) in zip(applied[tau], sides):
            # The pass builds the source's rows from the block input it
            # rebuilds from the recorded latent, and its own rows from the
            # block input it holds, which its own latent rebuilds.
            assert feats.tobytes() == _block_input(latent, t, sched.T, weights).tobytes()
            want = source_map if latent is source else own_map
            assert np.array_equal(rows, want[:, :, lo:lo + rows.shape[2]])
    assert not np.array_equal(own_map, source_map)
    print("criterion 6 pass: tau=1.0 gives the all-zero mask and applies the "
          "source rows exactly; tau=0.0 gives the all-one mask and applies "
          "the pass's own rows exactly")


def test_criterion_07_oracle_mask_quality():
    cfg = ModelConfig(n=3, h=8, w=8, c=3, d_model=8, heads=2, d_head=4,
                      blocks=1, d_text=16, seed=0)
    weights = make_oracle_denoiser(cfg, {"red": (255, 0, 0),
                                         "black": (0, 0, 0)})
    spec = VideoSpec(n=3, h=8, w=8, size=1, start=(4, 2),
                     offsets=((0, 0), (0, 1), (0, 2)))
    pixels, truth = synth_video(spec, SeededRng(7))
    z0 = pixels_to_latent(pixels, 3)
    prompt = embed_prompt("a red square on black", cfg)
    red_col = prompt.tokens.index("red")
    sched = make_schedule(10, 0.00085, 0.012)
    store = AttentionStore(StoreMeta(T=sched.T, blocks=1))
    invert_video(z0, prompt, sched, weights, record=store.add)

    worst = 1.0
    for t in range(sched.T):
        mask = build_blend_mask(store.query(t, 0), (red_col,), 0.3)
        got = mask.reshape(3, 8, 8)
        for i in range(3):
            inter = float(np.logical_and(got[i], truth[i]).sum())
            union = float(np.logical_or(got[i], truth[i]).sum())
            worst = min(worst, inter / union)
    assert worst >= 0.9
    print(f"criterion 7 pass: mask IoU vs ground truth >= {worst:.3f} "
          f"on every frame at every step")


def test_criterion_08_middle_frame_invariance():
    rng = np.random.default_rng(88)
    heads, d_head = 2, 4
    d = heads * d_head
    worst = 0.0
    for draw in range(100):
        n = int(rng.integers(1, 6))
        hw = int(rng.integers(2, 10))
        g = lambda r, c: rng.standard_normal((r, c)) / np.sqrt(r)
        block = BlockWeights(wq_s=g(d, d), wk_s=g(d, d), wv_s=g(d, d),
                             wq_c=g(d, d), wk_c=g(d, d), wv_c=g(d, d),
                             w_mlp_in=g(d, 2 * d), w_mlp_out=g(2 * d, d))
        feats = rng.standard_normal((n, hw, d))
        [out], _ = spatiotemporal_attend((feats,), block, heads, d_head)
        mid = n // 2
        q = _split_heads(feats[mid:mid + 1] @ block.wq_s, heads, d_head)
        k = _split_heads(feats[mid:mid + 1] @ block.wk_s, heads, d_head)
        v = _split_heads(feats[mid:mid + 1] @ block.wv_s, heads, d_head)
        plain = _attention_map(q, k, d_head) @ v
        worst = max(worst, float(np.max(np.abs(out[mid] -
                                               _merge_heads(plain)[0]))))
    assert worst <= 1e-9
    print(f"criterion 8 pass: middle-frame output deviates from plain "
          f"self-attention by at most {worst:.3e} over 100 draws")


def test_criterion_09_shape_contracts_full_run(capture_maps, assert_map_rows,
                                              store_maps, recorded_inversion,
                                              branch_replay):
    cfg = ModelConfig(n=2, h=6, w=6, c=1, d_model=8, heads=2, d_head=4,
                      blocks=2, d_text=8, seed=9)
    weights = make_denoiser_weights(cfg)
    src_emb = embed_prompt("a red square", cfg)
    edit_emb = embed_prompt("a big blue square, 8k", cfg)
    sched = make_schedule(5, 0.002, 0.02)
    hw = cfg.h * cfg.w
    z0 = SeededRng(90).standard_normal((2, 1, 6, 6)) * 0.4
    trajectory, store = recorded_inversion(z0, src_emb, sched, weights)

    checked = 0
    source_maps = store_maps(store, weights)
    for key, attn in source_maps.items():
        cols = 2 * hw if key.kind == KIND_SELF else len(src_emb.tokens)
        assert attn.shape == (cfg.n, cfg.heads, hw, cols)
        assert_map_rows(key.kind, attn)
        checked += 1
    assert checked == 2 * sched.T * cfg.blocks

    align = align_prompts(src_emb.tokens, edit_emb.tokens)
    ecfg = preset("shape")
    plan = FusionPlan(ecfg, align, trajectory, src_emb, cfg.blocks)
    z = trajectory[-1]
    for t in range(sched.T, 0, -1):
        # The edit branch, then the unconditional branch, which runs the
        # source prompt under the same masks, as run_denoise has them.
        replay = plan.step(t, guided=True)
        eps = []
        for branch, prompt in enumerate((edit_emb, src_emb)):
            record, recs = capture_maps(weights, sched.T)
            eps += denoiser_forward(z, t, (prompt,), weights, sched.T,
                                    replay=branch_replay(replay, branch), record=record)
            for rec in recs:
                attn = rec.attn
                if rec.kind == KIND_SELF and plan.action(t, KIND_SELF) == BLEND:
                    # The rows the pass applied: its own where the mask is
                    # set, the source's of inversion step t-1 elsewhere.
                    mask = plan.self_mask(t, rec.layer)[:, None, :, None]
                    attn = np.where(mask, attn, source_maps[(t - 1, rec.layer, KIND_SELF)])
                cols = 2 * hw if rec.kind == KIND_SELF else len(prompt.tokens)
                assert attn.shape == (cfg.n, cfg.heads, hw, cols)
                assert_map_rows(rec.kind, attn)
                checked += 1
        z = ddim_step(z, cfg_combine(eps[1], eps[0], ecfg.s_cfg), t, sched)
    assert checked == 2 * sched.T * cfg.blocks * 3
    print(f"criterion 9 pass: {checked} attention maps carry contract "
          f"shapes; cross rows and normalized self rows sum to 1 within 1e-9, "
          f"self rows peak at exactly 1")


ACCEPT_CONFIG = """\
[model]
frames = 3
height = 12
width = 12
channels = 1
d_model = 8
heads = 2
d_head = 4
blocks = 1
d_text = 8
seed = 11

[schedule]
steps = 4

[edit]
preset = shape
source_prompt = a red square drifting right
edit_prompt = a blue square drifting right

[video]
start_row = 6
start_col = 5
object_size = 2
"""


def test_criterion_10_edit_determinism(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(ACCEPT_CONFIG)
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(["edit", "--config", str(config), "--out", str(first)]) == 0
    assert run(["edit", "--config", str(config), "--out", str(second)]) == 0

    files_a = {p.relative_to(first) for p in first.rglob("*") if p.is_file()}
    files_b = {p.relative_to(second) for p in second.rglob("*") if p.is_file()}
    assert files_a == files_b and files_a
    for rel in sorted(files_a):
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
    kinds = {rel.parts[0] for rel in files_a}
    assert {"frames", "masks", "heatmaps", "metrics.json"} <= kinds
    json.loads((first / "metrics.json").read_text())  # well-formed
    print(f"criterion 10 pass: two edit runs produced byte-identical "
          f"output trees ({len(files_a)} files)")


# The worst frame of the no-op edits below measures 30.14 dB.  Under an
# empty unconditional prompt the same edits score 6.2-13.6 dB, so the
# floor tells the two apart.
NOOP_PSNR_FLOOR_DB = 29.0


def test_criterion_11_noop_edit_keeps_to_inversion():
    # Edit prompt = source prompt: the unconditional branch would run the
    # source prompt under the same replay as the conditional one, so
    # guidance adds nothing and each preset's edit at 7.5 writes the
    # frames it writes at guidance 1.
    worst = []
    for seed in range(6):
        cfg = ModelConfig(n=3, h=8, w=8, c=1, d_model=16, heads=2, d_head=8,
                          blocks=2, d_text=16, seed=seed)
        weights = make_denoiser_weights(cfg)
        spec = VideoSpec(n=3, h=8, w=8, size=2, start=(4, 3),
                         offsets=((0, 0), (0, 1), (0, 2)))
        pixels, _ = synth_video(spec, SeededRng(derived_seed(seed, "video")))
        z0 = pixels_to_latent(pixels, cfg.c)
        prompt = embed_prompt(SWEEP_PROMPT, cfg)
        sched = make_schedule(10, 0.00085, 0.012)
        trajectory = invert_video(z0, prompt, sched, weights)
        align = align_prompts(prompt.tokens, prompt.tokens)
        for mode in MODES:
            frames = [quantize(latent_to_pixels(run_denoise(
                trajectory[-1], prompt, sched, weights, s_cfg,
                FusionPlan(preset(mode), align, trajectory, prompt, cfg.blocks)), cfg.c))
                for s_cfg in (preset(mode).s_cfg, 1.0)]
            assert frames[0].tobytes() == frames[1].tobytes(), (seed, mode)
            report = compute_metrics(latent_to_pixels(z0, cfg.c), frames[0].astype(np.float64))
            worst.append(min(report.psnr))
    assert min(worst) > NOOP_PSNR_FLOOR_DB
    print(f"criterion 11 pass: no-op edits at guidance 7.5 equal guidance 1 byte for "
          f"byte; worst frame {min(worst):.2f} dB over {len(MODES)} presets x 6 seeds")
