"""The replay rebuilds later blocks' source inputs from block 0's latent.

An edit's store keeps, for each step it replays, block 0's latent and
cross maps, and no later block's input.  On the way up the pass
rebuilds each of those inputs from the source rows it builds anyway:
the source's own output, its cross map times the source prompt's
values, and the MLP.  These tests hold the rebuilt inputs to the ones a
full-store inversion records, byte for byte, and the rebuild to the
tiles it may add.
"""

import numpy as np
import pytest

from attnfuse import model
from attnfuse.fusion import BLEND, EditConfig, FusionPlan, align_prompts
from attnfuse.model import (KIND_SELF, ModelConfig, SelfTiles, _tile_bounds,
                            denoiser_forward, embed_prompt, make_denoiser_weights)
from attnfuse.numerics import SeededRng
from attnfuse.pipeline import invert_video, run_denoise, store_meta
from attnfuse.schedule import make_schedule
from attnfuse.store import AttentionKey


def _edit(blocks, h, w, tau):
    """(weights, sched, edit prompt, z_T, plan, full store): a recording
    plan filled by inverting a clip under a source prompt, and a
    full-store inversion of the same clip.  The edit substitutes a word,
    so its prompt's values differ from the source's."""
    cfg = ModelConfig(n=3, h=h, w=w, c=1, d_model=8, heads=2, d_head=4,
                      blocks=blocks, d_text=8, seed=blocks)
    weights = make_denoiser_weights(cfg)
    src = embed_prompt("a red square drifting right", cfg)
    edit = embed_prompt("a blue square drifting right", cfg)
    sched = make_schedule(6, 0.02, 0.2)
    z0 = SeededRng(31).standard_normal((cfg.n, cfg.c, h, w)) * 0.5
    # Every step blends; steps 1 and 2 lie outside the cross window.
    plan = FusionPlan.recording(EditConfig(t_s=0.0, t_c=0.5, tau=tau, s_cfg=1.0),
                                align_prompts(src.tokens, edit.tokens),
                                store_meta(sched, cfg), src)
    z_T, _ = invert_video(z0, src, sched, weights, plan.store)
    full_T, full = invert_video(z0, src, sched, weights)
    assert z_T.tobytes() == full_T.tobytes()
    return weights, sched, edit, z_T, plan, full


@pytest.mark.parametrize("blocks,h,w", [(2, 5, 13), (3, 8, 12)])
@pytest.mark.parametrize("tau", [1.0, 0.7, 0.5])
def test_the_rebuilt_source_inputs_are_the_recorded_ones(blocks, h, w, tau):
    # 5x13 pixels end in a 1-row tail tile, 8x12 in a 32-row one.  At
    # tau 1.0 every mask is clear.  At 0.7 the masks are partial; at 0.5
    # most set every row, and of the 3-block model's, block 1's alone
    # clears some, so the pass carries the source to block 1 and no
    # further.
    weights, sched, edit, z_T, plan, full = _edit(blocks, h, w, tau)
    assert not any(key.kind == KIND_SELF and key.layer for key in plan.store.keys())
    seen = {}
    step_probe = plan.step_probe

    def watching(t):
        probe = step_probe(t)

        def watch(site):
            if site.kind == KIND_SELF and site.layer:
                seen[(t, site.layer)] = site.source
            return probe(site)

        return watch

    plan.step_probe = watching
    run_denoise(z_T, edit, sched, weights, 1.0, plan)
    rebuilt = 0
    for t in range(1, sched.T + 1):
        assert plan.action(t, KIND_SELF) == BLEND
        for layer in range(1, blocks):
            # The pass carries the source up while a block at or above
            # this one clears a row of its mask.
            wanted = any(not plan.self_mask(t, above).all()
                         for above in range(layer, blocks))
            source = seen[(t, layer)]
            assert (source is not None) == wanted, (t, layer)
            if wanted:
                assert source.tobytes() == full.self_record(t - 1, layer).tobytes(), (t, layer)
                rebuilt += 1
    assert rebuilt > 0
    if tau == 1.0:
        assert rebuilt == sched.T * (blocks - 1)


def test_an_edit_store_keeps_latents_and_the_cross_maps_below_the_last_block():
    # Outside the cross window a step reads its latent and the cross maps
    # of every block but the last; inside it, every block's cross map.
    _, sched, _, _, plan, _ = _edit(3, 5, 13, tau=1.0)
    keys = set(plan.store.keys())
    for t in range(1, sched.T + 1):
        crosses = {key.layer for key in keys if key.kind != KIND_SELF and key.t == t - 1}
        assert AttentionKey(t - 1, 0, KIND_SELF) in keys
        assert crosses == ({0, 1, 2} if t >= plan.first_cross else {0, 1})
    assert plan.first_cross == 3


def _spy_builds(monkeypatch):
    """[(block, side, lo)]: each self tile built from now on, "own" or
    "source", in the order the pass builds them."""
    built, current = [], {}
    attend, rows = model.spatiotemporal_attend, SelfTiles.rows

    def spy_attend(feats, *args, **kwargs):
        current["feats"] = feats
        current["block"] = current.get("block", -1) + 1
        return attend(feats, *args, **kwargs)

    def spy_rows(tiles, lo, hi):
        side = "own" if tiles.feats is current["feats"] else "source"
        built.append((current["block"], side, lo))
        return rows(tiles, lo, hi)

    monkeypatch.setattr(model, "spatiotemporal_attend", spy_attend)
    monkeypatch.setattr(SelfTiles, "rows", spy_rows)
    return built, current


def test_an_all_clear_replay_builds_each_tile_once_per_block(monkeypatch):
    weights, sched, edit, z_T, plan, _ = _edit(2, 5, 13, tau=1.0)
    built, current = _spy_builds(monkeypatch)
    numerators = []
    softmax = model.softmax_numerators
    monkeypatch.setattr(model, "softmax_numerators",
                        lambda x, out=None: numerators.append(x.shape) or softmax(x, out=out))
    for t in (sched.T, 1):  # inside and outside the cross window
        built.clear()
        numerators.clear()
        current.clear()
        denoiser_forward(z_T, t, edit, weights, sched.T, probe=plan.step_probe(t))
        lows = [lo for lo, _ in _tile_bounds(5 * 13)]
        assert built == [(block, "source", lo) for block in (0, 1) for lo in lows]
        assert len(numerators) == 2 * len(lows)


# 2 frames of 12x12 pixels: tiles of query rows (0, 64), (64, 128), (128, 144).
# MIXED sets every row of the first tile, clears the second, and sets
# rows 128-135 of the third in frame 0 only.
HW = 144
MIXED = np.zeros((2, HW), dtype=bool)
MIXED[:, :64] = True
MIXED[0, 128:136] = True
SET, CLEAR = np.ones((2, HW), dtype=bool), np.zeros((2, HW), dtype=bool)


@pytest.mark.parametrize("masks", [(MIXED, SET), (MIXED, MIXED), (SET, CLEAR), (SET, SET)],
                         ids=["mixed-set", "mixed-mixed", "set-clear", "set-set"])
def test_a_partial_mask_adds_only_the_set_tiles_below_a_clearing_block(monkeypatch, masks):
    # As before this rebuild, a block builds its own rows for the tiles
    # its mask sets a row of, and the source's for the tiles it clears a
    # row of.  The rebuild adds the source rows of block 0's tiles that
    # its mask sets entirely, and only when block 1 clears a row.
    cfg = ModelConfig(n=2, h=12, w=12, c=1, d_model=8, heads=2, d_head=4,
                      blocks=2, d_text=8, seed=5)
    weights = make_denoiser_weights(cfg)
    src = embed_prompt("a red square", cfg)
    edit = embed_prompt("a blue square", cfg)
    sched = make_schedule(4, 0.02, 0.2)
    z0 = SeededRng(8).standard_normal((2, 1, 12, 12)) * 0.5
    plan = FusionPlan.recording(EditConfig(t_s=0.0, t_c=1.0, tau=0.5, s_cfg=1.0),
                                align_prompts(src.tokens, edit.tokens),
                                store_meta(sched, cfg), src)
    z_T, _ = invert_video(z0, src, sched, weights, plan.store)
    monkeypatch.setattr(plan, "self_mask", lambda t, layer: masks[layer])
    built, _ = _spy_builds(monkeypatch)
    denoiser_forward(z_T, 2, edit, weights, sched.T, probe=plan.step_probe(2))
    carry = not masks[1].all()
    want = []
    for block, mask in enumerate(masks):
        for lo, hi in _tile_bounds(HW):
            tile = mask[:, lo:hi]
            if tile.any():
                want.append((block, "own", lo))
            if not tile.all() or (carry and block == 0):
                want.append((block, "source", lo))
    assert built == want
