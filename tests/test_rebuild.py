"""The replay rebuilds the source's later block inputs and cross maps.

An edit's store keeps one record for each step it replays, block 0's
latent, and no later block's input and no cross map but those a blend
mask thresholds.  On the way up the pass rebuilds each of them from the
source rows it builds: the source's own output, its cross map from that
sum under the source prompt's keys, the map times the source prompt's
values, and the MLP.  These tests hold the rebuilt inputs and cross
maps to the ones a full-store inversion records, byte for byte, and
the rebuild to the tiles it may add.
"""

import numpy as np
import pytest

from attnfuse import model
from attnfuse.fusion import (BLEND, FUSE, KEEP, TAKE_SOURCE, EditConfig, FusionPlan,
                             align_prompts)
from attnfuse.model import (KIND_CROSS, KIND_SELF, ModelConfig, SelfTiles, _tile_bounds,
                            denoiser_forward, embed_prompt, make_denoiser_weights)
from attnfuse.numerics import SeededRng
from attnfuse.pipeline import invert_video, run_denoise, store_meta
from attnfuse.schedule import make_schedule
from attnfuse.store import AttentionKey

SOURCE_TEXT = "a red square drifting right"


def _edit(blocks, h, w, tau, t_s=0.0, t_c=0.5, edit_text="a blue square drifting right"):
    """(weights, sched, edit prompt, z_T, plan, full store): a recording
    plan filled by inverting a clip under a source prompt, and a
    full-store inversion of the same clip.  By default every step blends,
    steps 1 and 2 lie outside the cross window, and the edit substitutes
    a word, so its prompt's keys and values differ from the source's."""
    cfg = ModelConfig(n=3, h=h, w=w, c=1, d_model=8, heads=2, d_head=4,
                      blocks=blocks, d_text=8, seed=blocks)
    weights = make_denoiser_weights(cfg)
    src = embed_prompt(SOURCE_TEXT, cfg)
    edit = embed_prompt(edit_text, cfg)
    sched = make_schedule(6, 0.02, 0.2)
    z0 = SeededRng(31).standard_normal((cfg.n, cfg.c, h, w)) * 0.5
    plan = FusionPlan.recording(EditConfig(t_s=t_s, t_c=t_c, tau=tau, s_cfg=1.0),
                                align_prompts(src.tokens, edit.tokens),
                                store_meta(sched, cfg), src)
    z_T, _ = invert_video(z0, src, sched, weights, plan.store)
    full_T, full = invert_video(z0, src, sched, weights)
    assert z_T.tobytes() == full_T.tobytes()
    return weights, sched, edit, z_T, plan, full


def _watch_sources(plan, kind):
    """{(t, layer): the `source` of each *kind* site} of the replays from now on."""
    seen = {}
    step_probe = plan.step_probe

    def watching(t):
        probe = step_probe(t)

        def watch(site):
            if site.kind == kind:
                seen[(t, site.layer)] = site.source
            return probe(site) if probe is not None else None

        return watch

    plan.step_probe = watching
    return seen


@pytest.mark.parametrize("blocks,h,w", [(2, 5, 13), (3, 8, 12)])
@pytest.mark.parametrize("tau", [1.0, 0.7, 0.5])
def test_the_rebuilt_source_inputs_are_the_recorded_ones(blocks, h, w, tau):
    # 5x13 pixels end in a 1-row tail tile, 8x12 in a 32-row one.  At
    # tau 1.0 every mask is clear.  At 0.7 the masks are partial; at 0.5
    # most set every row, and of the 3-block model's, block 1's alone
    # clears some, so outside the cross window the pass carries the
    # source to block 1 and no further.
    weights, sched, edit, z_T, plan, full = _edit(blocks, h, w, tau)
    assert not any(key.kind == KIND_SELF and key.layer for key in plan.store.keys())
    seen = _watch_sources(plan, KIND_SELF)
    run_denoise(z_T, edit, sched, weights, 1.0, plan)
    rebuilt = 0
    for t in range(1, sched.T + 1):
        assert plan.action(t, KIND_SELF) == BLEND
        for layer in range(1, blocks):
            # The pass carries the source through every block in the cross
            # window; outside it, while a block at or above this one clears
            # a row of its mask.
            wanted = plan.action(t, KIND_CROSS) != KEEP or any(
                not plan.self_mask(t, above).all() for above in range(layer, blocks))
            source = seen[(t, layer)]
            assert (source is not None) == wanted, (t, layer)
            if wanted:
                assert source.tobytes() == full.self_record(t - 1, layer).tobytes(), (t, layer)
                rebuilt += 1
    assert rebuilt > 0
    if tau == 1.0:
        assert rebuilt == sched.T * (blocks - 1)


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("edit_text,action", [
    ("a blue square drifting right", FUSE), (SOURCE_TEXT, TAKE_SOURCE)],
    ids=["fuse", "take_source"])
@pytest.mark.parametrize("t_s,t_c,tau", [(0.0, 0.5, 0.7), (0.5, 0.0, 1.0)],
                         ids=["blend-below-cross", "cross-below-blend"])
def test_the_rebuilt_cross_maps_are_the_recorded_ones(blocks, edit_text, action, t_s,
                                                      t_c, tau):
    # At every step of the cross window each block's cross site carries
    # the source's cross map, rebuilt from the source the pass carried up
    # under the source prompt's keys; the plan fuses or takes that map.
    # With t_c < t_s the first steps lie in the cross window alone, where
    # the answer keeps every self row the pass's own and still carries.
    weights, sched, edit, z_T, plan, full = _edit(blocks, 5, 13, tau, t_s, t_c, edit_text)
    seen = _watch_sources(plan, KIND_CROSS)
    run_denoise(z_T, edit, sched, weights, 1.0, plan)
    inside = [t for t in range(1, sched.T + 1) if plan.action(t, KIND_CROSS) != KEEP]
    assert len(inside) >= 3 and {plan.action(t, KIND_CROSS) for t in inside} == {action}
    for t in inside:
        for layer in range(blocks):
            source = seen[(t, layer)]
            assert source is not None and not source.flags.writeable, (t, layer)
            assert source.tobytes() == full.query(t - 1, layer).tobytes(), (t, layer)
    if t_c < t_s:
        assert any(plan.action(t, KIND_SELF) == KEEP for t in inside)


def test_an_edit_store_keeps_one_latent_per_replayed_step():
    # A replayed step keeps its latent alone; a blend mask adds the cross
    # maps it thresholds, every block's of the steps it blends.  Only the
    # heatmaps' cross map comes beside them.
    heatmap = AttentionKey(0, 0, KIND_CROSS)
    _, sched, _, _, plan, _ = _edit(3, 5, 13, tau=1.0)
    latents = {AttentionKey(t - 1, 0, KIND_SELF) for t in range(1, sched.T + 1)}
    assert plan.first_cross == 3
    assert set(plan.store.keys()) == plan.reads() == latents | {heatmap}
    _, _, _, _, plan, _ = _edit(3, 5, 13, tau=0.5, t_s=0.5)
    assert (plan.first_self, plan._blends) == (3, True)
    blended = {AttentionKey(t - 1, layer, KIND_CROSS) for t in range(3, sched.T + 1)
               for layer in range(3)}
    latents = {key for key in latents if key.t >= 2}
    assert set(plan.store.keys()) == plan.reads() == latents | blended | {heatmap}
    _, _, _, _, plan, _ = _edit(3, 5, 13, tau=0.5, t_s=0.7, t_c=0.2)
    assert (plan.first_self, plan.first_cross) == (5, 2)
    latents = {AttentionKey(t - 1, 0, KIND_SELF) for t in range(2, sched.T + 1)}
    blended = {key for key in blended if key.t >= 4}
    assert set(plan.store.keys()) == plan.reads() == latents | blended | {heatmap}


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
