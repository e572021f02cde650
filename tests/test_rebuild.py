"""The replay rebuilds the source's later block inputs, cross maps and masks.

An edit keeps inversion's latent trajectory alone: no later block's
input, no cross map and no mask.  On the way up the pass rebuilds each
of them from the source rows it builds: the source's own output, its
cross map from that sum under the source prompt's keys, the blend mask
that thresholds that map, the map times the source prompt's values,
and the MLP.  These tests hold the rebuilt inputs, cross maps and masks
to the ones a recorded inversion gives, byte for byte, and the rebuild
to the tiles it builds.
"""

import numpy as np
import pytest

from attnfuse import model, pipeline
from attnfuse.errors import MissingRecordError
from attnfuse.fusion import (BLEND, FUSE, KEEP, TAKE_SOURCE, EditConfig, FusionPlan,
                             align_prompts, build_blend_mask)
from attnfuse.model import (KIND_CROSS, KIND_SELF, ModelConfig, SelfTiles, _tile_bounds,
                            denoiser_forward, embed_prompt, make_denoiser_weights)
from attnfuse.numerics import SeededRng
from attnfuse.pipeline import invert_video, run_denoise
from attnfuse.schedule import make_schedule
from attnfuse.store import AttentionStore, StoreMeta

SOURCE_TEXT = "a red square drifting right"


def _edit(blocks, h, w, tau, t_s=0.0, t_c=0.5, edit_text="a blue square drifting right"):
    """(weights, sched, edit prompt, z_T, plan, full store): a plan over the
    trajectory of a clip inverted under a source prompt, and the whole
    store that inversion records.  By default every step blends, steps 1
    and 2 lie outside the cross window, and the edit substitutes a word,
    so its prompt's keys and values differ from the source's."""
    cfg = ModelConfig(n=3, h=h, w=w, c=1, d_model=8, heads=2, d_head=4,
                      blocks=blocks, d_text=8, seed=blocks)
    weights = make_denoiser_weights(cfg)
    src = embed_prompt(SOURCE_TEXT, cfg)
    edit = embed_prompt(edit_text, cfg)
    sched = make_schedule(6, 0.02, 0.2)
    z0 = SeededRng(31).standard_normal((cfg.n, cfg.c, h, w)) * 0.5
    full = AttentionStore(StoreMeta(T=sched.T, blocks=blocks))
    trajectory = invert_video(z0, src, sched, weights, record=full.add)
    assert trajectory.tobytes() == invert_video(z0, src, sched, weights).tobytes()
    plan = FusionPlan(EditConfig(t_s=t_s, t_c=t_c, tau=tau, s_cfg=1.0),
                      align_prompts(src.tokens, edit.tokens), trajectory, src, blocks)
    return weights, sched, edit, trajectory[-1], plan, full


def _watch_sources(monkeypatch):
    """({(t, layer): the source's block input}, {(t, layer): the source's
    cross map}): what each block of the passes `run_denoise` makes from
    now on replays, and rebuilds where it carries the source."""
    inputs, maps, at = {}, {}, {}
    forward, attend, cross = (pipeline.denoiser_forward, model.spatiotemporal_attend,
                              model._source_cross)

    def spy_forward(z, t, *args, **kwargs):
        at.update(t=t, layer=-1)
        return forward(z, t, *args, **kwargs)

    def spy_attend(feats, block, heads, d_head, edit=None, source=None, carry=False):
        at["layer"] += 1
        inputs[(at["t"], at["layer"])] = source
        return attend(feats, block, heads, d_head, edit, source, carry)

    def spy_cross(*args):
        summed, source_map = cross(*args)
        maps[(at["t"], at["layer"])] = source_map
        return summed, source_map

    monkeypatch.setattr(pipeline, "denoiser_forward", spy_forward)
    monkeypatch.setattr(model, "spatiotemporal_attend", spy_attend)
    monkeypatch.setattr(model, "_source_cross", spy_cross)
    return inputs, maps


@pytest.mark.parametrize("blocks,h,w", [(2, 5, 13), (3, 8, 12)])
@pytest.mark.parametrize("tau", [1.0, 0.7, 0.5])
def test_the_rebuilt_source_inputs_are_the_recorded_ones(blocks, h, w, tau, monkeypatch):
    # 5x13 pixels end in a 1-row tail tile, 8x12 in a 32-row one.  At
    # tau 1.0 every mask is clear; at 0.7 and 0.5 the masks threshold the
    # source's cross maps, and some set every row of a block.  Every step
    # blends, so below the last block every replay carries the source up.
    weights, sched, edit, z_T, plan, full = _edit(blocks, h, w, tau)
    seen, _ = _watch_sources(monkeypatch)
    run_denoise(z_T, edit, sched, weights, 1.0, plan)
    for t in range(1, sched.T + 1):
        assert plan.action(t, KIND_SELF) == BLEND
        for layer in range(1, blocks):
            source = seen[(t, layer)]
            assert source.tobytes() == full.self_record(t - 1, layer).tobytes(), (t, layer)
    if tau < 1.0:
        masks = [plan.self_mask(t, layer) for t in range(1, sched.T + 1)
                 for layer in range(blocks)]
        assert any(0 < mask.sum() < mask.size for mask in masks)


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("edit_text,action", [
    ("a blue square drifting right", FUSE), (SOURCE_TEXT, TAKE_SOURCE)],
    ids=["fuse", "take_source"])
@pytest.mark.parametrize("t_s,t_c,tau", [(0.0, 0.5, 0.7), (0.5, 0.0, 1.0)],
                         ids=["blend-below-cross", "cross-below-blend"])
def test_the_rebuilt_cross_maps_are_the_recorded_ones(blocks, edit_text, action, t_s,
                                                      t_c, tau, monkeypatch):
    # At every step of the cross window each block rebuilds the source's
    # cross map from the source the pass carried up under the source
    # prompt's keys; the replay fuses or takes that map.  With t_c < t_s
    # the first steps lie in the cross window alone, where the replay
    # keeps every self row the pass's own and still carries.
    weights, sched, edit, z_T, plan, full = _edit(blocks, 5, 13, tau, t_s, t_c, edit_text)
    _, seen = _watch_sources(monkeypatch)
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


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("t_s,t_c", [(0.3, 0.7), (0.5, 0.5), (0.7, 0.3)],
                         ids=["blend-below-cross", "same-windows", "cross-below-blend"])
@pytest.mark.parametrize("tau", [0.3, 0.6])
def test_the_masks_are_those_of_the_recorded_cross_maps(blocks, t_s, t_c, tau):
    # Each blend step's mask at each block thresholds the source's cross
    # map that the pass rebuilt; the recorded map gives the same mask, bit
    # for bit.  A mask exists once the pass has reached its step.
    weights, sched, edit, z_T, plan, full = _edit(blocks, 5, 13, tau, t_s, t_c)
    blended = [t for t in range(1, sched.T + 1) if plan.action(t, KIND_SELF) == BLEND]
    assert len(blended) >= 2
    for layer in range(blocks):
        with pytest.raises(MissingRecordError,
                           match=f"step {plan.first_self}, block {layer}"):
            plan.self_mask(plan.first_self, layer)
    run_denoise(z_T, edit, sched, weights, 1.0, plan)
    masks = []
    for t in blended:
        for layer in range(blocks):
            masks.append(plan.self_mask(t, layer))
            want = build_blend_mask(full.query(t - 1, layer), plan.positions, tau)
            assert masks[-1].tobytes() == want.tobytes(), (t, layer)
            assert not masks[-1].flags.writeable
    # At tau 0.3 most masks set every row; at 0.6 some clear a few.
    assert all(mask.any() for mask in masks)
    assert tau == 0.3 or any(0 < mask.sum() < mask.size for mask in masks)


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
        side = "own" if any(tiles.feats is f for f in current["feats"]) else "source"
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
        denoiser_forward(z_T, t, (edit,), weights, sched.T, replay=plan.step(t))
        lows = [lo for lo, _ in _tile_bounds(5 * 13)]
        assert built == [(block, "source", lo) for block in (0, 1) for lo in lows]
        assert len(numerators) == 2 * len(lows)


def test_a_guided_step_builds_each_self_tile_once_per_block(monkeypatch):
    # Both guidance branches replay the source's rows, so under an
    # all-clear mask the lockstep pass builds each source tile once per
    # block for the two of them.  Without a replay, block 0's own tiles
    # serve both branches, which no prompt reaches before its cross-
    # attention, and each block above builds one set per branch.
    weights, sched, edit, z_T, plan, _ = _edit(2, 5, 13, tau=1.0, t_s=0.5)
    built, current = _spy_builds(monkeypatch)
    lows = [lo for lo, _ in _tile_bounds(5 * 13)]
    for t, want in ((sched.T, [(block, "source", lo) for block in (0, 1) for lo in lows]),
                    (1, [(0, "own", lo) for lo in lows] + [(1, "own", lo) for lo in lows] * 2)):
        built.clear()
        current.clear()
        replay = plan.step(t, guided=True)
        assert (replay is None) == (t == 1)
        denoiser_forward(z_T, t, (edit, plan.prompt), weights, sched.T, replay=replay)
        assert built == want


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
    # A partial mask thresholds the source's cross map of its block, so on
    # its step every block builds each source tile once, first, and then
    # adds its own rows only for the tiles its mask sets a row of, also
    # outside the cross window and at the last block.
    import attnfuse.fusion as fusion
    cfg = ModelConfig(n=2, h=12, w=12, c=1, d_model=8, heads=2, d_head=4,
                      blocks=2, d_text=8, seed=5)
    weights = make_denoiser_weights(cfg)
    src = embed_prompt("a red square", cfg)
    edit = embed_prompt("a blue square", cfg)
    sched = make_schedule(4, 0.02, 0.2)
    z0 = SeededRng(8).standard_normal((2, 1, 12, 12)) * 0.5
    trajectory = invert_video(z0, src, sched, weights)
    plan = FusionPlan(EditConfig(t_s=0.0, t_c=1.0, tau=0.5, s_cfg=1.0),
                      align_prompts(src.tokens, edit.tokens), trajectory, src, 2)
    assert plan.action(2, KIND_CROSS) == KEEP
    given = iter(masks)
    monkeypatch.setattr(fusion, "build_blend_mask", lambda *args: next(given))
    built, _ = _spy_builds(monkeypatch)
    denoiser_forward(trajectory[-1], 2, (edit,), weights, sched.T, replay=plan.step(2))
    want = []
    for block, mask in enumerate(masks):
        bounds = _tile_bounds(HW)
        want += [(block, "source", lo) for lo, _ in bounds]
        want += [(block, "own", lo) for lo, hi in bounds if mask[:, lo:hi].any()]
    assert built == want
    assert [plan.self_mask(2, block) is mask for block, mask in enumerate(masks)] == [True] * 2
