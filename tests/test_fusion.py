"""Prompt alignment, attention fusion, and blend-mask construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnfuse.errors import ContractViolation, MissingRecordError
from attnfuse.fusion import (BLEND, FUSE, KEEP, TAKE_SOURCE, EditConfig,
                             FusionPlan, PromptAlignment, align_prompts,
                             build_blend_mask, fuse_cross, identity_alignment,
                             preset)
from attnfuse.model import (KIND_CROSS, KIND_SELF, START_TOKEN, BlockWeights,
                            PromptEmbedding, SelfTiles, spatiotemporal_attend, tokenize)


def test_presets_exact():
    for mode in ("style", "attribute", "enhancement"):
        cfg = preset(mode)
        assert (cfg.t_s, cfg.t_c, cfg.tau) == (0.2, 0.3, 1.0)
        assert cfg.s_cfg == 7.5
        assert cfg.mode == mode
    for mode in ("shape", "removal"):
        cfg = preset(mode)
        assert (cfg.t_s, cfg.t_c, cfg.tau) == (0.5, 0.5, 0.3)
        assert cfg.s_cfg == 7.5
    with pytest.raises(ContractViolation):
        preset("sharpen")


def test_edit_config_validation():
    with pytest.raises(ContractViolation):
        EditConfig(t_s=0.2, t_c=0.3, tau=1.5)
    with pytest.raises(ContractViolation):
        EditConfig(t_s=-0.1, t_c=0.3, tau=0.5)
    with pytest.raises(ContractViolation):
        EditConfig(t_s=0.2, t_c=1.1, tau=0.5)
    with pytest.raises(ContractViolation):
        EditConfig(t_s=0.2, t_c=0.3, tau=0.5, s_cfg=-1.0)
    for scale in (math.inf, math.nan):
        with pytest.raises(ContractViolation, match="s_cfg must be finite"):
            EditConfig(t_s=0.2, t_c=0.3, tau=0.5, s_cfg=scale)
    with pytest.raises(ContractViolation):
        EditConfig(t_s=0.2, t_c=0.3, tau=0.5, mode="other")


# The source prompt that the plans below name when a replay carries the
# source.
SOURCE = PromptEmbedding((START_TOKEN, "a", "cat"), np.zeros((3, 4)))


def _trajectory(T, n, hw, seed=3):
    """A read-only trajectory of T + 1 latents: n one-channel frames of 1 x hw pixels."""
    trajectory = np.random.default_rng(seed).standard_normal((T + 1, n, 1, 1, hw))
    trajectory.setflags(write=False)
    return trajectory


def _plan(t_s, t_c, T, tau=0.3, alignment=None, n=2, hw=3, blocks=1):
    align = alignment or align_prompts(("a", "cat"), ("a", "tiger"))
    return FusionPlan(EditConfig(t_s=t_s, t_c=t_c, tau=tau), align, _trajectory(T, n, hw),
                      SOURCE, blocks)


def test_window_boundaries():
    plan = _plan(t_s=0.2, t_c=0.3, T=50)
    assert (plan.first_self, plan.first_cross) == (10, 15)
    assert plan.action(15, KIND_CROSS) == FUSE
    assert plan.action(14, KIND_CROSS) == KEEP
    assert plan.action(10, KIND_SELF) == BLEND
    assert plan.action(9, KIND_SELF) == KEEP
    plan = _plan(t_s=0.0, t_c=1.0, T=50)
    assert plan.action(1, KIND_SELF) == BLEND
    assert plan.action(50, KIND_CROSS) == FUSE
    assert plan.action(49, KIND_CROSS) == KEEP


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 200), st.floats(0.0, 1.0))
def test_plan_rewrites_exactly_the_window_steps(T, frac):
    plan = _plan(t_s=frac, t_c=frac, T=T)
    for t in range(1, T + 1):
        inside = t >= frac * T - 1e-9
        assert plan.action(t, KIND_SELF) in (KEEP, BLEND)
        assert (plan.action(t, KIND_SELF) != KEEP) == inside
        assert (plan.action(t, KIND_CROSS) != KEEP) == inside
        assert (plan.step(t) is not None) == inside


def _record(shape, seed=3):
    """A read-only self record of *shape*: a latent (n, c, h, w) at block 0,
    a block input (n, h*w, d_model) later."""
    record = np.random.default_rng(seed).standard_normal(shape)
    record.setflags(write=False)
    return record


def test_plan_takes_source_whole_when_mask_is_provably_empty():
    # tau = 1, or no source word dropped: the self window blends by one
    # all-clear mask, sized by the self record, so every row is the source's.
    unchanged = align_prompts(("a", "cat"), ("a", "cat", "8k"))
    for plan in (_plan(0.5, 0.5, T=4, tau=1.0),
                 _plan(0.5, 0.5, T=4, alignment=unchanged)):
        assert plan.action(2, KIND_SELF) == BLEND
        mask = plan.self_mask(2, 0)
        assert mask.shape == (2, 3) and not mask.any()
        assert plan.self_mask(3, 0) is mask  # built once per plan
    assert _plan(0.5, 0.5, T=4, tau=0.99).action(2, KIND_SELF) == BLEND


def test_source_step_is_previous_index():
    trajectory = _trajectory(4, 2, 2)
    plan = FusionPlan(preset("style"), identity_alignment(2), trajectory, SOURCE, 1)
    for t in range(1, 5):
        latent = plan.source_latent(t)
        assert latent.base is trajectory and latent.tobytes() == trajectory[t - 1].tobytes()
        assert not latent.flags.writeable
    with pytest.raises(ContractViolation, match=r"\(T\+1, n, c, h, w\) with T >= 1"):
        FusionPlan(preset("style"), identity_alignment(2), trajectory[:1], SOURCE, 1)


def test_align_substitution():
    got = align_prompts(("a", "cat"), ("a", "tiger"))
    assert got.matched == ((0, 0),)
    assert got.edited_positions == (1,)
    assert got.removed_positions == (1,)


def test_align_extension():
    got = align_prompts(tokenize("a cat"), tokenize("a cat, 8k"))
    assert got.matched == ((0, 0), (1, 1))
    assert got.edited_positions == (2, 3)
    assert got.removed_positions == ()


def test_align_identical_prompts():
    toks = tokenize("a red square drifting right")
    got = align_prompts(toks, toks)
    assert got == identity_alignment(len(toks))
    assert got.edited_positions == () and got.removed_positions == ()


def test_align_prefers_earliest_source_on_ties():
    got = align_prompts(("a", "a"), ("a",))
    assert got.matched == ((0, 0),)
    assert got.removed_positions == (1,)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from("abcd"), max_size=8),
       st.lists(st.sampled_from("abcd"), max_size=8))
def test_align_invariants(src, edit):
    got = align_prompts(src, edit)
    for (i1, j1), (i2, j2) in zip(got.matched, got.matched[1:]):
        assert i1 < i2 and j1 < j2
    for i, j in got.matched:
        assert src[i] == edit[j]
    m_src = {i for i, _ in got.matched}
    m_edit = {j for _, j in got.matched}
    assert m_src | set(got.removed_positions) == set(range(len(src)))
    assert m_edit | set(got.edited_positions) == set(range(len(edit)))
    assert not (m_src & set(got.removed_positions))
    assert not (m_edit & set(got.edited_positions))


def test_alignment_validation():
    with pytest.raises(ContractViolation):
        PromptAlignment(matched=((0, 0), (0, 1)), edited_positions=(),
                        removed_positions=())
    with pytest.raises(ContractViolation):
        PromptAlignment(matched=((0, 1), (1, 0)), edited_positions=(),
                        removed_positions=())
    with pytest.raises(ContractViolation):
        PromptAlignment(matched=((0, 0),), edited_positions=(),
                        removed_positions=(0,))


def test_mask_positions_follow_removed_tokens():
    assert _plan(0.5, 0.5, T=4).positions == (1,)  # "cat" -> "tiger"
    assert _plan(0.5, 0.5, T=4, alignment=identity_alignment(3)).positions == ()


SRC_CROSS = np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5], [0.9, 0.1]]
                     ).reshape(1, 1, 4, 2)
EDIT_CROSS = np.array([[0.6, 0.4], [0.1, 0.9], [0.25, 0.75], [0.5, 0.5]]
                      ).reshape(1, 1, 4, 2)


def test_fuse_cross_hand_oracle():
    align = PromptAlignment(matched=((0, 0),), edited_positions=(1,),
                            removed_positions=(1,))
    got = fuse_cross(EDIT_CROSS, SRC_CROSS, align)
    # column 0 from source, column 1 kept, rows renormalized by hand
    want = np.array([
        [0.7 / 1.1, 0.4 / 1.1],
        [0.2 / 1.1, 0.9 / 1.1],
        [0.5 / 1.25, 0.75 / 1.25],
        [0.9 / 1.4, 0.5 / 1.4],
    ]).reshape(1, 1, 4, 2)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(got.sum(axis=-1) - 1.0)) <= 1e-12


def test_plan_keeps_cross_map_outside_window():
    trajectory = _trajectory(4, 1, 4)
    align = PromptAlignment(matched=((0, 0),), edited_positions=(1,),
                            removed_positions=(1,))
    plan = FusionPlan(EditConfig(t_s=0.0, t_c=1.0, tau=0.3), align, trajectory, SOURCE, 1)
    assert plan.step(2).cross == (None,)
    plan = FusionPlan(EditConfig(t_s=1.0, t_c=1.0, tau=0.3), align, trajectory, SOURCE, 1)
    assert plan.step(2) is None
    plan = FusionPlan(EditConfig(t_s=1.0, t_c=0.0, tau=0.3), align, trajectory, SOURCE, 1)
    got = plan.step(2).cross[0](EDIT_CROSS, SRC_CROSS)
    assert np.array_equal(got, fuse_cross(EDIT_CROSS, SRC_CROSS, align))


def test_fuse_cross_partial_is_idempotent():
    src = np.array([[0.5, 0.2, 0.3], [0.1, 0.6, 0.3], [0.25, 0.5, 0.25],
                    [0.4, 0.4, 0.2]]).reshape(1, 1, 4, 3)
    align = PromptAlignment(matched=((0, 0), (2, 1)), edited_positions=(),
                            removed_positions=(1,))
    once = fuse_cross(EDIT_CROSS, src, align)
    twice = fuse_cross(once, src, align)
    assert np.max(np.abs(twice - once)) <= 1e-12
    assert np.max(np.abs(once.sum(axis=-1) - 1.0)) <= 1e-12


def test_fuse_cross_rows_sum_to_one_random():
    rng = np.random.default_rng(9)
    src = rng.random((2, 3, 5, 6)) + 0.05
    src /= src.sum(axis=-1, keepdims=True)
    edit = rng.random((2, 3, 5, 4)) + 0.05
    edit /= edit.sum(axis=-1, keepdims=True)
    align = PromptAlignment(matched=((0, 0), (3, 2)), edited_positions=(1, 3),
                            removed_positions=(1, 2, 4, 5))
    got = fuse_cross(edit, src, align)
    assert got.shape == edit.shape
    assert np.max(np.abs(got.sum(axis=-1) - 1.0)) <= 1e-12
    # renormalization preserves ratios between the replaced columns
    assert np.max(np.abs(got[..., 0] * src[..., 3] -
                         got[..., 2] * src[..., 0])) <= 1e-12


def test_a_cross_rewrite_carries_every_block():
    # The plan keeps no cross map for the cross window: the pass rebuilds
    # the source's at each block the replay carries, and a replay that
    # fuses or takes the source's map carries every block, also the last
    # and on a step outside the self window.
    fusing = PromptAlignment(matched=((0, 0),), edited_positions=(1,),
                             removed_positions=(1,))
    for alignment, action in ((fusing, FUSE), (identity_alignment(2), TAKE_SOURCE)):
        for t_s in (0.0, 1.0):
            plan = FusionPlan(EditConfig(t_s=t_s, t_c=0.0, tau=1.0), alignment,
                              _trajectory(4, 1, 4), SOURCE, 3)
            assert plan.action(2, KIND_CROSS) == action
            replay = plan.step(2)
            assert replay.carry == (True,) * 3 and replay.prompt is SOURCE
            assert (replay.cross[0] is TAKE_SOURCE) == (action == TAKE_SOURCE)
            # The unconditional branch runs the source prompt, whose map
            # it takes whole, under the same masks and carry flags.
            guided = plan.step(2, guided=True)
            assert guided.cross[1:] == (TAKE_SOURCE,) and guided.carry == replay.carry
            assert guided.masks == replay.masks
    # Outside the cross window a blend step carries every block but the last,
    # and both branches keep their own cross maps.
    replay = _plan(0.0, 1.0, T=4, tau=1.0, blocks=3).step(2, guided=True)
    assert replay.carry == (True, True, False) and replay.cross == (None, None)


def test_fuse_cross_column_bounds_checked():
    align = PromptAlignment(matched=((5, 0),), edited_positions=(1,),
                            removed_positions=())
    with pytest.raises(ContractViolation):
        fuse_cross(EDIT_CROSS, SRC_CROSS, align)


MASK_CROSS = np.array([
    # frame 0: column-1 masses 0.8, 0.4, 0.2, 0.1
    [[0.1, 0.8, 0.1], [0.3, 0.4, 0.3], [0.4, 0.2, 0.4], [0.45, 0.1, 0.45]],
    # frame 1: column-1 masses 0.5, 0.25, 0.25, 0.1
    [[0.25, 0.5, 0.25], [0.375, 0.25, 0.375], [0.375, 0.25, 0.375],
     [0.45, 0.1, 0.45]],
])


MASK_CROSS_HEADS = np.repeat(MASK_CROSS[:, None], 2, axis=1)  # two equal heads


def test_blend_mask_hand_oracle():
    got = build_blend_mask(MASK_CROSS_HEADS, word_positions=(1,), tau=0.3)
    # frame 0 normalizes to [1, .5, .25, .125], frame 1 to [1, .5, .5, .2]
    want = np.array([[True, True, False, False],
                     [True, True, True, False]])
    assert np.array_equal(got, want)


def test_blend_mask_threshold_is_strict():
    got = build_blend_mask(MASK_CROSS_HEADS, word_positions=(1,), tau=0.5)
    want = np.array([[True, False, False, False],
                     [True, False, False, False]])
    assert np.array_equal(got, want)


def test_blend_mask_tau_extremes():
    empty = build_blend_mask(MASK_CROSS_HEADS, word_positions=(1,), tau=1.0)
    assert not empty.any()
    full = build_blend_mask(MASK_CROSS_HEADS, word_positions=(1,), tau=0.0)
    assert full.all()


def test_blend_mask_multiple_positions():
    got = build_blend_mask(MASK_CROSS_HEADS, word_positions=(0, 2), tau=0.5)
    # complement masses: frame 0 [.2, .6, .8, .9] -> /0.9; frame 1
    # [.5, .75, .75, .9] -> /0.9; strict > 0.5
    want = np.array([[False, True, True, True],
                     [True, True, True, True]])
    assert np.array_equal(got, want)


def test_blend_mask_position_validation():
    with pytest.raises(ContractViolation):
        build_blend_mask(MASK_CROSS_HEADS, word_positions=(), tau=0.3)
    with pytest.raises(ContractViolation):
        build_blend_mask(MASK_CROSS_HEADS, word_positions=(3,), tau=0.3)
    with pytest.raises(ContractViolation):
        build_blend_mask(MASK_CROSS_HEADS, word_positions=(1, 1), tau=0.3)


def _block(d_model):
    """A block of which only the self weights are read."""
    rng = np.random.default_rng(7)
    return BlockWeights(*(rng.standard_normal((d_model, d_model)) for _ in range(3)),
                        *[None] * 5)


def _attend(feats, heads, edit=None, source=None):
    """The self-attention output on the block input *feats*, whose clear rows
    of *edit* are built from the block input *source*."""
    d_model = feats.shape[-1]
    return spatiotemporal_attend((feats,), _block(d_model), heads, d_model // heads, edit,
                                 source)[0][0]


def _spy_sides(monkeypatch, source):
    """{"edit": [...], "source": [...]}: the (lo, hi) of each tile built from now on."""
    built = {"edit": [], "source": []}
    original = SelfTiles.rows

    def spy(tiles, lo, hi):
        rows = original(tiles, lo, hi)
        built["source" if tiles.feats is source else "edit"].append((lo, hi))
        return rows

    monkeypatch.setattr(SelfTiles, "rows", spy)
    return built


def test_blend_self_checkerboard(monkeypatch):
    edit, source = _record((2, 2, 2)), _record((2, 2, 2), seed=4)
    mask = np.array([[True, False], [False, True]])
    built = _spy_sides(monkeypatch, source)
    got = _attend(edit, 1, mask, source)
    assert built == {"edit": [(0, 2)], "source": [(0, 2)]}  # one mixed tile
    own = _attend(edit, 1)
    from_source = _attend(edit, 1, np.zeros_like(mask), source)
    assert (own != from_source).any(axis=-1).all()  # every row tells the sides apart
    assert np.array_equal(got, np.where(mask[..., None], own, from_source))


def test_blend_self_mask_extremes_are_exact(monkeypatch, whole_map):
    # All clear: every tile is the source's rows, and no own row is built.
    # All set: every tile is the pass's own, as with no mask at all.
    edit, source = _record((2, 2, 2)), _record((2, 2, 2), seed=4)
    block = _block(2)
    applied = []
    original = SelfTiles.rows

    def spy(tiles, lo, hi):
        rows = original(tiles, lo, hi)
        applied.append((tiles.feats, rows.copy()))
        return rows

    monkeypatch.setattr(SelfTiles, "rows", spy)
    _attend(edit, 1, np.zeros((2, 2), dtype=bool), source)
    [(feats, rows)] = applied
    assert feats is source
    assert np.array_equal(rows, whole_map(SelfTiles(source, block.wq_s, block.wk_s, 1)))
    applied.clear()
    got = _attend(edit, 1, np.ones((2, 2), dtype=bool), source)
    [(feats, rows)] = applied
    assert feats is edit
    assert np.array_equal(rows, whole_map(SelfTiles(edit, block.wq_s, block.wk_s, 1)))
    assert np.array_equal(got, _attend(edit, 1))


def test_plan_keeps_self_map_outside_window():
    trajectory = _trajectory(4, 2, 2)
    align = identity_alignment(2)
    plan = FusionPlan(EditConfig(t_s=1.0, t_c=1.0, tau=0.3), align, trajectory, SOURCE, 1)
    assert plan.step(2) is None
    plan = FusionPlan(EditConfig(t_s=0.0, t_c=1.0, tau=0.3), align, trajectory, SOURCE, 1)
    replay = plan.step(2)
    assert replay.source.tobytes() == trajectory[1].tobytes() and replay.t == 1
    assert not replay.masks[0].any() and replay.carry == (False,)
    # Inside the cross window only (t_c < t_s), every row stays the pass's
    # own and the replay carries the source, whose cross map the step takes.
    plan = FusionPlan(EditConfig(t_s=1.0, t_c=0.0, tau=0.3), align, trajectory, SOURCE, 1)
    assert plan.action(2, KIND_SELF) == KEEP and plan.action(2, KIND_CROSS) == TAKE_SOURCE
    replay = plan.step(2)
    assert replay.source.tobytes() == trajectory[1].tobytes() and replay.t == 1
    assert replay.masks[0].shape == (2, 2) and replay.masks[0].all()
    assert replay.carry == (True,) and replay.prompt is SOURCE
    assert replay.cross == (TAKE_SOURCE,)


def test_plan_blends_by_the_mask_of_step_t_minus_1():
    # The mask of step t thresholds the source's cross map that the pass
    # rebuilds from inversion step t-1's latent: the replay gives it as a
    # function of that map, and carries the source so that the pass builds it.
    trajectory = _trajectory(4, 2, 4, seed=4)
    align = align_prompts(("a", "red", "car"), ("a", "blue", "car"))
    plan = FusionPlan(EditConfig(t_s=0.0, t_c=1.0, tau=0.3), align, trajectory, SOURCE, 1)
    with pytest.raises(MissingRecordError, match="step 1, block 0"):
        plan.self_mask(1, 0)
    replay = plan.step(1)
    assert replay.source.tobytes() == trajectory[0].tobytes() and replay.t == 0
    assert replay.carry == (True,) and replay.prompt is SOURCE and replay.cross == (None,)
    mask = replay.masks[0](MASK_CROSS_HEADS)
    assert np.array_equal(mask, build_blend_mask(MASK_CROSS_HEADS, (1,), 0.3))
    assert plan.self_mask(1, 0) is mask and not mask.flags.writeable

    plan = FusionPlan(EditConfig(t_s=0.0, t_c=1.0, tau=1.0), align, trajectory, SOURCE, 1)
    assert plan.self_mask(1, 0).shape == (2, 4)
    assert not plan.self_mask(1, 0).any()
    replay = plan.step(1)
    assert replay.masks[0] is plan.self_mask(1, 0) and replay.carry == (False,)


def test_blend_builds_each_side_only_for_tiles_that_need_it(monkeypatch):
    # 2 frames of 12x12 pixels: tiles of query rows (0, 64), (64, 128), (128, 144).
    # The mask clears every row of the first tile, sets every row of the
    # second, and sets rows 128-135 of the third in frame 0 only.
    hw = 144
    mask = np.zeros((2, hw), dtype=bool)
    mask[:, 64:128] = True
    mask[0, 128:136] = True
    edit, source = _record((2, hw, 4), seed=6), _record((2, hw, 4), seed=5)
    built = _spy_sides(monkeypatch, source)
    got = _attend(edit, 2, mask, source)
    assert built == {"edit": [(64, 128), (128, 144)], "source": [(0, 64), (128, 144)]}
    from_source = _attend(edit, 2, np.zeros_like(mask), source)
    assert np.array_equal(got, np.where(mask[..., None], _attend(edit, 2), from_source))

    # A mask that a function gives from the source output, which needs the
    # source carried, comes after every source tile and before any own one.
    block, order = _block(4), []
    own_out = spatiotemporal_attend((source,), block, 2, 2)[0][0]  # the source's own pass
    monkeypatch.setattr(SelfTiles, "rows", lambda tiles, lo, hi, _rows=SelfTiles.rows: (
        order.append("source" if tiles.feats is source else "edit") or _rows(tiles, lo, hi)))

    def mask_of(source_out):
        order.append("mask")
        assert np.array_equal(source_out, own_out)
        return mask

    [later], source_out = spatiotemporal_attend((edit,), block, 2, 2, mask_of, source, True)
    assert order == ["source"] * 3 + ["mask"] + ["edit"] * 2
    assert np.array_equal(later, got) and np.array_equal(source_out, own_out)


def test_plan_takes_source_before_the_edit_map_is_built():
    # identical prompts: the cross map is taken whole, which the pass
    # applies without building its own, and the all-clear mask takes every
    # self row from the source
    trajectory = _trajectory(4, 1, 4)
    plan = FusionPlan(EditConfig(t_s=0.0, t_c=0.0, tau=1.0),
                      identity_alignment(2), trajectory, SOURCE, 1)
    assert plan.action(2, KIND_CROSS) == TAKE_SOURCE
    assert plan.action(2, KIND_SELF) == BLEND
    replay = plan.step(2)
    assert replay.cross == (TAKE_SOURCE,)
    assert replay.source.tobytes() == trajectory[1].tobytes() and not replay.masks[0].any()

    # a substituted word: fusing the columns needs the edit map
    align = align_prompts(("a", "cat"), ("a", "tiger"))
    plan = FusionPlan(EditConfig(t_s=1.0, t_c=0.0, tau=0.3), align, trajectory, SOURCE, 1)
    assert plan.action(2, KIND_CROSS) == FUSE
    got = plan.step(2).cross[0](EDIT_CROSS, SRC_CROSS)
    assert np.array_equal(got, fuse_cross(EDIT_CROSS, SRC_CROSS, align))
