"""Prompt alignment, attention fusion, and blend-mask construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnfuse.errors import ContractViolation, MissingRecordError
from attnfuse.fusion import (BLEND, FUSE, KEEP, TAKE_SOURCE, BlendMask,
                             EditConfig, FusionPlan, PromptAlignment,
                             align_prompts, blend_self, build_blend_mask,
                             fuse_cross, identity_alignment, preset)
from attnfuse.model import (KIND_CROSS, KIND_SELF, AttentionSite,
                            SelfProjections, SelfTiles, tokenize, whole_map)
from attnfuse.store import AttentionStore, StoreMeta


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


def _plan(t_s, t_c, T, tau=0.3, alignment=None):
    store = AttentionStore(StoreMeta(T=T, blocks=1, config_hash=1))
    align = alignment or align_prompts(("a", "cat"), ("a", "tiger"))
    return FusionPlan(EditConfig(t_s=t_s, t_c=t_c, tau=tau), align, store)


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
        assert (plan.step_probe(t) is not None) == inside


def _projections(n, hw, heads, d_head=2, seed=3):
    rng = np.random.default_rng(seed)
    d_model = heads * d_head
    return SelfProjections(feats=rng.standard_normal((n, hw, d_model)),
                           wq=rng.standard_normal((d_model, d_model)),
                           wk=rng.standard_normal((d_model, d_model)), heads=heads)


def _site(kind, attn, t=2):
    """The site of *attn* at (t, layer 0), as a probe sees it."""
    return AttentionSite(t, 0, kind, attn.shape, lambda: attn)


def _self_site(t, proj):
    """The self site at (t, layer 0) whose map *proj* builds."""
    return AttentionSite(t, 0, KIND_SELF, proj.shape, proj.attn, projections=proj)


def test_plan_takes_source_whole_when_mask_is_provably_empty():
    # tau = 1, or no source word dropped: the self window blends by one
    # all-clear mask, sized by the self record, so every row is the source's.
    unchanged = align_prompts(("a", "cat"), ("a", "cat", "8k"))
    for plan in (_plan(0.5, 0.5, T=4, tau=1.0),
                 _plan(0.5, 0.5, T=4, alignment=unchanged)):
        plan.store.record(_self_site(1, _projections(2, 3, heads=1)))
        assert plan.action(2, KIND_SELF) == BLEND
        mask = plan.self_mask(2, 0)
        assert mask.mask.shape == (2, 3) and not mask.mask.any()
        assert plan.self_mask(3, 0) is mask  # built once per plan
    assert _plan(0.5, 0.5, T=4, tau=0.99).action(2, KIND_SELF) == BLEND


def test_source_step_is_previous_index():
    store = AttentionStore(StoreMeta(T=4, blocks=1, config_hash=1))
    store.record(_site(KIND_CROSS, SRC_CROSS, t=0))
    store.record(_self_site(3, _projections(2, 2, heads=1)))
    plan = FusionPlan(preset("style"), identity_alignment(2), store)
    assert plan.source_map(1, 0) is store.query(0, 0)
    assert plan.source_projections(4, 0) is store.projections(3, 0)
    with pytest.raises(MissingRecordError):
        plan.source_projections(3, 0)
    with pytest.raises(MissingRecordError):  # source_map reads cross maps only
        plan.source_map(4, 0)


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


def _store_with_cross(src_map, T=4):
    store = AttentionStore(StoreMeta(T=T, blocks=1, config_hash=1))
    store.record(_site(KIND_CROSS, src_map, t=1))
    return store


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
    store = _store_with_cross(SRC_CROSS)
    align = PromptAlignment(matched=((0, 0),), edited_positions=(1,),
                            removed_positions=(1,))
    plan = FusionPlan(EditConfig(t_s=0.0, t_c=1.0, tau=0.3), align, store)
    assert plan.step_probe(2)(_site(KIND_CROSS, EDIT_CROSS)) is None
    plan = FusionPlan(EditConfig(t_s=1.0, t_c=1.0, tau=0.3), align, store)
    assert plan.step_probe(2) is None
    plan = FusionPlan(EditConfig(t_s=1.0, t_c=0.0, tau=0.3), align, store)
    got = plan.step_probe(2)(_site(KIND_CROSS, EDIT_CROSS))
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


def test_fuse_cross_missing_record_propagates():
    store = AttentionStore(StoreMeta(T=4, blocks=1, config_hash=1))
    align = PromptAlignment(matched=((0, 0),), edited_positions=(1,),
                            removed_positions=(1,))
    plan = FusionPlan(preset("style"), align, store)
    assert plan.action(2, KIND_CROSS) == FUSE
    with pytest.raises(MissingRecordError):
        plan.source_map(2, 0)
    with pytest.raises(ContractViolation, match="step 2, layer 0, cross") as info:
        plan.step_probe(2)(_site(KIND_CROSS, EDIT_CROSS))
    assert isinstance(info.value.__cause__, MissingRecordError)


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
    assert np.array_equal(got.mask, want)


def test_blend_mask_threshold_is_strict():
    got = build_blend_mask(MASK_CROSS_HEADS, word_positions=(1,), tau=0.5)
    want = np.array([[True, False, False, False],
                     [True, False, False, False]])
    assert np.array_equal(got.mask, want)


def test_blend_mask_tau_extremes():
    empty = build_blend_mask(MASK_CROSS_HEADS, word_positions=(1,), tau=1.0)
    assert not empty.mask.any()
    full = build_blend_mask(MASK_CROSS_HEADS, word_positions=(1,), tau=0.0)
    assert full.mask.all()


def test_blend_mask_multiple_positions():
    got = build_blend_mask(MASK_CROSS_HEADS, word_positions=(0, 2), tau=0.5)
    # complement masses: frame 0 [.2, .6, .8, .9] -> /0.9; frame 1
    # [.5, .75, .75, .9] -> /0.9; strict > 0.5
    want = np.array([[False, True, True, True],
                     [True, True, True, True]])
    assert np.array_equal(got.mask, want)


def test_blend_mask_position_validation():
    with pytest.raises(ContractViolation):
        build_blend_mask(MASK_CROSS_HEADS, word_positions=(), tau=0.3)
    with pytest.raises(ContractViolation):
        build_blend_mask(MASK_CROSS_HEADS, word_positions=(3,), tau=0.3)
    with pytest.raises(ContractViolation):
        build_blend_mask(MASK_CROSS_HEADS, word_positions=(1, 1), tau=0.3)


SRC_SELF = np.array([
    [[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]],
    [[0.25, 0.25, 0.25, 0.25], [0.5, 0.1, 0.2, 0.2]],
]).reshape(2, 1, 2, 4)
EDIT_SELF = np.array([
    [[0.7, 0.1, 0.1, 0.1], [0.1, 0.7, 0.1, 0.1]],
    [[0.1, 0.1, 0.7, 0.1], [0.1, 0.1, 0.1, 0.7]],
]).reshape(2, 1, 2, 4)


def _self_store():
    store = AttentionStore(StoreMeta(T=4, blocks=1, config_hash=1))
    store.record(_self_site(1, _projections(2, 2, heads=1)))
    return store


def test_blend_self_checkerboard():
    mask = BlendMask(mask=np.array([[True, False], [False, True]]))
    got = blend_self(EDIT_SELF, SRC_SELF, mask=mask)
    assert np.array_equal(got[0, 0, 0], EDIT_SELF[0, 0, 0])
    assert np.array_equal(got[0, 0, 1], SRC_SELF[0, 0, 1])
    assert np.array_equal(got[1, 0, 0], SRC_SELF[1, 0, 0])
    assert np.array_equal(got[1, 0, 1], EDIT_SELF[1, 0, 1])


def test_blend_self_mask_extremes_are_exact():
    zeros = BlendMask(mask=np.zeros((2, 2), dtype=bool))
    got = blend_self(EDIT_SELF, SRC_SELF, mask=zeros)
    assert np.array_equal(got, SRC_SELF)
    ones = BlendMask(mask=np.ones((2, 2), dtype=bool))
    got = blend_self(EDIT_SELF, SRC_SELF, mask=ones)
    assert np.array_equal(got, EDIT_SELF)


def test_plan_keeps_self_map_outside_window():
    store = _self_store()
    align = identity_alignment(2)
    plan = FusionPlan(EditConfig(t_s=1.0, t_c=0.0, tau=0.3), align, store)
    assert plan.step_probe(2)(_site(KIND_SELF, EDIT_SELF)) is None
    plan = FusionPlan(EditConfig(t_s=0.0, t_c=1.0, tau=0.3), align, store)
    rows = plan.step_probe(2)(_site(KIND_SELF, EDIT_SELF))
    assert np.array_equal(whole_map(rows, EDIT_SELF.shape),
                          store.projections(1, 0).attn())


def test_blend_self_shape_validation():
    with pytest.raises(ContractViolation):
        blend_self(EDIT_SELF, SRC_SELF,
                   mask=BlendMask(mask=np.zeros((2, 3), dtype=bool)))
    with pytest.raises(ContractViolation):
        blend_self(EDIT_SELF[:, :, :1], SRC_SELF,
                   mask=BlendMask(mask=np.zeros((2, 2), dtype=bool)))


def test_blend_mask_type_validation():
    with pytest.raises(ContractViolation):
        BlendMask(mask=np.zeros((2, 2)))
    with pytest.raises(ContractViolation):
        BlendMask(mask=np.zeros(4, dtype=bool))


def test_plan_blends_by_the_mask_of_step_t_minus_1():
    store = AttentionStore(StoreMeta(T=4, blocks=1, config_hash=1))
    store.record(_site(KIND_CROSS, MASK_CROSS_HEADS, t=0))
    store.record(_self_site(0, _projections(2, 4, heads=2, seed=4)))
    src_self = store.projections(0, 0).attn()
    edit_self = np.full((2, 2, 4, 8), 1.0 / 8)
    align = align_prompts(("a", "red", "car"), ("a", "blue", "car"))
    plan = FusionPlan(EditConfig(t_s=0.0, t_c=1.0, tau=0.3), align, store)
    mask = plan.self_mask(1, 0)
    assert np.array_equal(mask.mask,
                          build_blend_mask(MASK_CROSS_HEADS, (1,), 0.3).mask)
    assert plan.self_mask(1, 0) is mask
    got = plan.step_probe(1)(_site(KIND_SELF, edit_self, t=1))
    assert np.array_equal(whole_map(got, edit_self.shape),
                          blend_self(edit_self, src_self, mask=mask))

    plan = FusionPlan(EditConfig(t_s=0.0, t_c=1.0, tau=1.0), align, store)
    assert plan.self_mask(1, 0).mask.shape == (2, 4)
    assert not plan.self_mask(1, 0).mask.any()
    rows = plan.step_probe(1)(_site(KIND_SELF, edit_self, t=1))
    assert np.array_equal(whole_map(rows, edit_self.shape), src_self)


def test_blend_builds_each_side_only_for_tiles_that_need_it(monkeypatch):
    # 2 frames of 12x12 pixels: tiles of query rows (0, 64), (64, 128), (128, 144).
    # The mask clears every row of the first tile, sets every row of the
    # second, and sets rows 128-135 of the third in frame 0 only.
    hw = 144
    mask = np.zeros((2, hw), dtype=bool)
    mask[:, 64:128] = True
    mask[0, 128:136] = True
    cross = np.where(mask[:, None, :, None], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5])
    cross = np.repeat(cross, 2, axis=1)  # (2 frames, 2 heads, hw, 3 tokens)
    store = AttentionStore(StoreMeta(T=4, blocks=1, config_hash=1))
    store.record(_site(KIND_CROSS, cross, t=0))
    source = _projections(2, hw, heads=2, seed=5)
    store.record(_self_site(0, source))
    align = align_prompts(("a", "red", "car"), ("a", "blue", "car"))
    plan = FusionPlan(EditConfig(t_s=0.0, t_c=1.0, tau=0.3), align, store)
    assert np.array_equal(plan.self_mask(1, 0).mask, mask)

    edit = _projections(2, hw, heads=2, seed=6)
    site = _self_site(1, edit)
    built = {"edit": [], "source": []}
    own_rows = site.own_rows
    site.own_rows = lambda lo, hi: built["edit"].append((lo, hi)) or own_rows(lo, hi)
    original = SelfTiles.rows

    def spy(tiles, lo, hi):
        if tiles.projections is source:
            built["source"].append((lo, hi))
        return original(tiles, lo, hi)

    monkeypatch.setattr(SelfTiles, "rows", spy)
    rows = plan.step_probe(1)(site)
    got = whole_map(rows, edit.shape)
    assert built == {"edit": [(64, 128), (128, 144)], "source": [(0, 64), (128, 144)]}
    assert np.array_equal(got, blend_self(edit.attn(), source.attn(),
                                          mask=BlendMask(mask=mask)))


def test_plan_takes_source_before_the_edit_map_is_built():
    store = AttentionStore(StoreMeta(T=4, blocks=1, config_hash=1))
    store.record(_site(KIND_CROSS, SRC_CROSS, t=1))
    store.record(_self_site(1, _projections(1, 4, heads=1)))
    built = []

    def site(kind, attn):
        return AttentionSite(2, 0, kind, attn.shape,
                             lambda: built.append(kind) or attn)

    # identical prompts: the cross map is taken whole, and the all-clear
    # mask takes every self row from the source
    plan = FusionPlan(EditConfig(t_s=0.0, t_c=0.0, tau=1.0),
                      identity_alignment(2), store)
    assert plan.action(2, KIND_CROSS) == TAKE_SOURCE
    assert plan.action(2, KIND_SELF) == BLEND
    probe = plan.step_probe(2)
    assert probe(site(KIND_CROSS, EDIT_CROSS)) is store.query(1, 0)
    edit_self = np.full((1, 1, 4, 8), 1.0 / 8)
    rows = probe(site(KIND_SELF, edit_self))
    assert np.array_equal(whole_map(rows, edit_self.shape),
                          store.projections(1, 0).attn())
    assert built == []

    # a substituted word: fusing the columns needs the edit map
    align = align_prompts(("a", "cat"), ("a", "tiger"))
    plan = FusionPlan(EditConfig(t_s=1.0, t_c=0.0, tau=0.3), align, store)
    assert plan.action(2, KIND_CROSS) == FUSE
    got = plan.step_probe(2)(site(KIND_CROSS, EDIT_CROSS))
    assert np.array_equal(got, fuse_cross(EDIT_CROSS, SRC_CROSS, align))
    assert built == [KIND_CROSS]
