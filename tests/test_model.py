"""Prompt embedding, attention, the toy denoiser, and the palette oracle."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from attnfuse.errors import ContractViolation
from attnfuse import model
from attnfuse.model import (KIND_CROSS, KIND_SELF, START_TOKEN, TAKE_SOURCE, TILE_ROWS,
                            BlockWeights, ModelConfig, Replay, SelfTiles, _attention_map,
                            config_hash, denoiser_forward,
                            embed_prompt, encode_color, make_denoiser_weights,
                            make_oracle_denoiser, spatiotemporal_attend,
                            tokenize, token_vector)
from attnfuse.numerics import SeededRng, softmax_lastdim, softmax_numerators


def test_config_requires_head_split():
    with pytest.raises(ContractViolation):
        ModelConfig(n=2, h=4, w=4, c=1, d_model=10, heads=3, d_head=4,
                    blocks=1, d_text=8, seed=0)
    with pytest.raises(ContractViolation):
        ModelConfig(n=0, h=4, w=4, c=1, d_model=8, heads=2, d_head=4,
                    blocks=1, d_text=8, seed=0)


def test_config_hash_sensitive_to_fields(tiny_cfg):
    import dataclasses
    base = config_hash(tiny_cfg)
    assert config_hash(dataclasses.replace(tiny_cfg, seed=tiny_cfg.seed + 1)) != base
    assert config_hash(dataclasses.replace(tiny_cfg, h=tiny_cfg.h + 1)) != base
    assert config_hash(tiny_cfg) == base


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("A cat, 8K") == ("a", "cat", ",", "8k")
    assert tokenize("") == ()
    assert tokenize("cat's  toy!") == ("cat's", "toy", "!")


def test_embed_prompt_deterministic_and_shared(tiny_cfg):
    a = embed_prompt("a red square", tiny_cfg)
    b = embed_prompt("a red square", tiny_cfg)
    assert a.tokens == b.tokens
    assert np.array_equal(a.vectors, b.vectors)
    c = embed_prompt("a blue square", tiny_cfg)
    # shared tokens embed identically across prompts
    assert np.array_equal(a.vectors[1], c.vectors[1])
    assert np.array_equal(a.vectors[3], c.vectors[3])
    assert not np.array_equal(a.vectors[2], c.vectors[2])


def test_embed_prompt_empty_is_start_only(tiny_cfg):
    emb = embed_prompt("", tiny_cfg)
    assert emb.tokens == (START_TOKEN,)
    assert emb.vectors.shape == (1, tiny_cfg.d_text)
    assert np.array_equal(emb.vectors[0], token_vector(START_TOKEN, tiny_cfg.d_text))


def test_prompt_embedding_validation(tiny_cfg):
    from attnfuse.model import PromptEmbedding
    vecs = np.zeros((2, tiny_cfg.d_text))
    with pytest.raises(ContractViolation):
        PromptEmbedding(tokens=("cat", "dog"), vectors=vecs)
    with pytest.raises(ContractViolation):
        PromptEmbedding(tokens=(START_TOKEN,), vectors=vecs)


def test_attend_matches_loop_oracle():
    # Cross-attention applies the softmax map of `_attention_map` to the values.
    rng = np.random.default_rng(3)
    q = rng.standard_normal((3, 4))
    k = rng.standard_normal((6, 4))
    v = rng.standard_normal((6, 5))
    attn = _attention_map(q, k, 4)
    out = attn @ v[:, :4]  # square values for simplicity
    want_attn = np.zeros((3, 6))
    for i in range(3):
        logits = np.array([q[i] @ k[j] / 2.0 for j in range(6)])
        want_attn[i] = softmax_lastdim(logits)
    want_out = np.zeros((3, 4))
    for i in range(3):
        for j in range(6):
            want_out[i] += want_attn[i, j] * v[j, :4]
    assert np.max(np.abs(attn - want_attn)) <= 1e-12
    assert np.max(np.abs(out - want_out)) <= 1e-12


def test_attend_zero_queries_are_uniform():
    k = np.random.default_rng(1).standard_normal((5, 2))
    attn = _attention_map(np.zeros((3, 2)), k, 2)
    assert np.allclose(attn, 1.0 / 5.0, atol=1e-15)


def _feats(rng, n, hw, d):
    return rng.standard_normal((n, hw, d))


def _block(rng, d, d_text):
    g = lambda r, c: rng.standard_normal((r, c)) / np.sqrt(r)
    return BlockWeights(wq_s=g(d, d), wk_s=g(d, d), wv_s=g(d, d),
                        wq_c=g(d, d), wk_c=g(d_text, d), wv_c=g(d_text, d),
                        w_mlp_in=g(d, 2 * d), w_mlp_out=g(2 * d, d))


def _attend_and_map(feats, block, heads, d_head, whole_map):
    """(output, the self map it applied) of one spatiotemporal_attend call."""
    [out], _ = spatiotemporal_attend((feats,), block, heads, d_head)
    return out, whole_map(SelfTiles(feats, block.wq_s, block.wk_s, heads))


def test_spatiotemporal_map_shape_and_rows(assert_map_rows, whole_map):
    rng = np.random.default_rng(5)
    block = _block(rng, 8, 6)
    feats = _feats(rng, 4, 9, 8)
    out, attn = _attend_and_map(feats, block, 2, 4, whole_map)
    assert out.shape == (4, 9, 8)
    assert np.array_equal(out, spatiotemporal_attend((feats,), block, 2, 4)[0][0])
    assert attn.shape == (4, 2, 9, 18)
    assert_map_rows(KIND_SELF, attn)


def test_self_rows_match_a_softmax_reference_across_the_tile_seam():
    # h*w = 5 * 13 = 65 query rows: one full tile and a 1-row tail tile.
    rng = np.random.default_rng(13)
    n, hw, heads, d_head = 3, 5 * 13, 2, 8
    d = heads * d_head
    block = _block(rng, d, 6)
    feats = _feats(rng, n, hw, d)
    tiles = SelfTiles(feats, block.wq_s, block.wk_s, heads)
    bounds = [(lo, min(lo + TILE_ROWS, hw)) for lo in range(0, hw, TILE_ROWS)]
    assert [hi - lo for lo, hi in bounds] == [64, 1]
    rows = np.concatenate([tiles.rows(lo, hi).copy() for lo, hi in bounds], axis=2)
    assert np.array_equal(rows.max(axis=-1), np.ones((n, heads, hw)))

    # The reference: [middle frame; own frame] keys and values, logits
    # scaled after the QK^T, then a softmax.
    split = lambda x: x.reshape(n, hw, heads, d_head).transpose(0, 2, 1, 3)
    inflate = lambda x: np.concatenate([np.broadcast_to(x[n // 2], x.shape), x], axis=2)
    q = split(feats @ block.wq_s)
    k = inflate(split(feats @ block.wk_s))
    v = inflate(split(feats @ block.wv_s))
    want = softmax_lastdim(q @ np.swapaxes(k, -1, -2) / np.sqrt(d_head))
    assert np.max(np.abs(rows / rows.sum(axis=-1, keepdims=True) - want)) <= 1e-12
    want_out = (want @ v).transpose(0, 2, 1, 3).reshape(n, hw, d)
    [out], _ = spatiotemporal_attend((feats,), block, heads, d_head)
    assert np.max(np.abs(out - want_out)) <= 1e-12


def test_forward_divides_no_self_tile(monkeypatch):
    # A self tile costs its QK^T, one stable exp and its product with
    # [V | 1]: no softmax normalizes it and nothing divides it in place.
    cfg = ModelConfig(n=2, h=5, w=13, c=1, d_model=8, heads=2, d_head=4,
                      blocks=2, d_text=8, seed=4)
    weights = make_denoiser_weights(cfg)
    prompt = embed_prompt("a red square", cfg)
    z = SeededRng(9).standard_normal((cfg.n, cfg.c, cfg.h, cfg.w))
    normalized, tiles = [], []

    def lastdim(x, out=None):
        normalized.append(x.shape)
        return softmax_lastdim(x, out=out)

    def numerators(x, out=None):
        tile = softmax_numerators(x, out=out)
        tile.setflags(write=False)  # an in-place divide of the tile raises
        tiles.append(tile.shape)
        return tile

    monkeypatch.setattr(model, "softmax_lastdim", lastdim)
    monkeypatch.setattr(model, "softmax_numerators", numerators)
    denoiser_forward(z, 1, (prompt,), weights, 4)
    hw = cfg.h * cfg.w
    tokens = len(prompt.tokens)
    assert normalized == [(cfg.n, cfg.heads, hw, tokens)] * cfg.blocks
    assert tiles == [(cfg.n, cfg.heads, 64, 2 * hw),
                     (cfg.n, cfg.heads, 1, 2 * hw)] * cfg.blocks


def test_spatiotemporal_middle_frame_reduces_to_self(whole_map):
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 5):
        block = _block(rng, 8, 6)
        feats = _feats(rng, n, 4, 8)
        out, attn = _attend_and_map(feats, block, 2, 4, whole_map)
        mid = n // 2
        # the middle frame sees its own keys twice; both halves agree
        assert np.max(np.abs(attn[mid, :, :, :4] - attn[mid, :, :, 4:])) <= 1e-9
        from attnfuse.model import _split_heads, _merge_heads
        q = _split_heads(feats[mid:mid + 1] @ block.wq_s, 2, 4)
        k = _split_heads(feats[mid:mid + 1] @ block.wk_s, 2, 4)
        v = _split_heads(feats[mid:mid + 1] @ block.wv_s, 2, 4)
        plain = _attention_map(q, k, 4) @ v
        assert np.max(np.abs(out[mid] - _merge_heads(plain)[0])) <= 1e-9


def test_forward_is_bit_deterministic(tiny_cfg, tiny_weights, capture_maps):
    prompt = embed_prompt("a cat", tiny_cfg)
    z = SeededRng(1).standard_normal((tiny_cfg.n, tiny_cfg.c, tiny_cfg.h, tiny_cfg.w))
    p1, r1 = capture_maps(tiny_weights, 8)
    p2, r2 = capture_maps(tiny_weights, 8)
    [e1] = denoiser_forward(z, 3, (prompt,), tiny_weights, 8, record=p1)
    [e2] = denoiser_forward(z, 3, (prompt,), tiny_weights, 8, record=p2)
    assert np.array_equal(e1, e2)
    assert len(r1) == len(r2) == 2 * tiny_cfg.blocks
    for a, b in zip(r1, r2):
        assert (a.t, a.layer, a.kind) == (b.t, b.layer, b.kind)
        assert np.array_equal(a.attn, b.attn)


def test_forward_record_order_and_shapes(tiny_cfg, tiny_weights, capture_maps,
                                        assert_map_rows):
    prompt = embed_prompt("one two three", tiny_cfg)
    z = SeededRng(2).standard_normal((tiny_cfg.n, tiny_cfg.c, tiny_cfg.h, tiny_cfg.w))
    record, recs = capture_maps(tiny_weights, 8)
    denoiser_forward(z, 5, (prompt,), tiny_weights, 8, record=record)
    hw = tiny_cfg.h * tiny_cfg.w
    kinds = [(r.layer, r.kind) for r in recs]
    assert kinds == [(0, KIND_SELF), (0, KIND_CROSS), (1, KIND_SELF), (1, KIND_CROSS)]
    for r in recs:
        assert r.t == 5
        if r.kind == KIND_SELF:
            assert r.attn.shape == (tiny_cfg.n, tiny_cfg.heads, hw, 2 * hw)
        else:
            assert r.attn.shape == (tiny_cfg.n, tiny_cfg.heads, hw, len(prompt.tokens))
        assert_map_rows(r.kind, r.attn)
        assert not r.attn.flags.writeable


def test_block_zero_self_record_is_the_latent(tiny_cfg, tiny_weights, monkeypatch):
    # Block 0's self record is a read-only copy of the step's latent, from
    # which the block input the pass applied is rebuilt bit for bit; a
    # later block's record is the block input itself.
    applied, records = [], {}
    attend_self = model.spatiotemporal_attend

    def spy(feats, *args, **kwargs):
        applied.append(feats[0].copy())
        return attend_self(feats, *args, **kwargs)

    def record(t, layer, kind, array):
        if kind == KIND_SELF:
            records[layer] = array

    monkeypatch.setattr(model, "spatiotemporal_attend", spy)
    z = SeededRng(4).standard_normal((tiny_cfg.n, tiny_cfg.c, tiny_cfg.h, tiny_cfg.w))
    latent = z.copy()
    prompt = embed_prompt("a red square", tiny_cfg)
    denoiser_forward(z, 3, (prompt,), tiny_weights, 8, record=record)
    z[...] = 0.0
    for record in records.values():
        assert type(record) is np.ndarray and not record.flags.writeable
    assert records[0].tobytes() == latent.tobytes()
    assert records[1].tobytes() == applied[1].tobytes()
    rebuilt = model._block_input(records[0], 3, 8, tiny_weights)
    assert rebuilt.tobytes() == applied[0].tobytes()

    # The pass rebuilds a source's block input only when some row of
    # block 0 replays it or the replay carries the source through it:
    # once per pass, never under an all-set, uncarried mask.
    rebuilds = []
    block_input = model._block_input
    monkeypatch.setattr(model, "_block_input",
                        lambda *args: rebuilds.append(args[1]) or block_input(*args))
    n, hw = tiny_cfg.n, tiny_cfg.h * tiny_cfg.w
    for fill, carry, want in ((True, False, [3]), (True, True, [3, 2]),
                              (False, True, [3, 2])):
        rebuilds.clear()
        mask = np.full((n, hw), fill)
        denoiser_forward(latent, 3, (prompt,), tiny_weights, 8,
                         replay=Replay(records[0], 2, prompt, (mask, mask), (carry, False)))
        assert rebuilds == want


def test_forward_depends_on_timestep(tiny_cfg, tiny_weights):
    prompt = embed_prompt("a cat", tiny_cfg)
    z = SeededRng(3).standard_normal((tiny_cfg.n, tiny_cfg.c, tiny_cfg.h, tiny_cfg.w))
    [e1] = denoiser_forward(z, 1, (prompt,), tiny_weights, 8)
    [e2] = denoiser_forward(z, 7, (prompt,), tiny_weights, 8)
    assert not np.array_equal(e1, e2)


def test_forward_input_validation(tiny_cfg, tiny_weights):
    prompt = embed_prompt("a", tiny_cfg)
    good = np.zeros((tiny_cfg.n, tiny_cfg.c, tiny_cfg.h, tiny_cfg.w))
    with pytest.raises(ContractViolation):
        denoiser_forward(good[:, :, :2], 1, (prompt,), tiny_weights, 8)
    with pytest.raises(ContractViolation):
        denoiser_forward(good, 9, (prompt,), tiny_weights, 8)
    with pytest.raises(ContractViolation):
        denoiser_forward(good, -1, (prompt,), tiny_weights, 8)
    bad = good.copy()
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ContractViolation):
        denoiser_forward(bad, 1, (prompt,), tiny_weights, 8)


def test_forward_pass_holds_one_self_map_at_a_time():
    cfg = ModelConfig(n=4, h=24, w=24, c=1, d_model=16, heads=2, d_head=8,
                      blocks=2, d_text=16, seed=3)
    weights = make_denoiser_weights(cfg)
    prompt = embed_prompt("a red square", cfg)
    z = SeededRng(8).standard_normal((cfg.n, cfg.c, cfg.h, cfg.w))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        [eps] = denoiser_forward(z, 1, (prompt,), weights, 4)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One self map is n * heads * (h*w) * (2*h*w) float64 values: 42.5 MB.
    # Two blocks' maps alive at once would take the peak past 85 MB.
    assert peak - before < 60e6
    assert held - before < 1e6
    assert eps.shape == z.shape


def test_forward_pass_holds_one_self_attention_tile_at_a_time(peak_bytes):
    cfg = ModelConfig(n=4, h=24, w=24, c=1, d_model=16, heads=2, d_head=8,
                      blocks=2, d_text=16, seed=3)
    weights = make_denoiser_weights(cfg)
    prompt = embed_prompt("a red square", cfg)
    z = SeededRng(8).standard_normal((cfg.n, cfg.c, cfg.h, cfg.w))
    _, peak = peak_bytes(lambda: denoiser_forward(z, 1, (prompt,), weights, 4))
    # One tile of logits is n * heads * TILE_ROWS * (2*h*w) float64 values,
    # 4.7 MB here; one whole self map would be 42.5 MB.
    assert TILE_ROWS == 64
    assert peak < 10e6


def test_identity_probe_leaves_output_unchanged(tiny_cfg, tiny_weights):
    # A replay of the pass's own latent, whichever rows and cross maps it
    # takes from that source, gives the pass's own output bits.
    prompt = embed_prompt("a red cat", tiny_cfg)
    z = SeededRng(4).standard_normal((tiny_cfg.n, tiny_cfg.c, tiny_cfg.h, tiny_cfg.w))
    [plain] = denoiser_forward(z, 2, (prompt,), tiny_weights, 8)
    n, hw = tiny_cfg.n, tiny_cfg.h * tiny_cfg.w
    for fill in (False, True):
        for cross in (None, TAKE_SOURCE, lambda own, source: own):
            mask = np.full((n, hw), fill)
            replay = Replay(z, 2, prompt, (mask, mask), (True, True), (cross,))
            assert np.array_equal(plain, denoiser_forward(z, 2, (prompt,), tiny_weights, 8,
                                                          replay=replay)[0])


def test_replay_probe_reproduces_run(tiny_cfg, tiny_weights, capture_maps):
    # A replay that takes every self row and cross map from the run's own
    # latent reproduces the run: it applies the cross maps the run
    # applied, rebuilt from that latent, and builds none of its own.
    prompt = embed_prompt("a red cat", tiny_cfg)
    z = SeededRng(5).standard_normal((tiny_cfg.n, tiny_cfg.c, tiny_cfg.h, tiny_cfg.w))
    record, recs = capture_maps(tiny_weights, 8)
    [eps] = denoiser_forward(z, 2, (prompt,), tiny_weights, 8, record=record)
    stored = {(r.layer, r.kind): r.attn for r in recs if r.kind == KIND_CROSS}

    clear = np.zeros((tiny_cfg.n, tiny_cfg.h * tiny_cfg.w), dtype=bool)
    replay = Replay(z, 2, prompt, (clear, clear), (True, True), (TAKE_SOURCE,))
    record, applied = capture_maps(tiny_weights, 8)
    assert np.array_equal(eps, denoiser_forward(z, 2, (prompt,), tiny_weights, 8,
                                                replay=replay, record=record)[0])
    applied = [r for r in applied if r.kind == KIND_CROSS]
    assert len(applied) == len(stored) == tiny_cfg.blocks
    for r in applied:
        assert np.array_equal(r.attn, stored[(r.layer, r.kind)])


@pytest.mark.parametrize("case,layer,fragment", [
    ("one mask", 1, "gives 1 masks and 2 carry flags for 2 blocks"),
    ("three carry flags", 2, "gives 2 masks and 3 carry flags for 2 blocks"),
    ("uncarried mask function", 1, "gives a mask function at a block it does not carry"),
    ("uncarried cross rewrite", 1, "gives a cross rewrite at a block it does not carry"),
], ids=["one mask", "three carry flags", "uncarried mask function", "uncarried cross rewrite"])
def test_a_malformed_replay_is_refused(tiny_cfg, tiny_weights, case, layer, fragment):
    # A replay has one producer, the plan, so the pass checks only what the
    # plan's own invariants promise: one mask and one carry flag per block,
    # and a carried block wherever the source's cross map is read.
    prompt = embed_prompt("a", tiny_cfg)
    z = SeededRng(6).standard_normal((tiny_cfg.n, tiny_cfg.c, tiny_cfg.h, tiny_cfg.w))
    clear = np.zeros((tiny_cfg.n, tiny_cfg.h * tiny_cfg.w), dtype=bool)
    masks, carry, cross = (clear, clear), (True, False), (None,)
    if case == "one mask":
        masks = (clear,)
    elif case == "three carry flags":
        carry = (True, True, True)
    elif case == "uncarried mask function":
        masks = (clear, lambda source_map: clear)
    else:
        cross = (TAKE_SOURCE,)
    replay = Replay(z, 0, prompt, masks, carry, cross)
    with pytest.raises(ContractViolation, match=fragment) as exc:
        denoiser_forward(z, 1, (prompt,), tiny_weights, 8, replay=replay)
    assert str(exc.value).startswith(f"block {layer}: the replay of step 1 ")


def test_a_pass_takes_one_cross_rewrite_per_prompt(tiny_cfg, tiny_weights):
    # The replay rewrites each prompt's cross maps, and a record hook
    # watches a one-prompt pass.
    prompt = embed_prompt("a", tiny_cfg)
    z = SeededRng(6).standard_normal((tiny_cfg.n, tiny_cfg.c, tiny_cfg.h, tiny_cfg.w))
    clear = np.zeros((tiny_cfg.n, tiny_cfg.h * tiny_cfg.w), dtype=bool)
    replay = Replay(z, 0, prompt, (clear, clear), (True, True), (None, TAKE_SOURCE))
    with pytest.raises(ContractViolation, match="gives 2 cross rewrites for 1 prompts"):
        denoiser_forward(z, 1, (prompt,), tiny_weights, 8, replay=replay)
    for prompts in ((), (prompt, prompt)):
        with pytest.raises(ContractViolation, match="one with a record hook"):
            denoiser_forward(z, 1, prompts, tiny_weights, 8, record=lambda *site: None)


def test_encode_color_endpoints():
    assert np.allclose(encode_color([0, 127.5, 255]), [-1.0, 0.0, 1.0], atol=1e-12)
    with pytest.raises(ContractViolation):
        encode_color([0, 300, 0])


ORACLE_CFG = ModelConfig(n=2, h=4, w=4, c=3, d_model=8, heads=2, d_head=4,
                         blocks=1, d_text=16, seed=0)


def _oracle_latent():
    """Left half red, right half black, both frames."""
    pixels = np.zeros((2, 3, 4, 4))
    pixels[:, 0, :, :2] = 255.0
    return pixels / 127.5 - 1.0


def test_oracle_predicts_zero_noise():
    weights = make_oracle_denoiser(ORACLE_CFG, {"red": (255, 0, 0),
                                                "black": (0, 0, 0)})
    prompt = embed_prompt("a red square on black", ORACLE_CFG)
    [eps] = denoiser_forward(_oracle_latent(), 3, (prompt,), weights, 10)
    assert eps.shape == _oracle_latent().shape
    assert np.array_equal(eps, np.zeros_like(eps))


def test_oracle_attention_tracks_pixel_color(capture_maps):
    weights = make_oracle_denoiser(ORACLE_CFG, {"red": (255, 0, 0),
                                                "black": (0, 0, 0)})
    prompt = embed_prompt("a red square on black", ORACLE_CFG)
    red_col = prompt.tokens.index("red")
    black_col = prompt.tokens.index("black")
    record, recs = capture_maps(weights, 10)
    denoiser_forward(_oracle_latent(), 3, (prompt,), weights, 10, record=record)
    cross = [r for r in recs if r.kind == KIND_CROSS][0]
    mass = cross.attn.mean(axis=1)  # (n, hw, tokens)
    on_red = mass[:, :, red_col].reshape(2, 4, 4)
    on_black = mass[:, :, black_col].reshape(2, 4, 4)
    assert np.all(on_red[:, :, :2] >= 0.9)
    assert np.all(on_black[:, :, 2:] >= 0.9)
    assert np.all(on_red[:, :, 2:] < 0.1)
    assert np.all(on_black[:, :, :2] < 0.1)


def test_oracle_palette_order_invariant(capture_maps):
    a = make_oracle_denoiser(ORACLE_CFG, {"red": (255, 0, 0), "black": (0, 0, 0)})
    b = make_oracle_denoiser(ORACLE_CFG, {"black": (0, 0, 0), "red": (255, 0, 0)})
    prompt = embed_prompt("red black", ORACLE_CFG)
    pa, ra = capture_maps(a, 10)
    pb, rb = capture_maps(b, 10)
    denoiser_forward(_oracle_latent(), 1, (prompt,), a, 10, record=pa)
    denoiser_forward(_oracle_latent(), 1, (prompt,), b, 10, record=pb)
    cross_a = [r for r in ra if r.kind == KIND_CROSS][0].attn
    cross_b = [r for r in rb if r.kind == KIND_CROSS][0].attn
    assert np.max(np.abs(cross_a - cross_b)) <= 1e-9


def test_oracle_config_validation():
    import dataclasses
    with pytest.raises(ContractViolation):
        make_oracle_denoiser(dataclasses.replace(ORACLE_CFG, blocks=2),
                             {"red": (255, 0, 0)})
    narrow = dataclasses.replace(ORACLE_CFG, d_model=4, d_head=2)
    with pytest.raises(ContractViolation):
        make_oracle_denoiser(narrow, {"red": (255, 0, 0)})
    with pytest.raises(ContractViolation):
        make_oracle_denoiser(ORACLE_CFG, {"two words": (255, 0, 0)})
    with pytest.raises(ContractViolation):
        make_oracle_denoiser(ORACLE_CFG, {"red": (255, 0)})
    with pytest.raises(ContractViolation):
        make_oracle_denoiser(ORACLE_CFG, {})
