"""Prompt embedding, attention, the toy denoiser, and the palette oracle."""

import tracemalloc

import numpy as np
import pytest

from attnfuse.errors import ContractViolation
from attnfuse import model
from attnfuse.model import (KIND_CROSS, KIND_SELF, START_TOKEN, TILE_ROWS,
                            BlockWeights, ModelConfig, SelfProjections,
                            SelfTiles, attend, config_hash, denoiser_forward,
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
    rng = np.random.default_rng(3)
    q = rng.standard_normal((3, 4))
    k = rng.standard_normal((6, 4))
    v = rng.standard_normal((6, 5))
    out, attn = attend(q, k, v[:, :4], 4)  # square values for simplicity
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
    _, attn = attend(np.zeros((3, 2)), k, np.ones((5, 2)), 2)
    assert np.allclose(attn, 1.0 / 5.0, atol=1e-15)


def test_attend_transform_seam_changes_output():
    rng = np.random.default_rng(2)
    q = rng.standard_normal((2, 3))
    k = rng.standard_normal((4, 3))
    v = rng.standard_normal((4, 3))
    uniform = np.full((2, 4), 0.25)
    out, attn = attend(q, k, v, 3, supply=lambda build: uniform)
    assert np.array_equal(attn, uniform)
    assert np.allclose(out, v.mean(axis=0), atol=1e-12)
    # the seam hands over a builder of the attention's own map
    _, own = attend(q, k, v, 3, supply=lambda build: build())
    assert np.array_equal(own, attend(q, k, v, 3)[1])


def test_attend_shape_validation():
    with pytest.raises(ContractViolation):
        attend(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros((4, 2)), 3)
    with pytest.raises(ContractViolation):
        attend(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((5, 3)), 3)


def _feats(rng, n, hw, d):
    return rng.standard_normal((n, hw, d))


def _block(rng, d, d_text):
    g = lambda r, c: rng.standard_normal((r, c)) / np.sqrt(r)
    return BlockWeights(wq_s=g(d, d), wk_s=g(d, d), wv_s=g(d, d),
                        wq_c=g(d, d), wk_c=g(d_text, d), wv_c=g(d_text, d),
                        w_mlp_in=g(d, 2 * d), w_mlp_out=g(2 * d, d))


def _attend_and_map(feats, block, heads, d_head):
    """(output, the self map it applied) of one spatiotemporal_attend call."""
    seen = []
    out = spatiotemporal_attend(feats, block, heads, d_head,
                                supply=lambda p: seen.append(p) or SelfTiles(p).rows)
    [proj] = seen
    return out, proj.attn()


def test_spatiotemporal_map_shape_and_rows(assert_map_rows):
    rng = np.random.default_rng(5)
    block = _block(rng, 8, 6)
    feats = _feats(rng, 4, 9, 8)
    out, attn = _attend_and_map(feats, block, 2, 4)
    assert out.shape == (4, 9, 8)
    assert np.array_equal(out, spatiotemporal_attend(feats, block, 2, 4))
    assert attn.shape == (4, 2, 9, 18)
    assert_map_rows(KIND_SELF, attn)


def test_self_rows_match_a_softmax_reference_across_the_tile_seam():
    # h*w = 5 * 13 = 65 query rows: one full tile and a 1-row tail tile.
    rng = np.random.default_rng(13)
    n, hw, heads, d_head = 3, 5 * 13, 2, 8
    d = heads * d_head
    block = _block(rng, d, 6)
    feats = _feats(rng, n, hw, d)
    tiles = SelfTiles(SelfProjections(feats=feats, wq=block.wq_s, wk=block.wk_s,
                                      heads=heads))
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
    out = spatiotemporal_attend(feats, block, heads, d_head)
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
    denoiser_forward(z, 1, prompt, weights, 4)
    hw = cfg.h * cfg.w
    tokens = len(prompt.tokens)
    assert normalized == [(cfg.n, cfg.heads, hw, tokens)] * cfg.blocks
    assert tiles == [(cfg.n, cfg.heads, 64, 2 * hw),
                     (cfg.n, cfg.heads, 1, 2 * hw)] * cfg.blocks


def test_spatiotemporal_middle_frame_reduces_to_self():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 5):
        block = _block(rng, 8, 6)
        feats = _feats(rng, n, 4, 8)
        out, attn = _attend_and_map(feats, block, 2, 4)
        mid = n // 2
        # the middle frame sees its own keys twice; both halves agree
        assert np.max(np.abs(attn[mid, :, :, :4] - attn[mid, :, :, 4:])) <= 1e-9
        from attnfuse.model import _split_heads, _merge_heads
        q = _split_heads(feats[mid:mid + 1] @ block.wq_s, 2, 4)
        k = _split_heads(feats[mid:mid + 1] @ block.wk_s, 2, 4)
        v = _split_heads(feats[mid:mid + 1] @ block.wv_s, 2, 4)
        plain, _ = attend(q, k, v, 4)
        assert np.max(np.abs(out[mid] - _merge_heads(plain)[0])) <= 1e-9


def test_forward_is_bit_deterministic(tiny_cfg, tiny_weights, capture_probe):
    prompt = embed_prompt("a cat", tiny_cfg)
    z = SeededRng(1).standard_normal((tiny_cfg.n, tiny_cfg.c, tiny_cfg.h, tiny_cfg.w))
    p1, r1 = capture_probe()
    p2, r2 = capture_probe()
    e1 = denoiser_forward(z, 3, prompt, tiny_weights, 8, probe=p1)
    e2 = denoiser_forward(z, 3, prompt, tiny_weights, 8, probe=p2)
    assert np.array_equal(e1, e2)
    assert len(r1) == len(r2) == 2 * tiny_cfg.blocks
    for a, b in zip(r1, r2):
        assert (a.t, a.layer, a.kind) == (b.t, b.layer, b.kind)
        assert np.array_equal(a.attn, b.attn)


def test_forward_record_order_and_shapes(tiny_cfg, tiny_weights, capture_probe,
                                        assert_map_rows):
    prompt = embed_prompt("one two three", tiny_cfg)
    z = SeededRng(2).standard_normal((tiny_cfg.n, tiny_cfg.c, tiny_cfg.h, tiny_cfg.w))
    probe, recs = capture_probe()
    denoiser_forward(z, 5, prompt, tiny_weights, 8, probe=probe)
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


def test_forward_depends_on_timestep(tiny_cfg, tiny_weights):
    prompt = embed_prompt("a cat", tiny_cfg)
    z = SeededRng(3).standard_normal((tiny_cfg.n, tiny_cfg.c, tiny_cfg.h, tiny_cfg.w))
    e1 = denoiser_forward(z, 1, prompt, tiny_weights, 8)
    e2 = denoiser_forward(z, 7, prompt, tiny_weights, 8)
    assert not np.array_equal(e1, e2)


def test_forward_input_validation(tiny_cfg, tiny_weights):
    prompt = embed_prompt("a", tiny_cfg)
    good = np.zeros((tiny_cfg.n, tiny_cfg.c, tiny_cfg.h, tiny_cfg.w))
    with pytest.raises(ContractViolation):
        denoiser_forward(good[:, :, :2], 1, prompt, tiny_weights, 8)
    with pytest.raises(ContractViolation):
        denoiser_forward(good, 9, prompt, tiny_weights, 8)
    with pytest.raises(ContractViolation):
        denoiser_forward(good, -1, prompt, tiny_weights, 8)
    bad = good.copy()
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ContractViolation):
        denoiser_forward(bad, 1, prompt, tiny_weights, 8)


def test_forward_pass_holds_one_self_map_at_a_time():
    cfg = ModelConfig(n=4, h=24, w=24, c=1, d_model=16, heads=2, d_head=8,
                      blocks=2, d_text=16, seed=3)
    weights = make_denoiser_weights(cfg)
    prompt = embed_prompt("a red square", cfg)
    z = SeededRng(8).standard_normal((cfg.n, cfg.c, cfg.h, cfg.w))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        eps = denoiser_forward(z, 1, prompt, weights, 4)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One self map is n * heads * (h*w) * (2*h*w) float64 values: 42.5 MB.
    # Two blocks' maps alive at once would take the peak past 85 MB.
    assert peak - before < 60e6
    assert held - before < 1e6
    assert eps.shape == z.shape


def test_forward_pass_holds_one_self_attention_tile_at_a_time():
    cfg = ModelConfig(n=4, h=24, w=24, c=1, d_model=16, heads=2, d_head=8,
                      blocks=2, d_text=16, seed=3)
    weights = make_denoiser_weights(cfg)
    prompt = embed_prompt("a red square", cfg)
    z = SeededRng(8).standard_normal((cfg.n, cfg.c, cfg.h, cfg.w))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        denoiser_forward(z, 1, prompt, weights, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One tile of logits is n * heads * TILE_ROWS * (2*h*w) float64 values,
    # 4.7 MB here; one whole self map would be 42.5 MB.
    assert TILE_ROWS == 64
    assert peak - before < 10e6


def test_identity_probe_leaves_output_unchanged(tiny_cfg, tiny_weights):
    prompt = embed_prompt("a red cat", tiny_cfg)
    z = SeededRng(4).standard_normal((tiny_cfg.n, tiny_cfg.c, tiny_cfg.h, tiny_cfg.w))
    plain = denoiser_forward(z, 2, prompt, tiny_weights, 8)
    probed = denoiser_forward(
        z, 2, prompt, tiny_weights, 8,
        probe=lambda site: site.own_rows if site.kind == KIND_SELF else site.attn)
    assert np.array_equal(plain, probed)


def test_replay_probe_reproduces_run(tiny_cfg, tiny_weights, capture_probe):
    prompt = embed_prompt("a red cat", tiny_cfg)
    z = SeededRng(5).standard_normal((tiny_cfg.n, tiny_cfg.c, tiny_cfg.h, tiny_cfg.w))
    probe, recs = capture_probe()
    eps = denoiser_forward(z, 2, prompt, tiny_weights, 8, probe=probe)
    stored = {(r.layer, r.kind): r.attn for r in recs}

    def replay_probe(site):
        attn = stored[(site.layer, site.kind)]
        if site.kind == KIND_SELF:
            return lambda lo, hi: attn[:, :, lo:hi]
        return attn

    probe, applied = capture_probe(replay_probe)
    replay = denoiser_forward(z, 2, prompt, tiny_weights, 8, probe=probe)
    assert np.array_equal(eps, replay)
    assert len(applied) == len(stored)
    for r in applied:
        assert np.array_equal(r.attn, stored[(r.layer, r.kind)])


def test_probe_replacement_validation(tiny_cfg, tiny_weights):
    prompt = embed_prompt("a", tiny_cfg)
    z = SeededRng(6).standard_normal((tiny_cfg.n, tiny_cfg.c, tiny_cfg.h, tiny_cfg.w))
    for alter, fragment in [
            (lambda attn: attn[..., :-1], "shape"),
            (lambda attn: attn * 2.0, "rows deviate from 1"),
            (lambda attn: np.full_like(attn, np.nan), "non-finite")]:
        probe = lambda site: alter(site.attn) if site.kind == KIND_CROSS else None
        with pytest.raises(ContractViolation, match=fragment) as exc:
            denoiser_forward(z, 1, prompt, tiny_weights, 8, probe=probe)
        assert "(cross, t=1, layer=0)" in str(exc.value)


def test_a_self_site_answered_with_an_array_is_refused(tiny_cfg, tiny_weights):
    # A self site takes rows only: even its own map, whole, is refused.
    prompt = embed_prompt("a", tiny_cfg)
    z = SeededRng(6).standard_normal((tiny_cfg.n, tiny_cfg.c, tiny_cfg.h, tiny_cfg.w))
    probe = lambda site: site.attn if (site.kind, site.layer) == (KIND_SELF, 1) else None
    with pytest.raises(ContractViolation, match="with an array") as exc:
        denoiser_forward(z, 1, prompt, tiny_weights, 8, probe=probe)
    assert "(self, t=1, layer=1)" in str(exc.value)


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
    eps = denoiser_forward(_oracle_latent(), 3, prompt, weights, 10)
    assert eps.shape == _oracle_latent().shape
    assert np.array_equal(eps, np.zeros_like(eps))


def test_oracle_attention_tracks_pixel_color(capture_probe):
    weights = make_oracle_denoiser(ORACLE_CFG, {"red": (255, 0, 0),
                                                "black": (0, 0, 0)})
    prompt = embed_prompt("a red square on black", ORACLE_CFG)
    red_col = prompt.tokens.index("red")
    black_col = prompt.tokens.index("black")
    probe, recs = capture_probe()
    denoiser_forward(_oracle_latent(), 3, prompt, weights, 10, probe=probe)
    cross = [r for r in recs if r.kind == KIND_CROSS][0]
    mass = cross.attn.mean(axis=1)  # (n, hw, tokens)
    on_red = mass[:, :, red_col].reshape(2, 4, 4)
    on_black = mass[:, :, black_col].reshape(2, 4, 4)
    assert np.all(on_red[:, :, :2] >= 0.9)
    assert np.all(on_black[:, :, 2:] >= 0.9)
    assert np.all(on_red[:, :, 2:] < 0.1)
    assert np.all(on_black[:, :, :2] < 0.1)


def test_oracle_palette_order_invariant(capture_probe):
    a = make_oracle_denoiser(ORACLE_CFG, {"red": (255, 0, 0), "black": (0, 0, 0)})
    b = make_oracle_denoiser(ORACLE_CFG, {"black": (0, 0, 0), "red": (255, 0, 0)})
    prompt = embed_prompt("red black", ORACLE_CFG)
    pa, ra = capture_probe()
    pb, rb = capture_probe()
    denoiser_forward(_oracle_latent(), 1, prompt, a, 10, probe=pa)
    denoiser_forward(_oracle_latent(), 1, prompt, b, 10, probe=pb)
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
