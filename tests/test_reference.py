"""The pipeline against a whole-map reference edit.

The reference shares only the weights, `_posenc`, `_time_features` and
the noise schedule with the package.  Its forward pass builds every
attention map whole, as a normalized softmax; a self map attends over
[middle frame; own frame] keys.  Its inversion keeps every map in a
dict, and its denoising pass edits the FateZero way (arXiv 2303.09535):
inside a window, step t rewrites the maps of both guidance branches
with inversion step t-1's.  The unconditional branch runs the source
prompt, whose words all match themselves.  A cross map takes the
source's columns of the matched words and is renormalized.  A self map
takes the source's rows wherever the blend mask is clear.  The mask
thresholds the head-averaged, max-normalized source attention on the
dropped words.

So tiles, softmax numerators, lazy sites, maps taken whole from the
source, the per-tile choice of rows and masks thresholded from the
cross maps the pass rebuilds from the latent trajectory must all agree
with it to float rounding.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from attnfuse.fusion import EditConfig, FusionPlan, align_prompts
from attnfuse.model import (ModelConfig, _posenc, _time_features, embed_prompt,
                            make_denoiser_weights)
from attnfuse.pipeline import invert_video, run_denoise
from attnfuse.schedule import make_schedule

WORDS = ("a", "red", "square", "drifting", "right")
FRACS = (0.0, 0.3, 0.5, 1.0)


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _forward(z, t, vectors, weights, T, rewrite=lambda key, attn: attn):
    """(predicted noise, {(layer, kind): the map applied}); *rewrite* picks each map."""
    cfg = weights.config
    n, c, h, w = z.shape
    hw = h * w
    time = _time_features(t, T, weights.time_freq, weights.time_phase)
    x = np.concatenate([z.reshape(n, c, hw).transpose(0, 2, 1),
                        np.broadcast_to(_posenc(h, w), (n, hw, _posenc(h, w).shape[1])),
                        np.broadcast_to(time, (n, hw, time.size))], axis=-1) @ weights.w_in
    split = lambda a: a.reshape(a.shape[0], a.shape[1], cfg.heads, -1).transpose(0, 2, 1, 3)
    inflate = lambda a: np.concatenate([np.broadcast_to(a[n // 2], a.shape), a], axis=2)
    maps = {}

    def attend(key, q, k, v):
        own = _softmax(q @ np.swapaxes(k, -1, -2) / math.sqrt(cfg.d_head))
        maps[key] = rewrite(key, own)
        return (maps[key] @ v).transpose(0, 2, 1, 3).reshape(x.shape)

    for layer, b in enumerate(weights.blocks):
        x = x + attend((layer, "self"), split(x @ b.wq_s), inflate(split(x @ b.wk_s)),
                       inflate(split(x @ b.wv_s)))
        text = lambda wt: split((vectors @ wt)[None])
        x = x + attend((layer, "cross"), split(x @ b.wq_c), text(b.wk_c), text(b.wv_c))
        x = x + np.tanh(x @ b.w_mlp_in) @ b.w_mlp_out
    return (x @ weights.w_out).transpose(0, 2, 1).reshape(n, c, h, w), maps


def _move(z, eps, alpha_bar, src, dst):
    """DDIM from timestep src to dst along the predicted noise."""
    x0 = (z - math.sqrt(1.0 - alpha_bar[src]) * eps) / math.sqrt(alpha_bar[src])
    return math.sqrt(alpha_bar[dst]) * x0 + math.sqrt(1.0 - alpha_bar[dst]) * eps


def _reference_edit(z0, src, edit, matched, removed, sched, weights, cfg):
    """(z_T, z_0): inversion of z0 under *src*, then the fused edit under *edit*."""
    T, alpha_bar = sched.T, sched.alpha_bar
    recorded, z = {}, z0
    for t in range(T):
        eps, recorded[t] = _forward(z, t, src.vectors, weights, T)
        z = _move(z, eps, alpha_bar, t, t + 1)
    z_T = z
    itself = [(i, i) for i in range(len(src.tokens))]
    for t in range(T, 0, -1):
        source = recorded[t - 1]

        def rewrite(key, attn, matched=matched):
            layer, kind = key
            if kind == "cross" and t >= cfg.t_c * T - 1e-9:
                fused = attn.copy()
                for i, j in matched:
                    fused[..., j] = source[key][..., i]
                return fused / fused.sum(axis=-1, keepdims=True)
            if kind == "self" and t >= cfg.t_s * T - 1e-9:
                mask = np.zeros((attn.shape[0], attn.shape[2]), dtype=bool)
                if removed:
                    word = source[(layer, "cross")].mean(axis=1)[..., removed].sum(axis=-1)
                    mask = word / word.max(axis=1, keepdims=True) > cfg.tau
                return np.where(mask[:, None, :, None], attn, source[key])
            return attn

        eps = _forward(z, t, edit.vectors, weights, T, rewrite)[0]
        if cfg.s_cfg != 1.0:
            eps_u = _forward(z, t, src.vectors, weights, T,
                             lambda key, attn: rewrite(key, attn, itself))[0]
            eps = eps_u + cfg.s_cfg * (eps - eps_u)
        z = _move(z, eps, alpha_bar, t, t - 1)
    return z_T, z


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4),
       hw=st.sampled_from([(3, 5), (8, 8), (5, 13), (6, 11), (8, 12)]),
       blocks=st.integers(1, 3), T=st.integers(2, 8),
       t_s=st.sampled_from(FRACS), t_c=st.sampled_from(FRACS),
       tau=st.sampled_from(FRACS), s_cfg=st.sampled_from([1.0, 7.5]),
       change=st.sampled_from(["identity", "substitute", "drop"]),
       word=st.integers(0, len(WORDS) - 1), seed=st.integers(0, 2 ** 16))
def test_the_pipeline_edits_as_the_whole_map_reference_does(n, hw, blocks, T, t_s, t_c,
                                                            tau, s_cfg, change, word, seed):
    # 8x8 is one full tile, 5x13 ends in a 1-row tail tile, 6x11 and 8x12
    # in longer ones.  Token 0 is the start token, so word k is token k + 1.
    h, w = hw
    cfg = ModelConfig(n=n, h=h, w=w, c=1, d_model=8, heads=2, d_head=4,
                      blocks=blocks, d_text=8, seed=seed)
    weights = make_denoiser_weights(cfg)
    edited = {"identity": WORDS,
              "substitute": WORDS[:word] + ("blue",) + WORDS[word + 1:],
              "drop": WORDS[:word] + WORDS[word + 1:]}[change]
    removed = () if change == "identity" else (word + 1,)
    matched = [(i, i - (change == "drop" and i > word + 1))
               for i in range(len(WORDS) + 1) if i not in removed]
    src, edit = embed_prompt(" ".join(WORDS), cfg), embed_prompt(" ".join(edited), cfg)
    sched = make_schedule(T, 0.02, 0.2)
    z0 = np.random.default_rng(seed).standard_normal((n, 1, h, w)) * 0.5
    edit_cfg = EditConfig(t_s=t_s, t_c=t_c, tau=tau, s_cfg=s_cfg)

    # The pipeline keeps the latent trajectory alone.
    trajectory = invert_video(z0, src, sched, weights)
    plan = FusionPlan(edit_cfg, align_prompts(src.tokens, edit.tokens), trajectory, src,
                      blocks)
    z_T = trajectory[-1]
    z_0 = run_denoise(z_T, edit, sched, weights, s_cfg, plan)
    want_T, want_0 = _reference_edit(z0, src, edit, matched, removed, sched, weights,
                                     edit_cfg)
    assert np.max(np.abs(z_T - want_T)) <= 1e-12
    assert np.max(np.abs(z_0 - want_0)) <= 1e-10
