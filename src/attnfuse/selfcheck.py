"""Built-in fast property suite behind the `selfcheck` subcommand.

Each check is independent, takes well under a second, and needs no
files.  Failures are reported one per line; the suite returns the
number of failures.
"""

from __future__ import annotations

import numpy as np

from .fusion import (FusionPlan, align_prompts, blend_self, build_blend_mask,
                     identity_alignment, preset)
from .errors import ContractViolation
from .model import (KIND_CROSS, KIND_SELF, AttentionSite, ModelConfig,
                    attend, denoiser_forward, embed_prompt,
                    make_denoiser_weights, spatiotemporal_attend)
from .numerics import SeededRng, require, softmax_lastdim
from .pipeline import decode, encode, invert_video
from .schedule import cfg_combine, ddim_invert_step, ddim_step, make_schedule

_TINY = ModelConfig(n=3, h=4, w=4, c=1, d_model=8, heads=2, d_head=4,
                    blocks=1, d_text=8, seed=11)


def _check_schedule_round_trip():
    sched = make_schedule(50)
    rng = SeededRng(1)
    for _ in range(200):
        z = rng.standard_normal((2, 3))
        eps = rng.standard_normal((2, 3))
        t = int(rng.integers(0, sched.T))
        down_up = ddim_invert_step(ddim_step(z, eps, t + 1, sched), eps, t, sched)
        up_down = ddim_step(ddim_invert_step(z, eps, t, sched), eps, t + 1, sched)
        scale = max(1.0, float(np.abs(z).max()))
        require(float(np.abs(down_up - z).max()) / scale <= 1e-9,
                "inversion round trip above 1e-9")
        require(float(np.abs(up_down - z).max()) / scale <= 1e-9,
                "sampling round trip above 1e-9")


def _check_guidance_endpoints():
    u = np.array([0.2, -0.4])
    c = np.array([0.6, 0.1])
    require(np.array_equal(cfg_combine(u, c, 1.0), c), "scale 1 not exactly cond")
    require(np.array_equal(cfg_combine(u, c, 0.0), u), "scale 0 not exactly uncond")
    require(abs(cfg_combine(np.array([0.2]), np.array([0.6]), 7.5)[0] - 3.2) < 1e-12,
            "guidance arithmetic off")


def _check_softmax_rows():
    rng = SeededRng(2)
    x = rng.standard_normal((7, 13)) * 30.0
    s = softmax_lastdim(x)
    require(float(np.abs(s.sum(-1) - 1.0).max()) <= 1e-12, "softmax rows off 1")
    require(bool(np.all(s > 0.0)), "softmax lost strict positivity")


def _check_middle_frame_equivalence():
    rng = SeededRng(3)
    weights = make_denoiser_weights(_TINY)
    bw = weights.blocks[0]
    hw = _TINY.h * _TINY.w
    for _ in range(3):
        feats = rng.standard_normal((_TINY.n, hw, _TINY.d_model))
        out, _ = spatiotemporal_attend(feats, bw, _TINY.heads, _TINY.d_head)
        mid = _TINY.n // 2
        from .model import _merge_heads, _split_heads
        q = _split_heads(feats[mid:mid + 1] @ bw.wq_s, _TINY.heads, _TINY.d_head)
        k = _split_heads(feats[mid:mid + 1] @ bw.wk_s, _TINY.heads, _TINY.d_head)
        v = _split_heads(feats[mid:mid + 1] @ bw.wv_s, _TINY.heads, _TINY.d_head)
        plain, _ = attend(q, k, v, _TINY.d_head)
        gap = float(np.abs(out[mid] - _merge_heads(plain)[0]).max())
        require(gap <= 1e-9, f"middle frame deviates from plain attention by {gap:.2e}")


def _check_forward_determinism():
    weights = make_denoiser_weights(_TINY)
    prompt = embed_prompt("a red square", _TINY)
    z = SeededRng(4).standard_normal((_TINY.n, _TINY.c, _TINY.h, _TINY.w))
    eps1 = denoiser_forward(z, 2, prompt, weights, n_steps=5)
    eps2 = denoiser_forward(z, 2, prompt, weights, n_steps=5)
    require(np.array_equal(eps1, eps2), "same inputs gave different noise")


def _capture(z, t, prompt, weights, n_steps):
    """(eps, maps by (layer, kind)) of a forward pass, read by a probe."""
    maps = {}

    def capture(site):
        maps[(site.layer, site.kind)] = site.attn

    return denoiser_forward(z, t, prompt, weights, n_steps, capture), maps


def _check_probe_replay():
    weights = make_denoiser_weights(_TINY)
    prompt = embed_prompt("a red square", _TINY)
    z = SeededRng(5).standard_normal((_TINY.n, _TINY.c, _TINY.h, _TINY.w))
    eps1, replay = _capture(z, 1, prompt, weights, n_steps=5)
    eps2 = denoiser_forward(z, 1, prompt, weights, n_steps=5,
                            probe=lambda site: replay[(site.layer, site.kind)])
    require(np.array_equal(eps1, eps2), "replaying recorded maps changed the output")


def _tiny_inversion():
    sched = make_schedule(3, 0.1, 0.2)
    weights = make_denoiser_weights(_TINY)
    prompt = embed_prompt("a red square", _TINY)
    z0 = SeededRng(6).standard_normal((_TINY.n, _TINY.c, _TINY.h, _TINY.w)) * 0.1
    return sched, weights, prompt, z0, invert_video(z0, prompt, sched, weights)


def _check_store_completeness():
    sched, _, _, _, (_, store) = _tiny_inversion()
    require(len(store) == 2 * sched.T * _TINY.blocks, "store record count off")
    require(store.verify_complete() == [], "store reports missing records")


def _check_store_rebuild():
    sched, weights, prompt, z0, (_, store) = _tiny_inversion()
    _, maps = _capture(z0, 0, prompt, weights, n_steps=sched.T)
    for layer in range(_TINY.blocks):
        require(np.array_equal(store.query(0, layer, KIND_SELF).attn,
                               maps[(layer, KIND_SELF)]),
                f"rebuilt self map of layer {layer} differs from the forward's")


def _check_fusion_identity():
    sched, _, prompt, _, (_, store) = _tiny_inversion()
    plan = FusionPlan(preset("style"), identity_alignment(len(prompt.tokens)),
                      store)
    probe = plan.step_probe(sched.T)

    def unbuildable():
        raise ContractViolation("taking the source map built the edit map")

    for kind in (KIND_SELF, KIND_CROSS):
        src = store.query(sched.T - 1, 0, kind).attn
        fused = probe(AttentionSite(sched.T, 0, kind, src.shape, unbuildable))
        require(np.array_equal(fused, src), f"identity fusion altered the {kind} map")


def _check_mask_extremes():
    *_, (_, store) = _tiny_inversion()
    c_src = store.query(0, 0, KIND_CROSS).attn
    full = build_blend_mask(c_src, (1,), 0.0)
    empty = build_blend_mask(c_src, (1,), 1.0)
    require(bool(full.mask.all()), "tau 0 left mask entries unset")
    require(not empty.mask.any(), "tau 1 set mask entries")
    s_src = store.query(0, 0, KIND_SELF).attn
    s_edit = store.query(1, 0, KIND_SELF).attn
    require(np.array_equal(blend_self(s_edit, s_src, mask=empty), s_src),
            "empty mask did not hand back the source rows")
    require(np.array_equal(blend_self(s_edit, s_src, mask=full), s_edit),
            "full mask did not hand back the edit rows")


def _check_encode_decode():
    rng = SeededRng(7)
    pixels = np.floor(np.abs(rng.standard_normal((2, 3, 4, 4))) * 97) % 256
    from .imageio import quantize
    require(bool(np.all(quantize(decode(encode(pixels))) == pixels.astype(np.uint8))),
            "encode/decode byte round trip failed")


def _check_alignment():
    a = align_prompts(("a", "cat"), ("a", "tiger"))
    require(a.matched == ((0, 0),) and a.edited_positions == (1,)
            and a.removed_positions == (1,), "substitution alignment wrong")


CHECKS = [
    ("schedule-round-trip", _check_schedule_round_trip),
    ("guidance-endpoints", _check_guidance_endpoints),
    ("softmax-rows", _check_softmax_rows),
    ("middle-frame-equivalence", _check_middle_frame_equivalence),
    ("forward-determinism", _check_forward_determinism),
    ("probe-replay", _check_probe_replay),
    ("store-completeness", _check_store_completeness),
    ("store-rebuild", _check_store_rebuild),
    ("fusion-identity", _check_fusion_identity),
    ("mask-extremes", _check_mask_extremes),
    ("encode-decode", _check_encode_decode),
    ("prompt-alignment", _check_alignment),
]


def run_selfcheck(out=print) -> int:
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # report every failure, keep going
            failures += 1
            out(f"FAIL - {name}: {exc}")
        else:
            out(f"ok - {name}")
    return failures
