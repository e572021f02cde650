"""Attention store: keyed capture, completeness, and offline dumps."""

import json
import tracemalloc

import numpy as np
import pytest

from attnfuse.errors import ContractViolation, MissingRecordError
from attnfuse.model import (KIND_CROSS, KIND_SELF, AttentionRecord,
                            ModelConfig, SelfProjections, config_hash,
                            denoiser_forward, embed_prompt,
                            make_denoiser_weights)
from attnfuse.numerics import SeededRng
from attnfuse.pipeline import invert_video
from attnfuse.schedule import ddim_invert_step, make_schedule
from attnfuse.store import (AttentionKey, AttentionStore, StoreMeta,
                            load_store_dump)


def _uniform_record(t, layer, kind=KIND_CROSS, keys=4):
    attn = np.full((2, 1, 3, keys), 1.0 / keys)
    return AttentionRecord(t=t, layer=layer, kind=kind, attn=attn)


def _projections(seed=0):
    rng = np.random.default_rng(seed)
    return SelfProjections(queries=rng.standard_normal((2, 3, 4)),
                           keys=rng.standard_normal((2, 3, 4)), heads=2)


def test_record_query_round_trip():
    store = AttentionStore(StoreMeta(T=2, blocks=1, config_hash=7))
    rec = _uniform_record(0, 0)
    store.record(rec)
    got = store.query(0, 0, KIND_CROSS)
    assert got is rec
    assert np.array_equal(got.attn, rec.attn)
    assert not got.attn.flags.writeable

    proj = _projections()
    store.record_projections(0, 0, proj)
    first, second = store.query(0, 0, KIND_SELF), store.query(0, 0, KIND_SELF)
    assert (first.t, first.layer, first.kind) == (0, 0, KIND_SELF)
    assert first.attn.shape == (2, 2, 3, 6)
    assert first.attn is not second.attn
    assert np.array_equal(first.attn, proj.attn())
    assert np.array_equal(first.attn, second.attn)
    assert not first.attn.flags.writeable


def test_self_maps_are_recorded_as_projections_only():
    store = AttentionStore(StoreMeta(T=2, blocks=1, config_hash=7))
    with pytest.raises(ContractViolation, match="projections"):
        store.record(_uniform_record(0, 0, KIND_SELF))
    store.record_projections(0, 0, _projections())
    with pytest.raises(ContractViolation, match="duplicate"):
        store.record_projections(0, 0, _projections(1))


def test_duplicate_record_rejected():
    store = AttentionStore(StoreMeta(T=2, blocks=1, config_hash=7))
    store.record(_uniform_record(1, 0, KIND_CROSS))
    with pytest.raises(ContractViolation):
        store.record(_uniform_record(1, 0, KIND_CROSS))


def test_missing_query_names_key():
    store = AttentionStore(StoreMeta(T=4, blocks=2, config_hash=7))
    with pytest.raises(MissingRecordError) as exc:
        store.query(3, 1, KIND_SELF)
    msg = str(exc.value)
    assert "3" in msg and "1" in msg and "self" in msg


def test_bad_row_sums_rejected_at_record_time():
    store = AttentionStore(StoreMeta(T=1, blocks=1, config_hash=7))
    attn = np.full((1, 1, 2, 4), 0.3)
    with pytest.raises(ContractViolation):
        store.record(AttentionRecord(t=0, layer=0, kind=KIND_CROSS, attn=attn))


def test_verify_complete_lists_missing():
    store = AttentionStore(StoreMeta(T=2, blocks=1, config_hash=7))
    store.record_projections(0, 0, _projections())
    store.record(_uniform_record(0, 0, KIND_CROSS))
    store.record_projections(1, 0, _projections())
    missing = store.verify_complete()
    assert missing == [AttentionKey(1, 0, KIND_CROSS)]
    store.record(_uniform_record(1, 0, KIND_CROSS))
    assert store.verify_complete() == []


def test_inversion_fills_store(tiny_cfg, tiny_inversion):
    sched, _, _, _, store = tiny_inversion
    assert len(store) == 2 * sched.T * tiny_cfg.blocks
    assert store.verify_complete() == []
    hw = tiny_cfg.h * tiny_cfg.w
    first = store.query(0, 0, KIND_SELF)
    assert first.attn.shape == (tiny_cfg.n, tiny_cfg.heads, hw, 2 * hw)
    last = store.query(sched.T - 1, tiny_cfg.blocks - 1, KIND_CROSS)
    assert last.attn.shape[:3] == (tiny_cfg.n, tiny_cfg.heads, hw)
    with pytest.raises(MissingRecordError):
        store.query(sched.T, 0, KIND_SELF)


def test_stored_maps_are_immutable(tiny_inversion):
    *_, store = tiny_inversion
    rec = store.query(0, 0, KIND_SELF)
    with pytest.raises(ValueError):
        rec.attn[0, 0, 0, 0] = 0.5


def test_dump_and_load_round_trip(tmp_path, tiny_cfg, tiny_inversion):
    sched, _, _, _, store = tiny_inversion
    d = tmp_path / "store"
    store.dump(d)
    assert (d / "index.json").exists()
    files = sorted(p.name for p in d.glob("*.bin"))
    assert len(files) == len(store)
    assert f"self_t0000_l00.bin" in files
    # a self blob holds the queries and keys: 2*n*h*w*d_model float64s
    hw = tiny_cfg.h * tiny_cfg.w
    self_bytes = (d / "self_t0000_l00.bin").stat().st_size
    assert self_bytes == 16 + 2 * tiny_cfg.n * hw * tiny_cfg.d_model * 8
    loaded = load_store_dump(d)
    assert loaded.meta == store.meta
    assert loaded.meta.config_hash == config_hash(tiny_cfg)
    assert len(loaded) == len(store) == sched.T * tiny_cfg.blocks * 2
    assert loaded.verify_complete() == []
    for key in store.keys():
        a = store.query(*key).attn
        b = loaded.query(*key).attn
        assert np.array_equal(a, b)


def test_old_format_dump_is_refused(tmp_path, tiny_inversion):
    *_, store = tiny_inversion
    d = tmp_path / "store"
    store.dump(d)
    index = json.loads((d / "index.json").read_text())
    assert index["version"] == 2
    # A version 1 dump had no version key and held self maps in its blobs.
    del index["version"]
    (d / "index.json").write_text(json.dumps(index))
    with pytest.raises(ContractViolation, match="version 1, expected 2"):
        load_store_dump(d)


def test_rebuilt_self_maps_equal_the_forward_maps(tiny_cfg, tiny_weights,
                                                  tiny_inversion, capture_probe):
    sched, prompt, z0, _, store = tiny_inversion
    z = z0
    for t in range(sched.T):
        probe, records = capture_probe()
        eps = denoiser_forward(z, t, prompt, tiny_weights, sched.T, probe=probe)
        assert len(records) == 2 * tiny_cfg.blocks
        for rec in records:
            if rec.kind == KIND_SELF:
                assert np.array_equal(store.query(t, rec.layer, KIND_SELF).attn,
                                      rec.attn)
        z = ddim_invert_step(z, eps, t, sched)


def test_inversion_store_holds_projections_not_maps():
    cfg = ModelConfig(n=4, h=24, w=24, c=1, d_model=16, heads=2, d_head=8,
                      blocks=2, d_text=16, seed=3)
    weights = make_denoiser_weights(cfg)
    prompt = embed_prompt("a red square", cfg)
    z0 = SeededRng(8).standard_normal((cfg.n, cfg.c, cfg.h, cfg.w)) * 0.2
    sched = make_schedule(2, 0.05, 0.1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, store = invert_video(z0, prompt, sched, weights)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert store.verify_complete() == []
    # Four self maps would hold 4 * 42.5 MB; their projections hold 2.4 MB.
    assert held < 10e6


def test_store_meta_validation():
    with pytest.raises(ContractViolation):
        AttentionStore(StoreMeta(T=0, blocks=1, config_hash=0))
    with pytest.raises(ContractViolation):
        AttentionStore(StoreMeta(T=1, blocks=0, config_hash=0))
