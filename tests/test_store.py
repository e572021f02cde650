"""Attention store: keyed capture, completeness, and offline dumps."""

import json

import numpy as np
import pytest

from attnfuse.blobio import HEADER, read_blob, write_blob
from attnfuse.errors import ContractViolation, MissingRecordError
from attnfuse.model import (KIND_CROSS, KIND_SELF, POS_DIM, TIME_DIM, AttentionSite,
                            LatentProjections, ModelConfig, SelfProjections,
                            config_hash, denoiser_forward, embed_prompt,
                            make_denoiser_weights)
from attnfuse.numerics import SeededRng
from attnfuse.pipeline import invert_video
from attnfuse.schedule import ddim_invert_step, make_schedule
from attnfuse.store import (WEIGHTS_BLOB, AttentionKey, AttentionStore, DumpGeometry,
                            DumpWriter, StoreMeta, load_store_dump)


def _cross_site(t, layer, keys=4):
    attn = np.full((2, 1, 3, keys), 1.0 / keys)
    return AttentionSite(t, layer, KIND_CROSS, attn.shape, lambda: attn)


def _projections(seed=0):
    rng = np.random.default_rng(seed)
    return SelfProjections(feats=rng.standard_normal((2, 3, 4)),
                           wq=rng.standard_normal((4, 4)),
                           wk=rng.standard_normal((4, 4)), heads=2)


def _self_site(t, layer, proj):
    return AttentionSite(t, layer, KIND_SELF, proj.shape, proj.attn,
                         projections=proj)


def test_record_query_round_trip():
    store = AttentionStore(StoreMeta(T=2, blocks=1, config_hash=7))
    site = _cross_site(0, 0)
    store.record(site)
    got = store.query(0, 0)
    assert isinstance(got, np.ndarray)
    assert got is site.attn
    assert not got.flags.writeable

    proj = _projections()
    store.record(_self_site(1, 0, proj))
    assert store.projections(1, 0) is proj
    first, second = proj.attn(), proj.attn()
    assert first.shape == (2, 2, 3, 6)
    assert first is not second
    assert np.array_equal(first, second)
    assert not first.flags.writeable
    # query reads cross maps only, not the self record at (1, 0)
    with pytest.raises(MissingRecordError, match="cross"):
        store.query(1, 0)


def test_self_maps_are_recorded_as_projections_only():
    store = AttentionStore(StoreMeta(T=2, blocks=1, config_hash=7))
    proj = _projections()

    def unbuildable():
        raise AssertionError("recording a self site built its map")

    store.record(AttentionSite(0, 0, KIND_SELF, proj.shape, unbuildable,
                               projections=proj))
    assert store.projections(0, 0) is proj
    with pytest.raises(ContractViolation, match="duplicate"):
        store.record(_self_site(0, 0, _projections(1)))


def test_self_record_is_the_block_input_and_the_model_weights(tiny_cfg, tiny_weights,
                                                              tiny_inversion):
    *_, store = tiny_inversion
    hw = tiny_cfg.h * tiny_cfg.w
    for t in range(store.meta.T):
        for layer, block in enumerate(tiny_weights.blocks):
            record = store.projections(t, layer)
            assert record.feats.shape == (tiny_cfg.n, hw, tiny_cfg.d_model)
            assert not record.feats.flags.writeable
            assert record.wq is block.wq_s and record.wk is block.wk_s
            assert record.heads == tiny_cfg.heads


def test_duplicate_record_rejected():
    store = AttentionStore(StoreMeta(T=2, blocks=1, config_hash=7))
    store.record(_cross_site(1, 0))
    with pytest.raises(ContractViolation):
        store.record(_cross_site(1, 0))


def test_missing_query_names_key():
    store = AttentionStore(StoreMeta(T=4, blocks=2, config_hash=7))
    with pytest.raises(MissingRecordError) as exc:
        store.projections(3, 1)
    msg = str(exc.value)
    assert "3" in msg and "1" in msg and "self" in msg


def test_verify_complete_lists_missing():
    store = AttentionStore(StoreMeta(T=2, blocks=1, config_hash=7))
    store.record(_self_site(0, 0, _projections()))
    store.record(_cross_site(0, 0))
    store.record(_self_site(1, 0, _projections()))
    missing = store.verify_complete()
    assert missing == [AttentionKey(1, 0, KIND_CROSS)]
    store.record(_cross_site(1, 0))
    assert store.verify_complete() == []


def test_a_store_keeps_only_the_keys_it_wants(tmp_path):
    wanted = [AttentionKey(0, 0, KIND_CROSS), AttentionKey(1, 0, KIND_SELF)]
    store = AttentionStore(StoreMeta(T=2, blocks=1, config_hash=7), set(wanted))
    store.record(_self_site(0, 0, _projections()))  # not wanted: passed over
    store.record(_cross_site(0, 0))
    assert store.verify_complete() == [AttentionKey(1, 0, KIND_SELF)]
    store.record(_self_site(1, 0, _projections()))
    store.record(_cross_site(1, 0))
    assert store.verify_complete() == []
    assert list(store.keys()) == wanted
    with pytest.raises(MissingRecordError):
        store.projections(0, 0)
    with pytest.raises(ContractViolation, match="2 records missing"):
        store.dump(tmp_path / "store")


def test_a_streamed_dump_equals_the_dumped_store(tmp_path, tiny_weights, tiny_inversion):
    sched, prompt, z0, z_T, store = tiny_inversion
    store.dump(tmp_path / "dumped")
    dumped = {p.name: p.read_bytes() for p in (tmp_path / "dumped").iterdir()}
    # A writer over an earlier dump removes its index and weights before any blob.
    writer = DumpWriter(tmp_path / "dumped", store.meta)
    assert not (tmp_path / "dumped" / "index.json").exists()
    assert not (tmp_path / "dumped" / WEIGHTS_BLOB).exists()
    with pytest.raises(ContractViolation, match="16 records missing"):
        writer.close()
    assert not (tmp_path / "dumped" / "index.json").exists()

    writer = DumpWriter(tmp_path / "streamed", store.meta)
    z, _ = invert_video(z0, prompt, sched, tiny_weights, writer)
    assert np.array_equal(z, z_T)
    assert not (tmp_path / "streamed" / "index.json").exists()
    writer.close()
    assert {p.name: p.read_bytes() for p in (tmp_path / "streamed").iterdir()} == dumped
    with pytest.raises(ContractViolation, match="duplicate"):
        writer.record(_self_site(0, 0, store.projections(0, 0)))


def test_inversion_fills_store(tiny_cfg, tiny_inversion):
    sched, _, _, _, store = tiny_inversion
    assert len(store) == 2 * sched.T * tiny_cfg.blocks
    assert store.verify_complete() == []
    hw = tiny_cfg.h * tiny_cfg.w
    first = store.projections(0, 0).attn()
    assert first.shape == (tiny_cfg.n, tiny_cfg.heads, hw, 2 * hw)
    last = store.query(sched.T - 1, tiny_cfg.blocks - 1)
    assert last.shape[:3] == (tiny_cfg.n, tiny_cfg.heads, hw)
    with pytest.raises(MissingRecordError):
        store.projections(sched.T, 0)


def test_stored_maps_are_immutable(tiny_inversion):
    *_, store = tiny_inversion
    attn = store.projections(0, 0).attn()
    with pytest.raises(ValueError):
        attn[0, 0, 0, 0] = 0.5


def test_dump_and_load_round_trip(tmp_path, tiny_cfg, tiny_inversion, store_maps):
    sched, _, _, _, store = tiny_inversion
    d = tmp_path / "store"
    store.dump(d)
    assert (d / "index.json").exists()
    files = sorted(p.name for p in d.glob("*.bin"))
    assert len(files) == len(store) + 1
    assert "self_t0000_l00.bin" in files and WEIGHTS_BLOB in files
    # Each blob holds one array: block 0's self blob the latent, n*c*h*w
    # float64s, a later block's the block input, n*h*w*d_model, a cross
    # blob the map.  weights.bin holds w_in, the time table and each
    # block's d_model x d_model query and key weights, once.
    m, hw = tiny_cfg, tiny_cfg.h * tiny_cfg.w
    tokens = store.query(0, 0).shape[-1]
    payload = {name: (d / name).stat().st_size - HEADER.size for name in files}
    assert payload.pop(WEIGHTS_BLOB) == 8 * ((m.c + POS_DIM + TIME_DIM) * m.d_model
                                             + 2 * TIME_DIM + m.blocks * 2 * m.d_model ** 2)
    for name, size in payload.items():
        kind, _, layer = name[:-4].split("_")
        per_pixel = (m.heads * tokens if kind == KIND_CROSS
                     else m.c if layer == "l00" else m.d_model)
        assert size == 8 * m.n * hw * per_pixel, name
    loaded = load_store_dump(d)
    assert loaded.meta == store.meta
    assert loaded.meta.config_hash == config_hash(tiny_cfg)
    assert len(loaded) == len(store) == sched.T * tiny_cfg.blocks * 2
    assert loaded.verify_complete() == []
    assert list(loaded.keys()) == list(store.keys())
    for t in range(sched.T):
        first = loaded.projections(t, 0)
        assert type(first) is LatentProjections
        assert first.feats.tobytes() == store.projections(t, 0).feats.tobytes()
    # The records of one block share its loaded weights, as live records do.
    for layer in range(m.blocks):
        records = [loaded.projections(t, layer) for t in range(sched.T)]
        assert all(r.wq is records[0].wq and r.wk is records[0].wk for r in records)
        assert np.array_equal(records[0].wq, store.projections(0, layer).wq)
    want, got = store_maps(store), store_maps(loaded)
    for key in store.keys():
        assert np.array_equal(want[key], got[key])


def test_dump_writer_refuses_a_record_it_cannot_write_back(tmp_path, tiny_inversion):
    *_, store = tiny_inversion
    latent, later = store.projections(1, 0), store.projections(1, 1)
    other = later.wq.copy()
    other[0, 0] += 1.0
    w_in = latent.w_in.copy()
    w_in[0, 0] += 1.0
    for name, key, entry, fragment in [
            ("plain", AttentionKey(0, 0, KIND_SELF),
             SelfProjections(latent.feats, latent.wq, latent.wk, latent.heads),
             "must be a LatentProjections, got a SelfProjections"),
            ("step", AttentionKey(0, 0, KIND_SELF), latent, "of step 1 of 4, expected step 0"),
            ("wq", AttentionKey(1, 1, KIND_SELF),
             SelfProjections(later.feats, other, later.wk, later.heads), "weights differ"),
            ("w_in", AttentionKey(1, 0, KIND_SELF),
             LatentProjections(latent.z_t, 1, 4, w_in, latent.time_freq,
                               latent.time_phase, latent.wq, latent.wk, latent.heads),
             "weights differ")]:
        writer = DumpWriter(tmp_path / name, store.meta)
        for earlier in [k for k in store.keys() if k.t == 0]:
            if earlier != key:
                writer._add(earlier, store._entry(earlier))
        with pytest.raises(ContractViolation, match=fragment) as exc:
            writer._add(key, entry)
        assert str(key) in str(exc.value), name


def test_old_format_dump_is_refused(tmp_path, tiny_inversion):
    *_, store = tiny_inversion
    d = tmp_path / "store"
    store.dump(d)
    index = json.loads((d / "index.json").read_text())
    assert index["version"] == 5
    # Version 4 wrote block inputs and weights into every self blob;
    # version 3 listed every record's file and shape; version 2 held query
    # and key projections in its self blobs; a version 1 dump had no
    # version key and held self maps.  A version must be the integer 5.
    for version, fragment in [(4, "version 4, expected 5"),
                              (3, "version 3, expected 5"),
                              (2, "version 2, expected 5"),
                              (None, "version 1, expected 5"),
                              ("5", "version '5', expected 5"),
                              (5.0, r"version 5\.0, expected 5")]:
        old = {k: v for k, v in index.items() if k != "version"}
        if version is not None:
            old["version"] = version
        (d / "index.json").write_text(json.dumps(old))
        with pytest.raises(ContractViolation, match=fragment):
            load_store_dump(d)


def test_dump_refuses_an_incomplete_store(tmp_path):
    store = AttentionStore(StoreMeta(T=2, blocks=1, config_hash=7))
    store.record(_self_site(0, 0, _projections()))
    store.record(_cross_site(0, 0))
    with pytest.raises(ContractViolation, match="2 records missing"):
        store.dump(tmp_path / "store")
    assert not (tmp_path / "store").exists()


CROSS_BLOB = "cross_t0000_l00.bin"
SELF_BLOB = "self_t0000_l00.bin"
LATER_SELF_BLOB = "self_t0000_l01.bin"


def _with_nan(path, hash_, shapes, which=0):
    """Rewrite the blob at *path* with a NaN in its array number *which*."""
    arrays = [arr.copy() for arr in read_blob(path, hash_, shapes)]
    arrays[which].flat[-1] = np.nan
    write_blob(path, hash_, arrays)


def _tampered_dump(directory, store, case):
    """Dump *store* to *directory*, then spoil its index, its weights or one of its blobs."""
    store.dump(directory)
    index = json.loads((directory / "index.json").read_text())
    geometry = DumpGeometry(*(index[n] for n in DumpGeometry._fields))
    hash_ = store.meta.config_hash
    cross, weights = directory / CROSS_BLOB, directory / WEIGHTS_BLOB
    cross_shape = geometry.shape(AttentionKey(0, 0, KIND_CROSS))
    weight_shapes = geometry.weight_shapes(store.meta.blocks)
    if case == "scaled payload":
        [attn] = read_blob(cross, hash_, [cross_shape])
        write_blob(cross, hash_, [attn * 2.0])
    elif case == "nan payload":
        _with_nan(cross, hash_, [cross_shape])
    elif case == "nan latent":
        _with_nan(directory / SELF_BLOB, hash_,
                  [geometry.shape(AttentionKey(0, 0, KIND_SELF))])
    elif case == "nan block input":
        _with_nan(directory / LATER_SELF_BLOB, hash_,
                  [geometry.shape(AttentionKey(0, 1, KIND_SELF))])
    elif case == "nan weights":
        _with_nan(weights, hash_, weight_shapes, which=-1)
    elif case == "short weights":
        write_blob(weights, hash_, read_blob(weights, hash_, weight_shapes)[:-1])
    elif case == "no weights":
        weights.unlink()
    elif case == "no tokens key":
        del index["tokens"]
    elif case == "string config hash":
        index["config_hash"] = "x"
    elif case == "string heads":
        index["heads"] = "2"
    elif case == "no cross blob":
        cross.unlink()
    elif case == "huge geometry":  # 2**64 latent rows overflow int64
        index["frames"] = index["height"] = 2 ** 32
    elif case in ("one token more", "one token fewer"):
        index["tokens"] += 1 if case == "one token more" else -1
    elif case not in ("garbage index", "no index"):  # "<field> <value>"
        field, value = case.split()
        index[field] = int(value)
    if case == "no index":
        (directory / "index.json").unlink()
    else:
        (directory / "index.json").write_text(
            "{not json" if case == "garbage index" else json.dumps(index))
    return directory


def test_load_checks_every_cross_map_it_reads(tmp_path, tiny_inversion):
    *_, store = tiny_inversion
    store.dump(tmp_path / "good")
    assert load_store_dump(tmp_path / "good").verify_complete() == []
    # blobio checks the header and the length only, so the payload cases
    # reach the loader.  Each case names the file at fault: the blob, or
    # the index.
    for case, fragment, named in [
            ("scaled payload", "rows deviate from 1", CROSS_BLOB),
            ("nan payload", "rows deviate from 1 by nan", CROSS_BLOB),
            ("nan latent", "self latent: non-finite", SELF_BLOB),
            ("nan block input", "self block input: non-finite", LATER_SELF_BLOB),
            ("nan weights", "weights: non-finite", WEIGHTS_BLOB),
            ("short weights", "payload shorter than declared shapes", WEIGHTS_BLOB),
            ("no weights", "cannot read", WEIGHTS_BLOB),
            ("one token more", "payload shorter than declared shapes", CROSS_BLOB),
            ("one token fewer", "trailing bytes", CROSS_BLOB),
            ("huge geometry", "payload shorter than declared shapes", SELF_BLOB),
            ("no cross blob", "cannot read", CROSS_BLOB),
            ("garbage index", "not a JSON index", "index.json"),
            ("no index", "cannot read", "index.json"),
            ("no tokens key", "tokens must be present as integers", "index.json"),
            ("string config hash", "config_hash must be", "index.json"),
            ("string heads", "heads must be", "index.json"),
            ("channels 0", "at least 1, got channels = 0", "index.json"),
            ("height 0", "at least 1, got height = 0", "index.json"),
            ("width -1", "at least 1, got width = -1", "index.json"),
            ("heads 0", "at least 1, got heads = 0", "index.json"),
            ("heads 3", "3 heads do not split d_model 8", "index.json")]:
        d = _tampered_dump(tmp_path / case.replace(" ", "_"), store, case)
        with pytest.raises(ContractViolation, match=fragment) as exc:
            load_store_dump(d)
        assert named in str(exc.value), case


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
                assert np.array_equal(store.projections(t, rec.layer).attn(),
                                      rec.attn)
        z = ddim_invert_step(z, eps, t, sched)


def test_inversion_store_holds_projections_not_maps(peak_bytes):
    cfg = ModelConfig(n=4, h=24, w=24, c=1, d_model=16, heads=2, d_head=8,
                      blocks=2, d_text=16, seed=3)
    weights = make_denoiser_weights(cfg)
    prompt = embed_prompt("a red square", cfg)
    z0 = SeededRng(8).standard_normal((cfg.n, cfg.c, cfg.h, cfg.w)) * 0.2
    sched = make_schedule(2, 0.05, 0.1)
    (_, store), peak = peak_bytes(lambda: invert_video(z0, prompt, sched, weights))
    assert store.verify_complete() == []
    # Four self maps would hold 4 * 42.5 MB; their block inputs hold 1.2 MB,
    # beside one forward pass's tile of logits.
    assert peak < 10e6


def test_store_meta_validation():
    with pytest.raises(ContractViolation):
        AttentionStore(StoreMeta(T=0, blocks=1, config_hash=0))
    with pytest.raises(ContractViolation):
        AttentionStore(StoreMeta(T=1, blocks=0, config_hash=0))
