"""Attention store: keyed capture, completeness, and offline dumps."""

import dataclasses
import json

import numpy as np
import pytest

from attnfuse.blobio import HEADER, read_blob, write_blob
from attnfuse.errors import ContractViolation, MissingRecordError
from attnfuse.model import (KIND_CROSS, KIND_SELF, AttentionSite, ModelConfig, SelfTiles,
                            config_hash, denoiser_forward, embed_prompt,
                            make_denoiser_weights)
from attnfuse.numerics import SeededRng
from attnfuse.pipeline import invert_video
from attnfuse.schedule import ddim_invert_step, make_schedule
from attnfuse.store import (AttentionKey, AttentionStore, DumpGeometry, DumpWriter,
                            StoreMeta, load_store_dump)


def _cross_site(t, layer, keys=4):
    attn = np.full((2, 1, 3, keys), 1.0 / keys)
    return AttentionSite(t, layer, KIND_CROSS, attn.shape, lambda: attn)


def _record(seed=0, shape=(2, 3, 4)):
    """A read-only self record: a block input of 2 frames, 3 pixels, d_model 4."""
    record = np.random.default_rng(seed).standard_normal(shape)
    record.setflags(write=False)
    return record


def _unbuildable():
    raise AssertionError("recording a self site built its map")


def _self_site(t, layer, record):
    """A self site whose map a recorder must not build."""
    n, hw = record.shape[0], record.shape[1]
    return AttentionSite(t, layer, KIND_SELF, (n, 2, hw, 2 * hw), _unbuildable,
                         record=record)


def test_record_query_round_trip():
    store = AttentionStore(StoreMeta(T=2, blocks=1, config_hash=7))
    site = _cross_site(0, 0)
    store.record(site)
    got = store.query(0, 0)
    assert isinstance(got, np.ndarray)
    assert got is site.attn
    assert not got.flags.writeable

    record = _record()
    store.record(_self_site(1, 0, record))
    assert store.self_record(1, 0) is record
    rng = np.random.default_rng(1)
    tiles = SelfTiles(record, rng.standard_normal((4, 4)), rng.standard_normal((4, 4)), 2)
    first, second = tiles.attn(), tiles.attn()
    assert first.shape == (2, 2, 3, 6)
    assert first is not second
    assert np.array_equal(first, second)
    assert not first.flags.writeable
    # query reads cross maps only, not the self record at (1, 0)
    with pytest.raises(MissingRecordError, match="cross"):
        store.query(1, 0)


def test_self_maps_are_recorded_as_projections_only():
    store = AttentionStore(StoreMeta(T=2, blocks=1, config_hash=7))
    record = _record()
    store.record(_self_site(0, 0, record))  # the site's map is unbuildable
    assert store.self_record(0, 0) is record
    with pytest.raises(ContractViolation, match="duplicate"):
        store.record(_self_site(0, 0, _record(1)))


def test_self_record_is_the_block_input_and_the_model_weights(tiny_cfg, tiny_weights,
                                                              tiny_inversion, self_map):
    # A self record is one read-only array: block 0's the step's latent, a
    # later block's its input.  The model's weights make it a map.
    sched, _, z0, _, store = tiny_inversion
    m, hw = tiny_cfg, tiny_cfg.h * tiny_cfg.w
    assert np.array_equal(store.self_record(0, 0), z0)
    for t in range(store.meta.T):
        for layer in range(m.blocks):
            record = store.self_record(t, layer)
            assert type(record) is np.ndarray and not record.flags.writeable
            assert record.shape == ((m.n, m.c, m.h, m.w) if layer == 0
                                    else (m.n, hw, m.d_model))
            attn = self_map(record, t, layer, tiny_weights, sched.T)
            assert attn.shape == (m.n, m.heads, hw, 2 * hw)


def test_duplicate_record_rejected():
    store = AttentionStore(StoreMeta(T=2, blocks=1, config_hash=7))
    store.record(_cross_site(1, 0))
    with pytest.raises(ContractViolation):
        store.record(_cross_site(1, 0))


def test_missing_query_names_key():
    store = AttentionStore(StoreMeta(T=4, blocks=2, config_hash=7))
    with pytest.raises(MissingRecordError) as exc:
        store.self_record(3, 1)
    msg = str(exc.value)
    assert "3" in msg and "1" in msg and "self" in msg


def test_verify_complete_lists_missing():
    store = AttentionStore(StoreMeta(T=2, blocks=1, config_hash=7))
    store.record(_self_site(0, 0, _record()))
    store.record(_cross_site(0, 0))
    store.record(_self_site(1, 0, _record()))
    missing = store.verify_complete()
    assert missing == [AttentionKey(1, 0, KIND_CROSS)]
    store.record(_cross_site(1, 0))
    assert store.verify_complete() == []


def test_a_store_keeps_only_the_keys_it_wants():
    wanted = [AttentionKey(0, 0, KIND_CROSS), AttentionKey(1, 0, KIND_SELF)]
    store = AttentionStore(StoreMeta(T=2, blocks=1, config_hash=7), set(wanted))
    store.record(_self_site(0, 0, _record()))  # not wanted: passed over
    store.record(_cross_site(0, 0))
    assert store.verify_complete() == [AttentionKey(1, 0, KIND_SELF)]
    store.record(_self_site(1, 0, _record()))
    store.record(_cross_site(1, 0))
    assert store.verify_complete() == []
    assert list(store.keys()) == wanted
    with pytest.raises(MissingRecordError):
        store.self_record(0, 0)


def test_inversion_fills_store(tiny_cfg, tiny_weights, tiny_inversion, self_map):
    sched, _, _, _, store = tiny_inversion
    assert len(store) == 2 * sched.T * tiny_cfg.blocks
    assert store.verify_complete() == []
    hw = tiny_cfg.h * tiny_cfg.w
    first = self_map(store.self_record(0, 0), 0, 0, tiny_weights, sched.T)
    assert first.shape == (tiny_cfg.n, tiny_cfg.heads, hw, 2 * hw)
    last = store.query(sched.T - 1, tiny_cfg.blocks - 1)
    assert last.shape[:3] == (tiny_cfg.n, tiny_cfg.heads, hw)
    with pytest.raises(MissingRecordError):
        store.self_record(sched.T, 0)


def test_stored_maps_are_immutable(tiny_inversion):
    *_, store = tiny_inversion
    for record in (store.self_record(0, 0), store.self_record(0, 1), store.query(0, 0)):
        with pytest.raises(ValueError):
            record[0, 0, 0, 0] = 0.5


@pytest.mark.parametrize("blocks", [2, 1])
def test_dump_and_load_round_trip(tmp_path, tiny_cfg, toy_clip, write_dump, capture_probe,
                                  self_map, blocks):
    cfg = dataclasses.replace(tiny_cfg, blocks=blocks)
    d = tmp_path / "store"
    z_T = write_dump(d, make_denoiser_weights(cfg))
    assert (d / "index.json").exists()
    files = sorted(p.name for p in d.glob("*.bin"))
    assert "self_t0000_l00.bin" in files and "weights.bin" not in files
    # Each blob holds one array: block 0's self blob the latent, n*c*h*w
    # float64s, a later block's the block input, n*h*w*d_model, a cross
    # blob the map.  No blob holds weights.
    loaded = load_store_dump(d)
    m, hw, T = cfg, cfg.h * cfg.w, loaded.meta.T
    assert len(files) == len(loaded) == T * blocks * 2
    tokens = loaded.query(0, 0).shape[-1]
    for name in files:
        kind, _, layer = name[:-4].split("_")
        per_pixel = (m.heads * tokens if kind == KIND_CROSS
                     else m.c if layer == "l00" else m.d_model)
        assert (d / name).stat().st_size == HEADER.size + 8 * m.n * hw * per_pixel, name
    # At one block no record carries d_model; the index holds it still.
    assert json.loads((d / "index.json").read_text())["d_model"] == m.d_model
    assert loaded.meta == StoreMeta(T=T, blocks=blocks, config_hash=config_hash(cfg))
    assert loaded.verify_complete() == []

    # The maps rebuilt from the loaded arrays with the config's weights
    # are the maps the pass applied, bit for bit.
    weights = make_denoiser_weights(cfg)
    sched, prompt, z = toy_clip(cfg)
    for t in range(T):
        probe, applied = capture_probe()
        eps = denoiser_forward(z, t, prompt, weights, T, probe=probe)
        assert len(applied) == 2 * blocks
        for rec in applied:
            if rec.kind == KIND_SELF:
                got = self_map(loaded.self_record(t, rec.layer), t, rec.layer, weights, T)
            else:
                got = loaded.query(t, rec.layer)
            assert got.tobytes() == rec.attn.tobytes(), (t, rec.layer, rec.kind)
        if t == 0:
            assert loaded.self_record(0, 0).tobytes() == z.tobytes()
        z = ddim_invert_step(z, eps, t, sched)
    assert z.tobytes() == z_T.tobytes()


def test_old_format_dump_is_refused(tmp_path, write_dump):
    d = tmp_path / "store"
    write_dump(d)
    index = json.loads((d / "index.json").read_text())
    assert index["version"] == 6
    # Version 5 also wrote the weights the self records share to
    # weights.bin; version 4 wrote block inputs and weights into every
    # self blob; version 3 listed every record's file and shape; version 2
    # held query and key projections in its self blobs; a version 1 dump
    # had no version key and held self maps.  A version must be the
    # integer 6.
    for version, fragment in [(5, "version 5, expected 6"),
                              (4, "version 4, expected 6"),
                              (3, "version 3, expected 6"),
                              (2, "version 2, expected 6"),
                              (None, "version 1, expected 6"),
                              ("6", "version '6', expected 6"),
                              (6.0, r"version 6\.0, expected 6")]:
        old = {k: v for k, v in index.items() if k != "version"}
        if version is not None:
            old["version"] = version
        (d / "index.json").write_text(json.dumps(old))
        with pytest.raises(ContractViolation, match=fragment):
            load_store_dump(d)


def test_a_streamed_dump_equals_the_dumped_store(tmp_path, tiny_cfg, tiny_weights,
                                                 tiny_inversion):
    # The store an in-memory inversion fills, written record by record
    # into a DumpWriter, is the dump `invert` streams as the pass runs.
    sched, prompt, z0, z_T, store = tiny_inversion
    dumped = DumpWriter(tmp_path / "dumped", store.meta, tiny_cfg.d_model)
    for key in store.keys():
        if key.kind == KIND_SELF:
            dumped.record(_self_site(key.t, key.layer, store.self_record(key.t, key.layer)))
        else:
            attn = store.query(key.t, key.layer)
            dumped.record(AttentionSite(key.t, key.layer, KIND_CROSS, attn.shape,
                                        lambda attn=attn: attn))
    dumped.close()

    writer = DumpWriter(tmp_path / "streamed", store.meta, tiny_cfg.d_model)
    z, _ = invert_video(z0, prompt, sched, tiny_weights, writer)
    assert np.array_equal(z, z_T)
    # No index is written before close.
    assert not (tmp_path / "streamed" / "index.json").exists()
    writer.close()
    read = lambda d: {p.name: p.read_bytes() for p in d.iterdir()}
    assert read(tmp_path / "streamed") == read(tmp_path / "dumped")
    with pytest.raises(ContractViolation, match="duplicate"):
        writer.record(_self_site(0, 0, store.self_record(0, 0)))

    loaded = load_store_dump(tmp_path / "streamed")
    assert list(loaded.keys()) == list(store.keys())
    for key in store.keys():
        got, want = ((loaded.self_record, store.self_record) if key.kind == KIND_SELF
                     else (loaded.query, store.query))
        assert got(key.t, key.layer).tobytes() == want(key.t, key.layer).tobytes(), key


def test_dump_refuses_an_incomplete_store(tmp_path, write_dump):
    # A writer over an earlier dump removes its index and blobs before it
    # writes a blob of its own.
    d = tmp_path / "store"
    write_dump(d)
    writer = DumpWriter(d, StoreMeta(T=2, blocks=1, config_hash=7), d_model=4)
    assert list(d.iterdir()) == []
    latent = _record(shape=(2, 1, 1, 3))
    writer.record(_self_site(0, 0, latent))
    writer.record(_cross_site(0, 0))
    # close writes no index while a record is missing.
    with pytest.raises(ContractViolation, match="2 records missing"):
        writer.close()
    assert sorted(p.name for p in d.iterdir()) == ["cross_t0000_l00.bin",
                                                   "self_t0000_l00.bin"]
    with pytest.raises(ContractViolation, match="duplicate"):
        writer.record(_self_site(0, 0, latent))


CROSS_BLOB = "cross_t0000_l00.bin"
SELF_BLOB = "self_t0000_l00.bin"
LATER_SELF_BLOB = "self_t0000_l01.bin"


def _with_nan(path, hash_, shapes):
    """Rewrite the blob at *path* with a NaN in its array."""
    [array] = [arr.copy() for arr in read_blob(path, hash_, shapes)]
    array.flat[-1] = np.nan
    write_blob(path, hash_, [array])


def _tampered_dump(directory, write_dump, case):
    """Dump the toy inversion to *directory*, then spoil its index or one of its blobs."""
    write_dump(directory)
    index = json.loads((directory / "index.json").read_text())
    geometry = DumpGeometry(*(index[n] for n in DumpGeometry._fields))
    hash_ = index["config_hash"]
    cross = directory / CROSS_BLOB
    cross_shape = geometry.shape(AttentionKey(0, 0, KIND_CROSS))
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


def test_load_checks_every_cross_map_it_reads(tmp_path, write_dump):
    write_dump(tmp_path / "good")
    assert load_store_dump(tmp_path / "good").verify_complete() == []
    # blobio checks the header and the length only, so the payload cases
    # reach the loader.  Each case names the file at fault: the blob, or
    # the index.
    for case, fragment, named in [
            ("scaled payload", "rows deviate from 1", CROSS_BLOB),
            ("nan payload", "rows deviate from 1 by nan", CROSS_BLOB),
            ("nan latent", "self latent: non-finite", SELF_BLOB),
            ("nan block input", "self block input: non-finite", LATER_SELF_BLOB),
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
        d = _tampered_dump(tmp_path / case.replace(" ", "_"), write_dump, case)
        with pytest.raises(ContractViolation, match=fragment) as exc:
            load_store_dump(d)
        assert named in str(exc.value), case


def test_rebuilt_self_maps_equal_the_forward_maps(tiny_cfg, tiny_weights, tiny_inversion,
                                                  capture_probe, self_map):
    sched, prompt, z0, _, store = tiny_inversion
    z = z0
    for t in range(sched.T):
        probe, records = capture_probe()
        eps = denoiser_forward(z, t, prompt, tiny_weights, sched.T, probe=probe)
        assert len(records) == 2 * tiny_cfg.blocks
        for rec in records:
            if rec.kind == KIND_SELF:
                assert np.array_equal(self_map(store.self_record(t, rec.layer), t,
                                               rec.layer, tiny_weights, sched.T), rec.attn)
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
