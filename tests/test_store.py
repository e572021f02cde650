"""Attention store: keyed capture and completeness; trajectory dumps and their replay."""

import dataclasses
import json

import numpy as np
import pytest

from attnfuse import blobio, model
from attnfuse.blobio import HEADER, read_blob, write_blob
from attnfuse.errors import ContractViolation, MissingRecordError
from attnfuse.model import (KIND_CROSS, KIND_SELF, ModelConfig, SelfTiles, config_hash,
                            denoiser_forward, embed_prompt, make_denoiser_weights)
from attnfuse.numerics import SeededRng, fnv1a64
from attnfuse.schedule import ddim_invert_step, make_schedule
from attnfuse.store import (DUMP_VERSION, AttentionKey, AttentionStore, StoreMeta,
                            load_store_dump)


def _cross_map(keys=4):
    """A read-only cross map of 2 frames, 1 head, 3 pixels over *keys* tokens."""
    attn = np.full((2, 1, 3, keys), 1.0 / keys)
    attn.setflags(write=False)
    return attn


def _record(seed=0, shape=(2, 3, 4)):
    """A read-only self record: a block input of 2 frames, 3 pixels, d_model 4."""
    record = np.random.default_rng(seed).standard_normal(shape)
    record.setflags(write=False)
    return record


def test_record_query_round_trip(whole_map):
    store = AttentionStore(StoreMeta(T=2, blocks=1))
    attn = _cross_map()
    store.add(0, 0, KIND_CROSS, attn)
    got = store.query(0, 0)
    assert isinstance(got, np.ndarray)
    assert got is attn
    assert not got.flags.writeable

    record = _record()
    store.add(1, 0, KIND_SELF, record)
    assert store.self_record(1, 0) is record
    rng = np.random.default_rng(1)
    tiles = SelfTiles(record, rng.standard_normal((4, 4)), rng.standard_normal((4, 4)), 2)
    first, second = whole_map(tiles), whole_map(tiles)
    assert first.shape == (2, 2, 3, 6)
    assert first is not second
    assert np.array_equal(first, second)
    assert not first.flags.writeable
    # query reads cross maps only, not the self record at (1, 0)
    with pytest.raises(MissingRecordError, match="cross"):
        store.query(1, 0)


def test_self_maps_are_recorded_as_projections_only():
    store = AttentionStore(StoreMeta(T=2, blocks=1))
    record = _record()
    store.add(0, 0, KIND_SELF, record)
    assert store.self_record(0, 0) is record
    with pytest.raises(ContractViolation, match="duplicate"):
        store.add(0, 0, KIND_SELF, _record(1))


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
    store = AttentionStore(StoreMeta(T=2, blocks=1))
    store.add(1, 0, KIND_CROSS, _cross_map())
    with pytest.raises(ContractViolation):
        store.add(1, 0, KIND_CROSS, _cross_map())


def test_missing_query_names_key():
    store = AttentionStore(StoreMeta(T=4, blocks=2))
    with pytest.raises(MissingRecordError) as exc:
        store.self_record(3, 1)
    msg = str(exc.value)
    assert "3" in msg and "1" in msg and "self" in msg


def test_verify_complete_lists_missing():
    store = AttentionStore(StoreMeta(T=2, blocks=1))
    store.add(0, 0, KIND_SELF, _record())
    store.add(0, 0, KIND_CROSS, _cross_map())
    store.add(1, 0, KIND_SELF, _record())
    missing = store.verify_complete()
    assert missing == [AttentionKey(1, 0, KIND_CROSS)]
    store.add(1, 0, KIND_CROSS, _cross_map())
    assert store.verify_complete() == []


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


def _assert_same_store(loaded, store):
    """*loaded* holds *store*'s keys, in its order, and its entries byte for byte."""
    assert loaded.meta == store.meta and loaded.verify_complete() == []
    assert list(loaded.keys()) == list(store.keys())
    for key in store.keys():
        got, want = ((loaded.self_record, store.self_record) if key.kind == KIND_SELF
                     else (loaded.query, store.query))
        assert got(key.t, key.layer).tobytes() == want(key.t, key.layer).tobytes(), key


@pytest.mark.parametrize("blocks", [2, 1])
def test_dump_and_load_round_trip(tmp_path, tiny_cfg, toy_clip, write_dump, recorded_inversion,
                                  blocks):
    cfg = dataclasses.replace(tiny_cfg, blocks=blocks)
    weights = make_denoiser_weights(cfg)
    d = tmp_path / "store"
    z_T = write_dump(d, weights)
    # On disk: one blob per step, the step's latent, n*c*h*w float64s,
    # and the index of what a replay needs.  No cross map, no later
    # block's input and no weights.
    sched, prompt, z0 = toy_clip(cfg)
    latents = [f"self_t{t:04d}_l00.bin" for t in range(sched.T)]
    assert sorted(p.name for p in d.iterdir()) == sorted(["index.json", *latents])
    for name in latents:
        assert (d / name).stat().st_size == HEADER.size + z0.nbytes, name
    index = json.loads((d / "index.json").read_text())
    assert index == {"version": DUMP_VERSION, "T": sched.T,
                     "config_hash": config_hash(cfg), "model": dataclasses.asdict(cfg),
                     "beta_start": 0.05, "beta_end": 0.1,
                     "source_prompt": "a red square drifting right",
                     "z_T_fnv1a64": fnv1a64(z_T.tobytes())}

    # Loading replays the latents into the whole grid: the store an
    # in-memory inversion fills, key for key and byte for byte.
    _, store = recorded_inversion(z0, prompt, sched, weights)
    assert len(store) == sched.T * blocks * 2
    _assert_same_store(load_store_dump(d), store)


def test_old_format_dump_is_refused(tmp_path, write_dump):
    d = tmp_path / "store"
    write_dump(d)
    index = json.loads((d / "index.json").read_text())
    assert index["version"] == 7
    # Version 6 wrote every record of the grid, version 5 also the
    # weights the self records share to weights.bin, version 4 block
    # inputs and weights into every self blob, version 3 listed every
    # record's file and shape, version 2 held query and key projections
    # in its self blobs, and a version 1 dump had no version key and held
    # self maps.  A version must be the integer 7.
    for version, fragment in [(6, "version 6, expected 7"),
                              (5, "version 5, expected 7"),
                              (4, "version 4, expected 7"),
                              (3, "version 3, expected 7"),
                              (2, "version 2, expected 7"),
                              (None, "version 1, expected 7"),
                              ("7", "version '7', expected 7"),
                              (7.0, r"version 7\.0, expected 7")]:
        old = {k: v for k, v in index.items() if k != "version"}
        if version is not None:
            old["version"] = version
        (d / "index.json").write_text(json.dumps(old))
        with pytest.raises(ContractViolation, match=fragment):
            load_store_dump(d)


def test_a_written_dump_equals_the_dumped_store(tmp_path, tiny_cfg, toy_clip, toy_dump,
                                                recorded_inversion):
    # The latents of the store an inversion records, stacked with z_T, are
    # the trajectory `invert` dumps, and loading that dump gives the store
    # back, at 2 and 1 blocks.  The latents go first, then z_T.bin, and
    # the index last.
    for blocks in (2, 1):
        cfg = dataclasses.replace(tiny_cfg, blocks=blocks)
        weights = make_denoiser_weights(cfg)
        sched, prompt, z0 = toy_clip(cfg)
        trajectory, store = recorded_inversion(z0, prompt, sched, weights)
        assert not trajectory.flags.writeable
        latents = [store.self_record(t, 0) for t in range(sched.T)]
        assert trajectory.tobytes() == np.stack(latents + [trajectory[-1]]).tobytes()
        written = []

        def spy(path, *args, _write=blobio.write_blob):
            written.append(path.name)
            assert not (path.parent / "index.json").exists()
            return _write(path, *args)

        d = tmp_path / f"blocks{blocks}" / "store"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(blobio, "write_blob", spy)
            toy_dump(d, trajectory, cfg)
        assert written == [_latent(t) for t in range(sched.T)] + ["z_T.bin"]
        [z_T] = read_blob(d.parent / "z_T.bin", config_hash(cfg), [z0.shape])
        assert z_T.tobytes() == trajectory[-1].tobytes()
        _assert_same_store(load_store_dump(d), store)


def test_dump_refuses_an_incomplete_store(tmp_path, tiny_cfg, toy_dump, write_dump):
    # A trajectory that is not (T+1, n, c, h, w) under the config, T >= 1,
    # is refused before the earlier dump's files go; a valid one replaces
    # its index and blobs.
    d = tmp_path / "store"
    z_T = write_dump(d)
    earlier = {p.name: p.read_bytes() for p in d.iterdir()}
    trajectory = np.stack([z_T] * 3)
    for bad in (trajectory[:1], trajectory[:, :, :, :-1], trajectory[0]):
        with pytest.raises(ContractViolation, match="no dump written"):
            toy_dump(d, bad, tiny_cfg)
        assert {p.name: p.read_bytes() for p in d.iterdir()} == earlier
    toy_dump(d, trajectory, tiny_cfg)
    assert sorted(p.name for p in d.iterdir()) == ["index.json", _latent(0), _latent(1)]


def _latent(t):
    return f"self_t{t:04d}_l00.bin"


def _tampered_dump(directory, write_dump, case):
    """Dump the toy inversion to *directory*, then spoil its index or one of its latents."""
    write_dump(directory)
    index = json.loads((directory / "index.json").read_text())
    hash_, model = index["config_hash"], index["model"]
    shape = [(model["n"], model["c"], model["h"], model["w"])]
    path = directory / _latent(1 if case == "nan latent" else 2)
    if case in ("latent one ulp up", "nan latent", "short latent"):
        [z] = [arr.copy() for arr in read_blob(path, hash_, shape)]
        if case == "short latent":
            z = z.ravel()[:-1]
        else:
            z.flat[5] = np.nextafter(z.flat[5], np.inf) if case.endswith("up") else np.nan
        write_blob(path, hash_, [z])
    elif case == "trailing bytes":
        path.write_bytes(path.read_bytes() + bytes(8))
    elif case == "no latent blob":
        path.unlink()
    elif case == "other prompt word":
        index["source_prompt"] = index["source_prompt"].replace("right", "left")
    elif case in ("other seed", "other seed and hash"):
        model["seed"] += 1
        if case == "other seed and hash":
            index["config_hash"] = config_hash(ModelConfig(**model))
    elif case == "wrong z_T digest":
        index["z_T_fnv1a64"] ^= 1
    elif case == "version 6":
        index["version"] = 6
    elif case == "string config hash":
        index["config_hash"] = "x"
    elif case == "no model seed":
        del model["seed"]
    elif case == "beta_end 1.5":
        index["beta_end"] = 1.5
    if case == "no index":
        (directory / "index.json").unlink()
    else:
        (directory / "index.json").write_text(
            "{not json" if case == "garbage index" else json.dumps(index))
    return directory


def test_load_checks_every_file_it_reads(tmp_path, write_dump):
    write_dump(tmp_path / "good")
    assert load_store_dump(tmp_path / "good").verify_complete() == []
    # blobio checks the header and the length only, so the payload cases
    # reach the loader, which replays each latent and requires the step
    # to land on the next one bit for bit.  Each case names the file at
    # fault: the latent's blob, or the index.
    for case, fragment, named in [
            ("latent one ulp up", "step 1's replay .* lands elsewhere "
                                  r"\(1 of 48 values differ\)", _latent(2)),
            ("nan latent", "latent: non-finite", _latent(1)),
            ("short latent", "payload shorter than declared shapes", _latent(2)),
            ("trailing bytes", "8 trailing bytes", _latent(2)),
            ("no latent blob", "cannot read", _latent(2)),
            ("other prompt word", "step 0's replay .* lands elsewhere", "index.json"),
            ("other seed", "config_hash .* is not that of its model", "index.json"),
            ("other seed and hash", "config hash mismatch", _latent(0)),
            ("wrong z_T digest", "z_T_fnv1a64 .* is not the digest of step 3's replay",
             "index.json"),
            ("version 6", "version 6, expected 7", "index.json"),
            ("garbage index", "not a JSON index", "index.json"),
            ("no index", "cannot read", "index.json"),
            ("string config hash", r"mistyped: config_hash \(int\)", "index.json"),
            ("no model seed", "missing 1 required positional argument: 'seed'",
             "index.json"),
            ("beta_end 1.5", "betas must satisfy", "index.json")]:
        d = _tampered_dump(tmp_path / case.replace(" ", "_"), write_dump, case)
        with pytest.raises(ContractViolation, match=fragment) as exc:
            load_store_dump(d)
        assert named in str(exc.value), case


def test_rebuilt_self_maps_equal_the_forward_maps(tiny_cfg, tiny_weights, tiny_inversion,
                                                  monkeypatch, self_map, whole_map):
    # Each self map the store's record stands for is the one the forward
    # pass applied to the block input it held.
    sched, prompt, z0, _, store = tiny_inversion
    applied = []
    attend = model.spatiotemporal_attend

    def spy(feats, block, heads, *args):
        applied.append(whole_map(SelfTiles(feats, block.wq_s, block.wk_s, heads)))
        return attend(feats, block, heads, *args)

    monkeypatch.setattr(model, "spatiotemporal_attend", spy)
    z = z0
    for t in range(sched.T):
        applied.clear()
        eps = denoiser_forward(z, t, prompt, tiny_weights, sched.T)
        assert len(applied) == tiny_cfg.blocks
        for layer, attn in enumerate(applied):
            assert np.array_equal(self_map(store.self_record(t, layer), t, layer,
                                           tiny_weights, sched.T), attn)
        z = ddim_invert_step(z, eps, t, sched)


def test_inversion_store_holds_projections_not_maps(peak_bytes, recorded_inversion):
    cfg = ModelConfig(n=4, h=24, w=24, c=1, d_model=16, heads=2, d_head=8,
                      blocks=2, d_text=16, seed=3)
    weights = make_denoiser_weights(cfg)
    prompt = embed_prompt("a red square", cfg)
    z0 = SeededRng(8).standard_normal((cfg.n, cfg.c, cfg.h, cfg.w)) * 0.2
    sched = make_schedule(2, 0.05, 0.1)
    (_, store), peak = peak_bytes(lambda: recorded_inversion(z0, prompt, sched, weights))
    assert store.verify_complete() == []
    # Four self maps would hold 4 * 42.5 MB; their block inputs hold 1.2 MB,
    # beside one forward pass's tile of logits.
    assert peak < 10e6


def test_store_meta_validation():
    with pytest.raises(ContractViolation):
        AttentionStore(StoreMeta(T=0, blocks=1))
    with pytest.raises(ContractViolation):
        AttentionStore(StoreMeta(T=1, blocks=0))
