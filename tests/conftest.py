"""Shared fixtures: a tiny model, a completed tiny inversion and the
whole attention store it records, a dump of its clip's trajectory, a
record hook that captures the maps a forward pass applies, whole self
maps assembled from the tiles the pass builds, the self map a record
stands for and every map a store stands for, the row contract of an
attention map, and the peak memory of a call."""

import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from attnfuse.model import (KIND_SELF, ModelConfig, SelfTiles, _block_input, _tile_bounds,
                            embed_prompt, make_denoiser_weights)
from attnfuse.numerics import SeededRng
from attnfuse.pipeline import invert_video
from attnfuse.schedule import make_schedule
from attnfuse.store import AttentionStore, StoreMeta, write_store_dump

TINY = ModelConfig(n=3, h=4, w=4, c=1, d_model=8, heads=2, d_head=4,
                   blocks=2, d_text=12, seed=21)


@pytest.fixture(scope="session")
def tiny_cfg():
    return TINY


@pytest.fixture(scope="session")
def tiny_weights():
    return make_denoiser_weights(TINY)


# The toy inversion's schedule betas and source prompt.
BETAS = (0.05, 0.1)
PROMPT = "a red square drifting right"


def _clip(cfg):
    """(schedule, prompt, z_0) of a 4-step toy inversion under *cfg*."""
    sched = make_schedule(4, *BETAS)
    prompt = embed_prompt(PROMPT, cfg)
    z0 = SeededRng(5).standard_normal((cfg.n, cfg.c, cfg.h, cfg.w)) * 0.2
    return sched, prompt, z0


@pytest.fixture
def toy_clip():
    return _clip


def _recorded_inversion(z0, prompt, sched, weights):
    """(trajectory, store): a plain inversion and the whole grid it records."""
    store = AttentionStore(StoreMeta(T=sched.T, blocks=weights.config.blocks))
    return invert_video(z0, prompt, sched, weights, record=store.add), store


@pytest.fixture
def recorded_inversion():
    return _recorded_inversion


@pytest.fixture(scope="session")
def tiny_inversion(tiny_weights):
    """(schedule, prompt, z_0, trajectory, store) for a 4-step toy inversion."""
    sched, prompt, z0 = _clip(TINY)
    trajectory, store = _recorded_inversion(z0, prompt, sched, tiny_weights)
    return sched, prompt, z0, trajectory, store


def _toy_dump(directory, trajectory, cfg):
    """Write *trajectory*, the toy clip's under *cfg*, as a dump at
    *directory*, with z_T.bin beside it."""
    write_store_dump(directory, cfg, trajectory, BETAS, PROMPT,
                     directory.parent / "z_T.bin")


@pytest.fixture
def toy_dump():
    return _toy_dump


def _write_dump(directory, weights=None):
    """Invert the toy clip under *weights* (the tiny model's by default)
    and dump its trajectory at *directory*; returns z_T."""
    weights = make_denoiser_weights(TINY) if weights is None else weights
    sched, prompt, z0 = _clip(weights.config)
    trajectory = invert_video(z0, prompt, sched, weights)
    _toy_dump(directory, trajectory, weights.config)
    return trajectory[-1]


@pytest.fixture
def write_dump():
    return _write_dump


class Applied(NamedTuple):
    t: int
    layer: int
    kind: str
    attn: np.ndarray


def _capture_maps(weights, n_steps):
    """(record, maps): a `denoiser_forward` record hook and the list it fills.

    Each site appends an `Applied` entry: a cross site the map the pass
    applies, a self site the pass's own whole self map, which its record
    stands for under *weights* at *n_steps*.  Under a replay the pass
    applies the source's rows where the mask is clear instead.
    """
    maps = []

    def record(t, layer, kind, array):
        if kind == KIND_SELF:
            array = _self_map(array, t, layer, weights, n_steps)
        maps.append(Applied(t, layer, kind, array))

    return record, maps


@pytest.fixture
def capture_maps():
    return _capture_maps


def _whole_map(tiles):
    """The read-only whole self map of *tiles*, a `SelfTiles`.

    It is assembled from the tiles the pass builds (`SelfTiles.rows`), so
    equal block inputs and weights give equal bits; each row peaks at
    exactly 1.0 and, divided by its sum, is the row's softmax.  The pass
    never builds a whole self map.
    """
    whole = np.empty(tiles.shape)
    for lo, hi in _tile_bounds(tiles.shape[2]):
        whole[:, :, lo:hi] = tiles.rows(lo, hi)
    whole.setflags(write=False)
    return whole


@pytest.fixture
def whole_map():
    return _whole_map


def _self_map(record, t, layer, weights, n_steps):
    """The whole self map that *record*, step t's of block *layer*, stands
    for under *weights*, with t normalized by n_steps: block 0's record is
    the latent its input is rebuilt from."""
    feats = _block_input(record, t, n_steps, weights) if layer == 0 else record
    block = weights.blocks[layer]
    return _whole_map(SelfTiles(feats, block.wq_s, block.wk_s, weights.config.heads))


@pytest.fixture
def self_map():
    return _self_map


def _store_maps(store, weights):
    """{key: map} for every record of *store*; self maps are assembled whole."""
    return {key: _self_map(store.self_record(key.t, key.layer), key.t, key.layer, weights,
                           store.meta.T) if key.kind == KIND_SELF
            else store.query(key.t, key.layer) for key in store.keys()}


@pytest.fixture
def store_maps():
    return _store_maps


def _assert_map_rows(kind, attn):
    """Assert the row contract of an attention map of *kind*.

    A cross map's rows sum to 1 within 1e-9.  A self map holds softmax
    numerators: every entry lies in [0, 1], each row peaks at exactly
    1.0, and the rows divided by their sums sum to 1 within 1e-9.
    """
    if kind == KIND_SELF:
        assert np.array_equal(attn.max(axis=-1), np.ones(attn.shape[:-1]))
        assert attn.min() >= 0.0
        attn = attn / attn.sum(axis=-1, keepdims=True)
    assert np.abs(attn.sum(axis=-1) - 1.0).max() <= 1e-9


@pytest.fixture
def assert_map_rows():
    return _assert_map_rows


def _peak_bytes(call):
    """(call(), the most bytes it held at once): its tracemalloc peak."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def peak_bytes():
    return _peak_bytes
