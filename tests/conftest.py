"""Shared fixtures: a tiny model, a completed tiny inversion, a probe
that captures the maps a forward pass applies, every map a store
stands for, the row contract of an attention map, and the peak memory
of a call."""

import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from attnfuse.model import (KIND_SELF, ModelConfig, SelfAnswer, embed_prompt,
                            make_denoiser_weights)
from attnfuse.numerics import SeededRng
from attnfuse.pipeline import invert_video
from attnfuse.schedule import make_schedule

TINY = ModelConfig(n=3, h=4, w=4, c=1, d_model=8, heads=2, d_head=4,
                   blocks=2, d_text=12, seed=21)


@pytest.fixture(scope="session")
def tiny_cfg():
    return TINY


@pytest.fixture(scope="session")
def tiny_weights():
    return make_denoiser_weights(TINY)


@pytest.fixture(scope="session")
def tiny_inversion(tiny_weights):
    """(schedule, prompt, z_0, z_T, store) for a 4-step toy inversion."""
    sched = make_schedule(4, 0.05, 0.1)
    prompt = embed_prompt("a red square drifting right", TINY)
    z0 = SeededRng(5).standard_normal((TINY.n, TINY.c, TINY.h, TINY.w)) * 0.2
    z_T, store = invert_video(z0, prompt, sched, tiny_weights)
    return sched, prompt, z0, z_T, store


class Applied(NamedTuple):
    t: int
    layer: int
    kind: str
    attn: np.ndarray


def _capture_probe(probe=None):
    """(capture, maps): a probe that wraps *probe* and the list it fills.

    Each site appends an `Applied` entry with the map the pass applies
    there: *probe*'s replacement cross map, the rows a `SelfAnswer` picks
    (the site's own where its mask is set, its source's elsewhere), or
    the site's own map when *probe* has no answer.
    """
    maps = []

    def capture(site):
        replacement = probe(site) if probe is not None else None
        if replacement is None:
            applied = site.attn
        elif isinstance(replacement, SelfAnswer):
            applied = np.where(replacement.edit[:, None, :, None], site.attn,
                               replacement.source.attn())
        else:
            applied = np.asarray(replacement)
        maps.append(Applied(site.t, site.layer, site.kind, applied))
        return replacement

    return capture, maps


@pytest.fixture
def capture_probe():
    return _capture_probe


def _store_maps(store):
    """{key: map} for every record of *store*; self maps are assembled whole."""
    return {key: store.projections(key.t, key.layer).attn() if key.kind == KIND_SELF
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
