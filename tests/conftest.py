"""Shared fixtures: a tiny model, a completed tiny inversion, and a
probe that captures the maps a forward pass applies."""

import numpy as np
import pytest

from attnfuse.model import (AttentionRecord, ModelConfig, embed_prompt,
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


def _capture_probe(probe=None):
    """(capture, maps): a probe that wraps *probe* and the list it fills.

    Each site appends an AttentionRecord of the map the pass applies
    there: *probe*'s replacement, or the site's own map when it has none.
    """
    maps = []

    def capture(site):
        replacement = probe(site) if probe is not None else None
        applied = site.attn if replacement is None else np.asarray(replacement)
        maps.append(AttentionRecord(t=site.t, layer=site.layer, kind=site.kind,
                                    attn=applied))
        return replacement

    return capture, maps


@pytest.fixture
def capture_probe():
    return _capture_probe
