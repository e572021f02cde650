"""Toy latent-video denoiser with fully inspectable attention.

The network is deliberately small and deterministic: per-pixel tokens go
through an input projection, a stack of blocks (spatiotemporal
self-attention, cross-attention to the prompt, pointwise MLP, each with
a residual add), and an output projection back to latent channels.

Two properties matter more than capacity here.  First, every attention
site is offered to an optional probe before its map multiplies the
values, which is what the editing machinery hooks into.  The probe is
the only way a map leaves the forward pass, which returns the predicted
noise alone.  The probe sees an `AttentionSite` whose map is computed
only when read, so a probe that supplies its own cross map spares the
QK^T and the softmax.  A replacement cross map is checked for shape,
finiteness and its rows (see `_checked`) before it is applied.  A self
site takes rows only, from a tile function whose tiles get a shape
check each; the pass's own rows are not re-checked.  Second, all
randomness flows from explicit seeds, so identical inputs give
bit-identical outputs.

Queries are scaled by 1/sqrt(d_head) before the QK^T, so no pass scales
the logits.  A cross map is a softmax map: its rows sum to 1.  A self
map holds softmax numerators, exp(logit - row max): every entry lies in
[0, 1] and each row peaks at exactly 1.0.  Self-attention divides its
output, not its map: each tile multiplies [V | 1], so one product gives
a row's weighted values and its sum, and the (n, heads, h*w, d_head)
output is divided by those sums once per call.  Blending picks whole
rows, so it works on numerators unchanged.

Self-attention runs in tiles of TILE_ROWS query rows: the numerators
and `attn @ [V | 1]` of one tile finish before the next tile's logits
are computed, and every tile of a call writes into one logits buffer of
(n, heads, TILE_ROWS, 2*h*w), so the pass holds one tile, never a whole
self map.  Rows are independent, so a probe answers a self site per
tile too (see `AttentionSite`).  A self map is a function of the block
input and the block's query and key weights (`SelfProjections`); the
input is 2*heads*h*w/d_model times smaller than the map, and the
weights are the model's own arrays, shared.  Every self row is built by
`SelfTiles.rows` from queries and keys projected with one expression,
so rows rebuilt later from a recorded block input are bit-identical to
the ones the pass applied; a whole map (`SelfProjections.attn`,
`whole_map`) is assembled from the same tiles, for observers and tests.

Self-attention is inflated across time: each frame's queries attend
over the keys of the middle frame (index n // 2) concatenated with the
frame's own keys, which anchors every frame's layout to one shared
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .numerics import (SeededRng, check_finite, check_rows, derived_seed,
                       fnv1a64, require, softmax_lastdim, softmax_numerators)

START_TOKEN = "<start>"
POS_DIM = 8          # 2D sinusoidal position features per pixel token
TIME_DIM = 8         # sinusoidal features of normalized timestep
MLP_RATIO = 2
ORACLE_GAIN = 8.0    # query gain of the palette oracle; keeps >=0.9 mass

KIND_SELF = "self"
KIND_CROSS = "cross"

TILE_ROWS = 64       # query rows per self-attention tile

# A tile function: (lo, hi) -> rows lo:hi of a self map, softmax numerators.
TileRows = Callable[[int, int], np.ndarray]
# A probe answers a cross site with None or a replacement map, and a self
# site with None or a TileRows; see AttentionSite.
Probe = Callable[["AttentionSite"], "np.ndarray | TileRows | None"]


@dataclass(frozen=True)
class ModelConfig:
    """Static geometry of the denoiser.

    n: frames, h/w: latent height/width, c: latent channels.
    d_model must equal heads * d_head.
    """

    n: int
    h: int
    w: int
    c: int
    d_model: int
    heads: int
    d_head: int
    blocks: int
    d_text: int
    seed: int

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            require(isinstance(v, int), f"config field {f.name} must be int, got {v!r}")
            if f.name != "seed":
                require(v >= 1, f"config field {f.name} must be >= 1, got {v}")
        require(self.d_model == self.heads * self.d_head,
                f"d_model {self.d_model} != heads {self.heads} * d_head {self.d_head}")


def config_hash(cfg: ModelConfig) -> int:
    canon = ",".join(f"{f.name}={getattr(cfg, f.name)}" for f in fields(cfg))
    return fnv1a64(canon)


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercased word tokens with punctuation split off as single tokens."""
    import re
    return tuple(re.findall(r"[\w']+|[^\w\s]", text.lower()))


@dataclass(frozen=True)
class PromptEmbedding:
    """Token strings (start token first) and their d_text vectors."""

    tokens: tuple[str, ...]
    vectors: np.ndarray

    def __post_init__(self):
        require(len(self.tokens) >= 1 and self.tokens[0] == START_TOKEN,
                "prompt embedding must start with the reserved start token")
        require(self.vectors.shape[0] == len(self.tokens),
                f"token/vector count mismatch: {len(self.tokens)} vs {self.vectors.shape}")


def token_vector(token: str, d_text: int) -> np.ndarray:
    """Deterministic embedding of one token: hash-seeded standard normal."""
    rng = SeededRng(fnv1a64(f"token:{token}"))
    return rng.standard_normal(d_text)


def embed_prompt(text: str, cfg: ModelConfig) -> PromptEmbedding:
    """Embed a prompt; the empty string yields the unconditional embedding."""
    tokens = (START_TOKEN,) + tokenize(text)
    vectors = np.stack([token_vector(tok, cfg.d_text) for tok in tokens])
    vectors.setflags(write=False)
    return PromptEmbedding(tokens=tokens, vectors=vectors)


@dataclass(frozen=True)
class BlockWeights:
    wq_s: np.ndarray
    wk_s: np.ndarray
    wv_s: np.ndarray
    wq_c: np.ndarray
    wk_c: np.ndarray
    wv_c: np.ndarray
    w_mlp_in: np.ndarray
    w_mlp_out: np.ndarray


@dataclass(frozen=True)
class DenoiserWeights:
    config: ModelConfig
    w_in: np.ndarray
    blocks: tuple[BlockWeights, ...]
    w_out: np.ndarray
    time_freq: np.ndarray
    time_phase: np.ndarray


def _init(rng: SeededRng, rows: int, cols: int) -> np.ndarray:
    arr = rng.standard_normal((rows, cols)) / math.sqrt(rows)
    arr.setflags(write=False)
    return arr


def _time_table(d: int) -> tuple[np.ndarray, np.ndarray]:
    # Low frequencies keep the predicted noise smooth in t, which is what
    # makes finer schedules reconstruct better.
    freq = 0.5 * (1.0 + np.arange(d, dtype=np.float64))
    phase = (math.pi / 4.0) * np.arange(d, dtype=np.float64)
    freq.setflags(write=False)
    phase.setflags(write=False)
    return freq, phase


def make_denoiser_weights(cfg: ModelConfig) -> DenoiserWeights:
    """Seeded random weights; the draw order is fixed and documented.

    Order: w_in, then per block (wq_s, wk_s, wv_s, wq_c, wk_c, wv_c,
    w_mlp_in, w_mlp_out), then w_out.  All matrices are standard normal
    scaled by 1/sqrt(fan_in).
    """
    rng = SeededRng(derived_seed(cfg.seed, "weights"))
    d_in = cfg.c + POS_DIM + TIME_DIM
    d_ff = MLP_RATIO * cfg.d_model
    w_in = _init(rng, d_in, cfg.d_model)
    blocks = []
    for _ in range(cfg.blocks):
        blocks.append(BlockWeights(
            wq_s=_init(rng, cfg.d_model, cfg.d_model),
            wk_s=_init(rng, cfg.d_model, cfg.d_model),
            wv_s=_init(rng, cfg.d_model, cfg.d_model),
            wq_c=_init(rng, cfg.d_model, cfg.d_model),
            wk_c=_init(rng, cfg.d_text, cfg.d_model),
            wv_c=_init(rng, cfg.d_text, cfg.d_model),
            w_mlp_in=_init(rng, cfg.d_model, d_ff),
            w_mlp_out=_init(rng, d_ff, cfg.d_model),
        ))
    w_out = _init(rng, cfg.d_model, cfg.c)
    freq, phase = _time_table(TIME_DIM)
    return DenoiserWeights(config=cfg, w_in=w_in, blocks=tuple(blocks),
                           w_out=w_out, time_freq=freq, time_phase=phase)


@lru_cache(maxsize=8)
def _posenc(h: int, w: int) -> np.ndarray:
    """2D sinusoidal position features, (h*w, POS_DIM), half-cycle based."""
    ys = (np.arange(h, dtype=np.float64) + 0.5) / h
    xs = (np.arange(w, dtype=np.float64) + 0.5) / w
    yy = np.repeat(ys, w)
    xx = np.tile(xs, h)
    cols = []
    for axis in (yy, xx):
        for cycles in (1.0, 2.0):
            cols.append(np.sin(math.pi * cycles * axis))
            cols.append(np.cos(math.pi * cycles * axis))
    pos = np.stack(cols, axis=1)
    pos.setflags(write=False)
    return pos


def _time_features(t: int, n_steps: int, weights: DenoiserWeights) -> np.ndarray:
    tau = t / n_steps
    return np.sin(2.0 * math.pi * weights.time_freq * tau + weights.time_phase)


def _split_heads(x: np.ndarray, heads: int, d_head: int) -> np.ndarray:
    n, q, _ = x.shape
    return x.reshape(n, q, heads, d_head).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    n, heads, q, d_head = x.shape
    return x.transpose(0, 2, 1, 3).reshape(n, q, heads * d_head)


def _with_middle_frame(x: np.ndarray) -> np.ndarray:
    """[middle frame; own frame] along the token axis of split-head x."""
    mid = x.shape[0] // 2
    return np.concatenate([np.broadcast_to(x[mid], x.shape), x], axis=2)


def _tile_bounds(hw: int) -> list[tuple[int, int]]:
    """(lo, hi) of each tile of query rows; the last may be shorter."""
    return [(lo, min(lo + TILE_ROWS, hw)) for lo in range(0, hw, TILE_ROWS)]


def whole_map(rows: TileRows, shape: tuple[int, int, int, int]) -> np.ndarray:
    """The read-only self map of *shape*, copied together tile by tile from *rows*.

    For observers and tests: the forward pass never builds a whole self map.
    """
    whole = np.empty(shape)
    for lo, hi in _tile_bounds(shape[2]):
        whole[:, :, lo:hi] = rows(lo, hi)
    whole.setflags(write=False)
    return whole


@dataclass(frozen=True)
class SelfProjections:
    """What one self-attention call's map is built from.

    feats is the block input, (n, h*w, d_model), made read-only; wq and
    wk are the block's (d_model, d_model) query and key weights, the
    model's own arrays, not copies; heads splits d_model.  `SelfTiles`
    projects the queries and keys once and builds the map's rows.
    """

    feats: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    heads: int

    def __post_init__(self):
        require(self.feats.ndim == 3,
                f"self block input must be (n, h*w, d_model), got {self.feats.shape}")
        d_model = self.feats.shape[-1]
        require(self.wq.shape == self.wk.shape == (d_model, d_model),
                f"self weights must be ({d_model}, {d_model}), got "
                f"{self.wq.shape} / {self.wk.shape}")
        require(self.heads >= 1 and d_model % self.heads == 0,
                f"{self.heads} heads do not split d_model {d_model}")
        self.feats.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        n, hw, _ = self.feats.shape
        return (n, self.heads, hw, 2 * hw)

    def attn(self) -> np.ndarray:
        """The read-only map of softmax numerators, (n, heads, h*w, 2*h*w).

        Each row peaks at exactly 1.0; divided by its sum it is the
        row's softmax.  Assembled from the tiles the forward pass
        applies, so equal block inputs and weights give equal bits.
        For observers and tests.
        """
        return whole_map(SelfTiles(self).rows, self.shape)


class SelfTiles:
    """Rows of one self map, softmax numerators, one tile of query rows at a time.

    Each frame's queries attend over the keys of the middle frame
    (index n // 2), then its own.  Every tile is computed into one logits
    buffer of (n, heads, TILE_ROWS, 2*h*w), allocated at the first build;
    a shorter tail tile fills a view of it.  So the rows `rows` returns
    stay valid until its next call.  The queries and keys are projected
    once, when the tiles are made, and the queries scaled by
    1/sqrt(d_head) then.
    """

    def __init__(self, projections: SelfProjections):
        self.projections = projections
        feats, heads = projections.feats, projections.heads
        d_head = feats.shape[-1] // heads
        self._q = _split_heads((feats @ projections.wq) * (1.0 / math.sqrt(d_head)),
                               heads, d_head)
        keys = _with_middle_frame(_split_heads(feats @ projections.wk, heads, d_head))
        self._kt = np.swapaxes(keys, -1, -2)
        self._logits: np.ndarray | None = None

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi of the map, (n, heads, hi - lo, 2*h*w); hi - lo <= TILE_ROWS."""
        if self._logits is None:
            n, heads, hw, keys = self.projections.shape
            self._logits = np.empty((n, heads, min(TILE_ROWS, hw), keys))
        logits = np.matmul(self._q[:, :, lo:hi], self._kt,
                           out=self._logits[:, :, :hi - lo])
        return softmax_numerators(logits, out=logits)


class AttentionSite:
    """An attention map that the forward pass is about to apply.

    This is what a probe sees, and the only type that pairs a map with
    its (t, layer, kind).  `attn` is the denoiser's own map, computed on
    first read: a softmax map at a cross site, softmax numerators (rows
    peaking at exactly 1.0) at a self site.  A probe that answers
    without reading it skips the QK^T and the softmax.  A self-attention
    site also carries the `projections` its map is built from (a
    cross-attention site carries None), and `own_rows` gives the pass's
    own rows one tile at a time; reading a self site's `attn` assembles
    the whole map, for observers and tests.

    A probe answers a cross site with None (the map stands) or a
    replacement map.  It answers a self site with None or a tile
    function: called with each tile's (lo, hi), it returns that tile's
    rows, and it calls `own_rows` only for tiles that need the pass's
    own.  A whole self map is refused as an answer.
    """

    def __init__(self, t: int, layer: int, kind: str, shape: tuple[int, ...],
                 build: Callable[[], np.ndarray],
                 projections: SelfProjections | None = None):
        self.t, self.layer, self.kind, self.shape = t, layer, kind, shape
        self.projections = projections
        self._build = build
        self._attn: np.ndarray | None = None
        self._tiles: SelfTiles | None = None

    @property
    def attn(self) -> np.ndarray:
        if self._attn is None:
            self._attn = self._build()
            self._attn.setflags(write=False)
        return self._attn

    def own_rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi of the pass's own self map.

        Sliced from `attn` once that was read, so an observed map is not
        built twice; otherwise built in the site's one tile buffer.
        """
        if self._attn is None and self.projections is not None:
            if self._tiles is None:
                self._tiles = SelfTiles(self.projections)
            return self._tiles.rows(lo, hi)
        return self.attn[:, :, lo:hi]


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, d_head: int,
           supply: Callable[[Callable[[], np.ndarray]], np.ndarray] | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention; returns (output, applied map).

    Leading axes broadcast.  The queries are scaled by 1/sqrt(d_head)
    before the QK^T.  *supply*, when given, is called with a function
    that computes the softmax map and returns the map to apply;
    returning another map without calling that function skips the QK^T
    and the softmax.  This is the seam the probe machinery uses.
    """
    require(d_head >= 1, f"d_head must be >= 1, got {d_head}")
    require(q.shape[-1] == d_head and k.shape[-1] == d_head,
            f"d_head {d_head} does not match Q/K last dims {q.shape} / {k.shape}")
    require(k.shape[-2] == v.shape[-2],
            f"K/V key counts differ: {k.shape} vs {v.shape}")
    q = q * (1.0 / math.sqrt(d_head))

    def build() -> np.ndarray:
        logits = np.matmul(q, np.swapaxes(k, -1, -2))
        return softmax_lastdim(logits, out=logits)

    attn = build() if supply is None else supply(build)
    return np.matmul(attn, v), attn


def spatiotemporal_attend(feats: np.ndarray, block: BlockWeights,
                          heads: int, d_head: int,
                          supply: Callable[[SelfProjections], TileRows] | None = None
                          ) -> np.ndarray:
    """Self-attention over [middle frame; own frame] keys and values.

    feats: (n, h*w, d_model); returns the output, (n, h*w, d_model).
    The middle frame is index n // 2; its keys come first in the
    concatenation.  Rows are computed and applied one tile of TILE_ROWS
    query rows at a time.  *supply*, when given, is called with the
    `SelfProjections` of feats (made read-only) and the block's wq_s and
    wk_s, and returns the tile function that gives each tile's rows; by
    default they are the projections' own, softmax numerators.  Each
    tile multiplies [V | 1], whose last column gives the tile's row
    sums, and the output is divided by them once, after the last tile.
    """
    proj = SelfProjections(feats=feats, wq=block.wq_s, wk=block.wk_s, heads=heads)
    rows = SelfTiles(proj).rows if supply is None else supply(proj)
    v = _split_heads(feats @ block.wv_s, heads, d_head)
    vals = _with_middle_frame(np.concatenate([v, np.ones(v.shape[:-1] + (1,))],
                                             axis=-1))
    n, _, hw, keys = proj.shape
    out = np.empty((n, heads, hw, d_head + 1))
    for lo, hi in _tile_bounds(hw):
        tile = rows(lo, hi)
        require(tile.shape == (n, heads, hi - lo, keys),
                f"self rows {lo}:{hi} have shape {tile.shape}, expected "
                f"{(n, heads, hi - lo, keys)}")
        np.matmul(tile, vals, out=out[:, :, lo:hi])
    return _merge_heads(out[..., :d_head] / out[..., d_head:])


def _checked(replacement, site: AttentionSite) -> np.ndarray:
    """A probe's replacement cross map, checked against *site*; the pass applies it at once.

    Its rows must sum to 1 within 1e-6.
    """
    where = f"({site.kind}, t={site.t}, layer={site.layer})"
    replacement = np.asarray(replacement, dtype=np.float64)
    require(replacement.shape == site.shape,
            f"probe replacement shape {replacement.shape} != map shape "
            f"{site.shape} {where}")
    check_finite(f"probe replacement {where}", replacement)
    check_rows(f"probe replacement {where}", replacement, 1e-6)
    return replacement


def _offer(probe: Probe | None, site: AttentionSite):
    """What the pass applies at *site*: a cross map, or a self site's tile function."""
    answer = probe(site) if probe is not None else None
    if site.kind == KIND_CROSS:
        return site.attn if answer is None else _checked(answer, site)
    if answer is None:
        return site.own_rows
    require(callable(answer),
            f"probe answered (self, t={site.t}, layer={site.layer}) with an array; "
            f"a self site takes None or a tile function")
    return answer


def denoiser_forward(z_t: np.ndarray, t: int, prompt: PromptEmbedding,
                     weights: DenoiserWeights, n_steps: int,
                     probe: Probe | None = None) -> np.ndarray:
    """Predict noise (n, c, h, w) for a latent video at timestep t.

    *probe* sees each attention site in (layer, self-then-cross) order
    and is the only way a map leaves the pass: a map that the probe
    neither keeps nor replaces is dropped once applied.  n_steps
    normalizes t for the timestep features; pass the schedule's T.
    """
    cfg = weights.config
    z_t = np.asarray(z_t, dtype=np.float64)
    require(z_t.shape == (cfg.n, cfg.c, cfg.h, cfg.w),
            f"latent shape {z_t.shape} != config ({cfg.n}, {cfg.c}, {cfg.h}, {cfg.w})")
    check_finite("denoiser input", z_t)
    require(0 <= t <= n_steps, f"timestep {t} outside [0, {n_steps}]")
    require(prompt.vectors.shape[1] == cfg.d_text,
            f"prompt dim {prompt.vectors.shape[1]} != d_text {cfg.d_text}")

    n, c, h, w = z_t.shape
    hw = h * w
    zc = z_t.reshape(n, c, hw).transpose(0, 2, 1)
    pos = np.broadcast_to(_posenc(h, w), (n, hw, POS_DIM))
    temb = np.broadcast_to(_time_features(t, n_steps, weights), (n, hw, TIME_DIM))
    x = np.concatenate([zc, pos, temb], axis=-1) @ weights.w_in

    kv = prompt.vectors
    cross_shape = (n, cfg.heads, hw, len(prompt.tokens))
    for layer, bw in enumerate(weights.blocks):
        x = x + spatiotemporal_attend(
            x, bw, cfg.heads, cfg.d_head,
            supply=lambda p, _l=layer: _offer(probe, AttentionSite(
                t, _l, KIND_SELF, p.shape, p.attn, projections=p)))
        qc = _split_heads(x @ bw.wq_c, cfg.heads, cfg.d_head)
        kc = _split_heads((kv @ bw.wk_c)[None], cfg.heads, cfg.d_head)
        vc = _split_heads((kv @ bw.wv_c)[None], cfg.heads, cfg.d_head)
        x = x + _merge_heads(attend(
            qc, kc, vc, cfg.d_head,
            supply=lambda build, _l=layer: _offer(probe, AttentionSite(
                t, _l, KIND_CROSS, cross_shape, build)))[0])
        x = x + np.tanh(x @ bw.w_mlp_in) @ bw.w_mlp_out

    eps = (x @ weights.w_out).transpose(0, 2, 1).reshape(n, c, h, w)
    return check_finite("predicted noise", eps)


def encode_color(color: Sequence[float]) -> np.ndarray:
    """Map 0..255 channel values onto the [-1, 1] latent range."""
    arr = np.asarray(color, dtype=np.float64)
    require(bool(np.all((arr >= 0) & (arr <= 255))),
            f"color channels must lie in 0..255, got {list(arr)}")
    return arr / 127.5 - 1.0


def make_oracle_denoiser(cfg: ModelConfig,
                         palette: Mapping[str, Sequence[float]]) -> DenoiserWeights:
    """Single-block denoiser whose cross-attention reads off pixel color.

    Keys are built from palette colors (token -> channel values), queries
    from the raw latent channels, with gain chosen so a pixel puts more
    than 0.9 of its attention mass on the token matching its color.  The
    color comparison is replicated into every head (hence d_head >= c),
    so the head-averaged map separates colors as sharply as each head.
    A black palette token absorbs background pixels the same way.  All
    other weights are zero, so self-attention is uniform and the noise
    prediction is identically zero.
    """
    require(cfg.blocks == 1, f"oracle denoiser is single-block, config has {cfg.blocks}")
    require(cfg.d_head >= cfg.c,
            f"oracle needs d_head >= c, got {cfg.d_head} < {cfg.c}")
    require(1 <= len(palette) <= cfg.d_text,
            f"palette size {len(palette)} outside 1..{cfg.d_text}")
    d_in = cfg.c + POS_DIM + TIME_DIM
    d_ff = MLP_RATIO * cfg.d_model

    tokens = list(palette)
    for tok in tokens:
        require(tokenize(tok) == (tok,),
                f"palette key {tok!r} must be a single lowercase token")
        require(len(palette[tok]) == cfg.c,
                f"palette color for {tok!r} must have {cfg.c} channels")
    embeds = np.stack([token_vector(tok, cfg.d_text) for tok in tokens])
    colors = np.stack([encode_color(palette[tok]) for tok in tokens])
    targets = np.zeros((len(tokens), cfg.d_model))
    gain = np.eye(cfg.c) * ORACLE_GAIN * math.sqrt(cfg.d_head)
    wq_c = np.zeros((cfg.d_model, cfg.d_model))
    for head in range(cfg.heads):
        lo = head * cfg.d_head
        targets[:, lo:lo + cfg.c] = colors
        wq_c[:cfg.c, lo:lo + cfg.c] = gain
    wk_c, *_ = np.linalg.lstsq(embeds, targets, rcond=None)

    w_in = np.zeros((d_in, cfg.d_model))
    w_in[:cfg.c, :cfg.c] = np.eye(cfg.c)

    zeros_mm = np.zeros((cfg.d_model, cfg.d_model))
    block = BlockWeights(
        wq_s=zeros_mm, wk_s=zeros_mm.copy(), wv_s=zeros_mm.copy(),
        wq_c=wq_c, wk_c=wk_c, wv_c=np.zeros((cfg.d_text, cfg.d_model)),
        w_mlp_in=np.zeros((cfg.d_model, d_ff)),
        w_mlp_out=np.zeros((d_ff, cfg.d_model)),
    )
    freq, phase = _time_table(TIME_DIM)
    weights = DenoiserWeights(config=cfg, w_in=w_in, blocks=(block,),
                              w_out=np.zeros((cfg.d_model, cfg.c)),
                              time_freq=freq, time_phase=phase)
    for arr in _weight_arrays(weights):
        arr.setflags(write=False)
    return weights


def _weight_arrays(weights: DenoiserWeights) -> list[np.ndarray]:
    arrays = [weights.w_in]
    for bw in weights.blocks:
        arrays += [bw.wq_s, bw.wk_s, bw.wv_s, bw.wq_c, bw.wk_c, bw.wv_c,
                   bw.w_mlp_in, bw.w_mlp_out]
    arrays += [weights.w_out, weights.time_freq, weights.time_phase]
    return arrays
