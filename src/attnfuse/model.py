"""Toy latent-video denoiser with fully inspectable attention.

The network is deliberately small and deterministic: per-pixel tokens go
through an input projection, a stack of blocks (spatiotemporal
self-attention, cross-attention to the prompt, pointwise MLP, each with
a residual add), and an output projection back to latent channels.

Two properties matter more than capacity here.  First, the editing
machinery reaches the pass through two parameters of
`denoiser_forward`, each with one role.  A `Replay` is one step's
fusion decisions as data, made by `fusion.FusionPlan`: the source
latent and its step, the source prompt, per block the mask that picks
each self row and whether the source is carried through the block, and
how the cross maps are rewritten.  The pass applies it as given.  A
`record` hook sees, read-only, each self site's record and each cross
map the pass applies; it is the only way a map leaves the pass, which
returns the predicted noise alone.  Second, all randomness flows from
explicit seeds, so identical inputs give bit-identical outputs.

A pass runs one stream per prompt, a step's guidance branches, in
lockstep over one latent.  No prompt reaches block 0's self-attention,
so it runs once for all streams; above it each source tile serves every
stream, and cross-attention and the MLP run per stream.  Each stream's
noise is bit for bit that of a pass with its prompt alone.

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
self map.  Rows are independent, so each row of a tile is taken from
the pass's own map or from the replay's source as the block's mask
says.  A self map is a function of the block input and the block's
query and key weights, and the input is 2*heads*h*w/d_model times
smaller than the map.  So a self site's record is one read-only array:
a later block's input, or at block 0 the step's latent, which is
d_model/c times smaller again and one small matmul away from the input
(`_block_input`).  The record holds no weights: the pass builds a
source's rows with its own block's weights, and rebuilds block 0's
input from the latent through the function it applied itself.  A
replay needs no later block's record and no cross map either: where
it carries the source through a block, the pass applies the source
rows it builds anyway to the source's own values, then builds the
source's cross map through the helper the pass's own cross-attention
uses, and below the last block its cross output and the MLP, which
rebuilds the next block's source input bit for bit.  The replay's
cross rewrite reads that map, and a mask function thresholds it:
`spatiotemporal_attend` builds the source's tiles first, then the
mask, then each stream's own tiles where it sets a row.  Every self row
is built by `SelfTiles.rows` from queries and keys projected with one
expression, so rows rebuilt later from a record are bit-identical to
the ones the pass applied.

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

from .numerics import (SeededRng, check_finite, derived_seed, fnv1a64, require,
                       softmax_lastdim, softmax_numerators)

START_TOKEN = "<start>"
POS_DIM = 8          # 2D sinusoidal position features per pixel token
TIME_DIM = 8         # sinusoidal features of normalized timestep
MLP_RATIO = 2
ORACLE_GAIN = 8.0    # query gain of the palette oracle; keeps >=0.9 mass

KIND_SELF = "self"
KIND_CROSS = "cross"

TILE_ROWS = 64       # query rows per self-attention tile

TAKE_SOURCE = "take_source"  # a Replay's cross rewrite: the source's map, whole


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


def _time_features(t: int, n_steps: int, time_freq: np.ndarray,
                   time_phase: np.ndarray) -> np.ndarray:
    tau = t / n_steps
    return np.sin(2.0 * math.pi * time_freq * tau + time_phase)


def _block_input(z_t: np.ndarray, t: int, n_steps: int,
                 weights: DenoiserWeights) -> np.ndarray:
    """Block 0's input, (n, h*w, d_model), from the latent z_t, (n, c, h, w), at step t."""
    n, c, h, w = z_t.shape
    hw = h * w
    zc = z_t.reshape(n, c, hw).transpose(0, 2, 1)
    pos = np.broadcast_to(_posenc(h, w), (n, hw, POS_DIM))
    temb = np.broadcast_to(_time_features(t, n_steps, weights.time_freq,
                                          weights.time_phase), (n, hw, TIME_DIM))
    return np.concatenate([zc, pos, temb], axis=-1) @ weights.w_in


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


class SelfTiles:
    """Rows of one self map, softmax numerators, one tile of query rows at a time.

    The map is that of the block input feats, (n, h*w, d_model), under a
    block's (d_model, d_model) query and key weights wq and wk; heads
    splits d_model.  Each frame's queries attend over the keys of the
    middle frame (index n // 2), then its own.  Every tile is computed
    into one logits buffer of (n, heads, TILE_ROWS, 2*h*w), allocated at
    the first build; a shorter tail tile fills a view of it.  So the rows
    `rows` returns stay valid until its next call.  The queries and keys
    are projected once, when the tiles are made, and the queries scaled
    by 1/sqrt(d_head) then.
    """

    def __init__(self, feats: np.ndarray, wq: np.ndarray, wk: np.ndarray, heads: int):
        self.feats = feats
        n, hw, d_model = feats.shape
        d_head = d_model // heads
        self.shape = (n, heads, hw, 2 * hw)
        self._q = _split_heads((feats @ wq) * (1.0 / math.sqrt(d_head)), heads, d_head)
        keys = _with_middle_frame(_split_heads(feats @ wk, heads, d_head))
        self._kt = np.swapaxes(keys, -1, -2)
        self._logits: np.ndarray | None = None

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi of the map, (n, heads, hi - lo, 2*h*w); hi - lo <= TILE_ROWS."""
        if self._logits is None:
            n, heads, hw, keys = self.shape
            self._logits = np.empty((n, heads, min(TILE_ROWS, hw), keys))
        logits = np.matmul(self._q[:, :, lo:hi], self._kt,
                           out=self._logits[:, :, :hi - lo])
        return softmax_numerators(logits, out=logits)


@dataclass(frozen=True)
class Replay:
    """One step's fusion decisions for the pass, as `fusion.FusionPlan.step` makes them.

    *source* is the source latent, taken at step *t*, whose rows the
    pass builds at block 0 after rebuilding that block's input from it;
    above block 0 the source's input is the one the pass carried up from
    the block below.  *prompt* is the source prompt's embedding.

    Per block, `masks[layer]` is the (n, h*w) bool mask of the self rows
    that stay the pass's own; a clear row is built from the source with
    the block's own weights, so an all-clear mask builds none of the
    pass's own rows.  It may instead be a function that gives that mask
    from the source's cross map of the block, which the pass builds
    once it has built the source's rows.  `carry[layer]` carries the
    source through the block: the pass applies the source's own rows to
    the source's own [V | 1], builds the source's cross map from that
    sum through the helper its own cross-attention uses
    (`_attention_map`), and below the last block adds that map times
    *prompt*'s values and the MLP.  Those are the operations the
    source's pass applied, so the cross map and the next block's source
    input come out bit for bit as that pass had them.

    The masks hold for every prompt of the pass, and *cross* has one
    rewrite per prompt, in the pass's order, of every block's cross map
    from the source's: None keeps the prompt's own, TAKE_SOURCE applies
    the source's whole, so the pass builds no map of its own, and a
    function of (own map, source map) gives the map to apply.  A mask
    function or a cross rewrite needs its block carried, and a block
    above one that is not carried must keep every row its own.
    """

    source: np.ndarray
    t: int
    prompt: PromptEmbedding
    masks: tuple[np.ndarray | Callable[[np.ndarray], np.ndarray], ...]
    carry: tuple[bool, ...]
    cross: tuple[str | Callable[[np.ndarray, np.ndarray], np.ndarray] | None, ...] = (None,)


def _attention_map(q: np.ndarray, k: np.ndarray, d_head: int) -> np.ndarray:
    """The softmax map of queries *q* over keys *k*, the queries scaled by 1/sqrt(d_head).

    The pass builds every cross map through it, its own and the source's
    that it carries up, so equal inputs give equal bits.
    """
    logits = np.matmul(q * (1.0 / math.sqrt(d_head)), np.swapaxes(k, -1, -2))
    return softmax_lastdim(logits, out=logits)


def _values(feats: np.ndarray, wv: np.ndarray, heads: int, d_head: int) -> np.ndarray:
    """[V | 1] of the block input *feats* over [middle frame; own frame] keys."""
    v = _split_heads(feats @ wv, heads, d_head)
    return _with_middle_frame(np.concatenate([v, np.ones(v.shape[:-1] + (1,))], axis=-1))


def _divided(out: np.ndarray) -> np.ndarray:
    """A self output, (n, h*w, d_model), from the products of its rows with [V | 1]."""
    return _merge_heads(out[..., :-1] / out[..., -1:])


def spatiotemporal_attend(feats: Sequence[np.ndarray], block: BlockWeights, heads: int,
                          d_head: int,
                          edit: np.ndarray | Callable[[np.ndarray], np.ndarray] | None = None,
                          source: np.ndarray | None = None, carry: bool = False
                          ) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Self-attention over [middle frame; own frame] keys and values.

    feats holds the block input, (n, h*w, d_model), of each stream of
    the pass.  The middle frame is index n // 2; its keys come first in
    the concatenation.  Rows are computed and applied one tile of
    TILE_ROWS query rows at a time.  *edit*, (n, h*w) bool, picks each
    row of every stream: a set row is built from the stream's input, its
    own, and a clear row from *source*, the block input of the map it
    replays, all under the block's wq_s and wk_s.  Without a mask every
    row is a stream's own.  *edit* may also be a function that returns
    the mask from the source output, which needs *carry*.  Each tile
    multiplies [V | 1], whose last column gives the tile's row sums, and
    each output is divided by them once, after the last tile.

    The source's tiles come first: those whose rows the mask does not
    all set, or every tile with *carry* or a mask function.  Each is
    built once and multiplied by every stream's [V | 1] where a clear
    row may need it.  Then the mask, if a function gives it, and last
    each stream's own tiles, only where the mask sets a row.  A mixed
    tile takes its set rows from its own product and keeps the source's
    for the rest.  So each output is bit for bit that of its stream alone.

    Returns (outputs, source output), one output per stream, each (n,
    h*w, d_model).  With *carry*, the source output applies every source
    row to the source's own [V | 1], from the same tiles, so it is bit
    for bit the output of the pass that recorded *source*.  Without, it
    is None.
    """
    n, hw, _ = feats[0].shape
    edit = np.ones((n, hw), dtype=bool) if edit is None else edit
    later = callable(edit)  # the mask follows from the source output
    vals = [_values(f, block.wv_s, heads, d_head) for f in feats]
    outs = [np.empty((n, heads, hw, d_head + 1)) for _ in feats]
    source_out = None
    replayed = [(lo, hi) for lo, hi in _tile_bounds(hw)
                if carry or later or not edit[:, lo:hi].all()]
    if replayed:
        replay = SelfTiles(source, block.wq_s, block.wk_s, heads)
        if carry:
            source_vals = _values(source, block.wv_s, heads, d_head)
            source_out = np.empty(outs[0].shape)
        for lo, hi in replayed:
            theirs = replay.rows(lo, hi)
            if carry:
                np.matmul(theirs, source_vals, out=source_out[:, :, lo:hi])
            if later or not edit[:, lo:hi].all():
                for v, out in zip(vals, outs):
                    np.matmul(theirs, v, out=out[:, :, lo:hi])
        source_out = _divided(source_out) if carry else None
        edit = edit(source_out) if later else edit
    for f, v, out in zip(feats, vals, outs) if edit.any() else ():
        own = SelfTiles(f, block.wq_s, block.wk_s, heads)
        for lo, hi in _tile_bounds(hw):
            picks = edit[:, lo:hi]
            if picks.all():
                np.matmul(own.rows(lo, hi), v, out=out[:, :, lo:hi])
            elif picks.any():
                np.copyto(out[:, :, lo:hi], np.matmul(own.rows(lo, hi), v),
                          where=picks[:, None, :, None])
    return [_divided(out) for out in outs], source_out


def _text_heads(prompt: PromptEmbedding, w: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """The prompt's keys or values under *w*, split into heads: (1, heads, tokens, d_head)."""
    return _split_heads((prompt.vectors @ w)[None], cfg.heads, cfg.d_head)


def _mlp(x: np.ndarray, bw: BlockWeights) -> np.ndarray:
    """The block's pointwise MLP, with its residual add."""
    return x + np.tanh(x @ bw.w_mlp_in) @ bw.w_mlp_out


def _source_cross(source: np.ndarray, source_out: np.ndarray, bw: BlockWeights,
                  prompt: PromptEmbedding, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """The source's block input plus its self output, and the source's cross
    map from that sum under *prompt*'s keys, as the source's pass built them."""
    summed = source + source_out
    source_map = _attention_map(_split_heads(summed @ bw.wq_c, cfg.heads, cfg.d_head),
                                _text_heads(prompt, bw.wk_c, cfg), cfg.d_head)
    source_map.setflags(write=False)
    return summed, source_map


def denoiser_forward(z_t: np.ndarray, t: int, prompts: Sequence[PromptEmbedding],
                     weights: DenoiserWeights, n_steps: int, replay: Replay | None = None,
                     record: Callable[[int, int, str, np.ndarray], None] | None = None
                     ) -> tuple[np.ndarray, ...]:
    """Predict noise (n, c, h, w) for a latent video at timestep t, once per prompt.

    The prompts' streams run in lockstep, sharing what no prompt reaches
    (see the module notes).  n_steps normalizes t for the timestep
    features; pass the schedule's T.  *replay*, if given, rewrites the
    pass's self rows and cross maps as it says (see `Replay`); a replay
    without one mask and one carry flag per block, or with a mask
    function or a cross rewrite at a block it does not carry, is
    refused, naming the block, and so is one without a cross rewrite
    per prompt.  *record*, if given, watches a one-prompt pass: it is
    called in (layer, self-then-cross) order as
    record(t, layer, kind, array) with each self site's read-only
    record, before the block's self-attention, and with each cross map
    the pass applies, read-only.  It is the only way a map leaves the
    pass: a map it does not keep is dropped once applied.
    """
    cfg = weights.config
    z_t = np.array(z_t, dtype=np.float64)  # a copy: block 0's self record
    require(z_t.shape == (cfg.n, cfg.c, cfg.h, cfg.w),
            f"latent shape {z_t.shape} != config ({cfg.n}, {cfg.c}, {cfg.h}, {cfg.w})")
    check_finite("denoiser input", z_t)
    require(0 <= t <= n_steps, f"timestep {t} outside [0, {n_steps}]")
    require(len(prompts) >= 1 and (record is None or len(prompts) == 1),
            f"a pass takes one prompt or more, and one with a record hook; got {len(prompts)}")
    for prompt in prompts:
        require(prompt.vectors.shape[1] == cfg.d_text,
                f"prompt dim {prompt.vectors.shape[1]} != d_text {cfg.d_text}")
    crosses = (None,) * len(prompts) if replay is None else replay.cross
    if replay is not None:
        counts = (len(replay.masks), len(replay.carry))
        require(counts == (cfg.blocks, cfg.blocks),
                f"block {min(counts + (cfg.blocks,))}: the replay of step {t} gives "
                f"{counts[0]} masks and {counts[1]} carry flags for {cfg.blocks} blocks")
        require(len(crosses) == len(prompts),
                f"the replay of step {t} gives {len(crosses)} cross rewrites "
                f"for {len(prompts)} prompts")
        rewrites = any(cross is not None for cross in crosses)
        for layer, (edit, carry) in enumerate(zip(replay.masks, replay.carry)):
            require(carry or not (callable(edit) or rewrites),
                    f"block {layer}: the replay of step {t} gives a "
                    f"{'mask function' if callable(edit) else 'cross rewrite'} "
                    f"at a block it does not carry")

    z_t.setflags(write=False)
    n, c, h, w = z_t.shape
    xs = (_block_input(z_t, t, n_steps, weights),)  # one stream up to block 0's cross

    def attend_self(feats: tuple[np.ndarray, ...], layer: int, bw: BlockWeights,
                    carried: np.ndarray | None
                    ) -> tuple[tuple[np.ndarray, ...], np.ndarray | None, np.ndarray | None]:
        # (each stream's feats plus its self output, and if the replay
        # carries the source, the source's cross map and below the last
        # block its next input).  Block 0 is recorded as its latent; its
        # source input is rebuilt only when some row replays it or the
        # replay carries it.
        for f in feats:
            f.setflags(write=False)
        if record is not None:
            record(t, layer, KIND_SELF, feats[0] if layer else z_t)
        if replay is None:
            outs = spatiotemporal_attend(feats, bw, cfg.heads, cfg.d_head)[0]
            return tuple(f + out for f, out in zip(feats, outs)), None, None
        edit, carry = replay.masks[layer], replay.carry[layer]
        source = carried if layer else replay.source
        if layer == 0 and (carry or not edit.all()):
            source = _block_input(source, replay.t, n_steps, weights)
        rebuilt = []  # the source plus its self output, and its cross map

        def mask_of(source_out):  # thresholds the source's cross map
            rebuilt.extend(_source_cross(source, source_out, bw, replay.prompt, cfg))
            return edit(rebuilt[1])

        outs, source_out = spatiotemporal_attend(feats, bw, cfg.heads, cfg.d_head,
                                                 mask_of if callable(edit) else edit,
                                                 source, carry)
        outs = tuple(f + out for f, out in zip(feats, outs))
        if not carry:
            return outs, None, None
        summed, source_map = rebuilt or _source_cross(source, source_out, bw,
                                                      replay.prompt, cfg)
        if layer + 1 == cfg.blocks:
            return outs, source_map, None
        carried = _mlp(summed + _merge_heads(np.matmul(
            source_map, _text_heads(replay.prompt, bw.wv_c, cfg))), bw)
        carried.setflags(write=False)
        return outs, source_map, carried

    def attend_cross(x: np.ndarray, layer: int, bw: BlockWeights, prompt: PromptEmbedding,
                     cross, source_map: np.ndarray | None) -> np.ndarray:
        # x plus the cross output under the map the replay rewrites, else
        # the stream's own; taking the source's whole builds no map.
        if cross is TAKE_SOURCE:
            attn = source_map
        else:
            attn = _attention_map(_split_heads(x @ bw.wq_c, cfg.heads, cfg.d_head),
                                  _text_heads(prompt, bw.wk_c, cfg), cfg.d_head)
            if cross is not None:
                attn = cross(attn, source_map)
        attn.setflags(write=False)
        if record is not None:
            record(t, layer, KIND_CROSS, attn)
        return x + _merge_heads(np.matmul(attn, _text_heads(prompt, bw.wv_c, cfg)))

    carried = None  # the source's input to this block, when the block below rebuilt it
    for layer, bw in enumerate(weights.blocks):
        xs, source_map, carried = attend_self(xs, layer, bw, carried)
        xs = tuple(_mlp(attend_cross(x, layer, bw, prompt, cross, source_map), bw)
                   for x, prompt, cross in zip(xs * len(prompts) if layer == 0 else xs,
                                               prompts, crosses))

    return tuple(check_finite("predicted noise",
                              (x @ weights.w_out).transpose(0, 2, 1).reshape(n, c, h, w))
                 for x in xs)


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
