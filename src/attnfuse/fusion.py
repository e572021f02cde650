"""Attention fusion: how source-video structure is carried into an edit.

During the editing pass the denoiser's attention maps are rewritten
from the inversion store.  Cross-attention columns of tokens shared by
both prompts are replaced with the source columns; self-attention rows
are switched between edit and source by a binary mask thresholded from
the source prompt's cross-attention on the words the edit drops
(`word_attention`, which `heatmaps/` shows too).  Both rewrites only
apply inside a configured window of denoising steps.

`FusionPlan` is the one place these decisions are made: for each step,
layer and kind it names the single action, and `fuse_cross`,
`blend_self` and `build_blend_mask` are the pure array rewrites it
applies.  Inside the self window the action is always `BLEND`.

Step pairing: the denoising step t (counting T down to 1) traverses the
same arc of the schedule that inversion step t-1 recorded.
`FusionPlan.source_map` (a cross map) and `FusionPlan.source_projections`
(the recorded block input and weights a self map's rows are built from)
make that pairing and are the only readers of the inversion store; no
whole self map is read back.

Self-attention is rewritten row by row, one tile of query rows at a
time, because the forward pass never holds a whole self map: the plan
answers a self site with a tile function (see `model.AttentionSite`).
Self rows, edit and source alike, are softmax numerators that the pass
normalizes after `attn @ V` (see `model`); blending picks whole rows,
so it needs no normalized map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .model import KIND_CROSS, KIND_SELF, SelfProjections, SelfTiles, TileRows
from .numerics import maxnorm_frame, require
from .store import AttentionStore

MODES = ("style", "attribute", "shape", "removal", "enhancement")

# Preset windows and threshold per editing mode: (t_s, t_c, tau).
_PRESETS = {
    "style": (0.2, 0.3, 1.0),
    "attribute": (0.2, 0.3, 1.0),
    "enhancement": (0.2, 0.3, 1.0),
    "shape": (0.5, 0.5, 0.3),
    "removal": (0.5, 0.5, 0.3),
}

DEFAULT_S_CFG = 7.5


@dataclass(frozen=True)
class EditConfig:
    """Fusion windows, mask threshold, guidance scale, and editing mode.

    t_s and t_c are fractions of T: self-attention blending applies at
    denoising steps t >= t_s * T, cross-attention fusion at t >= t_c * T
    (t counts T down to 1, so smaller fractions fuse longer).
    """

    t_s: float
    t_c: float
    tau: float
    s_cfg: float = DEFAULT_S_CFG
    mode: str = "style"

    def __post_init__(self):
        require(0.0 <= self.t_s <= 1.0, f"t_s must lie in [0, 1], got {self.t_s}")
        require(0.0 <= self.t_c <= 1.0, f"t_c must lie in [0, 1], got {self.t_c}")
        require(0.0 <= self.tau <= 1.0, f"tau must lie in [0, 1], got {self.tau}")
        require(math.isfinite(self.s_cfg) and self.s_cfg >= 0.0,
                f"s_cfg must be finite and >= 0, got {self.s_cfg}")
        require(self.mode in MODES, f"mode must be one of {MODES}, got {self.mode!r}")


def preset(mode: str) -> EditConfig:
    """Default configuration for an editing mode."""
    require(mode in MODES, f"unknown preset {mode!r}; choose from {MODES}")
    t_s, t_c, tau = _PRESETS[mode]
    return EditConfig(t_s=t_s, t_c=t_c, tau=tau, s_cfg=DEFAULT_S_CFG, mode=mode)


@dataclass(frozen=True)
class PromptAlignment:
    """Token correspondence between source and edit prompts.

    matched holds (source_index, edit_index) pairs, increasing in both
    indices; edited_positions are edit-side tokens with no source
    counterpart; removed_positions are source-side tokens with no edit
    counterpart.
    """

    matched: tuple[tuple[int, int], ...]
    edited_positions: tuple[int, ...]
    removed_positions: tuple[int, ...]

    def __post_init__(self):
        require(all(i1 < i2 and j1 < j2 for (i1, j1), (i2, j2)
                    in zip(self.matched, self.matched[1:])),
                f"matched pairs must increase in both indices: {self.matched}")
        require(not ({i for i, _ in self.matched} & set(self.removed_positions)),
                "matched source index listed as removed")
        require(not ({j for _, j in self.matched} & set(self.edited_positions)),
                "matched edit index listed as edited")


def align_prompts(src_tokens: tuple[str, ...] | list[str],
                  edit_tokens: tuple[str, ...] | list[str]) -> PromptAlignment:
    """Longest-common-subsequence alignment over token strings.

    Ties in the LCS backtrack are broken by preferring the earliest
    source token, which keeps the result deterministic.
    """
    src = list(src_tokens)
    edit = list(edit_tokens)
    m, n = len(src), len(edit)
    dp = np.zeros((m + 1, n + 1), dtype=np.int64)
    for i in range(m - 1, -1, -1):
        for j in range(n - 1, -1, -1):
            if src[i] == edit[j]:
                dp[i, j] = dp[i + 1, j + 1] + 1
            else:
                dp[i, j] = max(dp[i + 1, j], dp[i, j + 1])
    matched = []
    i = j = 0
    while i < m and j < n:
        if src[i] == edit[j] and dp[i, j] == dp[i + 1, j + 1] + 1:
            matched.append((i, j))
            i += 1
            j += 1
        elif dp[i + 1, j] >= dp[i, j + 1]:
            i += 1
        else:
            j += 1
    matched_src = {i for i, _ in matched}
    matched_edit = {j for _, j in matched}
    return PromptAlignment(
        matched=tuple(matched),
        edited_positions=tuple(j for j in range(n) if j not in matched_edit),
        removed_positions=tuple(i for i in range(m) if i not in matched_src),
    )


def identity_alignment(n_tokens: int) -> PromptAlignment:
    """Alignment of a prompt with itself."""
    return PromptAlignment(matched=tuple((i, i) for i in range(n_tokens)),
                           edited_positions=(), removed_positions=())


@dataclass(frozen=True)
class BlendMask:
    """Binary per-pixel mask, one row of h*w entries per frame."""

    mask: np.ndarray

    def __post_init__(self):
        require(self.mask.ndim == 2, f"blend mask must be 2-D, got {self.mask.shape}")
        require(self.mask.dtype == np.bool_, "blend mask must be boolean")


def fuse_cross(c_edit: np.ndarray, c_src: np.ndarray,
               alignment: PromptAlignment) -> np.ndarray:
    """Pull matched token columns of a cross-attention map from the source.

    Matched columns are replaced by the source map's columns, edit-only
    columns keep their values, and rows are renormalized to sum to one.
    An identity alignment never gets here: `FusionPlan` takes the source
    map whole instead.
    """
    require(c_edit.ndim == 4, f"cross map must be 4-D, got {c_edit.shape}")
    require(c_src.shape[:3] == c_edit.shape[:3],
            f"source/edit map geometry differs: {c_src.shape} vs {c_edit.shape}")
    n_edit_cols = c_edit.shape[-1]
    for i_src, j_edit in alignment.matched:
        require(0 <= i_src < c_src.shape[-1],
                f"matched source column {i_src} outside map with {c_src.shape[-1]} columns")
        require(0 <= j_edit < n_edit_cols,
                f"matched edit column {j_edit} outside map with {n_edit_cols} columns")

    fused = c_edit.copy()
    for i_src, j_edit in alignment.matched:
        fused[..., j_edit] = c_src[..., i_src]
    sums = fused.sum(axis=-1, keepdims=True)
    require(bool(np.all(sums > 0.0)), "fused cross map has a non-positive row sum")
    return fused / sums


def word_attention(c_src: np.ndarray, columns: tuple[int, ...]) -> np.ndarray:
    """Head-averaged attention on *columns* of a cross map, summed and
    max-normalized per frame: (n, q), each frame peaking at exactly 1."""
    require(len(columns) >= 1, "word attention needs at least one column")
    require(len(set(columns)) == len(columns), f"duplicate columns: {columns}")
    n_cols = c_src.shape[-1]
    for p in columns:
        require(0 <= p < n_cols, f"column {p} outside map with {n_cols} columns")
    return maxnorm_frame(c_src.mean(axis=1)[..., list(columns)].sum(axis=-1))


def build_blend_mask(c_src: np.ndarray, word_positions: tuple[int, ...],
                     tau: float) -> BlendMask:
    """Threshold the `word_attention` of *word_positions* into a mask.

    The comparison against tau is strict, so tau = 1.0 yields the empty
    mask.
    """
    return BlendMask(mask=word_attention(c_src, word_positions) > tau)


def blend_self(s_edit: np.ndarray, s_src: np.ndarray, *,
               mask: BlendMask) -> np.ndarray:
    """Swap self-attention rows between edit and source by the mask.

    Each query pixel takes the edit row where the mask is 1 and the
    source row where it is 0.  Selection is exact: an all-zero mask
    returns the source map's values bit for bit.  The rows may be one
    tile of a map, with the mask's columns for that tile.
    """
    require(s_edit.shape == s_src.shape,
            f"self map shapes differ: {s_edit.shape} vs {s_src.shape}")
    n, _, q, _ = s_edit.shape
    require(mask.mask.shape == (n, q),
            f"mask shape {mask.mask.shape} != (frames, pixels) ({n}, {q})")
    return np.where(mask.mask[:, None, :, None], s_edit, s_src)


def _blend_tiles(edit: TileRows, source: TileRows, mask: BlendMask) -> TileRows:
    """Self rows that follow *edit* where the mask is set and *source* elsewhere.

    Per tile, the edit rows are built only if the mask sets one of the
    tile's rows and the source rows only if it clears one; `blend_self`
    picks the rows of a tile that needs both.
    """
    def rows(lo: int, hi: int) -> np.ndarray:
        picks = mask.mask[:, lo:hi]
        if picks.all():
            return edit(lo, hi)
        if not picks.any():
            return source(lo, hi)
        return blend_self(edit(lo, hi), source(lo, hi), mask=BlendMask(mask=picks))

    return rows


KEEP = "keep"                 # the edit map stands
TAKE_SOURCE = "take_source"   # the recorded cross map replaces it whole
FUSE = "fuse"                 # fuse_cross swaps in matched columns
BLEND = "blend"               # blend_self picks rows by the blend mask


class FusionPlan:
    """Every attention rewrite of one editing pass, decided in one place.

    Built once per editing pass from the edit config, the prompt
    alignment and the inversion store, which carries T.  A window covers the steps
    t >= ceil(frac * T), down to first_self or first_cross.  Inside it a
    cross map is fused, or taken whole from the source when the alignment
    is the identity, and a self map is blended by the mask.  The mask is
    empty when it provably sets no pixel: no source word was removed, or
    tau >= 1 (the test is strict and normalized values <= 1).  Then it is
    not built from the cross map, and one all-clear mask serves the plan.

    A cross map taken whole is the store's read-only array, handed to the
    forward pass before the edit map is computed, so the pass skips that
    map's QK^T and softmax and applies the array without a copy.  A self
    site is answered with a tile function over the source's
    `SelfProjections` and the step's `BlendMask`: per tile, it builds the
    edit rows only where the mask sets a row and the source rows only
    where it clears one, so under an empty mask it builds the source rows
    of each tile and never the edit's.  Each mask is built once and kept,
    so later readers get the mask the pass applied.
    """

    def __init__(self, cfg: EditConfig, alignment: PromptAlignment,
                 store: AttentionStore):
        self.cfg, self.alignment, self.store = cfg, alignment, store
        # The stored cross maps are indexed by source tokens, so the mask
        # follows the source-side tokens that the edit drops (a substituted
        # or removed object).
        self.positions = alignment.removed_positions
        # Step t is inside when t >= frac*T - 1e-9, i.e. when t >= first(frac);
        # the 1e-9 absorbs float dust, so 0.3 * 50 lands on step 15.
        first = lambda frac: max(1, math.ceil(frac * store.meta.T - 1e-9))
        self.first_self, self.first_cross = first(cfg.t_s), first(cfg.t_c)
        self._blends = bool(self.positions) and cfg.tau < 1.0
        # Matched pairs increase in both indices, so an alignment with no
        # edited and no removed token is the identity: the source map whole.
        self._fuses = bool(alignment.edited_positions or alignment.removed_positions)
        self._masks: dict[tuple[int, int] | None, BlendMask] = {}

    def source_map(self, t: int, layer: int) -> np.ndarray:
        """The read-only cross map that denoising step t replays: inversion step t-1's."""
        return self.store.query(t - 1, layer)

    def source_projections(self, t: int, layer: int) -> SelfProjections:
        """The self record whose rows step t replays: inversion step t-1's."""
        return self.store.projections(t - 1, layer)

    def action(self, t: int, kind: str) -> str:
        """KEEP, TAKE_SOURCE or FUSE for a cross map at step t; KEEP or BLEND for a self map."""
        if kind == KIND_CROSS:
            if t < self.first_cross:
                return KEEP
            return FUSE if self._fuses else TAKE_SOURCE
        return KEEP if t < self.first_self else BLEND

    def self_mask(self, t: int, layer: int) -> BlendMask:
        """Pixels whose self-attention rows follow the edit at step t."""
        key = (t, layer) if self._blends else None  # one empty mask per plan
        mask = self._masks.get(key)
        if mask is None:
            if self._blends:
                mask = build_blend_mask(self.source_map(t, layer),
                                        self.positions, self.cfg.tau)
            else:  # sized by the self record, which every self site has
                n, _, q, _ = self.source_projections(t, layer).shape
                mask = BlendMask(mask=np.zeros((n, q), dtype=bool))
            self._masks[key] = mask
        return mask

    def _self_answer(self, t: int, site) -> TileRows:
        source = self.source_projections(t, site.layer)
        require(source.shape == site.shape,
                f"source self map shape {source.shape} != map shape {site.shape}")
        mask = self.self_mask(t, site.layer)
        n, _, q, _ = site.shape
        require(mask.mask.shape == (n, q),
                f"mask shape {mask.mask.shape} != (frames, pixels) ({n}, {q})")
        return _blend_tiles(site.own_rows, SelfTiles(source).rows, mask)

    def step_probe(self, t: int):
        """Probe of the conditional branch at step t; None if it keeps all."""
        actions = {kind: self.action(t, kind) for kind in (KIND_SELF, KIND_CROSS)}
        if set(actions.values()) == {KEEP}:
            return None

        def probe(site):
            act = actions[site.kind]
            if act == KEEP:
                return None
            try:
                if site.kind == KIND_SELF:
                    return self._self_answer(t, site)
                # TAKE_SOURCE never reads site.attn, so the edit map is not built.
                src = self.source_map(t, site.layer)
                return fuse_cross(site.attn, src, self.alignment) if act == FUSE else src
            except ContractViolation as exc:
                raise ContractViolation(
                    f"fusion failed at step {t}, layer {site.layer}, {site.kind}: {exc}"
                ) from exc

        return probe
