"""Attention fusion: how source-video structure is carried into an edit.

During the editing pass the denoiser's attention maps are rewritten
from the source's, which the pass rebuilds from inversion's latent
trajectory.  Cross-attention columns of tokens shared by both prompts
are replaced with the source columns; self-attention rows are switched
between edit and source by a binary mask thresholded from the source
prompt's cross-attention on the words the edit drops (`word_attention`,
which `heatmaps/` shows too).  Both rewrites only apply inside a
configured window of denoising steps.

`FusionPlan` is the one place these decisions are made: for each step,
layer and kind it names the single action, and `fuse_cross` and
`build_blend_mask` are the pure array functions it applies.  Inside the
self window the action is always `BLEND`.

Step pairing: the denoising step t (counting T down to 1) traverses the
same arc of the schedule that inversion step t-1 took.
`FusionPlan.source_latent`, z_{t-1} of the trajectory, makes that
pairing and is the plan's only reader of inversion's record; the plan
keeps no map and no later block's input from inversion.

The forward pass never holds a whole self map, so the plan hands it
each step's decisions as data, a `model.Replay` (`FusionPlan.step`):
the source's latent z_{t-1}, its step, the source prompt, per block the
blend mask and whether the source is carried through the block, and
the cross rewrite.  The pass builds each tile's rows from its own map
where the mask is set and from the source where it is clear.  The
source's later block inputs and cross maps are rebuilt on the way up
(activation recomputation from a kept checkpoint, Chen et al., arXiv
1604.06174): at a carried block the pass applies the source's own rows
to its own values, builds the source's cross map from that sum, which
the cross rewrite fuses or takes, and below the last block applies
that map to the prompt's values and the MLP, as inversion did.  A mask
that thresholds a cross map is a function of that rebuilt map: the
pass builds the source's rows first, then the mask, then its own rows
where the mask sets one.  Self rows, edit and source alike, are
softmax numerators that the pass normalizes after `attn @ V` (see
`model`); blending picks whole rows, so it needs no normalized map.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingRecordError
from .model import KIND_CROSS, KIND_SELF, TAKE_SOURCE, PromptEmbedding, Replay
from .numerics import maxnorm_frame, require

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
                     tau: float) -> np.ndarray:
    """Threshold the `word_attention` of *word_positions* into a (n, q) bool mask.

    The comparison against tau is strict, so tau = 1.0 yields the empty
    mask.
    """
    return word_attention(c_src, word_positions) > tau


KEEP = "keep"                 # the edit map stands
FUSE = "fuse"                 # fuse_cross swaps in matched columns
BLEND = "blend"               # the pass picks self rows by the blend mask


class FusionPlan:
    """Every attention rewrite of one editing pass, decided in one place.

    Built once per editing pass from the edit config, the prompt
    alignment, inversion's latent trajectory z_0 ... z_T (which carries
    T), the source prompt's embedding and the model's number of blocks.
    A window covers the steps t >= ceil(frac * T), down to first_self or
    first_cross.  Inside it a cross map is fused, or taken whole from
    the source when the alignment is the identity, and a self map is
    blended by the mask.  The mask is empty when it provably sets no
    pixel: no source word was removed, or tau >= 1 (the test is strict
    and normalized values <= 1).  Then one all-clear mask serves the
    plan.  Otherwise the mask of step t at a block thresholds the
    source's cross map of that block, which the pass rebuilds from the
    source rows before it builds a row of its own.

    Each step's decisions go to the pass as one `model.Replay`
    (`step`).  A cross map fused or taken whole is the source's, which
    the pass rebuilds at every block of a step in the cross window; one
    taken whole spares the edit map's QK^T and softmax.  The replay
    names the source's latent and the step's masks, so under an empty
    mask the pass builds the source rows of each tile and never the
    edit's.  It carries the source, naming *prompt*, so that the pass
    rebuilds the source's cross map and the next block's source input,
    inside the cross window, on a step whose mask thresholds that map,
    and on any blend step below the last block; a step in the cross
    window alone keeps every self row the pass's own.  Each mask is
    kept read-only, so later readers get the mask the pass applied.
    """

    def __init__(self, cfg: EditConfig, alignment: PromptAlignment, trajectory: np.ndarray,
                 prompt: PromptEmbedding, blocks: int):
        require(trajectory.ndim == 5 and len(trajectory) >= 2,
                f"a trajectory is (T+1, n, c, h, w) with T >= 1, got {trajectory.shape}")
        self.cfg, self.alignment, self.prompt = cfg, alignment, prompt
        self.trajectory, self.blocks = trajectory, blocks
        # The source's cross maps are indexed by source tokens, so the mask
        # follows the source-side tokens that the edit drops (a substituted
        # or removed object).
        self.positions = alignment.removed_positions
        # Step t is inside when t >= frac*T - 1e-9, i.e. when t >= first(frac);
        # the 1e-9 absorbs float dust, so 0.3 * 50 lands on step 15.
        first = lambda frac: max(1, math.ceil(frac * (len(trajectory) - 1) - 1e-9))
        self.first_self, self.first_cross = first(cfg.t_s), first(cfg.t_c)
        self._blends = bool(self.positions) and cfg.tau < 1.0
        # Matched pairs increase in both indices, so an alignment with no
        # edited and no removed token is the identity: the source map whole.
        self._fuses = bool(alignment.edited_positions or alignment.removed_positions)
        self._masks: dict[tuple[int, int] | bool, np.ndarray] = {}

    def source_latent(self, t: int) -> np.ndarray:
        """The latent whose self rows step t replays: inversion's z_{t-1}."""
        return self.trajectory[t - 1]

    def action(self, t: int, kind: str) -> str:
        """KEEP, TAKE_SOURCE or FUSE for a cross map at step t; KEEP or BLEND for a self map."""
        if kind == KIND_CROSS:
            if t < self.first_cross:
                return KEEP
            return FUSE if self._fuses else TAKE_SOURCE
        return KEEP if t < self.first_self else BLEND

    def self_mask(self, t: int, layer: int) -> np.ndarray:
        """The (frames, pixels) bool mask of the self rows that follow the edit at step t.

        Outside the self window every row does.  A mask that thresholds
        a cross map exists once the pass has built it.
        """
        blends = self.action(t, KIND_SELF) == BLEND
        if blends and self._blends:
            try:
                return self._masks[(t, layer)]
            except KeyError:
                raise MissingRecordError(
                    f"no blend mask of step {t}, block {layer}: the pass builds it "
                    f"from the source's cross map when it replays that step") from None
        mask = self._masks.get(blends)  # one all-clear, one all-set
        if mask is None:
            n, _, h, w = self.trajectory.shape[1:]
            mask = np.full((n, h * w), not blends)
            mask.setflags(write=False)
            self._masks[blends] = mask
        return mask

    def _blend_mask(self, t: int, layer: int, source_map: np.ndarray) -> np.ndarray:
        """Step t's mask at block *layer*, from the source's cross map the pass rebuilt."""
        mask = build_blend_mask(source_map, self.positions, self.cfg.tau)
        mask.setflags(write=False)
        self._masks[(t, layer)] = mask
        return mask

    def step(self, t: int) -> Replay | None:
        """Step t's `model.Replay` for the conditional branch; None if it replays nothing.

        Its source is inversion's z_{t-1}, taken at step t-1.  A block's
        mask is a function of the source's cross map where it thresholds
        one.  A block is carried, naming the source prompt, inside the
        cross window, where the mask thresholds that map, and on a blend
        step below the last block, whose next block replays the source.
        The cross rewrite fuses or takes the source's map inside the
        cross window, where every block is carried.
        """
        cross = self.action(t, KIND_CROSS)
        blends = self.action(t, KIND_SELF) == BLEND
        if cross == KEEP and not blends:
            return None
        partial = blends and self._blends
        layers = range(self.blocks)
        masks = tuple(functools.partial(self._blend_mask, t, layer) if partial
                      else self.self_mask(t, layer) for layer in layers)
        carry = tuple(cross != KEEP or partial or (blends and layer + 1 < self.blocks)
                      for layer in layers)
        rewrite = {KEEP: None, TAKE_SOURCE: TAKE_SOURCE,
                   FUSE: functools.partial(fuse_cross, alignment=self.alignment)}[cross]
        return Replay(self.source_latent(t), t - 1, self.prompt, masks, carry, rewrite)
