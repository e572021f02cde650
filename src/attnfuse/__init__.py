"""Prompt-driven video editing by attention fusion.

A compact, fully deterministic latent-diffusion stack: DDIM inversion
of a toy denoiser returns its latent trajectory, and the editing pass
replays the source's attention maps, rebuilt from those latents with
the model's own weights, through cross-attention column fusion and
masked self-attention blending, so edits keep the source video's
layout and motion.
"""

from .errors import ConfigError, ContractViolation, MissingRecordError
from .fusion import (EditConfig, FusionPlan, PromptAlignment, align_prompts,
                     build_blend_mask, fuse_cross, identity_alignment, preset)
from .model import (DenoiserWeights, ModelConfig, PromptEmbedding, Replay,
                    SelfTiles, denoiser_forward, embed_prompt,
                    make_denoiser_weights, make_oracle_denoiser,
                    spatiotemporal_attend)
from .numerics import SeededRng, maxnorm_frame, softmax_lastdim
from .pipeline import (MetricsReport, VideoSpec, compute_metrics, decode,
                       encode, invert_video, run_denoise, synth_video)
from .schedule import (NoiseSchedule, cfg_combine, ddim_invert_step,
                       ddim_step, make_schedule)
from .store import (AttentionKey, AttentionStore, StoreMeta, load_store_dump,
                    write_store_dump)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
