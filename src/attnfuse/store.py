"""`invert`'s dump of the latent trajectory, and the attention grid it stands for.

Keys are (timestep, layer, kind).  A cross-attention map is kept as is.
A self-attention map holds n*heads*h*w*2*h*w values, so an
`AttentionStore` keeps its self record, the one array the map is built
from: a later block's input, n*h*w*d_model values, or at block 0 the
step's latent, n*c*h*w values.  Every record is a plain read-only
array.  The weights that turn a record into its map are the model's,
so the store holds none.  An `AttentionStore` takes what a forward
pass records (`add`, a `denoiser_forward` record hook): over an
inversion, the whole T x L x {self, cross} grid, each key once.  No
edit keeps one: the pass rebuilds every source map it replays from
the trajectory's latents.

`write_store_dump` writes what a replay needs: the latents z_0 ...
z_{T-1} as one blob, then z_T, and last the index of the replay's
inputs and z_T's digest, so a directory without `index.json` is an
interrupted dump.  `load_store_dump` rebuilds the whole grid by running
`pipeline.invert_video` from z_0 into a store, checking each file.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import blobio
from .errors import ContractViolation, MissingRecordError
from .model import (KIND_CROSS, KIND_SELF, ModelConfig, config_hash, embed_prompt,
                    make_denoiser_weights)
from .numerics import check_finite, fnv1a64, require
from .pipeline import invert_video
from .schedule import make_schedule

# Format of a store dump's index.json and blobs.  Version 8 writes the
# latents to one blob and what replaying them needs; 7 wrote a blob per
# latent.  Earlier ones wrote records of the grid: 6 each one's array, 5
# and 4 also weights, 3 an index, 2 self projections, 1 (unversioned) maps.
DUMP_VERSION = 8
TRAJECTORY = "trajectory.bin"  # the blob of the latents z_0 ... z_{T-1}


class AttentionKey(NamedTuple):
    t: int
    layer: int
    kind: str


# Blobs of earlier versions that version 8 does not write: a record's, and weights.bin.
_OLD_BLOB = re.compile(rf"weights\.bin|({KIND_SELF}|{KIND_CROSS})_t\d{{4,}}_l\d{{2,}}\.bin")


def _grid(T: int, blocks: int) -> Iterator[AttentionKey]:
    """Every key of a complete T x blocks x {self, cross} store, in recording order."""
    return (AttentionKey(t, layer, kind) for t in range(T) for layer in range(blocks)
            for kind in (KIND_SELF, KIND_CROSS))


def _digest(z: np.ndarray) -> int:
    """FNV-1a 64 of a latent's little-endian float64 bytes, a blob's payload."""
    return fnv1a64(np.ascontiguousarray(z, dtype="<f8").tobytes())


@dataclass(frozen=True)
class StoreMeta:
    T: int
    blocks: int


class AttentionStore:
    """Insertion-ordered map from AttentionKey to a cross map or a self record.

    It keeps what an inversion records of the whole T x blocks x {self,
    cross} grid, taking each key once.
    """

    def __init__(self, meta: StoreMeta):
        require(meta.T >= 1 and meta.blocks >= 1,
                f"store metadata out of range: T={meta.T}, blocks={meta.blocks}")
        self.meta = meta
        self._records: dict[AttentionKey, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> Iterator[AttentionKey]:
        return iter(self._records)

    def add(self, t: int, layer: int, kind: str, array: np.ndarray) -> None:
        """Keep a self site's record or a cross map under (t, layer, kind).

        Its signature is that of `denoiser_forward`'s record hook.
        """
        key = AttentionKey(t, layer, kind)
        if key in self._records:
            raise ContractViolation(f"duplicate attention record for {key}")
        self._records[key] = array

    def verify_complete(self) -> list[AttentionKey]:
        """Keys of the grid still missing, in recording order."""
        return [key for key in _grid(self.meta.T, self.meta.blocks)
                if key not in self._records]

    def _entry(self, key: AttentionKey) -> np.ndarray:
        try:
            return self._records[key]
        except KeyError:
            raise MissingRecordError(f"no attention record for {key}") from None

    def self_record(self, t: int, layer: int) -> np.ndarray:
        """The read-only record of a self map: block 0's latent, or a later block's input."""
        return self._entry(AttentionKey(t, layer, KIND_SELF))

    def query(self, t: int, layer: int) -> np.ndarray:
        """The read-only recorded cross map."""
        return self._entry(AttentionKey(t, layer, KIND_CROSS))


def write_store_dump(directory: Path, cfg: ModelConfig, trajectory: np.ndarray,
                     betas: tuple[float, float], source_prompt: str, z_T_path: Path) -> int:
    """Write `invert`'s dump of *trajectory*, inversion's z_0 ... z_T under *cfg*.

    An earlier dump's index, the blobs versions 1 to 7 named after keys
    of the grid and version 5's `weights.bin` go first.  Then z_0 ...
    z_{T-1} go to `trajectory.bin`, z_T to *z_T_path*, both rewritten in
    place, and last the index: what the replay needs (*cfg*, T,
    *betas*, *source_prompt*) and z_T's digest.  A trajectory that is
    not (T+1, n, c, h, w) under *cfg*, T >= 1, is refused before
    anything is removed.  Returns the bytes of `trajectory.bin`.
    """
    directory = Path(directory)
    T = len(trajectory) - 1
    require(trajectory.shape[1:] == (cfg.n, cfg.c, cfg.h, cfg.w) and T >= 1,
            f"{directory}: a trajectory is (T+1, {cfg.n}, {cfg.c}, {cfg.h}, "
            f"{cfg.w}) with T >= 1, got {trajectory.shape}; no dump written")
    hash_ = config_hash(cfg)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "index.json").unlink(missing_ok=True)
    for path in directory.glob("*.bin"):
        if _OLD_BLOB.fullmatch(path.name):
            path.unlink()
    written = blobio.write_blob(directory / TRAJECTORY, hash_, [trajectory[:T]])
    blobio.write_blob(z_T_path, hash_, [trajectory[T]])
    index = {"version": DUMP_VERSION, "T": T, "config_hash": hash_, "model": asdict(cfg),
             "beta_start": betas[0], "beta_end": betas[1], "source_prompt": source_prompt,
             "z_T_fnv1a64": _digest(trajectory[T])}
    (directory / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    return written


# Each index field and the JSON type it must have.
_INDEX_FIELDS = {"T": int, "config_hash": int, "model": dict, "beta_start": float,
                 "beta_end": float, "source_prompt": str, "z_T_fnv1a64": int}


def load_store_dump(directory: Path) -> AttentionStore:
    """Rebuild a dump's whole store by replaying inversion from its z_0.

    It checks each file it reads, naming the one at fault: the index's
    fields and config hash, the trajectory's header, length and
    finiteness, and that inversion from z_0 lands on each stored latent,
    and last on the index's z_T digest, bit for bit.
    """
    directory = Path(directory)
    index_path = directory / "index.json"
    try:
        index = json.loads(index_path.read_text())
    except OSError as exc:
        raise ContractViolation(f"{index_path}: cannot read: {exc.strerror}") from None
    except ValueError as exc:
        raise ContractViolation(f"{index_path}: not a JSON index: {exc}") from None
    require(isinstance(index, dict), f"{index_path}: index must be a JSON object")
    found = index.get("version", 1)
    if type(found) is not int or found != DUMP_VERSION:
        raise ContractViolation(
            f"{index_path}: store dump format version {found!r}, expected "
            f"{DUMP_VERSION}; invert the video again to rewrite it")
    bad = [f"{n} ({kind.__name__})" for n, kind in _INDEX_FIELDS.items()
           if type(index.get(n)) is not kind]
    require(not bad, f"{index_path}: missing or mistyped: {', '.join(bad)}")
    T = index["T"]
    try:
        cfg = ModelConfig(**index["model"])
        sched = make_schedule(T, index["beta_start"], index["beta_end"])
    except (TypeError, ContractViolation) as exc:
        raise ContractViolation(f"{index_path}: {exc}") from None
    hash_ = config_hash(cfg)
    require(index["config_hash"] == hash_,
            f"{index_path}: config_hash {index['config_hash']:#018x} is not that of "
            f"its model, {hash_:#018x}")
    path = directory / TRAJECTORY
    [latents] = blobio.read_blob(path, hash_, [(T, cfg.n, cfg.c, cfg.h, cfg.w)])
    check_finite(f"{path}: latents", latents)
    store = AttentionStore(StoreMeta(T=T, blocks=cfg.blocks))
    replay = invert_video(latents[0], embed_prompt(index["source_prompt"], cfg), sched,
                          make_denoiser_weights(cfg), record=store.add)
    differ = np.count_nonzero(latents.view(np.uint64) != replay[:T].view(np.uint64),
                              axis=(1, 2, 3, 4))
    t = int(np.argmax(differ > 0))  # the first latent the replay misses
    require(not differ[t], f"{path}: step {t - 1}'s replay under {index_path} lands "
                           f"elsewhere than latent {t} ({differ[t]} of {latents[t].size} "
                           f"values differ)")
    require(_digest(replay[T]) == index["z_T_fnv1a64"],
            f"{index_path}: z_T_fnv1a64 {index['z_T_fnv1a64']:#018x} is not the digest "
            f"of step {T - 1}'s replay, {_digest(replay[T]):#018x}")
    return store
