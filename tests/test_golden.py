"""Golden output trees: the sha256 of every file that six small runs write.

Each run's output tree must hash to the digests in tests/golden.json,
file by file.  The digests hold for the numpy version and the BLAS that
the file names: another numpy or BLAS may round a float differently, so
a mismatch message names both, recorded and found.  After a change that
alters output bits on purpose, rewrite the file from the repository root
with

    PYTHONPATH=src python tests/test_golden.py

and say in the change's notes which entries changed and why.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from attnfuse.cli import run

GOLDEN = Path(__file__).with_name("golden.json")

_CLIP = """\
[model]
frames = 3
height = 12
width = 12
channels = {channels}
seed = 3

[schedule]
steps = {steps}

[edit]
preset = {preset}
{extra}source_prompt = a red square drifting right
edit_prompt = {edit_prompt}

[video]
object_size = 2
start_row = 6
start_col = 4
"""

# name: (command, config).  The shape edit at tau 0.6 blends by a partial
# mask, so some 64-row tiles of the 144 query rows mix the edit's rows
# with the source's.  The 3-block edit rebuilds later blocks' source
# inputs on its way up under partial masks; on its last two steps block
# 0's mask sets every row and block 1's does not.  The shape edit with
# t_c < t_s fuses cross maps on steps 2-4, where it blends no self row, so
# its masks keep every row and the source runs up for the cross maps
# alone.  Both run at guidance 1.0, where their frames keep content.
RUNS = {
    "edit_attribute": ("edit", _CLIP.format(
        channels=1, steps=8, preset="attribute", extra="",
        edit_prompt="a blue square drifting right")),
    "edit_shape_tau_0.6": ("edit", _CLIP.format(
        channels=3, steps=8, preset="shape", extra="tau = 0.6\n",
        edit_prompt="a blue disc drifting right")),
    "edit_shape_3_blocks": ("edit", _CLIP.format(
        channels=1, steps=6, preset="shape", extra="tau = 0.6\ns_cfg = 1.0\n",
        edit_prompt="a blue disc drifting right").replace("seed = 3\n",
                                                          "seed = 3\nblocks = 3\n")),
    "edit_shape_cross_below_self": ("edit", _CLIP.format(
        channels=1, steps=8, preset="shape", extra="t_s = 0.6\nt_c = 0.2\ns_cfg = 1.0\n",
        edit_prompt="a blue disc drifting right")),
    "reconstruct": ("reconstruct", _CLIP.format(
        channels=1, steps=6, preset="style", extra="s_cfg = 1.0\n",
        edit_prompt="")),
    "invert": ("invert", _CLIP.format(
        channels=1, steps=4, preset="style", extra="", edit_prompt="")),
}


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 reports no build dependencies
        return "unknown BLAS"
    return f"{blas.get('name')} {blas.get('version')}"


def _environment() -> dict:
    return {"numpy": np.__version__, "blas": _blas()}


def _digests(name: str, work: Path) -> dict:
    """{path under the output directory: sha256} of every file run *name* writes."""
    command, config = RUNS[name]
    path = work / f"{name}.cfg"
    path.write_text(config)
    out = work / name
    assert run([command, "--config", str(path), "--out", str(out)]) == 0
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", list(RUNS))
def test_output_tree_matches_the_golden_digests(tmp_path, name):
    golden = json.loads(GOLDEN.read_text())
    want, got = golden["runs"][name], _digests(name, tmp_path)
    recorded = {key: golden[key] for key in ("numpy", "blas")}
    differ = sorted(p for p in want.keys() | got.keys() if want.get(p) != got.get(p))
    assert not differ, (
        f"{name}: {len(differ)} files differ from tests/golden.json: {differ}; "
        f"recorded under {recorded}, run under {_environment()}")


def test_the_partial_mask_run_builds_no_more_self_tiles(tmp_path, monkeypatch):
    # The shape edit at tau 0.6 thresholds its masks from the cross maps
    # the pass rebuilds, which needs every source tile of a blend step
    # before the mask exists.  Every replayed step builds those tiles
    # anyway, as it runs the source through every block.  Both guidance
    # branches share them and block 0's own tiles, and each builds its own above:
    # 2 blocks x 3 tiles on each of inversion's 8 steps, 6 + 3 + 2 x 3 on
    # each of the 5 blend steps, and 3 + 2 x 3 on each of the 3 others.
    from attnfuse.model import SelfTiles
    built, rows = [], SelfTiles.rows
    monkeypatch.setattr(SelfTiles, "rows", lambda tiles, lo, hi: built.append(lo)
                        or rows(tiles, lo, hi))
    _digests("edit_shape_tau_0.6", tmp_path)
    assert len(built) == 8 * 6 + 5 * 15 + 3 * 9 == 150


def rewrite() -> None:
    """Run every golden run and write its digests, with numpy's version and BLAS."""
    with tempfile.TemporaryDirectory() as work:
        runs = {name: _digests(name, Path(work)) for name in RUNS}
    GOLDEN.write_text(json.dumps({**_environment(), "runs": runs}, indent=2,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    sys.exit(rewrite())
