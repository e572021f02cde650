"""Config parsing, subcommand flows, exit codes, and output artifacts."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from attnfuse.blobio import HEADER, read_blob
from attnfuse.cli import _build_parser, parse_config, run, write_heatmap
from attnfuse.errors import ConfigError, ContractViolation
from attnfuse.imageio import quantize, read_pgm
from attnfuse.fusion import (BLEND, EditConfig, FusionPlan, align_prompts,
                             identity_alignment, word_attention)
from attnfuse.model import (KIND_SELF, ModelConfig, SelfTiles, _tile_bounds,
                            config_hash, denoiser_forward, embed_prompt,
                            make_denoiser_weights)
from attnfuse.numerics import SeededRng, derived_seed
from attnfuse.pipeline import (VideoSpec, invert_video, pixels_to_latent,
                               synth_video, write_frame_dir)
from attnfuse.schedule import ddim_invert_step
from attnfuse.store import DUMP_VERSION, AttentionStore, StoreMeta, load_store_dump

ROOT = Path(__file__).resolve().parent.parent

BASE_CONFIG = """\
[model]
frames = 3
height = 12
width = 12
channels = 1
d_model = 8
heads = 2
d_head = 4
blocks = 1
d_text = 8
seed = 5

[schedule]
steps = 4

[edit]
preset = shape
source_prompt = a red square drifting right
edit_prompt = a blue square drifting right

[video]
start_row = 6
start_col = 5
object_size = 2
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return path


def _dir_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_parse_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing overridden\n")
    rc = parse_config(path)
    assert rc.model == ModelConfig(n=4, h=16, w=16, c=1, d_model=16, heads=2,
                                   d_head=8, blocks=2, d_text=16, seed=0)
    assert rc.steps == 50
    assert (rc.edit.t_s, rc.edit.t_c, rc.edit.tau) == (0.2, 0.3, 1.0)
    assert rc.edit.s_cfg == 7.5 and rc.edit.mode == "style"
    assert rc.video is not None and rc.video_dir is None
    assert rc.echo["edit"]["t_s"] == 0.2
    assert rc.echo["schedule"]["steps"] == 50


def test_parse_full_config(config_path):
    rc = parse_config(config_path)
    assert rc.model.n == 3 and rc.model.blocks == 1 and rc.model.seed == 5
    assert rc.steps == 4
    assert rc.edit.mode == "shape"
    assert (rc.edit.t_s, rc.edit.t_c, rc.edit.tau) == (0.5, 0.5, 0.3)
    assert rc.source_prompt == "a red square drifting right"
    assert rc.video.offsets == ((0, 0), (0, 1), (0, 2))
    assert rc.video.start == (6, 5)


def test_parse_preset_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[edit]\npreset = removal\nt_s = 0.9\ns_cfg = 2.5\n")
    rc = parse_config(path)
    assert rc.edit.mode == "removal"
    assert rc.edit.t_s == 0.9
    assert rc.edit.t_c == 0.5          # untouched preset value
    assert rc.edit.s_cfg == 2.5
    assert rc.echo["edit"]["t_s"] == 0.9
    assert rc.echo["edit"]["s_cfg"] == 2.5


@pytest.mark.parametrize("text,fragment", [
    ("[rocket]\n", "line 1"),
    ("[model]\nwarp = 9\n", "line 2"),
    ("[model]\nframes = 2\nframes = 3\n", "duplicate"),
    ("frames = 2\n", "outside any section"),
    ("[model]\nframes\n", "expected key = value"),
    ("[model]\nframes = abc\n", "expects int"),
    ("[edit]\ntau = 1.5\n", "tau"),
    ("[edit]\npreset = sharpen\n", "sharpen"),
    ("[video]\nsource = webcam\n", "synth or dir"),
    ("[video]\nsource = dir\ndir = /no/such/dir\n", "does not exist"),
    ("[video]\nsource = dir\n", "[video] dir"),  # not the working directory
    ("[video]\nstart_col = 14\n", "leaves the frame"),
])
def test_parse_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert fragment in str(exc.value)


def test_help_config_listing_parses_as_the_defaults(tmp_path):
    # `attnfuse --help` lists every key with its default; pasted into a
    # file, that listing is a config that changes nothing.
    heading, listing = _build_parser().epilog.split("\n", 1)
    assert heading == "config file keys and defaults:"
    listed, empty = tmp_path / "listed.cfg", tmp_path / "empty.cfg"
    listed.write_text(listing)
    empty.write_text("")
    assert parse_config(listed).echo == parse_config(empty).echo


def test_usage_errors_exit_3(tmp_path, capsys):
    assert run(["edit"]) == 3                          # missing --config
    assert run(["edit", "--config", str(tmp_path / "nope.cfg")]) == 3
    assert run(["explode", "--config", "x"]) == 3      # unknown subcommand
    assert run(["selfcheck"]) == 3                     # a removed subcommand
    capsys.readouterr()


@pytest.mark.parametrize("text", [
    "[schedule]\nsteps = 0\n",
    "[schedule]\nbeta_start = 0.5\n",
    "[schedule]\nbeta_end = 1.5\n",
    "[model]\nchannels = 2\n",
])
def test_out_of_range_schedule_or_channels_exit_3(tmp_path, capsys, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert run(["invert", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scale", ["inf", "nan"])
def test_non_finite_guidance_scale_exits_3(tmp_path, capsys, config_path, scale):
    config_path.write_text(BASE_CONFIG.replace("preset = shape",
                                               f"preset = shape\ns_cfg = {scale}"))
    out = tmp_path / "out"
    assert run(["edit", "--config", str(config_path), "--out", str(out)]) == 3
    assert "s_cfg must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_python_m_attnfuse_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "attnfuse", "edit"],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 3
    assert "edit requires --config" in proc.stderr


def test_invert_writes_latent_and_store(tmp_path, config_path):
    out = tmp_path / "inv"
    assert run(["invert", "--config", str(config_path),
                "--out", str(out)]) == 0
    rc = parse_config(config_path)
    [z_T] = read_blob(out / "z_T.bin", config_hash(rc.model),
                      [(3, 1, 12, 12)])
    assert np.all(np.isfinite(z_T))
    store = load_store_dump(out / "store")
    assert len(store) == 2 * 4 * 1
    assert store.verify_complete() == []


def test_edit_writes_all_artifacts(tmp_path, config_path):
    out = tmp_path / "edit"
    assert run(["edit", "--config", str(config_path),
                "--out", str(out)]) == 0
    for sub in ("frames", "masks", "heatmaps"):
        files = sorted((out / sub).iterdir())
        assert len(files) == 3, sub
    frame = read_pgm(out / "masks" / "0000.pgm")
    assert frame.shape == (12, 12)
    assert set(np.unique(frame)) <= {0, 255}
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["mse"] >= 0.0
    assert len(payload["psnr"]) == 3
    assert payload["config"]["prompts"]["edit"] == "a blue square drifting right"
    assert payload["config"]["model"]["seed"] == 5
    assert payload["config"]["video"]["seed"] == 5  # the clip follows [model] seed


@pytest.mark.parametrize("command,columns", [
    ("edit", (2,)),                    # the dropped word, "red"
    ("reconstruct", (1, 2, 3, 4, 5)),  # nothing dropped: every word
])
def test_heatmaps_show_the_word_attention_of_inversion_step_0(tmp_path, config_path,
                                                              command, columns):
    out = tmp_path / command
    assert run([command, "--config", str(config_path), "--out", str(out)]) == 0
    rc = parse_config(config_path)
    weights, z0, src, _ = _clip(rc)
    assert src.tokens[2] == "red" and len(src.tokens) == 6
    _, store = invert_video(z0, src, rc.schedule, weights)
    want = quantize(255.0 * word_attention(store.query(0, 0), columns))
    for i in range(rc.model.n):
        written = read_pgm(out / "heatmaps" / f"{i:04d}.pgm")
        assert np.array_equal(written, want[i].reshape(12, 12)), i


def test_edit_requires_edit_prompt(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[schedule]\nsteps = 2\n")
    assert run(["edit", "--config", str(path),
                "--out", str(tmp_path / "o")]) == 3


def test_edit_twice_is_byte_identical(tmp_path, config_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["edit", "--config", str(config_path), "--out", str(a)]) == 0
    assert run(["edit", "--config", str(config_path), "--out", str(b)]) == 0
    left, right = _dir_bytes(a), _dir_bytes(b)
    assert left.keys() == right.keys()
    for name in left:
        assert left[name] == right[name], name


def test_reconstruct_equals_identity_edit(tmp_path):
    cfg = BASE_CONFIG.replace("edit_prompt = a blue square drifting right",
                              "edit_prompt = a red square drifting right")
    path = tmp_path / "run.cfg"
    path.write_text(cfg)
    rec, edit = tmp_path / "rec", tmp_path / "edit"
    assert run(["reconstruct", "--config", str(path), "--out", str(rec)]) == 0
    assert run(["edit", "--config", str(path), "--out", str(edit)]) == 0
    left, right = _dir_bytes(rec), _dir_bytes(edit)
    assert left.keys() == right.keys()
    for name in left:
        assert left[name] == right[name], name
    mse_rec = json.loads((rec / "metrics.json").read_text())["mse"]
    mse_edit = json.loads((edit / "metrics.json").read_text())["mse"]
    assert mse_rec == mse_edit


def test_gray_reconstruction_is_scored_against_the_luminance_source(tmp_path):
    # channels = 1 carries luminance only; against the RGB source even an
    # exact reconstruction of it scores about 14 dB on this red square.
    cfg = BASE_CONFIG.replace("preset = shape", "preset = shape\ns_cfg = 1.0")
    path = tmp_path / "run.cfg"
    path.write_text(cfg)
    out = tmp_path / "rec"
    assert run(["reconstruct", "--config", str(path), "--out", str(out)]) == 0
    psnr = json.loads((out / "metrics.json").read_text())["psnr"]
    assert len(psnr) == 3
    assert sum(psnr) / len(psnr) >= 30.0


def test_reconstruct_builds_one_self_map_per_step_and_layer(tmp_path,
                                                           monkeypatch):
    # style preset: tau = 1.0, so the blend mask is empty and the pass
    # takes each in-window self map whole from the source.
    built = []
    original = SelfTiles.rows

    def spy(tiles, lo, hi):
        built.append((tiles, lo))
        return original(tiles, lo, hi)

    monkeypatch.setattr(SelfTiles, "rows", spy)
    cfg = BASE_CONFIG.replace("preset = shape", "preset = style\ns_cfg = 1.0")
    path = tmp_path / "run.cfg"
    path.write_text(cfg)
    out = tmp_path / "rec"
    assert run(["reconstruct", "--config", str(path), "--out", str(out)]) == 0
    assert not read_pgm(out / "masks" / "0000.pgm").any()
    # T = 4 steps, 1 block: inversion builds 4 self maps, and the pass
    # builds or rebuilds one per step; sizing the empty mask builds none.
    # 12x12 pixels make 3 tiles of query rows (64, 64, 16), each built once.
    assert len(built) == 2 * 4 * 1 * 3
    assert len(set(built)) == len(built)
    assert sorted({lo for _, lo in built}) == [0, 64, 128]


def _recording(probe, log):
    """A probe that answers as *probe* and logs each self tile the pass applies."""
    def recording(site):
        answer = probe(site)
        if site.kind != KIND_SELF:
            return answer
        rows = site.own_rows if answer is None else answer

        def logged(lo, hi):
            tile = rows(lo, hi)
            log[(site.t, site.layer, lo)] = tile.copy()
            return tile

        return logged

    return recording


def _spy_tile_builds(monkeypatch) -> list:
    """(projections, lo, hi) of each `SelfTiles.rows` call from now on."""
    built = []
    original = SelfTiles.rows

    def spy(tiles, lo, hi):
        built.append((tiles.projections, lo, hi))
        return original(tiles, lo, hi)

    monkeypatch.setattr(SelfTiles, "rows", spy)
    return built


def _clip(rc):
    """(weights, z_0, source prompt, edit prompt) of a synth-video run config."""
    weights = make_denoiser_weights(rc.model)
    pixels, _ = synth_video(rc.video, SeededRng(derived_seed(rc.video_seed, "video")))
    return (weights, pixels_to_latent(pixels, rc.model.c),
            embed_prompt(rc.source_prompt, rc.model),
            embed_prompt(rc.edit_prompt, rc.model))


@pytest.mark.parametrize("height,width,start_col", [(8, 12, 5), (5, 13, 3)])
def test_self_rows_are_exact_across_tile_boundaries(tmp_path, monkeypatch, height,
                                                    width, start_col):
    # h*w = 96 ends in a 32-row tail tile; h*w = 65 in a 1-row tail tile,
    # which takes another BLAS path than a full tile.
    cfg = (BASE_CONFIG.replace("height = 12", f"height = {height}")
           .replace("width = 12", f"width = {width}")
           .replace("start_row = 6", "start_row = 2")
           .replace("start_col = 5", f"start_col = {start_col}")
           .replace("object_size = 2", "object_size = 1"))
    path = tmp_path / "run.cfg"
    path.write_text(cfg)
    rc = parse_config(path)
    hw = height * width
    weights, z0, src, _ = _clip(rc)

    # Rows applied during inversion are the rows the store rebuilds.
    applied = {}
    z = z0
    store = AttentionStore(StoreMeta(T=rc.steps, blocks=rc.model.blocks,
                                     config_hash=config_hash(rc.model)))
    for t in range(rc.steps):
        eps = denoiser_forward(z, t, src, weights, rc.steps,
                               probe=_recording(store.record, applied))
        z = ddim_invert_step(z, eps, t, rc.schedule)
    assert sorted({lo for _, _, lo in applied}) == [lo for lo, _ in _tile_bounds(hw)]
    for (t, layer, lo), tile in applied.items():
        rebuilt = store.projections(t, layer).attn()
        assert np.array_equal(rebuilt[:, :, lo:lo + tile.shape[2]], tile)

    # A replay that takes each source map whole applies those same rows,
    # and builds them from the source records alone, never an edit row.
    plan = FusionPlan(EditConfig(t_s=0.0, t_c=0.0, tau=1.0),
                      identity_alignment(len(src.tokens)), store)
    built = _spy_tile_builds(monkeypatch)
    for t in range(rc.steps, 0, -1):
        replayed = {}
        built.clear()
        denoiser_forward(z, t, src, weights, rc.steps,
                         probe=_recording(plan.step_probe(t), replayed))
        assert replayed.keys() == {(t, layer, lo) for (s, layer, lo) in applied
                                   if s == t - 1}
        for (_, layer, lo), tile in replayed.items():
            assert np.array_equal(tile, applied[(t - 1, layer, lo)])
        assert [(id(p), lo) for p, lo, _ in built] == [
            (id(store.projections(t - 1, layer)), lo) for _, layer, lo in replayed]


def test_blend_builds_only_the_rows_each_tile_needs(config_path, monkeypatch):
    rc = parse_config(config_path)  # shape preset: a partial mask
    weights, z0, src, edit = _clip(rc)
    z_T, store = invert_video(z0, src, rc.schedule, weights)
    align = align_prompts(src.tokens, edit.tokens)
    built = _spy_tile_builds(monkeypatch)
    bounds = _tile_bounds(rc.model.h * rc.model.w)
    skipped = mixed = 0
    for edit_cfg in (rc.edit, dataclasses.replace(rc.edit, tau=1.0)):
        plan = FusionPlan(edit_cfg, align, store)
        for t in range(rc.steps, plan.first_self - 1, -1):
            built.clear()
            denoiser_forward(z_T, t, edit, weights, rc.steps,
                             probe=plan.step_probe(t))
            source = store.projections(t - 1, 0)  # the config has one block
            source_tiles = [(lo, hi) for p, lo, hi in built if p is source]
            edit_tiles = [(lo, hi) for p, lo, hi in built if p is not source]
            assert plan.action(t, KIND_SELF) == BLEND
            mask = plan.self_mask(t, 0).mask
            assert edit_tiles == [b for b in bounds if mask[:, slice(*b)].any()]
            assert source_tiles == [b for b in bounds if not mask[:, slice(*b)].all()]
            skipped += 2 * len(bounds) - len(edit_tiles) - len(source_tiles)
            mixed += len(set(edit_tiles) & set(source_tiles))
    # Some tiles spare a build, and some need both, which blend_self picks from.
    assert skipped > 0 and mixed > 0


def test_seed_override_changes_frames(tmp_path, config_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["edit", "--config", str(config_path), "--out", str(a),
                "--seed", "9"]) == 0
    assert run(["edit", "--config", str(config_path), "--out", str(b),
                "--seed", "10"]) == 0
    assert (a / "frames" / "0000.ppm").read_bytes() != \
           (b / "frames" / "0000.ppm").read_bytes()
    echo = json.loads((a / "metrics.json").read_text())["config"]
    assert echo["video"]["seed"] == 9
    assert echo["model"]["seed"] == 5  # the weights keep [model] seed


def test_frame_dir_source(tmp_path, config_path):
    frames = tmp_path / "src_frames"
    spec = VideoSpec(n=3, h=12, w=12, size=2, start=(6, 5),
                     offsets=((0, 0), (0, 1), (0, 2)))
    pixels, _ = synth_video(spec, SeededRng(17))
    write_frame_dir(frames, pixels)
    cfg = BASE_CONFIG + f"source = dir\ndir = {frames}\n"
    path = tmp_path / "run.cfg"
    path.write_text(cfg)
    out = tmp_path / "out"
    assert run(["invert", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "z_T.bin").exists()
    # --seed only draws the synthetic clip, so with frames read from a
    # directory it would change nothing: a usage error.
    assert run(["invert", "--config", str(path), "--out", str(tmp_path / "s"),
                "--seed", "9"]) == 3
    assert not (tmp_path / "s").exists()


def _readme_example(tmp_path):
    """(README text with its whitespace collapsed, its `ini` example parsed)."""
    readme = (ROOT / "README.md").read_text()
    path = tmp_path / "readme.cfg"
    path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    return " ".join(readme.split()), parse_config(path)


def test_readme_lists_exactly_the_cli_commands():
    readme = (ROOT / "README.md").read_text()
    listed = readme.split("\nCommands:\n\n", 1)[1].split("\n\n", 1)[0]
    command = next(a for a in _build_parser()._actions if a.dest == "command")
    assert re.findall(r"^- `(\w+)`", listed, flags=re.M) == list(command.choices)


def test_readme_example_config_is_the_benchmark_edit_config(tmp_path):
    # The README's store-size figures are those of this config.
    _, ours = _readme_example(tmp_path)
    bench = parse_config(ROOT / "perfbench" / "configs" / "edit_attr.cfg")
    assert (ours.model, ours.edit, ours.video) == (bench.model, bench.edit,
                                                  bench.video)
    assert ours.echo == bench.echo  # also the schedule, prompts and [video] keys


def test_readme_store_figures_follow_the_store_format(tmp_path):
    # The README's store figures, computed from the example config's shapes.
    readme, rc = _readme_example(tmp_path)
    m, records = rc.model, rc.steps * rc.model.blocks
    hw, tokens = m.h * m.w, len(embed_prompt(rc.source_prompt, m).tokens)
    self_record = m.n * hw * m.d_model * 8   # the block input
    weights = 2 * m.d_model ** 2 * 8         # wq_s and wk_s, in a dump only
    cross_map = m.n * m.heads * hw * tokens * 8
    self_map = m.n * m.heads * hw * 2 * hw * 8
    blobs = 2 * HEADER.size + self_record + weights + cross_map
    assert f"block input, n·h·w·d_model values ({self_record / 1e3:.0f} kB" in readme
    assert f"({weights / 1e3:.0f} kB on the example clip)" in readme
    assert f"(T = {rc.steps}, {m.blocks} blocks, {tokens} prompt tokens)" in readme
    assert (f"holds {records * (self_record + cross_map) / 1e6:.1f} MB instead of "
            f"{records * (self_map + cross_map) / 1e6:.0f} MB") in readme
    assert f"writes {records * blobs / 1e6:.1f} MB to `store/`" in readme
    assert f"The dump format is version {DUMP_VERSION}" in readme

    # Those are the shapes the store keeps and dumps: one step's records.
    store = AttentionStore(StoreMeta(T=1, blocks=m.blocks, config_hash=config_hash(m)))
    z = SeededRng(3).standard_normal((m.n, m.c, m.h, m.w))
    denoiser_forward(z, 0, embed_prompt(rc.source_prompt, m),
                     make_denoiser_weights(m), rc.steps, probe=store.record)
    held = sum(store.projections(0, layer).feats.nbytes
               + store.query(0, layer).nbytes for layer in range(m.blocks))
    assert held == m.blocks * (self_record + cross_map)
    store.dump(tmp_path / "store")
    written = sum(p.stat().st_size for p in (tmp_path / "store").glob("*.bin"))
    assert written == m.blocks * blobs


def test_frame_count_mismatch_exits_1(tmp_path):
    frames = tmp_path / "src_frames"
    spec = VideoSpec(n=2, h=12, w=12, size=2, start=(6, 5))
    pixels, _ = synth_video(spec, SeededRng(17))
    write_frame_dir(frames, pixels)          # 2 frames, config wants 3
    cfg = BASE_CONFIG + f"source = dir\ndir = {frames}\n"
    path = tmp_path / "run.cfg"
    path.write_text(cfg)
    assert run(["invert", "--config", str(path),
                "--out", str(tmp_path / "o")]) == 1


def test_out_path_collision_exits_2(tmp_path, config_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    assert run(["invert", "--config", str(config_path),
                "--out", str(blocker)]) == 2


def test_heatmap_rendering(tmp_path):
    # The map is drawn as given: word_attention alone normalizes it.
    uniform = tmp_path / "uniform.pgm"
    write_heatmap(np.full((4, 4), 0.25), uniform)
    # 0.25 of full scale, half-up quantized
    assert np.array_equal(read_pgm(uniform), np.full((4, 4), 64, np.uint8))

    hot = np.full((4, 4), 0.25)
    hot[1, 2] = 1.0
    path = tmp_path / "hot.pgm"
    write_heatmap(hot, path)
    img = read_pgm(path)
    assert img[1, 2] == 255
    assert (img == 255).sum() == 1
    assert img[0, 0] == 64

    zero = tmp_path / "zero.pgm"
    write_heatmap(np.zeros((4, 4)), zero)
    assert not read_pgm(zero).any()
    for bad in (np.full((4, 4), 1.5), np.full((4, 4), -0.25),
                np.full((4, 4), np.nan)):
        with pytest.raises(ContractViolation, match=r"\[0, 1\]"):
            write_heatmap(bad, tmp_path / "bad.pgm")
    with pytest.raises(ContractViolation):
        write_heatmap(np.zeros((4, 4, 1)), tmp_path / "bad.pgm")


PARTIAL_MASK_CONFIG = """\
[model]
frames = 3
height = 10
width = 10
channels = 3
d_model = 8
heads = 2
d_head = 4
blocks = 1
d_text = 8
seed = 1

[schedule]
steps = 10

[edit]
preset = shape
tau = 0.95
source_prompt = a red square drifting right
edit_prompt = a blue square drifting right

[video]
start_row = 5
start_col = 4
object_size = 2
"""


def test_written_mask_is_the_mask_applied_at_the_first_self_step(tmp_path,
                                                                 monkeypatch):
    import attnfuse.fusion as fusion
    applied, built = {}, []
    original_mask = fusion.FusionPlan.self_mask
    original_build = fusion.build_blend_mask

    def spy(plan, t, layer):
        mask = original_mask(plan, t, layer)
        applied.setdefault((t, layer), mask.mask.copy())
        return mask

    def build_spy(*args):
        built.append(args)
        return original_build(*args)

    monkeypatch.setattr(fusion.FusionPlan, "self_mask", spy)
    monkeypatch.setattr(fusion, "build_blend_mask", build_spy)
    path = tmp_path / "run.cfg"
    path.write_text(PARTIAL_MASK_CONFIG)
    assert run(["edit", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    # shape preset: t_s = 0.5 of T = 10, so the self window is steps 5..10
    assert sorted({t for t, _ in applied}) == list(range(5, 11))
    assert len(built) == len(applied)  # masks/ reuses the applied mask
    first = applied[(5, 0)].reshape(3, 10, 10)
    for i in range(3):
        written = read_pgm(tmp_path / "o" / "masks" / f"{i:04d}.pgm")
        assert np.array_equal(written == 255, first[i])
        assert 0 < first[i].sum() < 100  # a partial mask, not an extreme
