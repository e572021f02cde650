"""Config parsing, subcommand flows, exit codes, and output artifacts."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from attnfuse.blobio import HEADER, read_blob
from attnfuse.cli import _build_parser, parse_config, run, write_heatmap
from attnfuse.errors import ConfigError, ContractViolation
from attnfuse.imageio import quantize, read_pgm
from attnfuse.fusion import (BLEND, EditConfig, FusionPlan, align_prompts,
                             build_blend_mask, identity_alignment, word_attention)
from attnfuse.model import (KIND_SELF, ModelConfig, SelfTiles, _block_input,
                            _tile_bounds, config_hash, denoiser_forward,
                            embed_prompt, make_denoiser_weights)
from attnfuse.numerics import SeededRng, derived_seed
from attnfuse.pipeline import (VideoSpec, invert_video, pixels_to_latent, synth_video,
                               write_frame_dir)
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


def _minor_faults(tmp_path, steps):
    """The minor page faults of a `reconstruct` process on reconstruct_fine's
    clip at T = *steps*."""
    config = (ROOT / "perfbench" / "configs" / "reconstruct_fine.cfg").read_text()
    path = tmp_path / f"fine_{steps}.cfg"
    path.write_text(config.replace("steps = 200", f"steps = {steps}"))
    proc = subprocess.Popen([sys.executable, "-m", "attnfuse", "reconstruct", "--config",
                             str(path), "--out", str(tmp_path / f"out_{steps}")],
                            stdout=subprocess.DEVNULL,
                            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_minflt


def test_a_replay_step_faults_in_no_fresh_memory(tmp_path):
    # An edit's store is small, so nothing pins the top of the C heap: with
    # the allocator's default, adaptive thresholds each forward pass's freed
    # temporaries go back to the OS and are faulted in again, about 500
    # minor faults per step here.  `cli.run` fixes the thresholds, so the
    # pass reuses what it freed.
    short, long = _minor_faults(tmp_path, 20), _minor_faults(tmp_path, 80)
    assert (long - short) / 60 < 50, (short, long)


def test_invert_writes_latent_and_store(tmp_path, config_path, capsys):
    out = tmp_path / "inv"
    assert run(["invert", "--config", str(config_path),
                "--out", str(out)]) == 0
    rc = parse_config(config_path)
    [z_T] = read_blob(out / "z_T.bin", config_hash(rc.model),
                      [(3, 1, 12, 12)])
    assert np.all(np.isfinite(z_T))
    # store/ holds one latent per step; the load replays them into every
    # record of the grid.  Block 0's self record of step 0 is the source
    # latent.  The dump holds no weights: the load builds them from the
    # model the index carries.
    blobs = sum(p.stat().st_size for p in (out / "store").glob("*.bin"))
    assert f"4 latents ({blobs / 1e6:.2f} MB) in {out / 'store'}" in capsys.readouterr().out
    store = load_store_dump(out / "store")
    assert len(store) == 2 * 4 * 1
    assert store.verify_complete() == []
    _, z0, *_ = _clip(rc)
    assert store.self_record(0, 0).tobytes() == z0.tobytes()
    assert not (out / "store" / "weights.bin").exists()


def test_invert_holds_one_steps_records_whatever_T(tmp_path, peak_bytes):
    # invert holds the latent trajectory and no map, so 12 more steps add
    # 12 latents to its peak, less than one step's records: a block input
    # and a cross map per block.  The first run warms the interpreter's
    # caches.
    peaks = {}
    for name, steps in (("warm", 4), ("short", 4), ("long", 16)):
        path = tmp_path / f"{name}.cfg"
        path.write_text(BASE_CONFIG.replace("steps = 4", f"steps = {steps}"))
        argv = ["invert", "--config", str(path), "--out", str(tmp_path / name)]
        code, peaks[name] = peak_bytes(lambda: run(argv))
        assert code == 0
    rc = parse_config(tmp_path / "long.cfg")
    m, hw = rc.model, rc.model.h * rc.model.w
    tokens = len(embed_prompt(rc.source_prompt, m).tokens)
    one_step = m.blocks * (m.n * hw * m.d_model + m.n * m.heads * hw * tokens) * 8
    assert 12 * m.n * m.c * hw * 8 < one_step
    assert load_store_dump(tmp_path / "long" / "store").meta.T == 16
    assert peaks["long"] - peaks["short"] < one_step


def test_interrupted_invert_leaves_no_index_beside_its_blobs(tmp_path, config_path,
                                                              monkeypatch):
    import attnfuse.blobio as blobio
    out = tmp_path / "inv"
    assert run(["invert", "--config", str(config_path), "--out", str(out)]) == 0
    earlier = load_store_dump(out / "store")
    original = blobio.write_blob

    def failing(path, *args):
        if path.name == "self_t0002_l00.bin":
            raise OSError("the disk filled at step 2's latent")
        return original(path, *args)

    # Another clip removes the earlier dump's index, rewrites the latents of
    # steps 0 and 1, then fails.
    monkeypatch.setattr(blobio, "write_blob", failing)
    assert run(["invert", "--config", str(config_path), "--seed", "9",
                "--out", str(out)]) == 2
    record = earlier.self_record(1, 0)
    [z_t] = read_blob(out / "store" / "self_t0001_l00.bin",
                      config_hash(parse_config(config_path).model), [record.shape])
    assert not np.array_equal(z_t, record)
    with pytest.raises(ContractViolation, match="index.json"):
        load_store_dump(out / "store")


def test_invert_removes_the_blobs_of_an_earlier_dump(tmp_path):
    # A shorter invert into a longer one's --out leaves only its own
    # latents.  It also removes what earlier formats left there: a version
    # 6 dump's cross and later-block blobs and a version 5 dump's
    # weights.bin.  Files not named as blobs stay.
    out, others = tmp_path / "inv", ["notes.txt", "self_t1_l0.bin", "cross_t0009_l00.npy"]
    version6 = [f"{kind}_t{t:04d}_l{layer:02d}.bin"
                for t in range(6) for layer in range(2) for kind in ("self", "cross")]
    for steps in (6, 2):
        path = tmp_path / f"steps{steps}.cfg"
        path.write_text(BASE_CONFIG.replace("steps = 4", f"steps = {steps}"))
        if steps == 2:
            for name in others + version6 + ["weights.bin"]:
                (out / "store" / name).write_text("not a blob")
            (out / "store" / "index.json").write_text('{"version": 6}')
        assert run(["invert", "--config", str(path), "--out", str(out)]) == 0
    assert load_store_dump(out / "store").meta.T == 2
    latents = [f"self_t{t:04d}_l00.bin" for t in range(2)]
    assert (sorted(p.name for p in (out / "store").iterdir())
            == sorted(["index.json", *latents, *others]))


_LOAD = """\
import sys
from attnfuse.store import load_store_dump
store = load_store_dump(sys.argv[1])
print(len(store), len(store.verify_complete()))
"""


def test_a_dump_loads_under_another_blas_thread_count(tmp_path):
    # The load replays every step and requires it to land on the next
    # latent bit for bit, so a dump written with one BLAS thread must load
    # with two.  The benchmark's edit config makes products large enough
    # for OpenBLAS to split.
    config = ROOT / "perfbench" / "configs" / "edit_attr.cfg"
    env = lambda threads: dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                               OPENBLAS_NUM_THREADS=threads)
    commands = [([sys.executable, "-m", "attnfuse", "invert", "--config", str(config),
                  "--out", str(tmp_path)], "1"),
                ([sys.executable, "-c", _LOAD, str(tmp_path / "store")], "2")]
    outputs = []
    for argv, threads in commands:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              env=env(threads))
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    rc = parse_config(config)
    assert outputs[1].split() == [str(rc.steps * rc.model.blocks * 2), "0"]


def _stop_at_the_pass(monkeypatch, held=None):
    """[(args, kwargs)] of the `run_denoise` call that an edit through
    `cli.run` makes, which then raises `StopAtThePass` instead of
    denoising.  With *held*, a list, the bytes that `invert_video` leaves
    allocated (its tracemalloc current) are appended to it."""
    import attnfuse.cli as cli
    calls, invert = [], cli.invert_video

    def traced_invert(*args, **kwargs):
        tracemalloc.start()
        try:
            trajectory = invert(*args, **kwargs)
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        return trajectory

    def stop(*args, **kwargs):
        calls.append((args, kwargs))
        raise StopAtThePass

    if held is not None:
        monkeypatch.setattr(cli, "invert_video", traced_invert)
    monkeypatch.setattr(cli, "run_denoise", stop)
    return calls


class StopAtThePass(Exception):
    pass


@pytest.mark.parametrize("name,command", [("edit_attr", "edit"),
                                          ("reconstruct_fine", "reconstruct")],
                         ids=["edit_attr", "reconstruct_fine"])
def test_an_edit_inversion_holds_its_trajectory_and_the_heatmaps_map(tmp_path, monkeypatch,
                                                                     name, command):
    # The benchmark's edit and reconstruction hold the latent trajectory,
    # 51 and 201 latents, beside the heatmaps' cross map and the Python
    # objects around them, and no other map: the pass rebuilds the source's
    # maps from the latents.
    rc = parse_config(ROOT / "perfbench" / "configs" / f"{name}.cfg")
    held = []
    calls = _stop_at_the_pass(monkeypatch, held)
    with pytest.raises(StopAtThePass):
        run([command, "--config", str(ROOT / "perfbench" / "configs" / f"{name}.cfg"),
             "--out", str(tmp_path)])
    [((z_T, *_), kwargs)] = calls
    plan = kwargs["plan"]
    m = rc.model
    trajectory = plan.trajectory
    assert trajectory.shape == (rc.steps + 1, m.n, m.c, m.h, m.w)
    assert not trajectory.flags.writeable and z_T.tobytes() == trajectory[-1].tobytes()
    assert (trajectory.nbytes, plan.blocks) == ({"edit_attr": 417_792,
                                                 "reconstruct_fine": 1_234_944}[name], m.blocks)
    assert trajectory.nbytes < held[0] < trajectory.nbytes + 0.5e6, name


@pytest.mark.parametrize("command,preset", [
    ("edit", "style"), ("edit", "attribute"), ("edit", "shape"), ("reconstruct", "shape")])
def test_an_edit_reads_its_trajectory_and_builds_its_masks(tmp_path, monkeypatch, command,
                                                           preset):
    # A shape edit blends by a mask at tau 0.3 over the self window, here
    # wider than the cross window (t_s = 0.2, t_c = 0.5); the pass builds
    # each mask from the source's cross map of its block.  Style and
    # attribute (tau 1.0) build no mask, nor does a reconstruction, which
    # drops no word.  Each replayed step reads the latent of the step
    # before it.
    import attnfuse.cli as cli
    import attnfuse.fusion as fusion
    read, masks, plans = [], [], []
    monkeypatch.setattr(fusion.FusionPlan, "source_latent",
                        lambda plan, t, _read=fusion.FusionPlan.source_latent:
                        read.append(t) or _read(plan, t))
    monkeypatch.setattr(fusion, "build_blend_mask", lambda *args, _build=build_blend_mask:
                        masks.append(args[0]) or _build(*args))
    monkeypatch.setattr(cli, "FusionPlan", lambda *args: plans.append(FusionPlan(*args))
                        or plans[-1])
    cfg = (BASE_CONFIG.replace("preset = shape", f"preset = {preset}\nt_s = 0.2")
           .replace("steps = 4", "steps = 10").replace("blocks = 1", "blocks = 2"))
    path = tmp_path / "run.cfg"
    path.write_text(cfg)
    assert run([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    [plan] = plans
    assert plan.trajectory.shape[0] == 11
    # Steps 2-10 blend; the shape edit's masks threshold both blocks' cross
    # maps of each, which the pass rebuilt.
    assert set(read) == set(range(2, 11))
    assert plan._blends == (preset == "shape" and command == "edit")
    assert len(masks) == (9 * 2 if plan._blends else 0)
    if plan._blends:
        built = [plan.self_mask(t, layer) for t in range(10, 1, -1) for layer in range(2)]
        assert [(mask.shape, mask.dtype) for mask in built] == [((3, 144), bool)] * 18


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
    store = AttentionStore(StoreMeta(T=rc.steps, blocks=1))
    invert_video(z0, src, rc.schedule, weights, record=store.add)
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


def _spy_tile_builds(monkeypatch) -> list:
    """(block input, lo, hi, rows) of each `SelfTiles.rows` call from now on."""
    built = []
    original = SelfTiles.rows

    def spy(tiles, lo, hi):
        rows = original(tiles, lo, hi)
        built.append((tiles.feats, lo, hi, rows.copy()))
        return rows

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
def test_self_rows_are_exact_across_tile_boundaries(tmp_path, monkeypatch, self_map, height,
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

    # Rows applied during inversion are the rows the store rebuilds.  No
    # replay rewrites rows there, so each built tile is applied as it is.
    # The config has one block, so every tile a step builds is block 0's.
    built = _spy_tile_builds(monkeypatch)
    z = z0
    store = AttentionStore(StoreMeta(T=rc.steps, blocks=rc.model.blocks))
    applied = {}
    for t in range(rc.steps):
        built.clear()
        [eps] = denoiser_forward(z, t, (src,), weights, rc.steps, record=store.add)
        applied.update({(t, 0, lo): rows for _, lo, _, rows in built})
        assert len(built) == len(_tile_bounds(hw))
        z = ddim_invert_step(z, eps, t, rc.schedule)
    assert len(applied) == rc.steps * len(_tile_bounds(hw))
    assert sorted({lo for _, _, lo in applied}) == [lo for lo, _ in _tile_bounds(hw)]
    for (t, layer, lo), rows in applied.items():
        rebuilt = self_map(store.self_record(t, layer), t, layer, weights, rc.steps)
        assert np.array_equal(rebuilt[:, :, lo:lo + rows.shape[2]], rows)

    # A replay that takes each source map whole applies those same rows,
    # and builds them from the source records alone, never an edit row:
    # from block 0's input, rebuilt from step t-1's latent.
    trajectory = np.stack([store.self_record(t, 0) for t in range(rc.steps)] + [z])
    plan = FusionPlan(EditConfig(t_s=0.0, t_c=0.0, tau=1.0),
                      identity_alignment(len(src.tokens)), trajectory, src, 1)
    for t in range(rc.steps, 0, -1):
        built.clear()
        denoiser_forward(z, t, (src,), weights, rc.steps, replay=plan.step(t))
        source = _block_input(store.self_record(t - 1, 0), t - 1, rc.steps, weights)
        assert [lo for _, lo, _, _ in built] == [lo for lo, _ in _tile_bounds(hw)]
        for feats, lo, _, rows in built:
            assert feats.tobytes() == source.tobytes()
            assert np.array_equal(rows, applied[(t - 1, 0, lo)])


def test_blend_builds_only_the_rows_each_tile_needs(config_path, monkeypatch):
    rc = parse_config(config_path)  # shape preset: a partial mask
    weights, z0, src, edit = _clip(rc)
    trajectory = invert_video(z0, src, rc.schedule, weights)
    align = align_prompts(src.tokens, edit.tokens)
    built = _spy_tile_builds(monkeypatch)
    bounds = _tile_bounds(rc.model.h * rc.model.w)
    skipped = mixed = 0
    # A partial mask thresholds the source's cross map, so its step builds
    # every source tile first, also outside the cross window (t_c = 1.0);
    # an all-clear one (tau 1.0) builds no own tile.
    for edit_cfg in (rc.edit, dataclasses.replace(rc.edit, tau=1.0),
                     dataclasses.replace(rc.edit, t_c=1.0)):
        plan = FusionPlan(edit_cfg, align, trajectory, src, 1)
        for t in range(rc.steps, plan.first_self - 1, -1):
            built.clear()
            denoiser_forward(trajectory[-1], t, (edit,), weights, rc.steps,
                             replay=plan.step(t))
            # The config has one block: a source tile's block input is
            # rebuilt from step t-1's latent.
            source = _block_input(trajectory[t - 1], t - 1, rc.steps, weights).tobytes()
            source_tiles = [(lo, hi) for f, lo, hi, _ in built if f.tobytes() == source]
            edit_tiles = [(lo, hi) for f, lo, hi, _ in built if f.tobytes() != source]
            assert plan.action(t, KIND_SELF) == BLEND
            mask = plan.self_mask(t, 0)
            assert built[:len(source_tiles)] == [b for b in built if b[0].tobytes() == source]
            assert edit_tiles == [b for b in bounds if mask[:, slice(*b)].any()]
            assert source_tiles == [b for b in bounds
                                    if plan._blends or not mask[:, slice(*b)].all()]
            skipped += 2 * len(bounds) - len(edit_tiles) - len(source_tiles)
            mixed += len(set(edit_tiles) & set(source_tiles))
    # Some tiles spare a build, and some need both, which the pass picks from.
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


def test_readme_store_figures_follow_the_store_format(tmp_path, write_dump):
    # The README's store figures, computed from the example config's shapes.
    readme, rc = _readme_example(tmp_path)
    m, records = rc.model, rc.steps * rc.model.blocks
    hw, tokens = m.h * m.w, len(embed_prompt(rc.source_prompt, m).tokens)
    self_record = m.n * hw * m.d_model * 8   # the block input
    latent = m.n * m.c * hw * 8              # block 0's self record
    cross_map = m.n * m.heads * hw * tokens * 8
    self_map = m.n * m.heads * hw * 2 * hw * 8
    step = latent + (m.blocks - 1) * self_record + m.blocks * cross_map
    # A dump writes each step's latent to its blob, and no other record.
    latent_blob = HEADER.size + latent
    assert f"block input, n·h·w·d_model values ({self_record / 1e3:.0f} kB" in readme
    assert f"latent, n·c·h·w values ({latent / 1e3:.0f} kB there)" in readme
    assert f"(T = {rc.steps}, {m.blocks} blocks, {tokens} prompt tokens)" in readme
    assert (f"holds {rc.steps * step / 1e6:.1f} MB instead of "
            f"{records * (self_map + cross_map) / 1e6:.0f} MB") in readme
    assert (f"`invert` writes {rc.steps * latent_blob / 1e6:.2f} MB to `store/` instead "
            f"of {rc.steps * (2 * m.blocks * HEADER.size + step) / 1e6:.1f} MB") in readme
    # An edit of that config keeps the latent trajectory alone.
    assert (f"holds the trajectory's {rc.steps + 1} latents "
            f"({(rc.steps + 1) * latent / 1e6:.2f} MB)") in readme
    assert f"The dump format is version {DUMP_VERSION}" in readme

    # Those are the shapes the store keeps and dumps: one step's records.
    store = AttentionStore(StoreMeta(T=1, blocks=m.blocks))
    z = SeededRng(3).standard_normal((m.n, m.c, m.h, m.w))
    denoiser_forward(z, 0, (embed_prompt(rc.source_prompt, m),),
                     make_denoiser_weights(m), 1, record=store.add)
    first, *later = (store.self_record(0, layer) for layer in range(m.blocks))
    assert first.shape == (m.n, m.c, m.h, m.w)
    assert all(record.shape == (m.n, hw, m.d_model) for record in later)
    held = (first.nbytes + sum(record.nbytes for record in later)
            + sum(store.query(0, layer).nbytes for layer in range(m.blocks)))
    assert held == step
    # The toy clip has the example's prompt; its dump is 4 steps long.
    write_dump(tmp_path / "store", make_denoiser_weights(m))
    written = sum(p.stat().st_size for p in (tmp_path / "store").iterdir())
    index = (tmp_path / "store" / "index.json").stat().st_size
    assert written - index == 4 * latent_blob


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
    original_mask = fusion.FusionPlan._blend_mask
    original_build = fusion.build_blend_mask

    def spy(plan, t, layer, source_map):
        mask = original_mask(plan, t, layer, source_map)
        applied.setdefault((t, layer), mask.copy())
        return mask

    def build_spy(*args):
        built.append(args)
        return original_build(*args)

    monkeypatch.setattr(fusion.FusionPlan, "_blend_mask", spy)
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
