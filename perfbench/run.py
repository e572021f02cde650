#!/usr/bin/env python3
"""Benchmark of the attnfuse CLI: one closed-loop client, one job at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...      # every workload in turn
    python3 perfbench/run.py --smoke ...             # tiny configs, two jobs

Each job is a fresh `python3 perfbench/child.py` process that calls
`attnfuse.cli.run`, with BLAS pinned to one thread.  The model weights are
fixed by the workload's config; the seed N draws the source video, which
the benchmark writes as frames and the job reads as its input.  Jobs
repeat until the next one would end after S seconds (at least MIN_JOBS).
Every job passes the output gate or counts as failed: exit code 0, every
expected output present, outputs byte-identical to the run's first job,
and for reconstruct_fine a PSNR floor.  Output trees are deleted once
checked.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of traced jobs, which alternate with
untraced ones so the tracing overhead is measured in the same run.  The
lines before it print every metric by name and unit, and the run
environment.  Exit code 1 when an output check failed, 2 when the
checkout holds no attnfuse sources.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path[:0] = [str(HERE), str(SRC)]

MIN_JOBS = 3
JOB_TIMEOUT_S = 100.0
MB = 1e6
PSNR_CAP_DB = 100.0          # score of a frame identical to its reference
# Both guidance branches of an edit run at once; BLAS stays serial.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "ATTNFUSE_THREADS": "2"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # attnfuse CLI subcommand
    config: str                  # under configs/ (and configs/smoke/)
    psnr_floor_db: float | None  # gate: fail below this mean PSNR


WORKLOADS = {w.name: w for w in (
    # Canonical user job: two guidance branches per step, fusion in its
    # window, the whole attention store held in memory, no store I/O.
    Workload("edit_attr", "edit", "edit_attr.cfg", None),
    # Store and blob layers, write path then read-back; no fusion or
    # guidance.
    Workload("invert_dump", "invert", "edit_attr.cfg", None),
    # One guidance branch (ATTNFUSE_THREADS has no effect), 400 small
    # denoiser calls, identity fusion path, near-exact reference.  The
    # floor sits well below the 54.6-57.2 dB seen over input seeds 0-79
    # and far above the 16.8 dB that the gray-vs-RGB comparison of
    # metrics.json reports for the same jobs.
    Workload("reconstruct_fine", "reconstruct", "reconstruct_fine.cfg", 40.0),
)}

END_TO_END_UNITS = {"job_s": "s", "frames_per_s": "1/s", "cpu_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB", "disk_mb": "MB"}
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@dataclass
class Job:
    traced: bool
    returncode: int | None = None
    job_s: float = 0.0
    cpu_s: float = 0.0
    steal_s: float | None = None
    setup_s: float | None = None
    peak_rss_mb: float = 0.0
    disk_mb: float = 0.0
    reload_s: float | None = None
    psnr_db: float | None = None
    temporal_err: float | None = None
    failures: list[str] = field(default_factory=list)
    dumps: list[dict] = field(default_factory=list)
    wall_s: float = 0.0          # job plus its checks, for pacing the loop


@dataclass
class RunResult:
    workload: str
    jobs: list[Job]
    metrics: dict[str, tuple[float, str]]
    extras: dict[str, tuple[float, str]]
    env: dict

    @property
    def failed(self) -> int:
        return sum(1 for j in self.jobs if j.failures)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def child_env() -> dict[str, str]:
    return dict(os.environ, **CHILD_ENV, PYTHONPATH=str(SRC))


def child_argv(sidecar: Path, traced: bool, mode: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), str(sidecar),
            str(int(traced)), mode]


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap *proc* with os.wait4 (for its rusage); SIGKILL it on timeout."""
    reaped = False
    lock = threading.Lock()

    def kill():
        with lock:
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        with lock:
            reaped = True
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def steal_s() -> float | None:
    """CPU time the host gave to other guests, summed over all CPUs."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / CLOCK_TICKS
    except (OSError, IndexError, ValueError):
        return None


def spawn(argv: list[str], env: dict, job_dir: Path, tag: str):
    """Run one child to completion; (exit code, rusage, start, end)."""
    with open(job_dir / f"{tag}.stdout", "wb") as out, \
            open(job_dir / f"{tag}.stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        code, usage = _wait(proc, JOB_TIMEOUT_S)
        end = time.monotonic()
    return code, usage, start, end


def _read_sidecar(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        with open(path, "rb") as f:
            while chunk := f.read(1 << 20):
                h.update(chunk)
    return h.hexdigest()


def missing_outputs(wl: Workload, out: Path, frames: int) -> list[str]:
    """Expected outputs of the subcommand that are absent."""
    if wl.command == "invert":
        need = [out / "z_T.bin", out / "store" / "index.json"]
        return [str(p.relative_to(out)) for p in need if not p.is_file()]
    missing = [] if (out / "metrics.json").is_file() else ["metrics.json"]
    for sub, ext in (("frames", "ppm"), ("masks", "pgm"), ("heatmaps", "pgm")):
        found = len(list((out / sub).glob(f"*.{ext}"))) if (out / sub).is_dir() else 0
        if found != frames:
            missing.append(f"{sub}: {found} of {frames} files")
    return missing


def fidelity(out_frames, reference) -> tuple[float, float]:
    """(mean per-frame PSNR in dB, temporal error) of frames vs reference.

    Temporal error is the mean absolute difference between the two
    videos' consecutive-frame deltas.
    """
    import numpy as np
    diff = out_frames - reference
    psnr = []
    for i in range(diff.shape[0]):
        mse = float(np.mean(diff[i] * diff[i]))
        psnr.append(PSNR_CAP_DB if mse == 0.0
                    else min(PSNR_CAP_DB, 10.0 * np.log10(255.0 ** 2 / mse)))
    temporal = float(np.mean(np.abs(np.diff(out_frames, axis=0)
                                    - np.diff(reference, axis=0))))
    return float(np.mean(psnr)), temporal


def write_input(config: Path, rc, seed: int, input_dir: Path) -> Path:
    """Write the seed's source video and a job config that reads it.

    The video is the config's synthetic clip drawn as the CLI would draw
    it for --seed *seed*.  The job config is *config* with its [video]
    section pointing at the written frames, so the model weights stay
    those of [model] seed while the input varies with *seed*.
    """
    from attnfuse.numerics import SeededRng, derived_seed
    from attnfuse.pipeline import synth_video, write_frame_dir
    shutil.rmtree(input_dir, ignore_errors=True)
    pixels, _ = synth_video(rc.video, SeededRng(derived_seed(seed, "video")))
    write_frame_dir(input_dir / "frames", pixels)
    lines, section = [], ""
    for line in config.read_text().splitlines():
        if line.strip().startswith("["):
            section = line.strip()
        if section != "[video]":
            lines.append(line)
    lines += ["[video]", "source = dir", f"dir = {input_dir / 'frames'}"]
    job_config = input_dir / "job.cfg"
    job_config.write_text("\n".join(lines) + "\n")
    return job_config


def reference_video(frames_dir: Path, c: int):
    """The source frames projected onto the c latent channels.

    The frames the job writes are decoded from c latent channels, so with
    c = 1 the fair reference is the luminance of the source, repeated
    over RGB.
    """
    from attnfuse.pipeline import latent_to_pixels, pixels_to_latent, read_frame_dir
    return latent_to_pixels(pixels_to_latent(read_frame_dir(frames_dir), c), c)


class Bench:
    """One workload at one seed: runs and checks jobs, then summarizes."""

    def __init__(self, wl: Workload, seed: int, smoke: bool, work: Path):
        from attnfuse.cli import parse_config
        self.wl = wl
        config = HERE / "configs" / ("smoke" if smoke else "") / wl.config
        self.rc = parse_config(config)
        self.frames = self.rc.model.n
        self.config = write_input(config, self.rc, seed, work / "input")
        self.reference = (None if wl.command == "invert" else
                          reference_video(work / "input" / "frames", self.rc.model.c))
        self.work = work
        self.first_digest: str | None = None

    def job_argv(self, sidecar: Path, traced: bool) -> list[str]:
        """The job process, before the CLI arguments."""
        return child_argv(sidecar, traced, "cli")

    def run_job(self, traced: bool) -> Job:
        job = Job(traced=traced)
        job_dir = self.work / "job"
        shutil.rmtree(job_dir, ignore_errors=True)
        job_dir.mkdir(parents=True)
        out = job_dir / "out"
        sidecar = job_dir / "job.json"
        env = child_env()
        cli_args = [self.wl.command, "--config", str(self.config), "--out", str(out)]
        t0 = time.monotonic()
        try:
            steal0 = steal_s()
            code, usage, start, end = spawn(self.job_argv(sidecar, traced) + cli_args,
                                            env, job_dir, "job")
            steal1 = steal_s()
            if steal0 is not None and steal1 is not None:
                job.steal_s = steal1 - steal0
            job.returncode = code
            job.job_s = end - start
            job.cpu_s = usage.ru_utime + usage.ru_stime
            job.peak_rss_mb = usage.ru_maxrss * 1024 / MB
            info = _read_sidecar(sidecar)
            if info is not None:
                if "t_first_forward" in info:
                    job.setup_s = info["t_first_forward"] - start
                if traced:
                    job.dumps.append(info)
            self._check(job, out, job_dir, env)
        finally:
            if job.returncode not in (0, None) or job.failures:
                err = job_dir / "job.stderr"
                tail = err.read_text(errors="replace")[-2000:] if err.is_file() else ""
                print(f"[{self.wl.name}] job failed: {job.failures}\n{tail}",
                      file=sys.stderr)
            shutil.rmtree(job_dir, ignore_errors=True)
        job.wall_s = time.monotonic() - t0
        return job

    def _check(self, job: Job, out: Path, job_dir: Path, env: dict) -> None:
        if job.returncode != 0:
            job.failures.append(f"exit code {job.returncode}")
            return
        missing = missing_outputs(self.wl, out, self.frames)
        if missing:
            job.failures.append(f"missing outputs: {missing}")
            return
        job.disk_mb = tree_bytes(out) / MB
        if self.wl.command == "invert":
            self._reload(job, out, job_dir, env)
        else:
            from attnfuse.pipeline import read_frame_dir
            job.psnr_db, job.temporal_err = fidelity(
                read_frame_dir(out / "frames"), self.reference)
            floor = self.wl.psnr_floor_db
            if floor is not None and job.psnr_db < floor:
                job.failures.append(
                    f"psnr {job.psnr_db:.2f} dB below the {floor} dB floor")
        digest = tree_digest(out)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            job.failures.append("outputs differ from the run's first job")

    def _reload(self, job: Job, out: Path, job_dir: Path, env: dict) -> None:
        sidecar = job_dir / "reload.json"
        argv = child_argv(sidecar, job.traced, "reload") + [str(out / "store")]
        code, _, _, _ = spawn(argv, env, job_dir, "reload")
        info = _read_sidecar(sidecar)
        expected = self.rc.steps * self.rc.model.blocks * 2
        if code != 0 or info is None or "records" not in info:
            job.failures.append(f"store read-back failed (exit {code})")
            return
        if info["missing"] or info["records"] != expected:
            job.failures.append(f"store incomplete: {info['records']} records, "
                                f"{info['missing']} missing, {expected} expected")
        job.reload_s = info["reload_s"]
        if job.traced:
            job.dumps.append(info)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarize(bench: Bench, jobs: list[Job], trace: bool, env: dict) -> RunResult:
    import tracer
    plain = [j for j in jobs if not j.traced]
    good = [j for j in plain if not j.failures] or plain
    metrics = {
        "job_s": _median([j.job_s for j in good]),
        "frames_per_s": _median([bench.frames / j.job_s for j in good if j.job_s]),
        "cpu_s": _median([j.cpu_s for j in good]),
        "setup_s": _median([j.setup_s for j in good if j.setup_s is not None]),
        "peak_rss_mb": _median([j.peak_rss_mb for j in good]),
        "disk_mb": _median([j.disk_mb for j in good]),
    }
    e2e = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    extras = {"fail_ratio": (sum(1 for j in jobs if j.failures) / len(jobs), "ratio"),
              "steal_share": (_median([j.steal_s / (j.job_s * os.cpu_count())
                                       for j in jobs if j.steal_s is not None]),
                              "ratio")}
    if bench.wl.command == "invert":
        extras["reload_s"] = (_median([j.reload_s for j in good
                                       if j.reload_s is not None]), "s")
    else:
        extras["psnr_db"] = (_median([j.psnr_db for j in good
                                      if j.psnr_db is not None]), "dB")
        extras["temporal_err"] = (_median([j.temporal_err for j in good
                                           if j.temporal_err is not None]), "level")
    if not trace:
        return RunResult(bench.wl.name, jobs, e2e, extras, env)

    units = per_layer_units()
    traced = [j for j in jobs if j.traced and j.dumps]
    if not traced:
        layer = dict.fromkeys(units, 0.0)
    else:
        layer = tracer.median_metrics([tracer.aggregate(j.dumps, j.job_s)
                                       for j in traced])
        layer["trace.overhead_s"] = (_median([j.job_s for j in traced])
                                     - _median([j.job_s for j in plain]))
        layer["trace.overhead_cpu_s"] = (_median([j.cpu_s for j in traced])
                                         - _median([j.cpu_s for j in plain]))
    if set(layer) != set(units):
        raise RuntimeError("per-layer metrics differ from BENCHMARK.json: "
                           f"{sorted(set(layer) ^ set(units))}")
    layer_metrics = {k: (layer[k], unit) for k, unit in units.items()}
    extras.update({f"e2e.{k}": v for k, v in e2e.items()})
    return RunResult(bench.wl.name, jobs, layer_metrics, extras, env)


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _blas() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _fs_type(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                mount = parts[1]
                if (str(path) + "/").startswith(mount.rstrip("/") + "/") \
                        and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def environment(wl: Workload, seed: int, seconds: int, trace: bool,
                smoke: bool, work: Path) -> dict:
    import numpy as np
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "child_env": CHILD_ENV,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": _blas(), "out_fs": _fs_type(work),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, work: Path = WORK) -> RunResult:
    wl = WORKLOADS[name]
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(wl, seed, smoke, work)
    env = environment(wl, seed, seconds, trace, smoke, work)
    env["model_seed"] = bench.rc.model.seed
    jobs: list[Job] = []
    deadline = time.monotonic() + seconds
    done = False
    while not done:
        jobs.append(bench.run_job(traced=trace and len(jobs) % 2 == 1))
        if smoke:
            done = len(jobs) == 2
        else:
            pace = statistics.median(j.wall_s for j in jobs)
            done = len(jobs) >= MIN_JOBS and time.monotonic() + pace > deadline
    result = summarize(bench, jobs, trace, env)
    _save(result, work, trace)
    return result


def _save(result: RunResult, work: Path, trace: bool) -> None:
    env = result.env
    stem = f"{result.workload}-seed{env['seed']}-trace{int(trace)}"
    (work / "results").mkdir(exist_ok=True)
    (work / "results" / f"{stem}.json").write_text(json.dumps({
        "env": env,
        "metrics": result.metrics,
        "extras": result.extras,
        "jobs": [{k: v for k, v in vars(j).items() if k != "dumps"}
                 for j in result.jobs],
    }, indent=1))
    traced = [j for j in result.jobs if j.dumps]
    if traced:
        (work / "trace").mkdir(exist_ok=True)
        (work / "trace" / f"{stem}.spans.json").write_text(
            json.dumps(traced[-1].dumps))


def report(result: RunResult) -> None:
    """Print every metric by name and unit, then the environment."""
    jobs = result.jobs
    print(f"== {result.workload}: {len(jobs)} jobs, {result.failed} failed "
          f"({sum(j.traced for j in jobs)} traced)")
    for name, (value, unit) in {**result.metrics, **result.extras}.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    print("env " + json.dumps(result.env, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configs and two jobs per workload")
    args = parser.parse_args(argv)

    if not (SRC / "attnfuse" / "cli.py").is_file():
        print(f"no attnfuse sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              args.smoke)
        report(result)
        results.append(result)

    if len(results) == 1:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in results[0].metrics.items()}
    else:
        metrics = {f"{r.workload}.{k}": {"value": v, "unit": u}
                   for r in results for k, (v, u) in r.metrics.items()}
    correct = all(r.correct for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(r.jobs) for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
