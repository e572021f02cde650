"""In-memory span tracing of the attnfuse layers, installed from outside.

`install(tracer)` wraps every public function, and every public method of
a public class, defined in the traced modules, and rebinds each name
wherever a module of the package imported it, so intra-package calls go
through the wrapper too.  Nothing under src/ is edited.

A span is (id, name, start, end, parent, thread).  The parent is the
innermost open span of the calling thread; work submitted to the
pipeline's guidance pool inherits the submitting thread's open span, so
the unconditional branch's `model.denoiser_forward` is a child of
`pipeline.run_denoise`.  Spans stay in memory until `dump()`.

`aggregate()` turns the spans of one job into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict

MODULES = ("numerics", "model", "schedule", "store", "fusion", "pipeline",
           "blobio", "imageio", "cli")

MB = 1e6


class Tracer:
    """Span recorder plus per-call counters for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._store_bytes: dict[int, int] = defaultdict(int)
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str):
        return _Span(self, name)

    def run_under(self, parent: int | None, fn, *args, **kwargs):
        """Call fn on this thread with *parent* as its open span."""
        stack = self._stack()
        if parent is not None:
            stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            if parent is not None:
                stack.pop()

    def count(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    def hold(self, store, nbytes: int) -> None:
        """Track bytes held per store object; keep the largest total."""
        with self._lock:
            self._store_bytes[id(store)] += nbytes
            peak = self._store_bytes[id(store)]
            if peak > self.counters["store.bytes_held"]:
                self.counters["store.bytes_held"] = peak

    def held(self, store) -> int:
        with self._lock:
            return self._store_bytes[id(store)]

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        self.sid = next(self.tracer._ids)
        stack.append(self.sid)
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        end = time.monotonic()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.sid, self.name, self.start, end,
                                  self.parent, threading.current_thread().name))
        return False


def _observe_softmax(tr, args, kwargs, result):
    tr.count("numerics.softmax_lastdim.bytes", result.nbytes)


def _observe_write_blob(tr, args, kwargs, result):
    arrays = args[2] if len(args) > 2 else kwargs["arrays"]
    tr.count("blobio.write_blob.bytes", sum(a.size * 8 for a in arrays))


def _observe_read_blob(tr, args, kwargs, result):
    tr.count("blobio.read_blob.bytes", sum(a.nbytes for a in result))


def _observe_record(tr, args, kwargs, result):
    store, rec = args[0], args[1]
    tr.hold(store, rec.attn.nbytes)


def _observe_dump(tr, args, kwargs, result):
    # Bytes recorded into this store: the payload the dump wrote.  Calling
    # the store's own (traced) accessors here would add spans.
    tr.count("store.dump.bytes", tr.held(args[0]))


def _observe_fuse_cross(tr, args, kwargs, result):
    tr.count("fusion.fuse_cross.active", result is not args[0])


def _observe_blend_self(tr, args, kwargs, result):
    active = result is not args[0]
    tr.count("fusion.blend_self.active", active)
    if active:
        mask = (args[4] if len(args) > 4 else kwargs["mask"]).mask
        tr.count("fusion.mask.edit_pixels", int(mask.sum()))
        tr.count("fusion.mask.pixels", int(mask.size))


# Counters taken at the call sites whose ratios and byte totals the
# per-layer metrics need; keyed by span name.
_OBSERVERS = {
    "numerics.softmax_lastdim": _observe_softmax,
    "blobio.write_blob": _observe_write_blob,
    "blobio.read_blob": _observe_read_blob,
    "store.record": _observe_record,
    "store.dump": _observe_dump,
    "fusion.fuse_cross": _observe_fuse_cross,
    "fusion.blend_self": _observe_blend_self,
}


def _wrap(tracer: Tracer, name: str, fn):
    observe = _OBSERVERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return result

    return traced


def _public_callables(module):
    """(span name, owner, attribute, function) defined in *module*."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{attr}", module, attr, obj
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"{short}.{meth}", obj, meth, fn


def rebind(replacements: dict[int, object]) -> None:
    """Point every attnfuse module global whose value has a key id() in
    *replacements* at its replacement."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "attnfuse" or mod_name.startswith("attnfuse."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements and not inspect.isclass(obj):
                    setattr(module, attr, replacements[id(obj)])


def install(tracer: Tracer) -> None:
    """Wrap the traced modules' public callables."""
    import importlib
    modules = [importlib.import_module(f"attnfuse.{m}") for m in MODULES]
    wrapped: dict[int, object] = {}
    names = []
    for module in modules:
        for name, owner, attr, fn in _public_callables(module):
            if name in names:
                raise RuntimeError(f"two traced callables share the name {name}")
            names.append(name)
            wrapper = _wrap(tracer, name, fn)
            wrapped[id(fn)] = wrapper
            setattr(owner, attr, wrapper)
    rebind(wrapped)

    import attnfuse.pipeline as pipeline
    base = pipeline.ThreadPoolExecutor

    class ContextPool(base):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.run_under, tracer.current(), fn,
                                  *args, **kwargs)

    pipeline.ThreadPoolExecutor = ContextPool


def _self_times(spans) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def aggregate(dumps: list[dict], traced_job_s: float) -> dict[str, float]:
    """Per-layer metrics of one job from the dumps of its processes.

    The first dump is the CLI job process; later ones (the store
    read-back) add their calls and times but not to the coverage.
    """
    # Span ids count from 1 in each process: key them by process too.
    spans = [((i, sid), name, start, end,
              None if parent is None else (i, parent), thread)
             for i, d in enumerate(dumps)
             for sid, name, start, end, parent, thread in d["spans"]]
    counters = defaultdict(float)
    for d in dumps:
        for key, value in d["counters"].items():
            counters[key] = (max(counters[key], value) if key == "store.bytes_held"
                             else counters[key] + value)
    by_id = {s[0]: s for s in spans}
    selfs = _self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    module_total = defaultdict(float)
    for sid, name, start, end, parent, _ in spans:
        calls[name] += 1
        total[name] += end - start
        self_total[name] += selfs[sid]
        module = name.split(".", 1)[0]
        parent_span = by_id.get(parent)
        if parent_span is None or parent_span[1].split(".", 1)[0] != module:
            module_total[module] += end - start

    run_denoise = [s for s in spans if s[1] == "pipeline.run_denoise"]
    rd_ids = {s[0] for s in run_denoise}
    rd_wall = sum(s[3] - s[2] for s in run_denoise)
    branch_busy = sum(s[3] - s[2] for s in spans
                      if s[1] == "model.denoiser_forward" and s[4] in rd_ids)
    job_top = sum(s[3] - s[2] for s in dumps[0]["spans"] if s[4] is None)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "numerics.softmax_lastdim.calls": calls["numerics.softmax_lastdim"],
        "numerics.softmax_lastdim.s": total["numerics.softmax_lastdim"],
        "numerics.softmax_lastdim.mb_computed":
            counters["numerics.softmax_lastdim.bytes"] / MB,
        "model.attend.calls": calls["model.attend"],
        "model.attend.self_s": self_total["model.attend"],
        "model.denoiser_forward.calls": calls["model.denoiser_forward"],
        "model.denoiser_forward.self_s": self_total["model.denoiser_forward"],
        "store.bytes_held_mb": counters["store.bytes_held"] / MB,
        "store.record.calls": calls["store.record"],
        "store.record.s": total["store.record"],
        "store.dump.s": total["store.dump"],
        "store.dump.mb": counters["store.dump.bytes"] / MB,
        "blobio.write_blob.calls": calls["blobio.write_blob"],
        "blobio.write_blob.s": total["blobio.write_blob"],
        "blobio.write_blob.mb": counters["blobio.write_blob.bytes"] / MB,
        "blobio.read_blob.calls": calls["blobio.read_blob"],
        "blobio.read_blob.s": total["blobio.read_blob"],
        "blobio.read_blob.mb": counters["blobio.read_blob.bytes"] / MB,
    }
    for fn in ("fuse_cross", "blend_self", "build_blend_mask"):
        m[f"fusion.{fn}.calls"] = calls[f"fusion.{fn}"]
        m[f"fusion.{fn}.s"] = total[f"fusion.{fn}"]
    for fn in ("fuse_cross", "blend_self"):
        m[f"fusion.{fn}.active_ratio"] = ratio(counters[f"fusion.{fn}.active"],
                                               calls[f"fusion.{fn}"])
    m["fusion.mask_edit_frac"] = ratio(counters["fusion.mask.edit_pixels"],
                                       counters["fusion.mask.pixels"])
    m["pipeline.invert_video.s"] = total["pipeline.invert_video"]
    m["pipeline.run_denoise.s"] = rd_wall
    m["pipeline.branch_overlap"] = ratio(branch_busy, rd_wall)
    m["pipeline.write_frame_dir.s"] = total["pipeline.write_frame_dir"]
    m["schedule.s"] = module_total["schedule"]
    m["imageio.s"] = module_total["imageio"]
    m["trace.coverage"] = ratio(job_top, traced_job_s)
    m["trace.spans"] = len(spans)
    return {k: float(v) for k, v in m.items()}


def median_metrics(per_job: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
