"""One job process of the benchmark.

    python3 child.py SIDECAR TRACE cli ARGS...       # attnfuse.cli.run(ARGS)
    python3 child.py SIDECAR TRACE reload STORE_DIR  # load_store_dump + verify

The process exits with the job's exit code and leaves a JSON sidecar
with its timestamps (time.monotonic, comparable with the parent's) and,
when TRACE is 1, its spans and counters.  The untraced run wraps only
`denoiser_forward`, to stamp the end of set-up at its first call.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer, install, rebind  # noqa: E402


def _stamp_first_forward(info: dict) -> None:
    import attnfuse.model
    original = attnfuse.model.denoiser_forward

    def stamped(*args, **kwargs):
        if "t_first_forward" not in info:
            info["t_first_forward"] = time.monotonic()
        return original(*args, **kwargs)

    rebind({id(original): stamped})


def _reload(store_dir: str, info: dict) -> int:
    import attnfuse.store
    start = time.monotonic()
    store = attnfuse.store.load_store_dump(Path(store_dir))
    info["reload_s"] = time.monotonic() - start
    info["records"] = len(store)
    info["missing"] = len(store.verify_complete())
    return 0 if info["missing"] == 0 else 1


def main(argv: list[str]) -> int:
    sidecar, trace, mode, rest = Path(argv[0]), argv[1] == "1", argv[2], argv[3:]
    info: dict = {"t_start": T_START}
    tracer = Tracer() if trace else None
    code = 1
    try:
        if tracer is not None:
            with tracer.span("bench.import"):
                import attnfuse.cli  # noqa: F401
            install(tracer)
        else:
            import attnfuse.cli  # noqa: F401
            _stamp_first_forward(info)
        if mode == "cli":
            code = attnfuse.cli.run(rest)
        elif mode == "reload":
            code = _reload(rest[0], info)
        else:
            raise SystemExit(f"unknown child mode {mode!r}")
    finally:
        info["t_end"] = time.monotonic()
        if tracer is not None:
            info.update(tracer.dump())
            starts = [s[2] for s in tracer.spans if s[1] == "model.denoiser_forward"]
            if starts:
                info["t_first_forward"] = min(starts)
        sidecar.write_text(json.dumps(info))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
