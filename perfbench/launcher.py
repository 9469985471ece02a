"""Server launcher for the ``serve-mixed`` workload.

``python3 perfbench/launcher.py --dump <base.tsv> --snapshot <dir> --warmup
<json> --trace <0|1> --out <result.json>`` builds a v3 snapshot from the
dump with the streaming build, opens it through the public API
(``GQBE.from_snapshot(path, config)`` with the benchmark's engine config),
warms it up, starts ``AsyncGQBEServer`` on a port it picks itself and
prints one line, ``READY {"port": ..., "setup_s": ...}``.  It serves until
its standard input closes, then stops the server and writes its peak RSS
and, when traced, the per-layer span summary to ``<out>``.

``gqbe serve`` is not used: it has no engine-budget flags, so it would
serve the default config (whose F15 query outruns the request timeout),
and with the async frontend it prints its port before the socket binds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def install_serving_wrappers(tracer) -> None:
    """Wrap the serving and mutation boundaries inside the server process."""
    from repro.core.gqbe import GQBE
    from repro.serving.async_server import AsyncGQBEServer
    from repro.serving.batching import QueryBatcher
    from repro.storage.snapshot import GraphStore

    # The handler coroutine is the boundary between HTTP transport and the
    # serving core; it has no public name, so the private one is wrapped.
    tracer.wrap(AsyncGQBEServer, "_handle_query", "serving.handle_query")
    tracer.wrap(QueryBatcher, "submit", "serving.submit")
    tracer.wrap(GQBE, "query_batch", "serving.execute")
    tracer.wrap(GQBE, "ingest", "storage.ingest")
    tracer.wrap(GraphStore, "save", "storage.compact_save")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", type=Path, required=True)
    parser.add_argument("--snapshot", type=Path, required=True)
    parser.add_argument("--warmup", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(Path("src").resolve()))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from checks import K
    from engine import engine_config, peak_rss_mb
    from repro import _kernels
    from repro.core.gqbe import GQBE
    from repro.serving.async_server import AsyncGQBEServer
    from repro.storage.build import build_streaming_snapshot
    from spans import Tracer, install_engine_wrappers, memo_hits

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_engine_wrappers(tracer)
        install_serving_wrappers(tracer)

    started = time.perf_counter()
    build_streaming_snapshot(args.dump, args.snapshot)
    built = time.perf_counter()
    system = GQBE.from_snapshot(args.snapshot, engine_config())
    server = AsyncGQBEServer(system, snapshot_path=args.snapshot, port=0)
    opened = time.perf_counter()
    system.graph_store.materialize()
    system.store.build_indexes()
    system.query(tuple(json.loads(args.warmup)), k=K)
    server.start()
    ready = time.perf_counter()
    if tracer is not None:
        tracer.reset()
    banner = {
        "port": server.port,
        "build_s": built - started,
        "open_s": opened - built,
        "warm_s": ready - opened,
        "setup_s": ready - started,
    }
    print("READY " + json.dumps(banner), flush=True)

    try:
        sys.stdin.read()  # serve until the benchmark closes our stdin
    finally:
        server.stop()
    out = {"peak_rss_mb": peak_rss_mb(), "kernel_backend": _kernels.kernels.backend}
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["counts"] = tracer.counts
        out["memo_hits"] = memo_hits(tracer)
        tracer.write(args.out.with_name("spans.jsonl"))
    args.out.write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main()
