"""Engine child process for the ``multi-dbp`` workload.

``python3 perfbench/engine.py --inputs <dir> --work <dir> --seconds <s>
--trace <0|1> --out <result.json>`` reads only the generated dump and
``queries.json`` from ``<dir>``, sets the engine up several times from the
dump, then asks the queries in a closed loop (one caller, the next query
only after the previous one returned) in whole rounds of the list, as many
as bring the timed phase nearest ``<s>`` seconds.  It writes the per-query
latencies and answer lists, the set-up timings, its own peak RSS and, when
traced, the per-layer span summary to ``<out>``; the benchmark checks and
reduces them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import K  # noqa: E402

SETUPS = 3


def engine_config():
    from repro.core.config import GQBEConfig

    return GQBEConfig(mqg_size=10, k_prime=25, node_budget=1000, max_join_rows=100_000)


def another_round(round_seconds: list[float], seconds: float) -> bool:
    """Whether to start another round: always a first one, then only while
    the time left exceeds half of a mean round."""
    if not round_seconds:
        return True
    done = sum(round_seconds)
    return seconds - done > done / len(round_seconds) / 2


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def answer_payload(result) -> list:
    return [
        [list(a.entities), a.rank, a.score, a.structure_score, a.content_score]
        for a in result.answers
    ]


def setup_multi_dbp(inputs: Path, warmup):
    """Dump -> ``load_graph`` -> in-memory ``GQBE(graph)`` -> warm-up query."""
    from repro.core.gqbe import GQBE
    from repro.graph.triples import load_graph

    started = time.perf_counter()
    graph = load_graph(inputs / "dbp.tsv")
    loaded = time.perf_counter()
    system = GQBE(graph, engine_config())
    built = time.perf_counter()
    system.query_multi([tuple(t) for t in warmup], k=K)
    warmed = time.perf_counter()
    return system, {
        "open_s": loaded - started,
        "build_s": built - loaded,
        "warm_s": warmed - built,
        "setup_s": warmed - started,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(Path("src").resolve()))
    from repro import _kernels
    from spans import Tracer, install_engine_wrappers, memo_hits

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_engine_wrappers(tracer)

    spec = json.loads((args.inputs / "queries.json").read_text(encoding="utf-8"))
    queries = [tuple(tuple(t) for t in q) for q in spec["queries"]]
    args.work.mkdir(parents=True, exist_ok=True)

    setups = []
    system = None
    for _ in range(SETUPS):
        if system is not None:
            system.close()
        system, timing = setup_multi_dbp(args.inputs, spec["warmup"])
        setups.append(timing)
    if tracer is not None:
        # Per-layer figures cover the timed phase only.
        tracer.reset()

    asked = []  # (query index, seconds, answers)
    rounds: list[float] = []
    while another_round(rounds, args.seconds):
        round_started = time.perf_counter()
        for index, examples in enumerate(queries):
            started = time.perf_counter()
            result = system.query_multi(examples, k=K)
            seconds = time.perf_counter() - started
            asked.append((index, seconds, answer_payload(result)))
        rounds.append(time.perf_counter() - round_started)

    out = {
        "setups": setups,
        "asked": asked,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb(),
        "kernel_backend": _kernels.kernels.backend,
    }
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["counts"] = tracer.counts
        out["memo_hits"] = memo_hits(tracer)
        tracer.write(args.work / "spans.jsonl")
    system.close()
    args.out.write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main()
