"""End-to-end and per-layer benchmark of the GQBE engine and server.

Run from the root of a checkout::

    python3 perfbench/run.py --workload multi-dbp --seed 1 --seconds 45 --trace 0

Workloads (see ``README.md`` in this directory for why each exists):

* ``multi-dbp``   3-example-tuple queries, DBpedia-like graph, in memory;
* ``serve-mixed`` async HTTP server: Zipf reads, live ingest, compaction.

The inputs are generated from ``--seed`` into ``perfbench/.work``; the
engine runs in a fresh child process that receives only those files.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  A line before it,
starting with ``diagnostics:``, records the run's environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import answer_problems, decomposition_mismatches, precision_at_k, truth_set  # noqa: E402
from engine import another_round  # noqa: E402

WORKLOADS = ("multi-dbp", "serve-mixed")
ENGINE_TIMEOUT_S = 170


def steal_ticks() -> int:
    """Host CPU steal ticks so far (aggregate ``cpu`` line of /proc/stat)."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def git_sha() -> str | None:
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    ref = head.read_text(encoding="ascii").strip()
    if ref.startswith("ref: "):
        target = Path(".git") / ref[5:]
        return target.read_text(encoding="ascii").strip() if target.is_file() else None
    return ref


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_layer_engine(layers: dict, counts: dict, memo: int) -> dict:
    """Per-layer figures of the query pipeline, per engine query."""
    queries = counts.get("lattice.explorations", 0) or 1

    def self_ms(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0) * 1000.0 / queries

    evaluated = counts.get("lattice.nodes_evaluated", 0)
    null = counts.get("lattice.null_nodes", 0)
    return {
        "graph.neighborhood_ms": metric(self_ms("graph.neighborhood"), "ms"),
        "graph.neighborhood_edges": metric(counts.get("graph.neighborhood_edges", 0) / queries, "count"),
        "discovery.mqg_ms": metric(self_ms("discovery.mqg"), "ms"),
        "discovery.mqg_edges": metric(counts.get("discovery.mqg_edges", 0) / queries, "count"),
        "discovery.merge_ms": metric(self_ms("discovery.merge"), "ms"),
        "lattice.record_ms": metric(self_ms("lattice.record"), "ms"),
        "lattice.explore_ms": metric(self_ms("lattice.explore"), "ms"),
        "lattice.nodes_evaluated": metric(evaluated / queries, "count"),
        "lattice.null_nodes": metric(null / queries, "count"),
        "lattice.useful_node_ratio": metric((evaluated - null) / evaluated if evaluated else 0.0, "ratio"),
        "storage.join_ms": metric(self_ms("storage.join"), "ms"),
        "storage.join_calls": metric(counts.get("storage.join_calls", 0) / queries, "count"),
        "storage.join_rows": metric(counts.get("storage.join_rows", 0) / queries, "count"),
        "storage.memo_hits": metric(memo / queries, "count"),
    }


SERVE_ONLY_LAYERS = {
    "storage.ingest_ms": "ms",
    "storage.compact_save_s": "s",
    "serving.cache_hit_ratio": "ratio",
    "serving.transport_ms": "ms",
    "serving.batch_wait_ms": "ms",
    "serving.execute_ms": "ms",
    "serving.ingest_p50_ms": "ms",
    "serving.compact_s": "s",
}


# ----------------------------------------------------------------------
# multi-dbp
# ----------------------------------------------------------------------
def run_engine(inputs: Path, work: Path, seconds: int, trace: int) -> dict:
    out = work / "engine.json"
    command = [
        sys.executable, str(HERE / "engine.py"),
        "--inputs", str(inputs),
        "--work", str(work),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", str(out),
    ]
    subprocess.run(command, check=True, timeout=ENGINE_TIMEOUT_S)
    return json.loads(out.read_text(encoding="utf-8"))


def reduce_engine(inputs: Path, raw: dict, trace: int):
    spec = json.loads((inputs / "queries.json").read_text(encoding="utf-8"))
    truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
    problems = []
    precision_of: dict[int, float] = {}
    failed = 0
    for index, _seconds, answers in raw["asked"]:
        examples = spec["queries"][index]
        if decomposition_mismatches(answers):
            failed += 1
        for problem in answer_problems(examples, answers):
            problems.append(f"query {index} {examples}: {problem}")
        if index not in precision_of:
            table = truth["tables"][truth["queries"][index]]
            precision_of[index] = precision_at_k(answers, truth_set(table, examples))
    latencies = [seconds for _index, seconds, _answers in raw["asked"]]
    per_round = len(spec["queries"])
    throughput = per_round * len(raw["rounds"]) / sum(raw["rounds"])
    setups = raw["setups"]
    median_of = lambda key: statistics.median(s[key] for s in setups)  # noqa: E731
    if trace:
        metrics = per_layer_engine(raw["layers"], raw["counts"], raw["memo_hits"])
        metrics["storage.build_s"] = metric(median_of("build_s"), "s")
        metrics["storage.open_s"] = metric(median_of("open_s"), "s")
        for name, unit in SERVE_ONLY_LAYERS.items():
            metrics[name] = metric(0.0, unit)
    else:
        metrics = {
            "throughput_qps": metric(throughput, "1/s"),
            "latency_p50_ms": metric(statistics.median(latencies) * 1000.0, "ms"),
            "latency_p90_ms": metric(p90(latencies) * 1000.0, "ms"),
            "precision_at_10": metric(statistics.fmean(precision_of.values()), "ratio"),
            "setup_s": metric(median_of("setup_s"), "s"),
            "peak_rss_mb": metric(raw["peak_rss_mb"], "MB"),
        }
    diagnostics = {
        "kernel_backend": raw["kernel_backend"],
        "edges": truth["edges"],
        "queries_asked": len(latencies),
        "p95_ms": statistics.quantiles(latencies, n=20)[18] * 1000.0,
        "distinct_queries_asked": len(precision_of),
        "setups": setups,
        "rounds": len(raw["rounds"]),
        "throughput_qps": throughput,
    }
    return problems, len(latencies), failed, metrics, diagnostics


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def run_serve(inputs: Path, work: Path, seconds: int, trace: int) -> list[dict]:
    """Whole rounds, as many as bring the timed phases nearest ``seconds``."""
    from serve import run_round

    spec = json.loads((inputs / "ops.json").read_text(encoding="utf-8"))
    batches = json.loads((inputs / "ingest.json").read_text(encoding="utf-8"))
    rounds = []
    while another_round([record["timed_s"] for record in rounds], seconds):
        round_dir = work / f"round-{len(rounds)}"
        rounds.append(run_round(inputs, round_dir, spec, batches, trace))
        for snapshot in round_dir.glob("base.snap*"):
            shutil.rmtree(snapshot, ignore_errors=True)
    return rounds


def counter_value(exposition: str, name: str) -> float:
    """An unlabelled sample's value from a Prometheus text exposition."""
    for line in exposition.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == name:
            return float(parts[1])
    return 0.0


def reduce_serve(inputs: Path, rounds: list[dict], trace: int):
    spec = json.loads((inputs / "ops.json").read_text(encoding="utf-8"))
    truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    failed_by_kind = {"read": 0, "delta_check": 0, "probe_pre": 0, "probe_post": 0}
    latencies: list[float] = []
    hit_latencies: list[float] = []
    precision_of: dict[int, float] = {}
    ingest_ms: list[float] = []
    compact_s: list[float] = []
    hits = misses = 0
    client_cached = 0
    for number, record in enumerate(rounds):
        where = f"round {number}"
        for read_id, seconds, status, answers, cached in record["reads"]:
            examples = [spec["reads"][read_id]]
            if status != 200:
                problems.append(f"{where}: read {examples} answered {status}: {answers}")
                continue
            latencies.append(seconds)
            if cached:
                hit_latencies.append(seconds)
            client_cached += cached
            failed_by_kind["read"] += decomposition_mismatches(answers) > 0
            for problem in answer_problems(examples, answers):
                problems.append(f"{where}: read {examples}: {problem}")
            if read_id not in precision_of:
                table = truth["tables"][truth["reads"][read_id]]
                precision_of[read_id] = precision_at_k(answers, truth_set(table, examples))

        # Ingest arithmetic, worked out from the benchmark's own stream.
        applied_total = 0
        for batch, seconds, status, body, stats_delta in record["ingests"]:
            ingest_ms.append(seconds * 1000.0)
            sent = truth["batch_sent"][batch]
            new = truth["batch_new"][batch]
            if status != 200:
                problems.append(f"{where}: ingest {batch} answered {status}: {body}")
                continue
            applied_total += body["applied"]
            if body["applied"] + body["duplicates"] != sent:
                problems.append(f"{where}: ingest {batch}: applied + duplicates != {sent} sent")
            if body["applied"] != new:
                problems.append(f"{where}: ingest {batch}: applied {body['applied']} != {new} new")
            if body["delta_edges"] != applied_total or stats_delta != applied_total:
                problems.append(
                    f"{where}: ingest {batch}: delta edges {body['delta_edges']}"
                    f" (/stats {stats_delta}) != {applied_total} applied so far"
                )
        seconds, status, body, stats_delta = record["compact"]
        compact_s.append(seconds)
        if status != 200:
            problems.append(f"{where}: compact answered {status}: {body}")
        elif body["delta_edges"] != applied_total or stats_delta != 0:
            problems.append(
                f"{where}: compaction folded {body['delta_edges']} of {applied_total}"
                f" delta edges and left {stats_delta}"
            )

        for entity, status, answers in record["delta_checks"]:
            if status != 200:
                problems.append(f"{where}: delta-only entity {entity} answered {status}: {answers}")
            else:
                failed_by_kind["delta_check"] += decomposition_mismatches(answers) > 0
                problems.extend(
                    f"{where}: delta-only {entity}: {p}" for p in answer_problems([[entity]], answers)
                )

        pre = {probe_id: (status, answers) for probe_id, status, answers in record["probes"]["pre"]}
        for probe_id, status, answers in record["probes"]["post"]:
            examples = [spec["probes"][probe_id]]
            pre_status, pre_answers = pre[probe_id]
            if status != 200 or pre_status != 200:
                problems.append(f"{where}: probe {examples} answered {pre_status}/{status}")
                continue
            for problem in answer_problems(examples, pre_answers) + answer_problems(examples, answers):
                problems.append(f"{where}: probe {examples}: {problem}")
            failed_by_kind["probe_pre"] += decomposition_mismatches(pre_answers) > 0
            # Known fault: a compaction reloads the snapshot with a config
            # rebuilt from the snapshot flags alone, so the engine budgets
            # fall back to their defaults and the answers change.
            changed = [row[0] for row in answers] != [row[0] for row in pre_answers]
            failed_by_kind["probe_post"] += changed or decomposition_mismatches(answers) > 0

        round_hits = counter_value(record["metrics"], "gqbe_cache_hits_total")
        round_misses = counter_value(record["metrics"], "gqbe_cache_misses_total")
        hits += round_hits
        misses += round_misses
        if round_hits + round_misses != record["queries"]:
            problems.append(
                f"{where}: /metrics counts {round_hits + round_misses} queries,"
                f" the client sent {record['queries']}"
            )
        if record["stats"]["ingest"]["delta_edges"] != 0:
            problems.append(f"{where}: /stats reports a delta after the compaction")
    if hits < client_cached:
        problems.append(f"/metrics counts {hits} cache hits, the client saw {client_cached} reads served cached")

    throughput = sum(len(record["reads"]) for record in rounds) / sum(
        record["timed_s"] for record in rounds
    )
    banners = [record["banner"] for record in rounds]
    launchers = [record["launcher"] for record in rounds]
    attempted = sum(len(spec["ops"]) for _ in rounds)
    if trace:
        layers: dict = {}
        counts: dict = {}
        memo = 0
        for launcher in launchers:
            for name, entry in launcher["layers"].items():
                into = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for key in into:
                    into[key] += entry[key]
            for name, value in launcher["counts"].items():
                counts[name] = counts.get(name, 0) + value
            memo += launcher["memo_hits"]
        metrics = per_layer_engine(layers, counts, memo)
        metrics["storage.build_s"] = metric(statistics.median(b["build_s"] for b in banners), "s")
        metrics["storage.open_s"] = metric(statistics.median(b["open_s"] for b in banners), "s")

        def total(name: str) -> float:
            return layers.get(name, {}).get("total_s", 0.0)

        def calls(name: str) -> int:
            return layers.get(name, {}).get("calls", 0) or 1

        client_query_s = sum(record["query_seconds"] for record in rounds)
        client_queries = sum(record["queries"] for record in rounds)
        metrics.update({
            "storage.ingest_ms": metric(total("storage.ingest") * 1000.0 / calls("storage.ingest"), "ms"),
            "storage.compact_save_s": metric(total("storage.compact_save") / calls("storage.compact_save"), "s"),
            "serving.cache_hit_ratio": metric(hits / (hits + misses), "ratio"),
            "serving.transport_ms": metric(
                (client_query_s - total("serving.handle_query")) * 1000.0 / client_queries, "ms"
            ),
            "serving.batch_wait_ms": metric(
                (total("serving.submit") - total("serving.execute")) * 1000.0 / calls("serving.submit"), "ms"
            ),
            "serving.execute_ms": metric(total("serving.execute") * 1000.0 / calls("serving.execute"), "ms"),
            "serving.ingest_p50_ms": metric(statistics.median(ingest_ms), "ms"),
            "serving.compact_s": metric(statistics.median(compact_s), "s"),
        })
    else:
        metrics = {
            "throughput_qps": metric(throughput, "1/s"),
            "latency_p50_ms": metric(statistics.median(latencies) * 1000.0, "ms"),
            "latency_p90_ms": metric(p90(latencies) * 1000.0, "ms"),
            "precision_at_10": metric(statistics.fmean(precision_of.values()), "ratio"),
            "setup_s": metric(statistics.median(b["setup_s"] for b in banners), "s"),
            "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        }
    diagnostics = {
        "kernel_backend": launchers[0].get("kernel_backend"),
        "edges": truth["edges"],
        "base_edges": truth["base_edges"],
        "rounds": len(rounds),
        "reads": len(latencies),
        "p95_ms": statistics.quantiles(latencies, n=20)[18] * 1000.0,
        "failed_by_kind": failed_by_kind,
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else None,
        "hit_p50_ms": statistics.median(hit_latencies) * 1000.0,
        "phase_s": [record["phase_s"] for record in rounds],
        "server_peak_rss_mb_after_compaction": [l["peak_rss_mb"] for l in launchers],
        "ingest_p50_ms": statistics.median(ingest_ms),
        "compact_s": statistics.median(compact_s),
        "setups": banners,
        "throughput_qps": throughput,
    }
    return problems, attempted, sum(failed_by_kind.values()), metrics, diagnostics


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/repro/__init__.py").is_file():
        print("perfbench: run from the root of a checkout (src/repro is missing)", file=sys.stderr)
        return 2

    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    steal_before = steal_ticks()
    started = time.perf_counter()

    from gen import generate

    generate(args.workload, args.seed, inputs)
    if args.workload == "serve-mixed":
        rounds = run_serve(inputs, work, args.seconds, args.trace)
        problems, attempted, failed, metrics, diagnostics = reduce_serve(inputs, rounds, args.trace)
    else:
        raw = run_engine(inputs, work, args.seconds, args.trace)
        problems, attempted, failed, metrics, diagnostics = reduce_engine(inputs, raw, args.trace)

    diagnostics.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "steal_ticks": steal_ticks() - steal_before,
        "wall_s": time.perf_counter() - started,
    })
    for problem in problems[:50]:
        print(f"perfbench: incorrect: {problem}", file=sys.stderr)
    shutil.rmtree(inputs, ignore_errors=True)
    for snapshot in work.glob("*.snap"):
        shutil.rmtree(snapshot, ignore_errors=True)
    (work / "diagnostics.json").write_text(json.dumps(diagnostics, indent=1), encoding="utf-8")
    print("diagnostics: " + json.dumps(diagnostics))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
