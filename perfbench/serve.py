"""Client side of the ``serve-mixed`` workload.

One round starts a fresh server (``launcher.py``) from the base dump, then
one caller runs the round's fixed operation sequence over one keep-alive
connection: Zipf reads, ``/admin/ingest`` batches, pre-compaction probes,
queries of every delta-only entity, one ``/admin/compact`` and the
post-compaction probes.  ``/stats`` is read after every mutation and
``/metrics`` and ``/stats`` once at the end; those reads are checks, so
their time is left out of the timed phase.

One connection on purpose: the engine runs behind one execution lock, so a
second connection adds no throughput, while it makes cache hits wait for
the GIL behind the other connection's query and spreads p50 widely.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import select
import socket
import subprocess
import sys
import time
from pathlib import Path

from checks import K

READY_TIMEOUT_S = 120
REQUEST_TIMEOUT_S = 120


class Client:
    """A keep-alive HTTP/1.1 client that times each request."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def call(self, method: str, path: str, body=None):
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        started = time.perf_counter()
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        elapsed = time.perf_counter() - started
        return response.status, raw, elapsed

    def json(self, method: str, path: str, body=None):
        status, raw, elapsed = self.call(method, path, body)
        return status, json.loads(raw), elapsed

    def close(self) -> None:
        self.conn.close()


def _answers(body) -> list:
    return [
        [a["entities"], a["rank"], a["score"], a["structure_score"], a["content_score"]]
        for a in body["answers"]
    ]


def _start_launcher(inputs: Path, round_dir: Path, warmup, trace: int):
    command = [
        sys.executable,
        str(Path(__file__).resolve().parent / "launcher.py"),
        "--dump", str(inputs / "base.tsv"),
        "--snapshot", str(round_dir / "base.snap"),
        "--warmup", json.dumps(warmup),
        "--trace", str(trace),
        "--out", str(round_dir / "launcher.json"),
    ]
    proc = subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        # Client and server on separate CPUs: a sub-millisecond cache hit
        # otherwise depends on where the scheduler happens to put them.
        os.sched_setaffinity(proc.pid, {cpus[-1]})
        os.sched_setaffinity(0, {cpus[0]})
    ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    if not line.startswith("READY "):
        stop_launcher(proc)
        raise RuntimeError(f"server launcher did not become ready: {line!r}")
    return proc, json.loads(line[len("READY "):])


def stop_launcher(proc) -> None:
    """Close the launcher's stdin (its stop signal) and wait for it."""
    try:
        proc.stdin.close()
    except OSError:
        pass
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)


def server_peak_rss_mb(pid: int) -> float:
    """VmHWM of the server process, read from outside through procfs."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")


def run_round(inputs: Path, round_dir: Path, spec: dict, batches: list, trace: int) -> dict:
    """Run one whole round; returns the raw record the checks reduce."""
    round_dir.mkdir(parents=True, exist_ok=True)
    proc, banner = _start_launcher(inputs, round_dir, spec["warmup"][0], trace)
    record = {
        "banner": banner,
        "reads": [],        # [read id, seconds, status, answers, cached]
        "ingests": [],      # [batch, seconds, status, body, stats delta_edges]
        "probes": {"pre": [], "post": []},  # [probe id, status, answers]
        "delta_checks": [],  # [entity, status, answers]
        "compact": None,    # [seconds, status, body, stats delta_edges]
        "query_seconds": 0.0,  # client time over every /query request
        "queries": 0,
        "phase_s": {},  # client seconds per kind of operation
    }
    phase = record["phase_s"]
    # The client's own garbage collector stays off while it times: its
    # pauses would land on sub-millisecond cache hits as server latency.
    gc.collect()
    gc.disable()
    try:
        client = Client(banner["port"])
        check_seconds = 0.0
        started = time.perf_counter()
        for op in spec["ops"]:
            kind = op["op"]
            if kind == "read":
                status, body, seconds = client.json(
                    "POST", "/query", {"tuple": spec["reads"][op["id"]], "k": K}
                )
                ok = status == 200
                record["reads"].append(
                    [op["id"], seconds, status, _answers(body) if ok else body,
                     bool(body.get("cached")) if ok else False]
                )
                kind = "read_hit" if ok and body.get("cached") else "read_miss"
            elif kind == "ingest":
                status, body, seconds = client.json(
                    "POST", "/admin/ingest", {"triples": batches[op["batch"]]}
                )
                _, stats, stat_seconds = client.json("GET", "/stats")
                check_seconds += stat_seconds
                record["ingests"].append(
                    [op["batch"], seconds, status, body, stats["ingest"]["delta_edges"]]
                )
                phase["ingest"] = phase.get("ingest", 0.0) + seconds
                continue
            elif kind == "compact":
                # The serving peak is read before the compaction: after it
                # the engine runs with the default budgets (a known fault).
                record["peak_rss_mb"] = server_peak_rss_mb(proc.pid)
                status, body, seconds = client.json("POST", "/admin/compact")
                _, stats, stat_seconds = client.json("GET", "/stats")
                check_seconds += stat_seconds
                record["compact"] = [seconds, status, body, stats["ingest"]["delta_edges"]]
                phase["compact"] = seconds
                continue
            elif kind == "probe":
                status, body, seconds = client.json(
                    "POST", "/query", {"tuple": spec["probes"][op["id"]], "k": K}
                )
                record["probes"][op["phase"]].append(
                    [op["id"], status, _answers(body) if status == 200 else body]
                )
                kind = f"probe_{op['phase']}"
            elif kind == "delta_check":
                status, body, seconds = client.json(
                    "POST", "/query", {"tuple": [op["entity"]], "k": K}
                )
                record["delta_checks"].append(
                    [op["entity"], status, _answers(body) if status == 200 else body]
                )
            else:
                raise ValueError(f"unknown operation {kind!r}")
            record["query_seconds"] += seconds
            record["queries"] += 1
            phase[kind] = phase.get(kind, 0.0) + seconds
        record["timed_s"] = time.perf_counter() - started - check_seconds
        _, record["stats"], _ = client.json("GET", "/stats")
        _, metrics_text, _ = client.call("GET", "/metrics")
        record["metrics"] = metrics_text.decode("utf-8")
        client.close()
    finally:
        gc.enable()
        stop_launcher(proc)
    record["launcher"] = json.loads((round_dir / "launcher.json").read_text(encoding="utf-8"))
    return record
