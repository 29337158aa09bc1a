"""The serving stage: an open-loop read load against a live server process.

One load-generating process (this one) with ``READ_THREADS`` threads, one
connection each, sends a seeded, skewed (Zipf-like) read mix on a fixed
schedule and times every read from its due time, so a stall also charges
the reads queued behind it.  Meanwhile the server process applies a paced
insert/delete edge stream (``server.py``).  Reads are checked against the
benchmark's oracle wherever the write stream cannot have changed the
answer; the final clique set is checked against the oracle of the final
graph.
"""

from __future__ import annotations

import bisect
import gc
import json
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import BENCH_DIR, tail_percentile
import oracle

#: Load-generator threads (and connections).  One: with two, the server's
#: two handler threads and the writer contend for the interpreter lock
#: and the read tail spreads far wider run to run on a 2-CPU host.
READ_THREADS = 1
# The read mix is an assumption, not a measured trace: no workload of the
# repository records one.  The point reads have equal shares, the least
# assuming choice; the skew is the textbook Zipf exponent s = 1.
#: Point-read operations, drawn with equal shares.
MIX = ("cliques_containing", "cliques_containing_edge", "membership", "clique")
#: Every ``TOP_K_EVERY``-th read is a ``top_k_largest`` scan (0.05%, an
#: assumed "small share"): one scan costs hundreds of point reads, so its
#: place is fixed, not drawn.
TOP_K_EVERY = 2000
ZIPF_EXPONENT = 1.0
#: Fixed read-rate ladder (reads/s, steps of 1.5x) and the p99 limit a
#: rung must meet.  The top rung is above what one load-generating thread
#: can send, so the climb always ends on a failed rung.
LADDER = (1000, 1500, 2250, 3375, 5000, 7500, 11250)
P99_LIMIT_MS = 50.0
#: Write-stream edges toggled (deleted, then re-inserted) in rotation: few
#: and sparse, so that most vertices keep answers the oracle can check.
WRITE_EDGES = 24
MAX_COMMON_NEIGHBOURS = 4


@dataclass(frozen=True)
class StageConfig:
    """How long and how hard one workload serves; ``ladder`` climbs the
    read ladder after the fixed phase (traced runs, where it is reported)."""

    read_rate: float
    read_seconds: float
    write_rate: float
    compact_threshold: int
    rung_seconds: float
    setups: int = 1
    late_setups: int = 0
    ladder: bool = True


@dataclass
class Plan:
    """The seeded inputs of one serving stage, with what each read must return."""

    writes: list[tuple[str, int, int]]
    final_edges: list[tuple[int, int]]
    unsafe: set[int]
    canonical: list[tuple[int, ...]]
    stable_ids: int
    vertex_cliques: dict[int, list[int]]
    adjacency: dict[int, set[int]]
    rng: random.Random
    order: list[int]
    weights: list[float]


def make_plan(
    edges: list[tuple[int, int]],
    cliques: set[tuple[int, ...]],
    config: StageConfig,
    seed: int,
) -> Plan:
    rng = random.Random(seed)
    adjacency = oracle.adjacency_of(edges)
    vertices = sorted(adjacency)
    high = vertices[len(vertices) // 2]
    low = vertices[len(vertices) // 4]
    # Write edges among young vertices whose few common neighbours are
    # young too, so the cliques of the oldest vertices never change.  An
    # edge inside a dense community (tens of common neighbours) changes
    # dozens of cliques per update; the stream keeps to sparse edges.
    candidates = [
        (u, v) for u, v in edges
        if u >= high and v >= high
        and len(adjacency[u] & adjacency[v]) <= MAX_COMMON_NEIGHBOURS
        and all(w >= low for w in adjacency[u] & adjacency[v])
    ]
    chosen = rng.sample(candidates, min(WRITE_EDGES, len(candidates)))
    count = int(config.write_rate * config.read_seconds)
    writes = []
    for i in range(count):
        u, v = chosen[i % len(chosen)]
        op = "delete" if (i // len(chosen)) % 2 == 0 else "insert"
        writes.append((op, u, v))
    present = set(edges)
    for op, u, v in writes:
        (present.discard if op == "delete" else present.add)((u, v))
    unsafe: set[int] = set()
    for u, v in chosen:
        unsafe |= {u, v} | (adjacency[u] & adjacency[v])
    canonical = sorted(cliques)
    floor = min(unsafe) if unsafe else vertices[-1] + 1
    stable_ids = bisect.bisect_left(canonical, (floor,))
    vertex_cliques: dict[int, list[int]] = {}
    for index, clique in enumerate(canonical):
        for v in clique:
            vertex_cliques.setdefault(v, []).append(index)
    order = vertices[:]
    rng.shuffle(order)
    weights, total = [], 0.0
    for rank in range(len(order)):
        total += 1.0 / (rank + 1) ** ZIPF_EXPONENT
        weights.append(total)
    return Plan(writes, sorted(present), unsafe, canonical, stable_ids,
                vertex_cliques, adjacency, rng, order, weights)


def draw_reads(plan: Plan, count: int) -> list[tuple[str, dict, object]]:
    """``count`` reads as ``(op, args, expected)``; ``expected`` is ``None``
    where the write stream may change the answer."""
    reads = []
    for i in range(count):
        if i % TOP_K_EVERY == TOP_K_EVERY - 1:
            reads.append(("top_k_largest", {"k": 5}, "top5"))
            continue
        op = plan.rng.choice(MIX)
        pick = bisect.bisect_left(plan.weights, plan.rng.random() * plan.weights[-1])
        x = plan.order[min(pick, len(plan.order) - 1)]
        neighbours = sorted(plan.adjacency[x])
        safe = x not in plan.unsafe
        if op == "clique" and plan.stable_ids:
            cid = plan.rng.randrange(plan.stable_ids)
            reads.append((op, {"clique_id": cid}, list(plan.canonical[cid])))
            continue
        if op == "cliques_containing_edge":
            y = plan.rng.choice(neighbours)
            expected = len(set(plan.vertex_cliques[x]) & set(plan.vertex_cliques[y]))
            reads.append((op, {"u": x, "v": y}, expected if safe else None))
            continue
        if op == "membership":
            members = [x] + plan.rng.sample(neighbours, min(2, len(neighbours)))
            common = set(plan.vertex_cliques[x])
            for v in members[1:]:
                common &= set(plan.vertex_cliques[v])
            reads.append((op, {"vertices": members}, len(common) if safe else None))
            continue
        reads.append(("cliques_containing", {"v": x},
                      len(plan.vertex_cliques[x]) if safe else None))
    return reads


def check_read(plan: Plan, op: str, expected, result) -> bool:
    if not isinstance(result, list):
        return False
    if expected is None:
        return True
    if op == "clique":
        return result == expected
    if op == "top_k_largest":
        sizes = [len(clique) for clique in result]
        return len(result) == 5 and sizes == sorted(sizes, reverse=True) and all(
            v in plan.adjacency[u] for clique in result
            for i, u in enumerate(clique) for v in clique[i + 1:]
        )
    return len(result) == expected


@dataclass
class Phase:
    """Outcome of one fixed-rate read phase (latencies in due order)."""

    latencies: list
    lateness: list[float]
    wrong: int
    failed: int
    shed: int
    elapsed: float
    wrong_reads: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.lateness)


def run_phase(port: int, plan: Plan, reads, rate: float) -> Phase:
    from repro import CliqueQueryClient
    from repro.errors import ServerOverloadedError
    from repro.service.client import RetryPolicy

    phase = Phase([], [], 0, 0, 0, 0.0)
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker(offset: int) -> None:
        client = CliqueQueryClient(
            "127.0.0.1", port, timeout_seconds=30.0,
            retry_policy=RetryPolicy(max_attempts=1),
        )
        try:
            for j in range(offset, len(reads), READ_THREADS):
                op, args, expected = reads[j]
                due = start + j / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                ok = wrong = shed = False
                try:
                    response = client.request(op, **args)
                    ok = check_read(plan, op, expected, response.result)
                    wrong = not ok
                    if wrong:
                        detail = f"wrong read {op} {args}: expected {expected!r}, got {response.result!r}"
                        phase.wrong_reads.append(detail[:300])
                except ServerOverloadedError:
                    shed = True
                except Exception as exc:  # counted as failed, reported once
                    print(f"read {op} {args} failed: {exc!r}", file=sys.stderr)
                done = time.perf_counter()
                with lock:
                    phase.lateness.append(sent - due)
                    if ok:
                        phase.latencies.append((j, done - due))
                    else:
                        phase.failed += 1
                        phase.wrong += wrong
                        phase.shed += shed
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(READ_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.elapsed = time.perf_counter() - start
    phase.latencies = [latency for _, latency in sorted(phase.latencies)]
    return phase


def ladder(port: int, plan: Plan, rung_seconds: float) -> tuple[float, list[dict]]:
    """Climb the ladder; the last rung whose p99 meets the limit with no
    growing backlog gives ``service.read_max_qps`` as its achieved read rate."""
    best, rungs = 0.0, []
    for rate in LADDER:
        # A rung gets a second try: a stall of the shared host fails one
        # try, a rate past capacity fails both.
        for _ in range(2):
            reads = draw_reads(plan, int(rate * rung_seconds))
            phase = run_phase(port, plan, reads, rate)
            _, p99 = tail_percentile(phase.latencies + [float("inf")] * phase.failed)
            tail = phase.lateness[-max(1, len(phase.lateness) // 10):]
            backlog = max(tail) * 1000.0
            passed = p99 * 1000.0 <= P99_LIMIT_MS and backlog <= P99_LIMIT_MS
            rungs.append({"rate": rate, "p99_ms": p99 * 1000.0, "backlog_ms": backlog,
                          "attempted": phase.attempted, "failed": phase.failed,
                          "wrong": phase.wrong, "shed": phase.shed, "passed": passed,
                          "wrong_reads": phase.wrong_reads[:5]})
            if passed:
                best = len(phase.latencies) / phase.elapsed
                break
        else:
            break
    return best, rungs


def run_stage(
    workdir: Path,
    edges: list[tuple[int, int]],
    cliques: set[tuple[int, ...]],
    config: StageConfig,
    seed: int,
    trace: bool,
    spans_path: Path | None = None,
) -> dict:
    """Bootstrap a live store of ``edges`` in a server process, load it,
    and return the stage's samples and checks."""
    plan = make_plan(edges, cliques, config, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    edges_path = workdir / "serve_edges.txt"
    edges_path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    (workdir / "writes.json").write_text(json.dumps(plan.writes))
    fixed_reads = draw_reads(plan, int(config.read_rate * config.read_seconds))
    (workdir / "mix.json").write_text(json.dumps([[op, args] for op, args, _ in fixed_reads]))
    command = [
        sys.executable, str(BENCH_DIR / "server.py"),
        "--workdir", str(workdir / "server"), "--edges", str(edges_path),
        "--setups", str(config.setups), "--late-setups", str(config.late_setups),
        "--writes", str(workdir / "writes.json"),
        "--write-rate", str(config.write_rate),
        "--compact-threshold", str(config.compact_threshold),
        "--mix", str(workdir / "mix.json"), "--result", str(workdir / "server.json"),
        "--trace", str(int(trace)),
    ]
    if spans_path is not None:
        command += ["--spans", str(spans_path)]
    # The plan's clique tables would otherwise make this process's own
    # garbage collection stall the load generator; the timings are the
    # server's, so they are moved out of the collector's reach.
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    process = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        line = process.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            raise RuntimeError(f"server did not start: {line!r}")
        ready_s = time.perf_counter() - started
        port = int(line[1])
        process.stdin.write("GO\n")
        process.stdin.flush()
        fixed = run_phase(port, plan, fixed_reads, config.read_rate)
        max_qps, rungs = ladder(port, plan, config.rung_seconds) if config.ladder else (0.0, [])
        process.stdin.write("STOP\n")
        process.stdin.flush()
        if process.wait(timeout=120) != 0:
            raise RuntimeError(f"server exited with {process.returncode}")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    server = json.loads((workdir / "server.json").read_text())
    expected_final = oracle.maximal_cliques(oracle.adjacency_of(plan.final_edges))
    final_ok = {tuple(c) for c in server.pop("live_cliques")} == expected_final
    return {
        "ready_s": ready_s,
        "fixed": fixed,
        "max_qps": max_qps,
        "rungs": rungs,
        "server": server,
        "final_ok": final_ok,
        "writes": len(plan.writes),
        "unsafe_vertices": len(plan.unsafe),
        "stable_ids": plan.stable_ids,
    }
