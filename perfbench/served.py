"""The untraced, end-to-end half: `repro serve` as a child, driven over loopback TCP.

Everything here goes through the product's public surface only: the ``serve``
command-line flags, :class:`repro.service.ServiceClient`, and the replies of the
wire protocol.  One client, one connection, closed loop: the next command is
sent only after the previous reply arrived.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.service import RetryPolicy, ServiceClient

from perfbench.replay import default_stream_sketch
from perfbench.workloads import (
    SKETCH_SEED, UNIVERSE, Workload, frames_of, schedule, stream_name,
)

READY_TIMEOUT_S = 120.0
REPLY_TIMEOUT_S = 170.0
#: prctl option: the signal a child receives when its parent dies.
PR_SET_PDEATHSIG = 1
#: Failures a command can surface as: error replies, broken or timed-out sockets.
COMMAND_ERRORS = (ConnectionError, OSError, RuntimeError, ValueError, KeyError)


@dataclass
class Ledger:
    """Commands and correctness checks attempted, and which of them failed."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed{': ' + detail if detail else ''}")
        return ok

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


@dataclass
class Context:
    """Where a run lives: the checkout root, the run's working directory and its ledger."""

    root: str
    work: str
    ledger: Ledger
    serial: int = 0

    def fresh_dir(self, label: str) -> str:
        self.serial += 1
        path = os.path.join(self.work, f"{self.serial:03d}-{label}")
        os.makedirs(path)
        return path


def die_with_parent() -> None:
    """In the child before exec: SIGKILL it if the benchmark process dies first."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, int(signal.SIGKILL))


def child_env(ctx: Context) -> Dict[str, str]:
    """The checkout's own sources, and temporary files kept inside the run directory."""
    return dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"), TMPDIR=ctx.work)


class Server:
    """One ``python -m repro serve`` child process on an ephemeral loopback port."""

    def __init__(self, ctx: Context, flags: List[str], wal_dir: str) -> None:
        self._ctx = ctx
        self._flags = flags
        self.wal_dir = wal_dir
        self.process: Optional[subprocess.Popen] = None
        self.endpoint = ""

    def start(self) -> float:
        """Spawn and wait for the ready file; returns seconds from spawn to ready."""
        ready = self.wal_dir + ".ready"
        if os.path.exists(ready):
            os.remove(ready)
        env = child_env(self._ctx)
        log = open(self.wal_dir + ".log", "ab")
        try:
            started = time.perf_counter()
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
                 "--port", "0", "--wal-dir", self.wal_dir, "--ready-file", ready,
                 *self._flags],
                cwd=self._ctx.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=log, preexec_fn=die_with_parent,
            )
        finally:
            log.close()
        deadline = started + READY_TIMEOUT_S
        while True:
            try:
                with open(ready, encoding="utf-8") as handle:
                    text = handle.read()
                if text.endswith("\n"):
                    break
            except FileNotFoundError:
                pass
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.process.returncode} "
                                   f"before it was ready (log: {self.wal_dir}.log)")
            if time.perf_counter() > deadline:
                raise TimeoutError("repro serve did not become ready")
            time.sleep(0.002)
        setup = time.perf_counter() - started
        self.endpoint = text.strip()
        return setup

    def client(self) -> ServiceClient:
        return ServiceClient(self.endpoint, timeout=REPLY_TIMEOUT_S,
                             retry=RetryPolicy(attempts=1)).connect()

    def peak_rss_mb(self) -> float:
        """The child's high-water resident set (``VmHWM``) in MiB."""
        assert self.process is not None
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def kill(self) -> None:
        """SIGKILL, as a crash would, and reap the child."""
        if self.process is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.wait()

    def stop(self, client: Optional[ServiceClient]) -> None:
        """Ask for a clean shutdown over the protocol; kill if that does not end it."""
        if client is not None:
            try:
                client.shutdown()
            except COMMAND_ERRORS:
                pass
        if self.process is not None:
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.kill()
        # Each round leaves ~80 MB of journal; keep the disk as the next round found it.
        shutil.rmtree(self.wal_dir, ignore_errors=True)
        shutil.rmtree(self.wal_dir + ".spill", ignore_errors=True)

    def wait(self) -> None:
        if self.process is not None:
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def report_items_of(report: Any) -> Dict[int, float]:
    """A heavy-hitters report as ``{item: estimate}``."""
    return {int(item): float(estimate) for item, estimate in report.items.items()}


def report_items(result: Any) -> Dict[int, float]:
    """The served report of a query reply as ``{item: estimate}``."""
    return report_items_of(result.report)


def metric_total(snapshot: Dict[str, Any], name: str, **labels: str) -> Optional[float]:
    """Sum (histograms) or value (counters) of one instrument in a ``metrics`` reply."""
    family = snapshot.get("metrics", {}).get(name)
    if family is None:
        return None
    total = 0.0
    for series in family.get("series", []):
        if any(series.get("labels", {}).get(key) != value for key, value in labels.items()):
            continue
        total += float(series.get("sum", series.get("value", 0.0)))
    return total


def served_counters(snapshot: Dict[str, Any]) -> Dict[str, Optional[float]]:
    return {
        "service.server.push_command_s": metric_total(
            snapshot, "repro_service_command_seconds", command="push"),
        "service.server.bytes_received": metric_total(
            snapshot, "repro_service_bytes_received_total"),
        "durability.wal.served_fsync_s": metric_total(snapshot, "repro_wal_fsync_seconds"),
        "service.checkpoint.save_s": metric_total(snapshot, "repro_checkpoint_seconds"),
        "service.checkpoint.bytes": metric_total(snapshot, "repro_checkpoint_bytes"),
    }


def spawn(ctx: Context, workload: Workload, label: str,
          stream_length: Optional[int] = None) -> "tuple[Server, float]":
    # Write back what earlier rounds left dirty (deleted journals included), so a
    # round's fsyncs do not also pay for its predecessor's writes.
    os.sync()
    wal_dir = ctx.fresh_dir(label)
    flags = workload.serve_flags(stream_length)
    if workload.streams:
        flags += ["--stream-spill-dir", wal_dir + ".spill"]
    server = Server(ctx, flags, wal_dir)
    try:
        setup = server.start()
    except BaseException:
        server.kill()
        raise
    return server, setup


def setup_probe(ctx: Context, workload: Workload) -> float:
    """One extra fresh-WAL spawn, timed to ready, then shut down."""
    server, setup = spawn(ctx, workload, "setup")
    client = None
    try:
        client = server.client()
    finally:
        server.stop(client)
    return setup


def default_stream_round(ctx: Context, workload: Workload, items: np.ndarray,
                         plant_drop: bool = False, restart: bool = False) -> Dict[str, Any]:
    """Push (with mid-ingest queries) → finish → query; with ``restart``, kill -9 and recover."""
    ledger = ctx.ledger
    frames = frames_of(items, workload.frame_items)
    server, setup = spawn(ctx, workload, "round")
    client = None
    out: Dict[str, Any] = {"setup_s": setup, "frames": len(frames)}
    try:
        client = server.client()
        ledger.attempted += 1
        client.config()
        received = 0
        latencies = []
        started = time.perf_counter()
        for index, frame in enumerate(frames, 1):
            ledger.attempted += 1
            received = client.push(frame)
            if workload.round_query_every and index % workload.round_query_every == 0:
                ledger.attempted += 1
                sent = time.perf_counter()
                client.query(phi=workload.report_phi)
                latencies.append(time.perf_counter() - sent)
        acked = time.perf_counter()
        ledger.attempted += 1
        client.finish(timeout=REPLY_TIMEOUT_S - 10)
        finished = time.perf_counter()
        ledger.check("acked-count", received == items.size,
                     f"server acked {received} of {items.size} items")
        ledger.attempted += 2
        final = client.query(phi=workload.report_phi)
        snapshot = client.metrics()
        out.update(
            ingest_s=finished - started, ack_s=acked - started, finish_wait_s=finished - acked,
            query_s=latencies, peak_rss_mb=server.peak_rss_mb(),
            report=report_items(final), items_processed=final.items_processed,
            final=final.final, counters=served_counters(snapshot),
        )
        if plant_drop and out["report"]:
            del out["report"][max(out["report"], key=out["report"].get)]
        if restart:
            client.close()
            client = None
            server.kill()
            out.update(restart_round(ctx, workload, server.wal_dir, out))
            return out
    finally:
        server.stop(client)
    return out


def restart_round(ctx: Context, workload: Workload, wal_dir: str,
                  before: Dict[str, Any]) -> Dict[str, Any]:
    """Respawn on the killed server's WAL dir; time spawn → first answered query."""
    ledger = ctx.ledger
    server = Server(ctx, workload.serve_flags(), wal_dir)
    client = None
    try:
        started = time.perf_counter()
        server.start()
        client = server.client()
        ledger.attempted += 1
        client.query(phi=workload.report_phi)
        restart = time.perf_counter() - started
        ledger.attempted += 2
        client.finish(timeout=REPLY_TIMEOUT_S - 10)
        recovered = client.query(phi=workload.report_phi)
        ledger.check(
            "recovered-equals-pre-kill",
            report_items(recovered) == before["report"]
            and recovered.items_processed == before["items_processed"],
            f"recovered {recovered.items_processed} items, pre-kill {before['items_processed']}",
        )
        return {"restart_s": restart}
    finally:
        server.stop(client)


def tenants_round(ctx: Context, workload: Workload, streams: List[np.ndarray],
                  plant_drop: bool = False) -> Dict[str, Any]:
    """The fixed push-then-query-an-evicted-stream interleaving, then seal every stream."""
    ledger = ctx.ledger
    names = [stream_name(index) for index in range(workload.streams)]
    blocks = [frames_of(items, workload.frame_items) for items in streams]
    server, setup = spawn(ctx, workload, "round")
    client = None
    out: Dict[str, Any] = {"setup_s": setup, "frames": len(schedule(workload))}
    try:
        client = server.client()
        for name in names:
            ledger.attempted += 1
            client.stream_create(name)
        push_s: List[float] = []
        query_s: List[float] = []
        started = acked = time.perf_counter()
        for pushed, block, queried in schedule(workload):
            ledger.attempted += 2
            sent = time.perf_counter()
            client.push(blocks[pushed][block], stream=names[pushed])
            answered = time.perf_counter()
            client.query(stream=names[queried])
            push_s.append(answered - sent)
            query_s.append(time.perf_counter() - answered)
            acked = answered
        for name in names:
            ledger.attempted += 1
            client.stream_seal(name, timeout=REPLY_TIMEOUT_S - 10)
        finished = time.perf_counter()
        reports = {}
        processed = {}
        for name in names:
            ledger.attempted += 1
            result = client.query(stream=name)
            reports[name] = report_items(result)
            processed[name] = result.items_processed
            ledger.check("sealed-final", result.final, f"stream {name} not final after seal")
        ledger.attempted += 2
        listing = client.stream_list()
        snapshot = client.metrics()
        records = {record["stream"]: record for record in listing.get("streams", [])}
        out.update(
            ingest_s=finished - started, ack_s=acked - started, finish_wait_s=finished - acked,
            query_s=query_s, push_s=push_s, peak_rss_mb=server.peak_rss_mb(),
            reports=reports, processed=processed, counters=served_counters(snapshot),
            evictions=sum(int(r.get("evictions", 0)) for r in records.values()),
            restores=sum(int(r.get("restores", 0)) for r in records.values()),
            boundaries={name: [int(b) for b in records.get(name, {}).get("eviction_boundaries", [])]
                        for name in names},
        )
        if plant_drop and reports[names[0]]:
            first = reports[names[0]]
            del first[max(first, key=first.get)]
    finally:
        server.stop(client)
    return out


def check_leg(ctx: Context, workload: Workload, items: np.ndarray,
              layers: Dict[str, Any]) -> List[float]:
    """Served equals offline, bit for bit, on a default-stream leg with the workload's flags.

    The served report is compared line for line with `repro heavy-hitters` on
    the same items written as a stream file, and with the library's sketch fed
    the same chunks in process.  The leg is longer than 6*l items, so Algorithm
    2 samples; the in-process sketch's ``sample_size`` shows that it did.
    Returns the round trips of the workload's check-leg mid-ingest queries.
    """
    ledger = ctx.ledger
    every = workload.check_query_every
    latencies: List[float] = []
    server, _ = spawn(ctx, workload, "check", stream_length=int(items.size))
    client = None
    try:
        client = server.client()
        for index, frame in enumerate(frames_of(items, workload.frame_items), 1):
            ledger.attempted += 1
            client.push(frame)
            if every and index % every == 0:
                # Read your own writes: wait (untimed) until the frame is ingested,
                # so every query copies the prefix it follows; otherwise a query that
                # reaches the lock before the pipeline is a cache hit of the last one.
                ledger.attempted += 2
                client.flush(timeout=REPLY_TIMEOUT_S - 10)
                sent = time.perf_counter()
                client.query(phi=workload.report_phi)
                latencies.append(time.perf_counter() - sent)
        ledger.attempted += 2
        client.finish(timeout=REPLY_TIMEOUT_S - 10)
        served = client.query(phi=workload.report_phi)
    finally:
        server.stop(client)
    path = os.path.join(ctx.work, "check-stream.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# universe_size: {UNIVERSE}\n# name: perfbench\n")
        handle.write("\n".join(map(str, items.tolist())))
        handle.write("\n")
    # The CLI and the in-process sketch run side by side: neither is timed.
    offline = subprocess.Popen(
        [sys.executable, "-m", "repro", "heavy-hitters", path,
         "--algorithm", workload.algorithm, "--epsilon", repr(workload.epsilon),
         "--phi", repr(workload.phi), "--seed", str(SKETCH_SEED),
         "--batch-size", str(workload.chunk_items)],
        cwd=ctx.root, env=child_env(ctx), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, preexec_fn=die_with_parent,
    )
    try:
        sketch = default_stream_sketch(workload, items, layers)
    finally:
        try:
            stdout, stderr = offline.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            offline.kill()
            offline.communicate()
            raise
        finally:
            os.remove(path)
    ledger.attempted += 1
    if offline.returncode != 0:
        ledger.fail("repro heavy-hitters", RuntimeError(
            f"exited {offline.returncode}: {stderr.strip()[-300:]}"))
    else:
        ledger.check("served-equals-offline",
                     heavy_hitter_lines(stdout) == served_lines(served),
                     "served report differs from `repro heavy-hitters`")
    if sketch is None:
        ledger.notes.append("check library-equals-served: absent, the sketch cannot be rebuilt")
        return latencies
    report = sketch.report(**({"phi": workload.phi} if workload.report_phi is not None else {}))
    ledger.check("library-equals-served",
                 report_items_of(report) == report_items(served)
                 and sketch.items_processed == served.items_processed,
                 "the in-process sketch answers differently from the served one")
    if workload.algorithm == "optimal":
        sampled = getattr(sketch, "sample_size", None)
        if sampled is None:
            ledger.notes.append("check check-leg-sampled: absent, the sketch has no sample_size")
        else:
            ledger.check("check-leg-sampled", sampled < sketch.items_processed,
                         f"sample_size {sampled} of {sketch.items_processed} items: "
                         "the leg did not reach the sampled regime")
    return latencies


def heavy_hitter_lines(stdout: str) -> List[str]:
    """The ``reported:`` / ``item`` block of `repro heavy-hitters` output, sorted."""
    lines = stdout.splitlines()
    starts = [index for index, line in enumerate(lines) if line.startswith("reported:")]
    return sorted(lines[starts[0]:]) if starts else []


def served_lines(result: Any) -> List[str]:
    """The same block rendered from a query reply, in the CLI's line format."""
    items = report_items(result)
    length = max(1, result.items_processed)
    lines = [f"reported: {len(items)}"]
    lines += [f"item {item}\testimate {estimate:.0f}\tshare {estimate / length:.4f}"
              for item, estimate in items.items()]
    return sorted(lines)
