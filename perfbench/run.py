"""Run one workload of the served heavy-hitters benchmark and print its metrics.

    python3 perfbench/run.py --workload ingest-small-mg --seed 1 --seconds 30 --trace 0

Each timed round boots ``python -m repro serve --wal-dir ...`` as a child and
drives it from this process through ``ServiceClient`` over loopback TCP, one
connection, closed loop.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics, from the same served rounds plus an
in-process replay of the workload's frames (see replay.py).  Every run checks
its answers (Definition 1 against exact counts, served == offline, recovered ==
pre-kill, evicted == solo replay) and exits non-zero if any check or command
failed.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

from perfbench.gate import definition1_violations, environment  # noqa: E402
from perfbench.replay import (  # noqa: E402
    LAYERS, SKETCH_LAYER, NullTracer, Replay, Tracer, resolve_layers, solo_reports,
)
from perfbench.served import (  # noqa: E402
    COMMAND_ERRORS, Context, Ledger, check_leg, default_stream_round, setup_probe,
    tenants_round,
)
from perfbench.workloads import (  # noqa: E402
    UNIVERSE, WORKLOADS, check_inputs, make_inputs, smoke, stream_name,
)

#: Spawns timed per run for ``setup_s`` (round spawns count towards it).
SETUP_SAMPLES = 7
#: Largest share of the traced replay's wall time its layer spans may leave uncovered.
CONSISTENCY_BOUND = 0.10

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
#: Metric name -> unit, as BENCHMARK.json lists them.
UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; sets the number of served rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test size: the same workload on a few thousand items")
    parser.add_argument("--plant-drop", action="store_true",
                        help="self-test only: drop the top heavy hitter from the served "
                             "report of the first round, which the gate must catch")
    parser.add_argument("--plant-absent", choices=sorted(LAYERS),
                        help="self-test only: treat this replayed layer as removed")
    return parser.parse_args(argv)


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds: every round's `finally` stops its server.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    layers = resolve_layers(args.plant_absent)
    ledger = Ledger()
    work = os.path.join(ROOT, ".perfbench_work", f"{workload.name}-{os.getpid()}")
    ctx = Context(root=ROOT, work=work, ledger=ledger)
    rounds: List[Dict[str, Any]] = []
    setups: List[float] = []
    replays: Dict[str, Any] = {}
    leg_queries: List[float] = []
    os.makedirs(work)
    try:
        env = environment(ROOT, work, args.seed)
        inputs = make_inputs(workload, args.seed)
        counts = [np.bincount(items, minlength=UNIVERSE) for items in inputs]
        try:
            leg_queries = check_leg(ctx, workload, check_inputs(workload, args.seed), layers)
        except Exception as exc:
            ledger.fail("served-equals-offline leg", exc)
        count = workload.rounds(args.seconds)
        for index in range(count):
            try:
                if workload.streams:
                    result = tenants_round(ctx, workload, inputs,
                                           plant_drop=args.plant_drop and index == 0)
                else:
                    # One kill -9 and recovery per run, after the last round.
                    result = default_stream_round(
                        ctx, workload, inputs[0], plant_drop=args.plant_drop and index == 0,
                        restart=workload.restart and index == count - 1)
            except COMMAND_ERRORS as exc:
                ledger.fail(f"round {index}", exc)
                continue
            gate_round(ledger, workload, result, counts, rounds)
            rounds.append(result)
        setups = [result["setup_s"] for result in rounds]
        while len(setups) < SETUP_SAMPLES:
            try:
                setups.append(setup_probe(ctx, workload))
            except COMMAND_ERRORS as exc:
                ledger.fail("setup probe", exc)
                break
        if args.trace and rounds:
            replays = run_replays(ctx, workload, inputs, rounds[-1], layers)
        elif workload.streams and rounds:
            served = rounds[-1]
            try:
                solo = solo_reports(workload, inputs, served["boundaries"], layers)
            except Exception as exc:
                ledger.fail("solo replay", exc)
            else:
                gate_replay(ledger, workload, "solo-replay", solo, served)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    # Query round trips per server: each round's, or the check leg's.
    query_sets = [r["query_s"] for r in rounds if r["query_s"]] + \
        ([leg_queries] if leg_queries else [])
    end_to_end = end_to_end_metrics(workload, rounds, setups, query_sets)
    per_layer, absent = per_layer_metrics(workload, rounds, replays, layers) \
        if args.trace else ({}, [])
    env["samples"] = {
        "rounds": len(rounds), "setup_spawns": len(setups),
        "queries": sum(len(latencies) for latencies in query_sets),
    }
    correct = ledger.failed == 0 and bool(rounds)
    shown = per_layer if args.trace else end_to_end
    print(f"workload: {workload.name}  seed: {args.seed}  trace: {args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    for name, value in {**end_to_end, **per_layer}.items():
        print(f"{name}: {value:.6g} {UNITS[name]}")
    for layer in absent:
        print(f"layer {layer}: absent")
    items = workload.items * max(1, workload.streams)
    print("per round ingest_items_per_s: "
          + " ".join(f"{items / result['ingest_s']:.6g}" for result in rounds))
    print("per server query_p90_ms: "
          + " ".join(f"{percentile_ms(latencies, 90):.4g}" for latencies in query_sets))
    print("per round served WAL fsync s: " + " ".join(
        f"{result['counters'].get('durability.wal.served_fsync_s') or 0:.4g}" for result in rounds))
    print(f"failed_op_share: {ledger.failed / max(1, ledger.attempted):.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} commands and checks)")
    for note in ledger.notes:
        print(f"note: {note}")
    for error in ledger.errors:
        print(f"error: {error}")
    write_results(args, workload.name, env, {**end_to_end, **per_layer}, absent, replays, ledger)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in shown.items()},
    }))
    return 0 if correct else 1


# -- correctness gates -------------------------------------------------------------------


def gate_round(ledger: Ledger, workload: Any, result: Dict[str, Any],
               counts: List[np.ndarray], earlier: List[Dict[str, Any]]) -> None:
    """Definition 1 on every final report, and every round answering like the first."""
    if workload.streams:
        answers = result["reports"]
        for index in range(workload.streams):
            name = stream_name(index)
            check_definition1(ledger, name, answers[name], counts[index], workload,
                              result["processed"][name])
    else:
        answers = result["report"]
        ledger.check("final", result["final"], "query after finish was not final")
        check_definition1(ledger, "default", answers, counts[0], workload,
                          result["items_processed"])
    if earlier:
        first = earlier[0]["reports" if workload.streams else "report"]
        ledger.check("rounds-agree", answers == first,
                     "a round answered differently from the first on the same input")


def check_definition1(ledger: Ledger, label: str, report: Dict[int, float],
                      counts: np.ndarray, workload: Any, processed: int) -> None:
    items = int(counts.sum())
    ledger.check(f"items-processed[{label}]", processed == items,
                 f"{processed} of {items} items processed")
    violations = definition1_violations(report, counts, workload.epsilon, workload.phi)
    ledger.check(f"definition-1[{label}]", not violations, "; ".join(violations))


def gate_replay(ledger: Ledger, workload: Any, label: str,
                reports: Optional[Dict[str, Dict[int, float]]], served: Dict[str, Any]) -> None:
    """An in-process replay must answer exactly like the server, stream by stream.

    ``reports`` is ``None`` when a refactor removed what rebuilding the sketch
    needs; the check is then reported absent rather than failed.
    """
    if reports is None:
        ledger.notes.append(f"check {label}-equals-served: absent, the sketch cannot be rebuilt")
        return
    expected = served["reports"] if workload.streams else {"default": served["report"]}
    for name, report in expected.items():
        ledger.check(f"{label}-equals-served[{name}]", reports.get(name) == report,
                     f"stream {name}: the {label} answer differs from the served one")


# -- replays -----------------------------------------------------------------------------


def replay_once(ctx: Context, workload: Any, inputs: List[np.ndarray], served: Dict[str, Any],
                tracer: Any, layers: Dict[str, Any], label: str) -> Any:
    """One replay, or ``None`` when it cannot run or raised (which counts as failed)."""
    replay = Replay(workload, ctx.fresh_dir("replay"), tracer, layers)
    if not replay.possible:
        gate_replay(ctx.ledger, workload, f"{label}-replay", None, served)
        return None
    try:
        return replay.run(inputs, served.get("boundaries", {}))
    except Exception as exc:
        ctx.ledger.fail(f"{label} replay", exc)
        return None


def run_replays(ctx: Context, workload: Any, inputs: List[np.ndarray],
                served: Dict[str, Any], layers: Dict[str, Any]) -> Dict[str, Any]:
    """Untraced then traced; both are checked against the served answers."""
    replays = {label: replay_once(ctx, workload, inputs, served, tracer, layers, label)
               for label, tracer in (("untraced", NullTracer()), ("traced", Tracer()))}
    for label, replay in replays.items():
        if replay is not None:
            gate_replay(ctx.ledger, workload, f"{label}-replay", replay.reports, served)
    traced = replays["traced"]
    if traced is not None:
        share = traced.tracer.layer_share()
        ctx.ledger.check("replay-consistency", share >= 1.0 - CONSISTENCY_BOUND,
                         f"layer spans cover {share:.3f} of the replay's wall time")
    return replays


# -- metrics -----------------------------------------------------------------------------


def percentile_ms(latencies: List[float], percent: float) -> float:
    return float(np.percentile(latencies, percent)) * 1e3


def end_to_end_metrics(workload: Any, rounds: List[Dict[str, Any]], setups: List[float],
                       query_sets: List[List[float]]) -> Dict[str, float]:
    """Medians over the rounds; the query percentiles are taken per server first."""
    items = workload.items * max(1, workload.streams)
    return {
        "ingest_items_per_s": median([items / r["ingest_s"] for r in rounds]),
        "setup_s": median(setups),
        "query_p50_ms": median([percentile_ms(q, 50) for q in query_sets]),
        "query_p90_ms": median([percentile_ms(q, 90) for q in query_sets]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
    }


def layer_of(metric: str) -> str:
    return metric.rsplit(".", 1)[0]


def exercised(workload: Any, layer: str) -> bool:
    """Whether the workload uses a layer at all; the metrics of the others read 0."""
    if layer in SKETCH_LAYER.values():
        return layer == SKETCH_LAYER[workload.algorithm]
    if layer == "durability.recovery":
        return workload.restart
    if layer in ("service.registry", "service.checkpoint"):
        return bool(workload.streams)
    return True


def per_layer_metrics(workload: Any, rounds: List[Dict[str, Any]], replays: Dict[str, Any],
                      layers: Dict[str, Any]) -> "tuple[Dict[str, float], List[str]]":
    """The measured per-layer metrics, and the layers left absent.

    A layer is absent when the program no longer has its functions, when the
    replay that measures it did not run, or when the server stopped reporting
    its counter.  What could not be measured is left out, not reported as 0.
    """
    items = workload.items * max(1, workload.streams)
    values: Dict[str, Optional[float]] = {}

    def served(key: str) -> Optional[float]:
        found = [r[key] for r in rounds if r.get(key) is not None]
        return median(found) if found else None

    values["service.client.ack_items_per_s"] = median([items / r["ack_s"] for r in rounds])
    values["service.client.finish_wait_s"] = served("finish_wait_s")
    values["service.client.frames"] = served("frames")
    values["durability.recovery.restart_s"] = served("restart_s")
    values["service.registry.evictions"] = served("evictions")
    values["service.registry.restores"] = served("restores")
    pushes_ms = [s * 1e3 for r in rounds for s in r.get("push_s", [])]
    values["service.registry.push_rtt_p50_ms"] = median(pushes_ms) if pushes_ms else None
    for name in ("service.server.push_command_s", "service.server.bytes_received",
                 "durability.wal.served_fsync_s", "service.checkpoint.save_s",
                 "service.checkpoint.bytes"):
        found = [r["counters"][name] for r in rounds if r["counters"].get(name) is not None]
        values[name] = median(found) if found else None

    traced, untraced = replays.get("traced"), replays.get("untraced")
    if traced is not None:
        spans = traced.tracer.layer_times(within="replay.ingest")
        counters = traced.counters
        sketch = SKETCH_LAYER[workload.algorithm]
        replayed = {
            "service.protocol.encode_s": spans.get("service.protocol.encode", 0.0),
            "service.protocol.decode_s": spans.get("service.protocol.decode", 0.0),
            "service.protocol.bytes": counters.get("protocol_bytes", 0.0),
            "durability.wal.append_s": spans.get("durability.wal.append", 0.0),
            "durability.wal.fsync_s": spans.get("durability.wal.sync", 0.0),
            "durability.wal.appends": counters.get("wal_appends", 0.0),
            "durability.wal.bytes": counters.get("wal_bytes", 0.0),
            "durability.recovery.replay_items_per_s": counters.get("recovery_items_per_s"),
            "primitives.batching.rechunk_s": spans.get("primitives.batching.rechunk", 0.0),
            "pipeline.executor.ingest_self_s": spans.get("pipeline.executor.ingest_chunk", 0.0),
            "pipeline.executor.snapshot_s": spans.get("pipeline.executor.snapshot", 0.0),
            "pipeline.executor.snapshot_cache_hit_ratio": counters.get(
                "snapshot_cache_hit_ratio", 0.0),
        }
        insert_s = spans.get(f"{sketch}.insert_many", 0.0)
        replayed[f"{sketch}.insert_many_s"] = insert_s
        replayed[f"{sketch}.insert_items_per_s"] = items / insert_s if insert_s else None
        if workload.algorithm == "optimal":
            for part in ("report", "deepcopy", "pickle", "unpickle"):
                replayed[f"{sketch}.{part}_s"] = spans.get(f"{sketch}.{part}", 0.0)
            replayed[f"{sketch}.sample_fraction"] = counters.get("sample_fraction")
            pickles = counters.get("pickles", 0.0)
            replayed[f"{sketch}.pickle_bytes"] = \
                counters.get("pickle_bytes", 0.0) / pickles if pickles else 0.0
        for name, value in replayed.items():
            if layers[layer_of(name)] is not None:
                values[name] = value
        values["replay.wall_s"] = traced.wall_s
        values["replay.layer_share"] = traced.tracer.layer_share()
        ingest_s = served("ingest_s")
        if ingest_s is not None:
            values["replay.unattributed_s"] = ingest_s - sum(spans.values())
        if untraced is not None and untraced.wall_s > 0:
            values["replay.trace_overhead_share"] = traced.wall_s / untraced.wall_s - 1.0

    metrics: Dict[str, float] = {}
    absent = {layer for layer, found in layers.items() if found is None}
    for name in PER_LAYER:
        layer = layer_of(name)
        if name == "replay.absent_layers":
            continue
        if not exercised(workload, layer) and layer not in absent:
            metrics[name] = 0.0
        elif values.get(name) is not None:
            metrics[name] = float(values[name])  # type: ignore[arg-type]
        else:
            absent.add(layer)
    metrics["replay.absent_layers"] = float(len(absent))
    return metrics, sorted(absent)


def write_results(args: argparse.Namespace, name: str, env: Dict[str, Any],
                  metrics: Dict[str, float], absent: List[str], replays: Dict[str, Any],
                  ledger: Ledger) -> None:
    """The run's full record, spans included, under .perfbench_results/ in the checkout."""
    directory = os.path.join(ROOT, ".perfbench_results")
    os.makedirs(directory, exist_ok=True)
    traced = replays.get("traced")
    record = {
        "workload": name, "seed": args.seed, "trace": args.trace, "env": env,
        "metrics": {key: {"value": value, "unit": UNITS[key]} for key, value in metrics.items()},
        "attempted": ledger.attempted, "failed": ledger.failed, "errors": ledger.errors,
        "notes": ledger.notes, "absent_layers": absent,
        "spans": traced.tracer.records() if traced is not None else [],
    }
    path = os.path.join(directory, f"{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main())
