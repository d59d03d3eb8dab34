"""The traced half: an in-process, single-threaded replay of a workload's frames.

The replay feeds the exact frames of a served run through the layers' public
functions in the order the server calls them, and records a span around each
call -- from this file only: nothing inside the program is instrumented.  The
sketch's own ``insert_many``/``report`` are wrapped at class level for the
duration of a traced replay, so they appear as child spans of the executor call
that makes them.  A layer whose functions a later refactor removed, or whose
call they no longer accept, is reported ``absent``, and the replay carries on
without it.  Nothing raised inside the program is caught here: the run counts it
as a failure.
"""

from __future__ import annotations

import contextlib
import copy
import importlib
import inspect
import os
import pickle
import shutil
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from perfbench.workloads import SKETCH_SEED, UNIVERSE, Workload, frames_of, schedule, stream_name

#: The replayed layers: per layer, every public function the replay calls, as
#: ``(module, dotted attribute, positional arguments, keyword arguments)`` of the
#: call it makes (``self`` counts as positional).  A layer is absent when one of
#: its functions is gone or no longer accepts that call.
LAYERS: Dict[str, List[Tuple[str, str, int, Tuple[str, ...]]]] = {
    "service.protocol": [
        ("repro.service.protocol", "encode_items", 1, ()),
        ("repro.service.protocol", "decode_items", 2, ())],
    "durability.wal": [
        ("repro.durability.wal", "WriteAheadLog", 1, ("fsync",)),
        ("repro.durability.wal", "WriteAheadLog.append", 2, ()),
        ("repro.durability.wal", "WriteAheadLog.sync", 1, ()),
        ("repro.durability.wal", "WriteAheadLog.close", 1, ()),
        ("repro.durability.wal", "WriteAheadLog.segment_paths", 1, ())],
    "durability.recovery": [
        ("repro.durability.recovery", "recover_sink", 2, ("chunk_size", "fsync"))],
    "primitives.batching": [("repro.primitives.batching", "rechunk_arrays", 2, ())],
    "pipeline.executor": [
        ("repro.pipeline.executor", "PipelinedExecutor", 0, ("sketch", "chunk_size")),
        ("repro.pipeline.executor", "PipelinedExecutor.ingest_chunk", 2, ()),
        ("repro.pipeline.executor", "PipelinedExecutor.snapshot", 1, ("report_kwargs",))],
    "baselines.misra_gries": [
        ("repro.baselines.misra_gries", "MisraGries", 0,
         ("epsilon", "universe_size", "stream_length_hint")),
        ("repro.baselines.misra_gries", "MisraGries.insert_many", 2, ()),
        ("repro.baselines.misra_gries", "MisraGries.report", 1, ("phi",))],
    "core.heavy_hitters_optimal": [
        ("repro.core.heavy_hitters_optimal", "OptimalListHeavyHitters", 0,
         ("epsilon", "phi", "universe_size", "stream_length", "rng")),
        ("repro.core.heavy_hitters_optimal", "OptimalListHeavyHitters.insert_many", 2, ()),
        ("repro.core.heavy_hitters_optimal", "OptimalListHeavyHitters.report", 1, ())],
}
SKETCH_LAYER = {"misra-gries": "baselines.misra_gries", "optimal": "core.heavy_hitters_optimal"}
#: Not layers, but the sketch cannot be seeded as the server seeds it without them.
SEEDING = [("repro.primitives.rng", "RandomSource", 1, ()),
           ("repro.service.registry", "derive_stream_seed", 2, ())]


def resolve(module: str, attribute: str, positional: int, keywords: Tuple[str, ...]) -> Any:
    """``module.attribute`` (dotted), or ``None`` when it is gone or refuses the call."""
    try:
        target: Any = importlib.import_module(module)
        for part in attribute.split("."):
            target = getattr(target, part)
        inspect.signature(target).bind(*[None] * positional, **dict.fromkeys(keywords))
    except (ImportError, AttributeError, TypeError, ValueError):
        return None
    return target


def resolve_layers(planted_absent: Optional[str] = None) -> Dict[str, Optional[Dict[str, Any]]]:
    """Per layer: ``{attribute: object}``, or ``None`` when the layer is absent.

    ``planted_absent`` (self-test only) treats one layer as removed.
    """
    layers: Dict[str, Optional[Dict[str, Any]]] = {}
    for layer, functions in LAYERS.items():
        found = {attribute: resolve(module, attribute, positional, keywords)
                 for module, attribute, positional, keywords in functions}
        present = layer != planted_absent and all(value is not None for value in found.values())
        layers[layer] = found if present else None
    return layers


# -- spans ----------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory: ``(id, parent, name, frame, start, end)`` tuples."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.frame = -1
        self._next_id = 0
        self._stack: List[Optional[int]] = [None]

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def window(self, name: str) -> Optional[tuple]:
        """``(start, end)`` of the first span called ``name``."""
        return next(((start, end) for _, _, span_name, _, start, end in self.spans
                     if span_name == name), None)

    def self_times(self, within: Optional[str] = None) -> Dict[str, float]:
        """Per span name: total duration minus the time its direct children cover.

        With ``within``, only the spans inside that (phase) span's interval count.
        """
        spans = self.spans
        if within is not None:
            window = self.window(within)
            if window is None:
                return {}
            spans = [span for span in spans if window[0] <= span[4] and span[5] <= window[1]]
        covered: Dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span_id, _, name, _, start, end in spans:
            totals[name] += (end - start) - covered[span_id]
        return dict(totals)

    def layer_times(self, within: Optional[str] = None) -> Dict[str, float]:
        """Self times of the layer spans; the replay's own ``replay*`` spans are glue."""
        return {name: seconds for name, seconds in self.self_times(within).items()
                if not name.startswith("replay")}

    def layer_share(self) -> float:
        """Share of the replay's wall time that layer spans account for as self time."""
        window = self.window("replay")
        if window is None or window[1] <= window[0]:
            return 0.0
        return sum(self.layer_times().values()) / (window[1] - window[0])

    def records(self) -> List[Dict[str, Any]]:
        return [{"id": span_id, "parent": parent, "name": name, "frame": frame,
                 "start": start, "end": end}
                for span_id, parent, name, frame, start, end in self.spans]


class _Span:
    __slots__ = ("_tracer", "_name", "_id", "_parent", "_frame", "_start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        tracer._next_id += 1
        self._id = tracer._next_id
        self._parent = tracer._stack[-1]
        self._frame = tracer.frame
        tracer._stack.append(self._id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        tracer._stack.pop()
        tracer.spans.append((self._id, self._parent, self._name, self._frame, self._start, end))


class NullTracer:
    """The untraced replay: identical calls, no clock reads, no records."""

    enabled = False
    frame = -1
    _null = contextlib.nullcontext()

    def span(self, name: str) -> contextlib.nullcontext:
        return self._null


@contextlib.contextmanager
def traced_methods(tracer: Any, cls: type, layer: str, names: List[str]) -> Iterator[None]:
    """Wrap ``cls.<name>`` in a span for the replay's duration, then restore it."""
    if not tracer.enabled:
        yield
        return
    saved = {name: cls.__dict__.get(name) for name in names}
    for name in names:
        original = getattr(cls, name)

        def wrapper(self: Any, *args: Any, _original: Callable = original,
                    _span: str = f"{layer}.{name}", **kwargs: Any) -> Any:
            with tracer.span(_span):
                return _original(self, *args, **kwargs)

        setattr(cls, name, wrapper)
    try:
        yield
    finally:
        for name, original in saved.items():
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)


# -- the replay -----------------------------------------------------------------------


@dataclass
class ReplayResult:
    wall_s: float = 0.0
    reports: Dict[str, Dict[int, float]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    tracer: Any = None


class Replay:
    """One workload replayed in process, traced or not, around any absent layer."""

    def __init__(self, workload: Workload, work_dir: str, tracer: Any,
                 layers: Dict[str, Optional[Dict[str, Any]]]) -> None:
        self.workload = workload
        self.work_dir = work_dir
        self.tracer = tracer
        self.layers = layers
        self.layer = SKETCH_LAYER[workload.algorithm]
        self.encode = self.function("service.protocol", "encode_items")
        self.decode = self.function("service.protocol", "decode_items")
        self.wal_class = self.function("durability.wal", "WriteAheadLog")
        self.recover_sink = self.function("durability.recovery", "recover_sink")
        self.rechunk = self.function("primitives.batching", "rechunk_arrays")
        self.executor_class = self.function("pipeline.executor", "PipelinedExecutor")
        self.sketch_class = self.function(
            self.layer, "OptimalListHeavyHitters" if workload.algorithm == "optimal"
            else "MisraGries")
        self.random_source, self.derive_seed = (resolve(*entry) for entry in SEEDING)
        self.kwargs = {"phi": workload.phi} if workload.report_phi is not None else {}
        self.counters: Dict[str, float] = defaultdict(float)

    def function(self, layer: str, attribute: str) -> Any:
        """A function of ``layer``, or ``None`` when the layer is absent."""
        found = self.layers[layer]
        return found[attribute] if found is not None else None

    @property
    def possible(self) -> bool:
        """Whether the sketch can be rebuilt exactly as `repro serve` builds it."""
        if self.sketch_class is None:
            return False
        if self.workload.algorithm == "optimal" and self.random_source is None:
            return False
        return not (self.workload.streams and self.derive_seed is None)

    def build_sketch(self, seed: int) -> Any:
        wl = self.workload
        if wl.algorithm == "optimal":
            return self.sketch_class(epsilon=wl.epsilon, phi=wl.phi, universe_size=UNIVERSE,
                                     stream_length=wl.items, rng=self.random_source(seed))
        return self.sketch_class(epsilon=wl.epsilon, universe_size=UNIVERSE,
                                 stream_length_hint=wl.items)

    def build_sink(self, sketch: Any) -> Any:
        if self.executor_class is None:
            return None
        return self.executor_class(sketch=sketch, chunk_size=self.workload.chunk_items)

    def retire(self, executor: Any) -> None:
        """Count a sink's snapshot-cache outcomes before it is dropped."""
        self.counters["snapshot_hits"] += getattr(executor, "snapshot_cache_hits", 0)
        self.counters["snapshot_misses"] += getattr(executor, "snapshot_cache_misses", 0)

    def open_wal(self, label: str) -> Any:
        if self.wal_class is None:
            return None
        return self.wal_class(os.path.join(self.work_dir, label), fsync="off")

    def close_wal(self, wal: Any) -> None:
        if wal is not None:
            self.counters["wal_bytes"] += sum(os.path.getsize(path)
                                              for path in wal.segment_paths())
            wal.close()

    # -- per-layer steps, each one span ------------------------------------------------

    def receive(self, frame: np.ndarray, wal: Any) -> np.ndarray:
        """Client encode, server decode, journal append (+ fsync per the policy): one frame."""
        span = self.tracer.span
        batch = frame
        if self.encode is not None:
            with span("service.protocol.encode"):
                count, payload = self.encode(frame)
            self.counters["protocol_bytes"] += len(payload)
            with span("service.protocol.decode"):
                batch = self.decode({"items": count}, payload)
        if wal is not None:
            with span("durability.wal.append"):
                wal.append(batch)
            self.counters["wal_appends"] += 1
            if self.counters["wal_appends"] % self.workload.appends_per_fsync == 0:
                with span("durability.wal.sync"):
                    wal.sync()
        return batch

    def ingest(self, executor: Any, sketch: Any, chunk: np.ndarray) -> None:
        if executor is None:
            sketch.insert_many(chunk)
            return
        with self.tracer.span("pipeline.executor.ingest_chunk"):
            executor.ingest_chunk(chunk)

    def snapshot(self, executor: Any, sketch: Any) -> None:
        if executor is None:
            copy.deepcopy(sketch).report(**self.kwargs)
            return
        with self.tracer.span("pipeline.executor.snapshot"):
            executor.snapshot(report_kwargs=self.kwargs)

    def round_trip(self, sketch: Any) -> Any:
        """Eviction then restore: the sink-state copy, its pickle, and the unpickle."""
        span = self.tracer.span
        with span(f"{self.layer}.deepcopy"):
            state = copy.deepcopy(sketch)
        with span(f"{self.layer}.pickle"):
            blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        with span(f"{self.layer}.unpickle"):
            restored = pickle.loads(blob)
        self.counters["pickles"] += 1
        self.counters["pickle_bytes"] += len(blob)
        return restored

    def report(self, sketch: Any) -> Dict[int, float]:
        result = sketch.report(**self.kwargs)
        return {int(item): float(estimate) for item, estimate in result.items.items()}

    # -- workloads ----------------------------------------------------------------------

    def run(self, streams: List[np.ndarray], boundaries: Dict[str, List[int]]) -> ReplayResult:
        tracer = self.tracer
        os.makedirs(self.work_dir, exist_ok=True)
        started = time.perf_counter()
        try:
            with traced_methods(tracer, self.sketch_class, self.layer, ["insert_many", "report"]), \
                    tracer.span("replay"):
                with tracer.span("replay.ingest"):
                    if self.workload.streams:
                        reports, sketches = self._tenants(streams, boundaries)
                    else:
                        reports, sketches = self._default(streams[0])
                # Recovery reads the journal the replay wrote, so it needs both layers.
                if self.workload.restart and self.recover_sink and self.wal_class:
                    with tracer.span("replay.recovery"):
                        self._recover(streams[0].size)
        finally:
            wall = time.perf_counter() - started
            shutil.rmtree(self.work_dir, ignore_errors=True)
        processed = sum(getattr(sketch, "items_processed", 0) for sketch in sketches)
        if processed and all(hasattr(sketch, "sample_size") for sketch in sketches):
            self.counters["sample_fraction"] = \
                sum(sketch.sample_size for sketch in sketches) / processed
        hits, misses = self.counters["snapshot_hits"], self.counters["snapshot_misses"]
        if hits + misses:
            self.counters["snapshot_cache_hit_ratio"] = hits / (hits + misses)
        return ReplayResult(wall_s=wall, reports=reports, counters=dict(self.counters),
                            tracer=tracer)

    def _default(self, items: np.ndarray) -> "tuple[Dict[str, Dict[int, float]], List[Any]]":
        """Frames in, chunks ingested, and a snapshot where the client queries mid-ingest."""
        tracer = self.tracer
        every = self.workload.round_query_every
        wal = self.open_wal("default")
        sketch = self.build_sketch(SKETCH_SEED)
        executor = self.build_sink(sketch)

        def received() -> Iterator[np.ndarray]:
            for index, frame in enumerate(frames_of(items, self.workload.frame_items), 1):
                tracer.frame = index - 1
                yield self.receive(frame, wal)
                # Resumed once the chunks this frame completed are ingested.
                if every and index % every == 0:
                    self.snapshot(executor, sketch)

        size = self.workload.chunk_items
        if self.rechunk is not None:
            chunks = iter(self.rechunk(received(), size))
        else:
            whole = np.concatenate(list(received()))
            chunks = iter([whole[start:start + size] for start in range(0, whole.size, size)])
        while True:
            with tracer.span("primitives.batching.rechunk"):
                chunk = next(chunks, None)
            if chunk is None:
                break
            self.ingest(executor, sketch, chunk)
        report = self.report(sketch)
        self.retire(executor)
        self.close_wal(wal)
        return {"default": report}, [sketch]

    def _recover(self, items: int) -> None:
        """Rebuild the default stream from the journal just written, as a restart does."""
        started = time.perf_counter()
        with self.tracer.span("durability.recovery.recover_sink"):
            recovered = self.recover_sink(
                os.path.join(self.work_dir, "default"),
                lambda: self.build_sink(self.build_sketch(SKETCH_SEED)),
                chunk_size=self.workload.chunk_items, fsync="off",
            )
        self.counters["recovery_items_per_s"] = items / (time.perf_counter() - started)
        recovered.wal.close()

    def _tenants(self, streams: List[np.ndarray], boundaries: Dict[str, List[int]]
                 ) -> "tuple[Dict[str, Dict[int, float]], List[Any]]":
        """The served interleaving; each recorded eviction is replayed as a round trip.

        An eviction at a stream's item boundary ``b`` is replayed the next time
        the stream is touched at ``b`` -- the served registry's restore point --
        so every stream sees exactly the served sequence of re-seeding copies.
        """
        wl = self.workload
        names = [stream_name(index) for index in range(wl.streams)]
        sketches = {name: self.build_sketch(self.derive_seed(SKETCH_SEED, name)) for name in names}
        executors = {name: self.build_sink(sketches[name]) for name in names}
        wals = {name: self.open_wal(name) for name in names}
        processed = dict.fromkeys(names, 0)
        pending = {name: Counter(boundaries.get(name, [])) for name in names}
        blocks = [frames_of(items, wl.frame_items) for items in streams]

        def touch(name: str) -> None:
            for _ in range(pending[name].pop(processed[name], 0)):
                sketches[name] = self.round_trip(sketches[name])
                self.retire(executors[name])
                executors[name] = self.build_sink(sketches[name])

        for step, (pushed, block, queried) in enumerate(schedule(wl)):
            self.tracer.frame = step
            name = names[pushed]
            touch(name)
            batch = self.receive(blocks[pushed][block], wals[name])
            self.ingest(executors[name], sketches[name], batch)
            processed[name] += int(batch.size)
            touch(names[queried])
            self.snapshot(executors[names[queried]], sketches[names[queried]])
        reports = {}
        for name in names:
            touch(name)
            reports[name] = self.report(sketches[name])
            self.retire(executors[name])
            self.close_wal(wals[name])
        return reports, list(sketches.values())


def offline_sketch(replay: Replay, items: np.ndarray, seed: int,
                   cuts: Iterable[int] = ()) -> Any:
    """``items`` fed chunk by chunk, as the server chunks them, into a fresh sketch.

    At every item boundary in ``cuts`` the sketch takes one pickle round trip,
    as an eviction spill does (it re-seeds the sketch's random sources).
    """
    cuts = set(cuts)
    size = replay.workload.chunk_items
    sketch = replay.build_sketch(seed)
    for start in range(0, items.size + 1, size):
        if start in cuts:
            sketch = pickle.loads(pickle.dumps(sketch, protocol=pickle.HIGHEST_PROTOCOL))
        if start < items.size:
            sketch.insert_many(items[start:start + size])
    return sketch


def solo_reports(workload: Workload, streams: List[np.ndarray],
                 boundaries: Dict[str, List[int]], layers: Dict[str, Optional[Dict[str, Any]]]
                 ) -> Optional[Dict[str, Dict[int, float]]]:
    """Each named stream replayed alone, seeded as the server seeds it: its offline reference.

    ``None`` when a refactor removed what rebuilding the sketch needs.
    """
    replay = Replay(workload, "", NullTracer(), layers)
    if not replay.possible:
        return None
    reports = {}
    for index, items in enumerate(streams):
        name = stream_name(index)
        sketch = offline_sketch(replay, items, replay.derive_seed(SKETCH_SEED, name),
                                boundaries.get(name, []))
        reports[name] = replay.report(sketch)
    return reports


def default_stream_sketch(workload: Workload, items: np.ndarray,
                          layers: Dict[str, Optional[Dict[str, Any]]]) -> Any:
    """``items`` through the default stream's sketch, declared length ``items.size``.

    ``None`` when a refactor removed what rebuilding the sketch needs.
    """
    replay = Replay(replace(workload, items=int(items.size)), "", NullTracer(), layers)
    return offline_sketch(replay, items, SKETCH_SEED) if replay.possible else None
