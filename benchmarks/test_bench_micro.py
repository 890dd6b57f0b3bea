"""Micro-benchmarks of the individual pipeline stages.

These measure throughput of the substrates (MRT codec, routing, propagation,
sanitation, inference) in isolation so regressions can be located quickly.
Unlike the table/figure benchmarks they use multiple rounds, since a single
invocation is cheap.
"""

from __future__ import annotations

import pytest

from repro.bgp.announcement import RouteBlock, iter_blocks
from repro.collectors.archive import observations_from_mrt
from repro.core.column import ColumnInference
from repro.mrt.decoder import MRTDecoder, decode_records
from repro.mrt.encoder import MRTEncoder
from repro.bgp.messages import PathAttributes
from repro.sanitize.filters import SANITIZE_BLOCK_SIZE, Sanitizer
from repro.stream import MemorySource, ScenarioSource, StreamConfig, StreamEngine, WindowSpec
from repro.topology.cone import CustomerCones
from repro.topology.routing import RoutingEngine


def _isolario_rib_sample(internet):
    """``(peers, [(peer, path)])``: 200 routes of each of five isolario peers."""
    peers = internet.collector_peers(["isolario"])[:5]
    sample = []
    for peer in peers:
        for route in list(internet.paths_by_peer[peer].values())[:200]:
            sample.append((peer, route.path))
    return peers, sample


def _encode_rib_sample(internet, peers, sample) -> bytes:
    encoder = MRTEncoder()
    encoder.write_peer_index_table(peers)
    for index, (peer, path) in enumerate(sample):
        attributes = PathAttributes(as_path=path, communities=internet.propagator.output(path))
        prefix = internet.topology.prefixes_of(path.origin)[0]
        encoder.write_rib_entry(prefix, [(peer, 0, attributes)], sequence=index)
    return encoder.getvalue()


@pytest.mark.benchmark(group="micro")
def test_bench_mrt_encode_decode(benchmark, context):
    """Encode, then the decoder's *records* view."""
    internet = context.internet
    peers, sample = _isolario_rib_sample(internet)

    def round_trip():
        return len(decode_records(_encode_rib_sample(internet, peers, sample)))

    records = benchmark(round_trip)
    assert records == len(sample) + 1


@pytest.mark.benchmark(group="micro")
def test_bench_mrt_observations(benchmark, context):
    """The same blob through the view production reads: routes to observations."""
    internet = context.internet
    peers, sample = _isolario_rib_sample(internet)
    blob = _encode_rib_sample(internet, peers, sample)

    observations = benchmark(observations_from_mrt, blob, "isolario")
    assert [(observation.peer_asn, observation.path) for observation in observations] == sample


@pytest.mark.benchmark(group="micro")
def test_bench_mrt_multi_peer_rib(benchmark, context):
    """A collector's first RIB of the day: one record per origin prefix
    carrying every isolario peer's route, drained through the blocks view."""
    internet = context.internet
    peers = internet.collector_peers(["isolario"])
    origins = sorted(set.intersection(*(set(internet.paths_by_peer[peer]) for peer in peers)))
    encoder = MRTEncoder()
    encoder.write_peer_index_table(peers)
    for sequence, origin in enumerate(origins):
        entries = []
        for peer in peers:
            path = internet.paths_by_peer[peer][origin].path
            attributes = PathAttributes(as_path=path, communities=internet.propagator.output(path))
            entries.append((peer, 0, attributes))
        encoder.write_rib_entry(internet.topology.prefixes_of(origin)[0], entries, sequence=sequence)
    blob = encoder.getvalue()

    def drain():
        return sum(len(block) for block in MRTDecoder(blob).blocks("isolario", SANITIZE_BLOCK_SIZE))

    routes = benchmark(drain)
    assert routes == len(origins) * len(peers) and len(peers) > 1
    benchmark.extra_info["entries_per_record"] = len(peers)


@pytest.mark.benchmark(group="micro")
def test_bench_valley_free_routing_single_peer(benchmark, context):
    internet = context.internet
    engine = RoutingEngine(internet.topology)
    peer = internet.collector_peers(["ripe"])[0]
    paths = benchmark(engine.best_paths_from_peer, peer)
    assert len(paths) > len(internet.topology) * 0.9


@pytest.mark.benchmark(group="micro")
def test_bench_customer_cone_computation(benchmark, context):
    topology = context.internet.topology

    def compute():
        return CustomerCones(topology.relationships, topology.asns()).cone_sizes()

    sizes = benchmark(compute)
    assert max(sizes.values()) > 10


@pytest.mark.benchmark(group="micro")
def test_bench_propagation_output(benchmark, context):
    internet = context.internet
    peer = internet.collector_peers(["ripe"])[0]
    paths = [route.path for route in internet.paths_by_peer[peer].values()]

    def propagate():
        return sum(len(internet.propagator.output(path)) for path in paths)

    total = benchmark(propagate)
    assert total >= 0


@pytest.mark.benchmark(group="micro")
def test_bench_sanitizer_throughput(benchmark, context):
    internet = context.internet
    archive = internet.archive_for("isolario").generate_day(0)

    def sanitize():
        # The batch pipeline's sanitize + dedup stage: observation blocks
        # lowered to columns, one dedup set for the run.
        sanitizer = Sanitizer(
            asn_registry=internet.topology.asn_registry,
            prefix_allocation=internet.topology.prefix_allocation,
        )
        seen = set()
        for block in iter_blocks(archive.observations, SANITIZE_BLOCK_SIZE):
            sanitizer.dedup_block(RouteBlock.from_observations(block), seen)
        return len(seen)

    unique = benchmark(sanitize)
    assert unique > 0


@pytest.mark.benchmark(group="micro")
def test_bench_column_inference_aggregate(benchmark, run_once, context):
    tuples = context.aggregate_tuples
    result = run_once(benchmark, ColumnInference().run, tuples)
    assert result.summary()["tagger"] > 0


@pytest.mark.benchmark(group="micro")
@pytest.mark.parametrize("block_size", [1, 64, 4096])
def test_bench_ingest_block_size_sweep(benchmark, context, block_size):
    """How ingest throughput scales with block size on the columnar path.

    Block size 1 is the per-event baseline (every event pays full dispatch
    cost); 64 and 4096 show how sanitation, interning, and shard-partition
    costs amortize.  The sweep records events/sec per size in extra_info so
    the trajectory JSON exposes the amortization curve; it asserts only
    conformance (identical classification at every size), never a ratio —
    relative timings on shared runners are too noisy to gate.
    """
    tuples = context.aggregate_tuples
    events = list(ScenarioSource(tuples, duration=86400, repeat=2))

    def config():
        return StreamConfig(
            window=WindowSpec(size=3600),
            shards=4,
            ingest_block_size=block_size,
        )

    def drain():
        engine = StreamEngine(config())
        engine.run(MemorySource(events))
        return engine

    engine = benchmark.pedantic(drain, rounds=3, iterations=1, warmup_rounds=1)
    assert engine.stats.events_in == len(events)
    assert engine.stats.blocks_in == -(-len(events) // block_size)

    baseline = StreamEngine(config())
    for event in events:
        baseline.ingest(event)
    assert engine.result().as_code_map() == baseline.finish().as_code_map()

    benchmark.extra_info["block_size"] = block_size
    benchmark.extra_info["events"] = len(events)
    benchmark.extra_info["events_per_sec"] = round(
        len(events) / benchmark.stats.stats.min
    )
