"""Cluster-layer integration tests (loopback sockets only).

The load-bearing contract: ``DistributedStreamer`` over loopback
workers is **bit-identical** to ``ShardedStreamer(workers=N)`` — same
seed, same assignment, for the Eq. 1 and FENNEL scorers and for the
buffered restreamer, over both ship modes — because the distributed
layer swaps the transport under :func:`shard_stream_task`, never the
algorithm.  Plus the failure semantics: a dead endpoint degrades to a
local shard without changing the result, a worker lost mid-round is
re-dialed once and replayed, and ``on_loss="fail"`` raises promptly.
"""

import threading
import warnings

import numpy as np
import pytest

from repro.cluster import ClusterWorker, DistributedStreamer
from repro.core import HyperPRAWConfig
from repro.hypergraph.generators import powerlaw_hypergraph
from repro.hypergraph.io import write_hmetis
from repro.streaming import (
    HypergraphChunkStream,
    OnePassStreamer,
    ShardedStreamer,
    stream_hmetis,
)

P = 4
N_WORKERS = 3
TIMEOUT = 10.0


def _hg():
    return powerlaw_hypergraph(300, 360, 3.2, seed=2, name="cluster-pl")


@pytest.fixture(scope="module")
def fleet():
    """Three loopback workers shared by the golden tests (each session
    is independent, so module scope is safe and saves bind/teardown)."""
    workers = [ClusterWorker("127.0.0.1", 0, seed=k) for k in range(N_WORKERS)]
    threads = [w.start_in_thread() for w in workers]
    yield [("127.0.0.1", w.port) for w in workers]
    for w in workers:
        w.stop()
    for t in threads:
        t.join(timeout=TIMEOUT)
        assert not t.is_alive()


def _buffered_base():
    from repro.streaming import BufferedRestreamer

    return BufferedRestreamer(
        HyperPRAWConfig(record_history=False, max_iterations=12),
        buffer_size=64,
    )


def _bases():
    return {
        "onepass-eq1": lambda: OnePassStreamer(scorer="eq1"),
        "onepass-fennel": lambda: OnePassStreamer(scorer="fennel"),
        "buffered": _buffered_base,
    }


class TestLoopbackGoldens:
    @pytest.mark.parametrize("base_key", sorted(_bases()))
    def test_chunks_ship_bit_identical(self, fleet, base_key):
        make = _bases()[base_key]
        hg = _hg()
        golden = ShardedStreamer(
            make(), workers=N_WORKERS, chunk_size=32
        ).partition_stream(HypergraphChunkStream(hg, 32), P, seed=7)
        result = DistributedStreamer(
            make(), hosts=fleet, timeout=TIMEOUT, chunk_size=32
        ).partition_stream(HypergraphChunkStream(hg, 32), P, seed=7)
        np.testing.assert_array_equal(result.assignment, golden.assignment)
        md = result.metadata
        assert md["parallel_mode"] == "distributed"
        assert md["degraded_shards"] == []
        assert md["reconnected_shards"] == []
        assert md["cluster_wire_bytes"] > 0
        assert len(md["hosts"]) == N_WORKERS
        # the forked/sequential twin reports its own effective mode
        assert golden.metadata["parallel_mode"] in ("forked", "sequential")

    def test_text_ship_bit_identical(self, fleet, tmp_path):
        path = tmp_path / "cluster.hgr"
        write_hmetis(_hg(), path, write_weights=True)
        with stream_hmetis(path, chunk_size=48) as stream:
            golden = ShardedStreamer(
                OnePassStreamer(), workers=N_WORKERS, chunk_size=48
            ).partition_stream(stream, P, seed=7)
        with stream_hmetis(path, chunk_size=48) as stream:
            result = DistributedStreamer(
                OnePassStreamer(),
                hosts=fleet,
                ship="text",
                timeout=TIMEOUT,
                chunk_size=48,
            ).partition_stream(stream, P, seed=7)
        np.testing.assert_array_equal(result.assignment, golden.assignment)
        assert result.metadata["degraded_shards"] == []

    def test_text_ship_requires_source_path(self, fleet):
        streamer = DistributedStreamer(
            OnePassStreamer(), hosts=fleet, ship="text", timeout=TIMEOUT
        )
        with pytest.raises(ValueError, match="source_path"):
            streamer.partition_stream(
                HypergraphChunkStream(_hg(), 32), P, seed=7
            )

    def test_worker_count_clamps_to_chunks(self, fleet):
        """More endpoints than chunks: same clamp rule as forked workers."""
        hg = _hg()
        stream = HypergraphChunkStream(hg, hg.num_vertices)  # one chunk
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = DistributedStreamer(
                OnePassStreamer(), hosts=fleet, timeout=TIMEOUT
            ).partition_stream(stream, P, seed=7)
        assert len(result.metadata["hosts"]) == 1
        assert result.metadata["shards"] < result.metadata["workers"]


_PSK = b"equivalence-suite-key"


@pytest.fixture(scope="module")
def psk_fleet():
    """Loopback workers that *require* the shared key (PSK combos)."""
    workers = [
        ClusterWorker("127.0.0.1", 0, seed=k, psk=_PSK)
        for k in range(N_WORKERS)
    ]
    threads = [w.start_in_thread() for w in workers]
    yield [("127.0.0.1", w.port) for w in workers]
    for w in workers:
        w.stop()
    for t in threads:
        t.join(timeout=TIMEOUT)
        assert not t.is_alive()


class TestKnobEquivalence:
    """Every combination of the wire knobs — tailored rows ×
    compression × PSK (8 combos, Eq. 1 and FENNEL scorers) — must be
    bit-identical to the local sharded golden.  The knobs change what
    crosses the wire, never what is computed."""

    _goldens: dict = {}

    def _golden(self, base_key):
        if base_key not in self._goldens:
            self._goldens[base_key] = ShardedStreamer(
                _bases()[base_key](), workers=N_WORKERS, chunk_size=32
            ).partition_stream(HypergraphChunkStream(_hg(), 32), P, seed=7)
        return self._goldens[base_key]

    @pytest.mark.parametrize("base_key", ["onepass-eq1", "onepass-fennel"])
    @pytest.mark.parametrize("tailored", [False, True])
    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize("auth", [False, True])
    def test_knob_combo_bit_identical(
        self, fleet, psk_fleet, base_key, tailored, compress, auth
    ):
        result = DistributedStreamer(
            _bases()[base_key](),
            hosts=psk_fleet if auth else fleet,
            timeout=TIMEOUT,
            chunk_size=32,
            tailored=tailored,
            compress=compress,
            psk=_PSK if auth else None,
        ).partition_stream(HypergraphChunkStream(_hg(), 32), P, seed=7)
        np.testing.assert_array_equal(
            result.assignment, self._golden(base_key).assignment
        )
        md = result.metadata
        assert md["degraded_shards"] == []
        assert md["tailored"] == tailored
        # all workers here speak v2: compression lands iff requested
        assert md["cluster_wire_versions"] == [2] * N_WORKERS
        assert md["cluster_compress"] == [compress] * N_WORKERS
        if tailored:
            assert len(md["tailored_rows"]) == N_WORKERS
            assert all(n >= 0 for n in md["tailored_rows"])
            assert all(s >= 0 for s in md["broadcast_bytes_saved"])
        else:
            assert md["tailored_rows"] is None


class TestVersionCompat:
    """A v2 coordinator against v1-clamped workers (and a mixed fleet)
    negotiates down per link and still lands on the golden bits."""

    def _run_fleet(self, workers, **kwargs):
        threads = [w.start_in_thread() for w in workers]
        try:
            hg = _hg()
            golden = ShardedStreamer(
                OnePassStreamer(), workers=len(workers), chunk_size=32
            ).partition_stream(HypergraphChunkStream(hg, 32), P, seed=7)
            result = DistributedStreamer(
                OnePassStreamer(),
                hosts=[("127.0.0.1", w.port) for w in workers],
                timeout=TIMEOUT,
                chunk_size=32,
                **kwargs,
            ).partition_stream(HypergraphChunkStream(hg, 32), P, seed=7)
            np.testing.assert_array_equal(result.assignment, golden.assignment)
            assert result.metadata["degraded_shards"] == []
            return result.metadata
        finally:
            for w in workers:
                w.stop()
            for t in threads:
                t.join(timeout=TIMEOUT)
                assert not t.is_alive()

    def test_v1_workers_negotiate_down(self):
        """Old workers (max_version=1): the session runs at v1 with
        compression off, even though the coordinator asked for both —
        and tailored rows (an app-level protocol, not a frame format)
        still work."""
        workers = [
            ClusterWorker("127.0.0.1", 0, seed=k, max_version=1)
            for k in range(2)
        ]
        md = self._run_fleet(workers, compress=True, tailored=True)
        assert md["cluster_wire_versions"] == [1, 1]
        assert md["cluster_compress"] == [False, False]
        assert md["tailored"] is True

    def test_mixed_fleet_negotiates_per_link(self):
        workers = [
            ClusterWorker("127.0.0.1", 0, seed=0, max_version=1),
            ClusterWorker("127.0.0.1", 0, seed=1),
        ]
        md = self._run_fleet(workers, compress=True)
        assert md["cluster_wire_versions"] == [1, 2]
        assert md["cluster_compress"] == [False, True]


class TestConstruction:
    def test_host_parsing(self):
        assert DistributedStreamer._parse_host("node-a:7101") == ("node-a", 7101)
        assert DistributedStreamer._parse_host(("b", 8)) == ("b", 8)
        with pytest.raises(ValueError, match="host:port"):
            DistributedStreamer._parse_host("no-port")

    def test_rejects_bad_options(self):
        hosts = ["h:1"]
        with pytest.raises(ValueError, match="hosts"):
            DistributedStreamer(OnePassStreamer(), hosts=[])
        with pytest.raises(ValueError, match="ship"):
            DistributedStreamer(OnePassStreamer(), hosts=hosts, ship="carrier")
        with pytest.raises(ValueError, match="on_loss"):
            DistributedStreamer(OnePassStreamer(), hosts=hosts, on_loss="retry")
        with pytest.raises(ValueError, match="timeout"):
            DistributedStreamer(OnePassStreamer(), hosts=hosts, timeout=0)

    def test_rejects_base_without_shard_spec(self):
        class ShardableButNotShippable:
            """Satisfies the local sharding contract, has no wire spec."""

            _run_shard = staticmethod(lambda *a, **k: None)
            _shard_profile = staticmethod(lambda *a, **k: {})

        with pytest.raises(TypeError, match="_shard_spec"):
            DistributedStreamer(ShardableButNotShippable(), hosts=["h:1"])


class _DroppingLink:
    """Socket proxy that hangs up when its send allowance runs out."""

    def __init__(self, sock, sends_before_drop: int) -> None:
        self._sock = sock
        self._left = sends_before_drop

    def sendall(self, data):
        if self._left <= 0:
            self._sock.close()
            raise OSError("flaky link dropped")
        self._left -= 1
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _FlakyWorker(ClusterWorker):
    """First session completes the handshake and phase 1, then vanishes
    when replying to the first round — so the loss lands *mid-round*;
    later sessions serve faithfully (the reconnect success scenario)."""

    sessions = 0

    def _run_session(self, conn, hello):
        self.sessions += 1
        if self.sessions == 1:
            conn = _DroppingLink(conn, 2)  # hello_ack + phase-1 reply
        return super()._run_session(conn, hello)


class TestFailureSemantics:
    def _golden(self, hg, workers):
        return ShardedStreamer(
            OnePassStreamer(), workers=workers, chunk_size=32
        ).partition_stream(HypergraphChunkStream(hg, 32), P, seed=13)

    def test_dead_endpoint_degrades_locally(self, fleet):
        hg = _hg()
        dead = ("127.0.0.1", 1)  # nothing listens on port 1
        result = DistributedStreamer(
            OnePassStreamer(),
            hosts=[fleet[0], dead],
            timeout=TIMEOUT,
            chunk_size=32,
        ).partition_stream(HypergraphChunkStream(hg, 32), P, seed=13)
        assert result.metadata["degraded_shards"] == [1]
        np.testing.assert_array_equal(
            result.assignment, self._golden(hg, 2).assignment
        )

    def test_dead_endpoint_fails_loudly(self, fleet):
        streamer = DistributedStreamer(
            OnePassStreamer(),
            hosts=[fleet[0], ("127.0.0.1", 1)],
            timeout=TIMEOUT,
            on_loss="fail",
            chunk_size=32,
        )
        with pytest.raises(RuntimeError, match="lost \\(shard 1\\)"):
            streamer.partition_stream(
                HypergraphChunkStream(_hg(), 32), P, seed=13
            )

    def test_midround_loss_reconnects_and_replays(self):
        """One re-dial after a mid-round loss: the worker replays the
        recorded history and finishes the run remotely — bit-identical,
        with the shard in ``reconnected_shards``, not degraded."""
        hg = _hg()
        steady = ClusterWorker("127.0.0.1", 0)
        flaky = _FlakyWorker("127.0.0.1", 0)
        threads = [steady.start_in_thread(), flaky.start_in_thread()]
        done = {}

        def target():
            done["result"] = DistributedStreamer(
                OnePassStreamer(),
                hosts=[("127.0.0.1", steady.port), ("127.0.0.1", flaky.port)],
                timeout=TIMEOUT,
                chunk_size=32,
            ).partition_stream(HypergraphChunkStream(hg, 32), P, seed=13)

        try:
            runner = threading.Thread(target=target, daemon=True)
            runner.start()
            runner.join(timeout=60.0)  # the no-deadlock bound
            assert not runner.is_alive(), "coordinator hung on flaky worker"
        finally:
            steady.stop()
            flaky.stop()
            for t in threads:
                t.join(timeout=TIMEOUT)
                assert not t.is_alive()
        result = done["result"]
        assert flaky.sessions == 2  # the re-dial really happened
        assert result.metadata["reconnected_shards"] == [1]
        assert result.metadata["degraded_shards"] == []
        np.testing.assert_array_equal(
            result.assignment, self._golden(hg, 2).assignment
        )
