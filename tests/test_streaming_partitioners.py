"""Tests for the out-of-core streaming partitioners.

The anchor property: with unbounded buffer and presence table,
``BufferedRestreamer`` *is* in-memory HyperPRAW — same assignments, not
just similar quality.  Around it: one-pass determinism and chunk-size
invariance, bounded-buffer quality ordering, the capped LRU table, and
the chunked in-memory hot path.
"""

import numpy as np
import pytest

from repro.architecture.cost import uniform_cost_matrix
from repro.core import HyperPRAW, HyperPRAWConfig, evaluate_partition
from repro.hypergraph.io import write_hmetis
from repro.hypergraph.suite import load_instance
from repro.streaming import (
    BufferedRestreamer,
    HypergraphChunkStream,
    OnePassStreamer,
    StreamingState,
    stream_hmetis,
)


@pytest.fixture(scope="module")
def instance():
    return load_instance("sparsine", scale=0.15)


@pytest.fixture(scope="module")
def mesh_instance():
    return load_instance("2cubes_sphere", scale=0.3)


class TestStreamingState:
    def test_unbounded_tracks_exact_counts(self):
        state = StreamingState(3, expected_loads=np.ones(3))
        edges = np.array([0, 5, 9])
        state.place(edges, 1, 1.0)
        state.place(np.array([5]), 2, 1.0)
        assert state.gather(edges).tolist() == [0, 3, 1]
        assert state.gather(np.array([5])).tolist() == [0, 1, 1]
        state.remove(np.array([5]), 2, 1.0)
        assert state.gather(np.array([5])).tolist() == [0, 1, 0]
        assert state.loads.tolist() == [0.0, 1.0, 0.0]

    def test_lru_eviction_caps_table(self):
        state = StreamingState(
            2, expected_loads=np.ones(2), max_tracked_edges=2
        )
        state.place(np.array([0]), 0, 1.0)
        state.place(np.array([1]), 0, 1.0)
        state.place(np.array([2]), 1, 1.0)  # evicts edge 0 (LRU)
        assert state.num_tracked_edges == 2
        assert state.evictions == 1
        assert state.gather(np.array([0])).tolist() == [0, 0]
        assert state.gather(np.array([2])).tolist() == [0, 1]

    def test_remove_untracked_is_clamped(self):
        state = StreamingState(2, expected_loads=np.ones(2), max_tracked_edges=1)
        state.place(np.array([0]), 0, 1.0)
        state.place(np.array([1]), 0, 1.0)  # evicts edge 0
        state.remove(np.array([0]), 0, 1.0)  # counts lost: no phantom -1
        assert state.gather(np.array([0])).tolist() == [0, 0]
        assert (state._table >= 0).all()

    def test_gather_block_matches_gather(self, instance):
        state = StreamingState(4, expected_loads=np.ones(4))
        rng = np.random.default_rng(0)
        for v in range(60):
            state.place(instance.edges_of(v), int(rng.integers(4)), 1.0)
        stream = HypergraphChunkStream(instance, chunk_size=25)
        chunk = next(iter(stream))
        X = state.gather_block(chunk.vertex_edges, chunk.vertex_ptr)
        for i in range(chunk.num_vertices):
            assert X[i].tolist() == state.gather(chunk.edges_of(i)).tolist()

    def test_pc_cost_matches_dense_metric(self, instance):
        from repro.core.metrics import partitioning_comm_cost

        p = 4
        C = uniform_cost_matrix(p)
        assignment = np.arange(instance.num_vertices) % p
        state = StreamingState(p, expected_loads=np.ones(p))
        for v in range(instance.num_vertices):
            state.place(instance.edges_of(v), int(assignment[v]), 1.0)
        dense = partitioning_comm_cost(instance, assignment, p, C)
        sparse = state.pc_cost(C, edge_weights=instance.edge_weights)
        assert sparse == pytest.approx(dense, rel=1e-12)


class TestOnePassStreamer:
    def test_chunk_size_invariant(self, instance):
        a = OnePassStreamer(chunk_size=7).partition(instance, 8)
        b = OnePassStreamer(chunk_size=100).partition(instance, 8)
        assert np.array_equal(a.assignment, b.assignment)

    def test_disk_equals_memory(self, instance, tmp_path):
        path = tmp_path / "h.hgr"
        write_hmetis(instance, path)
        mem = OnePassStreamer(chunk_size=31).partition(instance, 8)
        disk = OnePassStreamer().partition_stream(
            stream_hmetis(path, chunk_size=31), 8
        )
        assert np.array_equal(mem.assignment, disk.assignment)

    def test_metadata_and_balance(self, instance):
        result = OnePassStreamer(balance_slack=1.2).partition(instance, 8)
        assert result.metadata["single_pass"] is True
        assert result.metadata["evictions"] == 0
        assert result.metadata["imbalance"] <= 1.2 + 1e-9
        assert (result.assignment >= 0).all()

    def test_capped_table_still_partitions(self, instance):
        result = OnePassStreamer(
            max_tracked_edges=instance.num_edges // 8
        ).partition(instance, 8)
        assert result.metadata["evictions"] > 0
        assert (
            result.metadata["peak_tracked_edges"] <= instance.num_edges // 8
        )
        assert (result.assignment >= 0).all()

    def test_chunk_score_mode_valid_and_bounded(self, instance):
        p = 8
        C = uniform_cost_matrix(p)
        vertex = OnePassStreamer(score_mode="vertex").partition(instance, p)
        chunk = OnePassStreamer(score_mode="chunk", chunk_size=64).partition(
            instance, p
        )
        qv = evaluate_partition(instance, vertex.assignment, p, C)
        qc = evaluate_partition(instance, chunk.assignment, p, C)
        # block staleness may cost some quality, but not collapse
        assert qc.pc_cost <= qv.pc_cost * 1.5
        assert qc.imbalance <= 1.2 + 1e-9

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="chunk_size"):
            OnePassStreamer(chunk_size=0)
        with pytest.raises(ValueError, match="balance_slack"):
            OnePassStreamer(balance_slack=1.0)
        with pytest.raises(ValueError, match="score_mode"):
            OnePassStreamer(score_mode="wat")


class TestBufferedRestreamer:
    def test_unbounded_reproduces_hyperpraw(self, instance):
        """The tentpole property: buffer=inf + table=inf == Algorithm 1."""
        cfg = HyperPRAWConfig()
        ref = HyperPRAW(cfg).partition(instance, 8)
        streamed = BufferedRestreamer(cfg).partition(instance, 8)
        assert np.array_equal(ref.assignment, streamed.assignment)
        assert (
            streamed.metadata["iterations_run"] == ref.metadata["iterations_run"]
        )

    def test_unbounded_reproduces_hyperpraw_from_disk(self, instance, tmp_path):
        path = tmp_path / "h.hgr"
        write_hmetis(instance, path)
        cfg = HyperPRAWConfig(record_history=False)
        ref = HyperPRAW(cfg).partition(instance, 8)
        streamed = BufferedRestreamer(cfg).partition_stream(
            stream_hmetis(path, chunk_size=40, buffer_pins=256), 8
        )
        assert np.array_equal(ref.assignment, streamed.assignment)

    @pytest.mark.parametrize("variant", ["no_refinement", "threshold2"])
    def test_unbounded_equivalence_across_configs(self, instance, variant):
        cfg = (
            HyperPRAWConfig.paper_no_refinement()
            if variant == "no_refinement"
            else HyperPRAWConfig(presence_threshold=2)
        )
        ref = HyperPRAW(cfg).partition(instance, 6)
        streamed = BufferedRestreamer(cfg).partition(instance, 6)
        assert np.array_equal(ref.assignment, streamed.assignment)

    def test_quality_improves_with_buffer(self, mesh_instance):
        """Bounded windows: more buffer -> closer to in-memory quality."""
        p = 8
        C = uniform_cost_matrix(p)
        cfg = HyperPRAWConfig(record_history=False)
        V = mesh_instance.num_vertices
        costs = []
        for buffer in (V // 16, V // 4, V):
            r = BufferedRestreamer(cfg, buffer_size=buffer).partition(
                mesh_instance, p
            )
            costs.append(
                evaluate_partition(mesh_instance, r.assignment, p, C).pc_cost
            )
        assert costs[0] >= costs[1] >= costs[2]

    def test_bounded_gap_within_25_percent(self, mesh_instance):
        """Acceptance: streamed quality gap <= 25% at a quarter-|V| window."""
        p = 8
        C = uniform_cost_matrix(p)
        cfg = HyperPRAWConfig(record_history=False)
        base = HyperPRAW(cfg).partition(mesh_instance, p)
        base_pc = evaluate_partition(mesh_instance, base.assignment, p, C).pc_cost
        r = BufferedRestreamer(
            cfg, buffer_size=mesh_instance.num_vertices // 4
        ).partition(mesh_instance, p)
        pc = evaluate_partition(mesh_instance, r.assignment, p, C).pc_cost
        assert pc <= base_pc * 1.25
        assert r.metadata["batches"] >= 4

    def test_bounded_buffer_batches_and_metadata(self, instance):
        cfg = HyperPRAWConfig(record_history=False)
        r = BufferedRestreamer(cfg, buffer_size=50).partition(instance, 4)
        assert r.metadata["batches"] == -(-instance.num_vertices // 50)
        assert r.metadata["buffer_size"] == 50
        assert (r.assignment >= 0).all()

    def test_buffer_bound_enforced_on_disk_path(self, instance, tmp_path):
        """Stream chunks coarser than the buffer must be split, not let
        the window silently widen past its bound."""
        path = tmp_path / "h.hgr"
        write_hmetis(instance, path)
        cfg = HyperPRAWConfig(record_history=False, max_iterations=10)
        r = BufferedRestreamer(cfg, buffer_size=30).partition_stream(
            stream_hmetis(path, chunk_size=100), 4
        )
        assert r.metadata["batches"] == -(-instance.num_vertices // 30)
        assert (r.assignment >= 0).all()

    def test_rejects_shuffled_order(self):
        with pytest.raises(ValueError, match="natural"):
            BufferedRestreamer(HyperPRAWConfig(stream_order="shuffled"))

    def test_capped_table_still_partitions(self, instance):
        cfg = HyperPRAWConfig(record_history=False, max_iterations=20)
        r = BufferedRestreamer(
            cfg, buffer_size=60, max_tracked_edges=instance.num_edges // 8
        ).partition(instance, 4)
        assert r.metadata["evictions"] > 0
        assert (r.assignment >= 0).all()


class TestChunkedHyperPRAW:
    """The vectorised in-memory hot path (HyperPRAWConfig.chunk_size)."""

    def test_quality_parity_with_sequential(self, mesh_instance):
        p = 8
        C = uniform_cost_matrix(p)
        seq = HyperPRAW(HyperPRAWConfig(record_history=False)).partition(
            mesh_instance, p
        )
        chk = HyperPRAW(
            HyperPRAWConfig(record_history=False, chunk_size=64)
        ).partition(mesh_instance, p)
        q_seq = evaluate_partition(mesh_instance, seq.assignment, p, C)
        q_chk = evaluate_partition(mesh_instance, chk.assignment, p, C)
        assert q_chk.pc_cost <= q_seq.pc_cost * 1.3
        assert q_chk.imbalance <= 1.1 + 1e-9
        assert chk.metadata["chunk_size"] == 64

    def test_deterministic(self, instance):
        cfg = HyperPRAWConfig(record_history=False, chunk_size=50)
        a = HyperPRAW(cfg).partition(instance, 6)
        b = HyperPRAW(cfg).partition(instance, 6)
        assert np.array_equal(a.assignment, b.assignment)

    def test_state_consistency_after_chunked_pass(self, instance):
        from repro.core.metrics import edge_partition_counts, partition_loads
        from repro.engine import (
            DenseKernelState,
            HyperPRAWScorer,
            InMemorySource,
            pass_kernel,
        )

        p = 5
        assignment = np.arange(instance.num_vertices, dtype=np.int64) % p
        state = DenseKernelState(
            p,
            edge_partition_counts(instance, assignment, p),
            partition_loads(instance, assignment, p),
        )
        expected = np.full(p, instance.total_vertex_weight() / p)
        pass_kernel(
            InMemorySource(instance, block_size=37).blocks(),
            state,
            HyperPRAWScorer(uniform_cost_matrix(p), 1.0, expected),
            assignment,
            restream=True,
            score_mode="chunk",
        )
        assert np.array_equal(
            state.edge_counts, edge_partition_counts(instance, assignment, p)
        )
        assert np.allclose(state.loads, partition_loads(instance, assignment, p))

    def test_shuffled_order_supported(self, instance):
        cfg = HyperPRAWConfig(
            record_history=False, chunk_size=32, stream_order="shuffled"
        )
        r = HyperPRAW(cfg).partition(instance, 4, seed=3)
        assert (r.assignment >= 0).all()
        state_imbalance = r.metadata["final_pc_cost"]
        assert np.isfinite(state_imbalance)

    def test_config_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            HyperPRAWConfig(chunk_size=0)


class TestShardedStreamer:
    """Parallel sharded streaming: shard -> merge -> boundary restream."""

    def test_workers1_matches_buffered_exactly(self, instance):
        """One shard == the base partitioner, assignment for assignment."""
        from repro.streaming import ShardedStreamer

        cfg = HyperPRAWConfig(record_history=False)
        ref = BufferedRestreamer(cfg, buffer_size=60).partition(instance, 4)
        sharded = ShardedStreamer(
            BufferedRestreamer(cfg, buffer_size=60), workers=1
        ).partition(instance, 4)
        assert np.array_equal(ref.assignment, sharded.assignment)
        assert sharded.metadata["boundary_edges"] == 0

    def test_workers1_matches_buffered_on_edge_weighted_graph(self, instance):
        """Shard workers must monitor the *weighted* PC cost, or the
        refinement rollback diverges from the base partitioner."""
        from repro.hypergraph.model import Hypergraph
        from repro.streaming import ShardedStreamer

        rng = np.random.default_rng(5)
        weighted = Hypergraph(
            instance.num_vertices,
            [edge.tolist() for edge in instance.iter_edges()],
            edge_weights=rng.integers(1, 50, instance.num_edges).astype(float),
            name="weighted",
        )
        cfg = HyperPRAWConfig(record_history=False)
        ref = BufferedRestreamer(cfg, buffer_size=40).partition(weighted, 4)
        sharded = ShardedStreamer(
            BufferedRestreamer(cfg, buffer_size=40), workers=1
        ).partition(weighted, 4)
        assert np.array_equal(ref.assignment, sharded.assignment)

    def test_workers1_matches_onepass_exactly(self, instance):
        from repro.streaming import ShardedStreamer

        ref = OnePassStreamer(chunk_size=64).partition(instance, 4)
        sharded = ShardedStreamer(
            OnePassStreamer(chunk_size=64), workers=1, chunk_size=64
        ).partition(instance, 4)
        assert np.array_equal(ref.assignment, sharded.assignment)

    def test_multiworker_quality_and_balance(self, mesh_instance):
        from repro.streaming import ShardedStreamer

        p = 4
        C = uniform_cost_matrix(p)
        cfg = HyperPRAWConfig(record_history=False, max_iterations=40)
        base = lambda: BufferedRestreamer(
            cfg, buffer_size=mesh_instance.num_vertices // 4
        )
        single = ShardedStreamer(base(), workers=1, chunk_size=64).partition(
            mesh_instance, p
        )
        multi = ShardedStreamer(base(), workers=2, chunk_size=64).partition(
            mesh_instance, p
        )
        q1 = evaluate_partition(mesh_instance, single.assignment, p, C)
        q2 = evaluate_partition(mesh_instance, multi.assignment, p, C)
        assert (multi.assignment >= 0).all()
        assert multi.metadata["shards"] == 2
        assert multi.metadata["boundary_edges"] > 0
        assert q2.imbalance <= 1.25 + 1e-9
        # acceptance: multi-worker cut within 5% of single-worker
        assert q2.hyperedge_cut <= q1.hyperedge_cut * 1.05

    def test_multiworker_deterministic_for_fixed_seed(self, instance):
        from repro.streaming import ShardedStreamer

        cfg = HyperPRAWConfig(record_history=False)
        runs = [
            ShardedStreamer(
                BufferedRestreamer(cfg, buffer_size=60), workers=2, chunk_size=32
            )
            .partition(instance, 4, seed=11)
            .assignment
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1])

    def test_workers_knob_on_partitioners_and_config(self, instance):
        """workers surfaces through ctor args and HyperPRAWConfig."""
        # chunk_size=32 gives the instance several chunks, so workers=2
        # really shards (one chunk would clamp to one shard).
        r = BufferedRestreamer(
            HyperPRAWConfig(record_history=False), buffer_size=60,
            chunk_size=32, workers=2,
        ).partition(instance, 4)
        assert r.algorithm == "stream-sharded"
        assert r.metadata["workers"] == 2
        assert r.metadata["shards"] == 2
        r = BufferedRestreamer(
            HyperPRAWConfig(record_history=False, workers=2), buffer_size=60,
            chunk_size=32,
        ).partition(instance, 4)
        assert r.algorithm == "stream-sharded"
        assert r.metadata["shards"] == 2
        r = OnePassStreamer(workers=2, chunk_size=32).partition(instance, 4)
        assert r.algorithm == "stream-sharded"
        assert r.metadata["base_algorithm"] == "stream-onepass"
        assert r.metadata["shards"] == 2

    def test_sharded_from_disk(self, instance, tmp_path):
        from repro.streaming import ShardedStreamer

        path = tmp_path / "h.hgr"
        write_hmetis(instance, path)
        cfg = HyperPRAWConfig(record_history=False, max_iterations=20)
        with stream_hmetis(path, chunk_size=32) as stream:
            r = ShardedStreamer(
                BufferedRestreamer(cfg, buffer_size=50), workers=3
            ).partition_stream(stream, 4)
        assert (r.assignment >= 0).all()
        assert r.metadata["shards"] == 3

    def test_boundary_budget_ending_outside_tolerance_restores_best(self):
        """Boundary pass 5 is within tolerance and the best; pass 6 leaves
        tolerance and exhausts the budget.  The rounds must move back to
        pass 5, exactly what a five-pass budget ends on."""
        from repro.core.metrics import imbalance
        from repro.streaming import ShardedStreamer

        hg = load_instance("2cubes_sphere", scale=0.1, seed=1)
        cfg = HyperPRAWConfig(
            refinement_factor=0.01, record_history=False, max_iterations=20
        )

        def run(budget):
            return ShardedStreamer(
                BufferedRestreamer(cfg), workers=2, boundary_max_iterations=budget
            ).partition_stream(HypergraphChunkStream(hg, 64), 8, seed=0)

        six, five = run(6), run(5)
        assert six.metadata["boundary_iterations"] == 6
        assert six.metadata["imbalance"] <= cfg.imbalance_tolerance
        assert imbalance(hg, six.assignment, 8) <= cfg.imbalance_tolerance
        assert np.array_equal(six.assignment, five.assignment)

    def test_rejects_bad_params(self):
        from repro.streaming import ShardedStreamer
        from repro.partitioning.simple import RandomPartitioner

        with pytest.raises(ValueError, match="workers"):
            ShardedStreamer(workers=0)
        with pytest.raises(ValueError, match="workers"):
            OnePassStreamer(workers=0)
        with pytest.raises(ValueError, match="workers"):
            HyperPRAWConfig(workers=0)
        with pytest.raises(TypeError, match="sharding contract"):
            ShardedStreamer(RandomPartitioner())


class TestBenchScenario:
    def test_compare_streaming_report(self, instance):
        from repro.bench.streaming import compare_streaming

        report = compare_streaming(
            instance,
            4,
            chunk_size=64,
            buffer_fractions=(0.25, 1.0),
            max_iterations=30,
        )
        # anchor + chunked anchor + onepass + 2 buffered + 2 chunked-buffered
        assert len(report.records) == 7
        # full-buffer restreaming must match the anchor exactly
        assert report.gap("stream-buffered (1|V|)") == pytest.approx(0.0)
        # ... and full-buffer *chunked* restreaming must match the
        # chunked in-memory row exactly (chunk scores freeze at block
        # start, so buffering the whole window changes nothing)
        assert (
            report.record("stream-buffered-chunk (1|V|)").quality.pc_cost
            == report.record("hyperpraw (chunk=64)").quality.pc_cost
        )
        # acceptance: streamed gap <= 25% on the synthetic suite
        assert report.gap("stream-onepass") <= 0.25
        assert report.gap("stream-buffered (0.25|V|)") <= 0.25
        rendered = report.render()
        assert "streamed vs in-memory" in rendered
        assert "stream-onepass" in rendered
        assert "stream-buffered-chunk" in rendered

    def test_cli_stream_command(self, capsys):
        from repro.experiments.cli import main

        rc = main(
            [
                "stream",
                "--nodes",
                "1",
                "--instances",
                "sparsine",
                "--scale",
                "0.1",
                "--chunk-size",
                "32",
                "--buffer-fractions",
                "1.0",
                "--max-iterations",
                "20",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "streamed vs in-memory" in out
        assert "stream-buffered" in out

    def test_cli_stream_sharded_ladder(self, capsys):
        """``--workers 2`` adds the worker-scaling table to the ladder."""
        from repro.experiments.cli import main

        rc = main(
            [
                "stream",
                "--nodes",
                "1",
                "--instances",
                "sparsine",
                "--scale",
                "0.1",
                "--workers",
                "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "streamed vs in-memory" in out
        assert "sharded streaming scaling" in out
        assert "payload_B" in out
        assert "vs_full" in out

    def test_cli_family_run_reads_every_knob(self, capsys):
        """Regression: the suite-instance family run was built from the
        invariant-test factory, which dropped ``--max-tracked-edges``
        (and ``--kernel``, ``--chunk-size``, ``--shard-payload``,
        ``--shard-by``) and printed no presence-table rows."""
        from repro.experiments.cli import main

        rc = main(
            [
                "stream", "--nodes", "1", "--instances", "sparsine",
                "--scale", "0.1", "--partitioner", "minmax",
                "--max-tracked-edges", "40",
            ]
        )
        assert rc == 0
        rows = {
            key.strip(): value.strip().replace(",", "")
            for key, value in (
                line.split(" : ", 1)
                for line in capsys.readouterr().out.splitlines()
                if " : " in line
            )
        }
        assert int(rows["peak tracked edges"]) <= 40
        assert int(rows["evictions"]) > 0

    def test_cli_stream_file_input(self, capsys, tmp_path, instance):
        from repro.experiments.cli import main

        path = tmp_path / "inst.hgr"
        write_hmetis(instance, path)
        rc = main(
            [
                "stream",
                "--nodes",
                "1",
                "--stream-input",
                str(path),
                "--chunk-size",
                "64",
                "--max-iterations",
                "10",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "stream-onepass" in out
        assert "peak resident pins" in out
