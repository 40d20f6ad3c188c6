"""Property/invariant suite pinning the partitioner registry.

Randomised hypergraphs (three generator families, seeded) x **every
family registered in** :data:`repro.partitioning.families.PARTITIONERS`
(plus the non-registry baselines HyperPRAW and FENNEL, and the FM-polished
wrapper) x worker counts {1, 2, 4}, asserting the invariants every
refactor of the engine or parallel layer must preserve:

(a) every vertex lands in a valid part;
(b) the partitioner's balance guarantee holds (hard cap for the
    single-pass streamers, schedule tolerance for the restreamers);
(c) same seed => identical assignment (full determinism, forked or
    sequential);
(d) sharded merges with boundary-only payloads equal merges with
    full-table payloads, assignment for assignment — shipping less must
    never change the result.

The matrix is *introspected* from the registry, not hand-listed: a newly
registered family is exercised automatically, and
``TestRegistryCompleteness`` fails if a registered name somehow dodges
the matrix or the service/OpenAPI surface drifts from the registry.

Plus the golden-hash regression extension: sharded-v2 ``workers=1``
stays assignment-identical to the unsharded partitioner for both the
Eq. 1 and FENNEL scorers, via text *and* chunk-store sources.

All temp artifacts live under per-test ``tmp_path`` fixtures — no
shared module-level store paths — so the suite stays ``pytest -n auto``
safe.
"""

import hashlib
import warnings

import numpy as np
import pytest

from repro.core import HyperPRAW, HyperPRAWConfig
from repro.engine import shard_ranges, shard_ranges_by_pins
from repro.hypergraph.generators import (
    mesh_matrix_hypergraph,
    powerlaw_hypergraph,
    random_uniform_hypergraph,
)
from repro.hypergraph.io import write_hmetis
from repro.partitioning.families import (
    PARTITIONERS as FAMILY_REGISTRY,
    PolishedStreamer,
    RefineConfig,
    family_names,
)
from repro.streaming import (
    BufferedRestreamer,
    OnePassStreamer,
    ShardedStreamer,
    open_store,
    stream_hmetis,
)

P = 4
WORKER_COUNTS = (1, 2, 4)


def _digest(assignment: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(assignment, dtype=np.int64).tobytes()
    ).hexdigest()[:16]


def _instance(family: str):
    """Seeded random instances — one per structural family."""
    if family == "uniform":
        return random_uniform_hypergraph(240, 300, 4.0, seed=1, name="inv-uniform")
    if family == "powerlaw":
        return powerlaw_hypergraph(300, 360, 3.2, seed=2, name="inv-powerlaw")
    return mesh_matrix_hypergraph(320, 6.0, seed=3, name="inv-mesh")


FAMILIES = ("uniform", "powerlaw", "mesh")


@pytest.fixture(scope="module", params=FAMILIES)
def instance(request):
    return _instance(request.param)


def _cfg():
    return HyperPRAWConfig(record_history=False, max_iterations=40)


def _partitioners(hg):
    """name -> (factory, hard_imbalance_bound): the whole registry at
    every worker count, plus the non-registry baselines.

    Each :class:`~repro.partitioning.families.FamilySpec` carries its own
    default-configuration factory (``make``) and hard imbalance bound
    (``bound``), so registering a new family automatically enrolls it
    here — ``TestRegistryCompleteness`` pins that property.
    """
    entries = {
        "hyperpraw": (lambda: HyperPRAW(_cfg()), 1.1),
        "fennel": (
            lambda: OnePassStreamer(scorer="fennel", alpha="fennel"),
            1.2,
        ),
    }
    for name, spec in FAMILY_REGISTRY.items():
        for w in WORKER_COUNTS:
            entries[f"{name}-w{w}"] = (
                lambda spec=spec, w=w: spec.make(hg, w),
                spec.bound(w),
            )
    # The FM polish is attachable to any family; pin it on the onepass
    # base at every refine worker count.  The polish may not worsen the
    # base's balance guarantee (moves are cap-checked live).
    onepass = FAMILY_REGISTRY["onepass"]
    for w in WORKER_COUNTS:
        entries[f"onepass+fm-w{w}"] = (
            lambda w=w: PolishedStreamer(
                onepass.make(hg, 1), refine=RefineConfig(workers=w)
            ),
            onepass.bound(1),
        )
    return entries


class TestCoreInvariants:
    """(a) valid parts, (b) balance, (c) seed determinism — every family."""

    def test_valid_parts_balance_and_determinism(self, instance):
        for name, (make, imb_bound) in _partitioners(instance).items():
            first = make().partition(instance, P, seed=7)
            again = make().partition(instance, P, seed=7)
            # (a) every vertex assigned to a valid part
            assert (first.assignment >= 0).all(), name
            assert (first.assignment < P).all(), name
            assert first.assignment.size == instance.num_vertices, name
            # (b) the balance guarantee holds
            loads = np.bincount(first.assignment, minlength=P).astype(float)
            imbalance = loads.max() / loads.mean()
            assert imbalance <= imb_bound + 1e-9, (name, imbalance)
            # (c) same seed => identical assignment
            assert np.array_equal(first.assignment, again.assignment), name
            # a sharded registry row really shards
            family, _, workers = name.rpartition("-w")
            if family in FAMILY_REGISTRY and int(workers) > 1:
                assert first.metadata["shards"] > 1, name

    def test_different_worker_counts_all_valid(self, instance):
        """The shard structure changes results, never their validity —
        and every worker count stays internally deterministic."""
        for w in WORKER_COUNTS:
            runs = [
                OnePassStreamer(chunk_size=32, workers=w).partition(
                    instance, P, seed=5
                )
                for _ in range(2)
            ]
            assert (runs[0].assignment >= 0).all()
            if w > 1:  # w=1 runs the plain unsharded streamer
                assert runs[0].metadata["workers"] == w
            assert _digest(runs[0].assignment) == _digest(runs[1].assignment)

    def test_forked_equals_sequential_every_family(self, monkeypatch):
        """Worker fan-out may never change the answer: for every
        registered family, workers=2 with fork available is bit-identical
        to the same run with fork forced off (sequential fallback)."""
        import repro.engine.parallel as parallel

        hg = _instance("uniform")
        for name, spec in FAMILY_REGISTRY.items():
            forked = spec.make(hg, 2).partition(hg, P, seed=7)
            with monkeypatch.context() as m:
                m.setattr(parallel, "fork_available", lambda: False)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    sequential = spec.make(hg, 2).partition(hg, P, seed=7)
            assert sequential.metadata.get("parallel_mode", "sequential") == (
                "sequential"
            ), name
            assert np.array_equal(forked.assignment, sequential.assignment), name


#: The metadata block :func:`repro.engine.parallel.stitch_shards` gives
#: every family, sharded or not.
SHARED_METADATA = (
    "workers",
    "shards",
    "parallel_mode",
    "kernel_mode",
    "pass_seconds",
    "peak_tracked_edges",
    "evictions",
    "imbalance",
)


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("name", family_names())
def test_every_family_reports_the_shared_metadata(name, workers):
    import repro.engine.parallel as parallel

    hg = _instance("uniform")
    result = FAMILY_REGISTRY[name].make(hg, workers).partition(hg, P, seed=7)
    md = result.metadata
    missing = [key for key in SHARED_METADATA if key not in md]
    assert not missing, (name, missing)
    assert md["workers"] == workers
    assert md["shards"] == workers
    forked = workers > 1 and parallel.fork_available()
    assert md["parallel_mode"] == ("forked" if forked else "sequential")
    assert md["kernel_mode"] in ("python", "njit")
    assert md["pass_seconds"] >= 0.0
    loads = np.bincount(
        result.assignment, weights=hg.vertex_weights, minlength=P
    )
    assert md["imbalance"] == pytest.approx(loads.max() / loads.mean())


class TestRegistryCompleteness:
    """A registered family cannot dodge the invariants, and the service
    surface cannot drift from the registry."""

    def test_every_registered_family_in_matrix(self):
        hg = _instance("uniform")
        matrix = set(_partitioners(hg))
        missing = [
            name
            for name in family_names()
            if not all(f"{name}-w{w}" in matrix for w in WORKER_COUNTS)
        ]
        assert not missing, (
            f"registered families missing from the invariant matrix: "
            f"{missing} — _partitioners() must enroll every "
            f"PARTITIONERS entry at all of {WORKER_COUNTS}"
        )

    def test_registry_specs_are_complete(self):
        for name, spec in FAMILY_REGISTRY.items():
            assert spec.name == name
            assert spec.summary
            assert callable(spec.build) and callable(spec.make)
            assert 1.0 < spec.bound(1) <= spec.bound(2) + 1e-12, name

    def test_service_tracks_registry(self):
        from repro.service.handlers import PARTITIONERS as SERVICE_NAMES
        from repro.service.openapi import openapi_spec

        assert tuple(SERVICE_NAMES) == family_names()
        params = openapi_spec()["paths"]["/v1/partitions"]["post"]["parameters"]
        enum = next(
            p for p in params if p["name"] == "partitioner"
        )["schema"]["enum"]
        assert tuple(enum) == family_names()


class TestPayloadEquivalence:
    """(d) boundary-only payloads == full-table payloads, bit for bit."""

    @pytest.mark.parametrize("workers", (2, 4))
    def test_boundary_equals_full(self, instance, workers):
        buffer = max(1, instance.num_vertices // 4)

        def run(payload):
            return ShardedStreamer(
                BufferedRestreamer(_cfg(), buffer_size=buffer),
                workers=workers,
                chunk_size=32,
                payload=payload,
            ).partition(instance, P, seed=11)

        boundary = run("boundary")
        full = run("full")
        assert np.array_equal(boundary.assignment, full.assignment)
        # shipping less must mean *less*: boundary payload never exceeds
        # what full-table shipping moves on the same run
        assert (
            boundary.metadata["merge_payload_bytes"]
            <= full.metadata["merge_payload_bytes"]
        )
        assert (
            full.metadata["merge_payload_bytes"]
            == full.metadata["merge_full_payload_bytes"]
        )
        assert boundary.metadata["payload"] == "boundary"

    def test_onepass_base_boundary_equals_full(self, instance):
        runs = [
            OnePassStreamer(
                chunk_size=32, workers=2, shard_payload=payload
            ).partition(instance, P, seed=3)
            for payload in ("boundary", "full")
        ]
        assert np.array_equal(runs[0].assignment, runs[1].assignment)

    @pytest.mark.parametrize("workers", (2, 4))
    def test_boundary_equals_full_with_capped_table(self, instance, workers):
        """Eviction regression: a capped LRU table can evict overlaid
        boundary rows mid-round; deltas must come from the actual moves
        (not table rows) or the driver's merged counts corrupt.  Both
        payload modes must stay identical — and deterministic — under
        eviction pressure."""
        def run(payload):
            return ShardedStreamer(
                BufferedRestreamer(
                    _cfg(), buffer_size=64, max_tracked_edges=32
                ),
                workers=workers,
                chunk_size=32,
                payload=payload,
            ).partition(instance, P, seed=11)

        boundary, full = run("boundary"), run("full")
        assert np.array_equal(boundary.assignment, full.assignment)
        assert np.array_equal(boundary.assignment, run("boundary").assignment)
        assert (boundary.assignment >= 0).all()
        assert boundary.metadata["monitored_pc_cost"] >= 0.0
        assert boundary.metadata["evictions"] > 0  # the pressure is real

    def test_forked_equals_sequential_fallback(self, instance, monkeypatch):
        """The fork-less fallback drives the same barrier rounds in shard
        order, so it must be bit-identical to the forked run — and it
        must *announce* itself: a structured RuntimeWarning when
        parallelism was requested but fork is unavailable, plus the
        effective mode in run metadata, so benches can never misreport
        sequential numbers as parallel ones."""
        import repro.engine.parallel as parallel

        def run():
            return ShardedStreamer(
                BufferedRestreamer(_cfg(), buffer_size=64),
                workers=2,
                chunk_size=32,
            ).partition(instance, P, seed=9)

        forked = run()
        assert forked.metadata["parallel_mode"] == (
            "forked" if parallel.fork_available() else "sequential"
        )
        monkeypatch.setattr(parallel, "fork_available", lambda: False)
        with pytest.warns(RuntimeWarning, match="fork.*unavailable"):
            sequential = run()
        assert sequential.metadata["parallel_mode"] == "sequential"
        assert np.array_equal(forked.assignment, sequential.assignment)
        assert (
            forked.metadata["boundary_iterations"]
            == sequential.metadata["boundary_iterations"]
        )


class TestShardedV2Goldens:
    """workers=1 == the unsharded partitioner, for both scorers, via
    text and chunk-store sources (golden-hash regression extension)."""

    def _sources(self, instance, tmp_path, chunk_size=48):
        path = tmp_path / "inv.hgr"
        write_hmetis(instance, path, write_weights=True)
        with stream_hmetis(path, chunk_size=chunk_size) as stream:
            store = stream.save(tmp_path / "inv.chunkstore")
        return path, store

    @pytest.mark.parametrize("scorer", ("eq1", "fennel"))
    def test_onepass_workers1_equality(self, instance, tmp_path, scorer):
        path, store = self._sources(instance, tmp_path)
        make = lambda: OnePassStreamer(scorer=scorer)
        with stream_hmetis(path, chunk_size=48) as text:
            ref = make().partition_stream(text, P)
        for source in (
            stream_hmetis(path, chunk_size=48),
            open_store(store),
        ):
            with source:
                sharded = ShardedStreamer(make(), workers=1).partition_stream(
                    source, P
                )
            assert _digest(sharded.assignment) == _digest(ref.assignment)
            assert sharded.metadata["boundary_edges"] == 0

    def test_buffered_workers1_equality(self, instance, tmp_path):
        path, store = self._sources(instance, tmp_path)
        make = lambda: BufferedRestreamer(_cfg(), buffer_size=64)
        with stream_hmetis(path, chunk_size=48) as text:
            ref = make().partition_stream(text, P)
        for source in (
            stream_hmetis(path, chunk_size=48),
            open_store(store),
        ):
            with source:
                sharded = ShardedStreamer(make(), workers=1).partition_stream(
                    source, P
                )
            assert _digest(sharded.assignment) == _digest(ref.assignment)

    def test_fennel_scorer_differs_from_eq1(self, instance):
        """The scorer knob is live: the two value functions disagree."""
        a = OnePassStreamer(scorer="eq1").partition(instance, P)
        b = OnePassStreamer(scorer="fennel", alpha="fennel").partition(
            instance, P
        )
        assert not np.array_equal(a.assignment, b.assignment)

    def test_boundary_restream_matches_base_scorer(self):
        """A FENNEL-scored base is polished under the FENNEL objective,
        not silently contaminated with Eq. 1 (and vice versa)."""
        from repro.architecture.cost import uniform_cost_matrix
        from repro.engine import FennelScorer, HyperPRAWScorer
        from repro.streaming.sharded import _boundary_scorer

        C, expected = uniform_cost_matrix(P), np.ones(P)
        fennel_profile = OnePassStreamer(
            scorer="fennel", gamma=1.7
        )._shard_profile()
        scorer = _boundary_scorer(C, 2.0, expected, fennel_profile)
        assert isinstance(scorer, FennelScorer)
        assert scorer.gamma == 1.7 and scorer.alpha == 2.0
        for profile in (
            OnePassStreamer()._shard_profile(),
            BufferedRestreamer(_cfg())._shard_profile(),
        ):
            assert isinstance(
                _boundary_scorer(C, 2.0, expected, profile), HyperPRAWScorer
            )


class TestShardRangeEdgeCases:
    """The shard_ranges fixes: pin balancing, clamping, validation."""

    def test_pin_ranges_cover_and_balance(self):
        pins = np.array([100, 100, 100, 100, 5, 5, 5, 5], dtype=np.int64)
        ranges = shard_ranges_by_pins(pins, 2)
        assert ranges[0][0] == 0 and ranges[-1][1] == pins.size
        assert [lo for lo, _ in ranges[1:]] == [hi for _, hi in ranges[:-1]]
        # chunk-count splitting would give (400, 20); the pin cut lands
        # at the boundary nearest the fair share: exactly (200, 220)
        assert ranges == [(0, 2), (2, 8)]
        shard_pins = [int(pins[lo:hi].sum()) for lo, hi in ranges]
        assert max(shard_pins) / (sum(shard_pins) / len(shard_pins)) < 1.1

    def test_pin_ranges_clamp_workers(self):
        assert shard_ranges_by_pins(np.array([3, 3]), 8) == [(0, 1), (1, 2)]
        assert shard_ranges_by_pins(np.array([], dtype=np.int64), 4) == []
        # all-zero pins fall back to the chunk-count split
        assert shard_ranges_by_pins(np.zeros(4, dtype=np.int64), 2) == (
            shard_ranges(4, 2)
        )
        with pytest.raises(ValueError, match="workers"):
            shard_ranges_by_pins(np.array([1]), 0)

    def test_every_shard_nonempty_under_skew(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 20))
            w = int(rng.integers(1, 8))
            pins = rng.integers(0, 1000, n)
            ranges = shard_ranges_by_pins(pins, w)
            assert len(ranges) == min(w, n)
            assert all(hi > lo for lo, hi in ranges)
            assert ranges[0][0] == 0 and ranges[-1][1] == n
            assert [lo for lo, _ in ranges[1:]] == [
                hi for _, hi in ranges[:-1]
            ]

    def test_streamer_clamps_excess_workers(self, instance):
        """Silently, as every family does; the metadata shows the clamp."""
        sharded = ShardedStreamer(
            OnePassStreamer(), workers=64, chunk_size=1024
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = sharded.partition(instance, P)
        assert r.metadata["workers"] == 64
        assert r.metadata["shards"] < r.metadata["workers"]
        assert (r.assignment >= 0).all()

    def test_no_warning_when_workers_fit(self, instance):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ShardedStreamer(
                OnePassStreamer(), workers=2, chunk_size=32
            ).partition(instance, P)

    def test_cli_rejects_nonpositive_workers(self, capsys):
        from repro.experiments.cli import main

        for bad in ("0", "-3", "zero"):
            with pytest.raises(SystemExit) as exc:
                main(["stream", "--workers", bad])
            assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err


class TestPinMetadata:
    """The plumbing the v2 sharding runs on: degrees and chunk pins."""

    def test_state_rows_overlay_roundtrip(self):
        """set_rows overwrites, rows reads back, untracked rows are zero."""
        from repro.streaming import StreamingState

        state = StreamingState(3, expected_loads=np.ones(3))
        edges = np.array([4, 9], dtype=np.int64)
        counts = np.array([[1, 2, 0], [0, 0, 5]], dtype=np.int64)
        state.set_rows(edges, counts)
        assert np.array_equal(state.rows(edges), counts)
        # overwrite, not accumulate
        state.set_rows(edges, counts)
        assert np.array_equal(state.rows(edges), counts)
        assert np.array_equal(
            state.rows(np.array([7], dtype=np.int64)), np.zeros((1, 3))
        )
        # an evicted row reads back as zeros (lower-bound semantics)
        capped = StreamingState(
            2, expected_loads=np.ones(2), max_tracked_edges=1
        )
        capped.set_rows(np.array([0]), np.array([[3, 1]]))
        capped.set_rows(np.array([1]), np.array([[2, 2]]))  # evicts 0
        assert np.array_equal(capped.rows(np.array([0, 1])), [[0, 0], [2, 2]])

    def test_edge_degrees_match_model(self, instance, tmp_path):
        path = tmp_path / "deg.hgr"
        write_hmetis(instance, path, write_weights=True)
        want = np.diff(instance.edge_ptr)
        with stream_hmetis(path, chunk_size=32) as stream:
            assert np.array_equal(stream.edge_degrees, want)
            store = stream.save(tmp_path / "deg.chunkstore")
        replay = open_store(store)
        assert np.array_equal(np.asarray(replay.edge_degrees), want)
        # the counting fallback agrees with the recorded metadata
        replay.edge_degrees = None
        assert np.array_equal(replay.compute_edge_degrees(), want)

    def test_chunk_pins_sum_to_total(self, instance, tmp_path):
        path = tmp_path / "pins.hgr"
        write_hmetis(instance, path, write_weights=True)
        with stream_hmetis(path, chunk_size=32) as stream:
            pins = stream.chunk_pins()
            assert pins is not None and len(pins) == stream.num_chunks
            assert int(pins.sum()) == stream.num_pins
            want = [c.num_pins for c in stream]
            assert pins.tolist() == want
            store = stream.save(tmp_path / "pins.chunkstore")
        replay = open_store(store)
        assert replay.chunk_pins().tolist() == want
