"""Integration tests: the figure/table drivers end to end (tiny worlds)."""

import numpy as np
import pytest

from repro.experiments import ablations, figure1, figure3, figure4, figure5, figure6, table1
from repro.experiments.cli import build_parser, context_from_args, main
from repro.experiments.common import ExperimentContext, default_partitioners


@pytest.fixture(scope="module")
def tiny_ctx():
    """One node (24 cores), 20%-scale instances, single job/iteration."""
    return ExperimentContext(
        num_nodes=1,
        scale=0.2,
        num_jobs=1,
        iterations=1,
        timesteps=2,
        max_iterations=40,
    )


class TestContext:
    def test_num_parts(self, tiny_ctx):
        assert tiny_ctx.num_parts == 24

    def test_partitioners_roster(self, tiny_ctx):
        roster = tiny_ctx.partitioners()
        assert set(roster) == {"multilevel-rb", "hyperpraw-basic", "hyperpraw-aware"}

    def test_one_job(self, tiny_ctx):
        job = tiny_ctx.one_job()
        assert job.cost_matrix.shape == (24, 24)


class TestTable1:
    def test_runs_and_renders(self, tiny_ctx):
        res = table1.run(tiny_ctx)
        out = res.render()
        assert "Table 1" in out
        assert "sparsine" in out
        assert len(res.stats) == 10


class TestFigure1(object):
    def test_runs_and_renders(self, tiny_ctx):
        res = figure1.run(tiny_ctx)
        out = res.render(max_size=16)
        assert "Figure 1A" in out and "Figure 1B" in out
        assert res.bandwidth_mbs.shape == (24, 24)
        # naive mapping: traffic should not be strongly aligned with bw
        assert res.affinity < 0.5


class TestFigure3:
    def test_refinement_ordering(self, tiny_ctx):
        res = figure3.run(tiny_ctx, instances=("2cubes_sphere", "sparsine"))
        out = res.render()
        assert "refinement 0.95" in out
        for inst in ("2cubes_sphere", "sparsine"):
            costs = res.final_costs[inst]
            # refinement must not be worse than stopping at tolerance
            assert costs["refinement-0.95"] <= costs["no-refinement"] + 1e-9


class TestFigure4:
    def test_runs(self, tiny_ctx):
        ctx = ExperimentContext(
            num_nodes=1,
            scale=0.2,
            num_jobs=1,
            iterations=1,
            timesteps=2,
            max_iterations=40,
            instances=["sparsine", "sat14_itox_vc1130_dual"],
        )
        res = figure4.run(ctx)
        out = res.render()
        assert "Figure 4A" in out and "Figure 4C" in out
        for metric in ("hyperedge_cut", "soed", "pc_cost"):
            for inst in res.instances:
                for algo in res.algorithms:
                    assert res.values[metric][(inst, algo)] >= 0


class TestFigure5:
    def test_runs_and_aggregates(self):
        ctx = ExperimentContext(
            num_nodes=1,
            scale=0.2,
            num_jobs=1,
            iterations=2,
            timesteps=2,
            max_iterations=40,
            instances=["sparsine", "2cubes_sphere"],
        )
        res = figure5.run(ctx)
        assert len(res.records) == 2 * 3 * 1 * 2  # instances x algos x jobs x iters
        out = res.render()
        assert "Figure 5" in out and "speedup" in out
        lo, hi = res.aware_speedup_range()
        assert lo <= hi


class TestFigure6:
    def test_runs_and_alignment_metrics(self, tiny_ctx):
        res = figure6.run(tiny_ctx, instance="sparsine")
        out = res.render(max_size=12)
        assert "Figure 6A" in out and "6D" in out
        assert set(res.affinities) == {
            "multilevel-rb",
            "hyperpraw-basic",
            "hyperpraw-aware",
        }


class TestAblations:
    def test_refinement_factor_sweep(self, tiny_ctx):
        res = ablations.refinement_factor_sweep(
            tiny_ctx, instance="sparsine", factors=(0.95, 1.0)
        )
        assert set(res.values) == {0.95, 1.0}
        assert "ablation" in res.render()
        assert res.best() in (0.95, 1.0)

    def test_presence_threshold_sweep(self, tiny_ctx):
        res = ablations.presence_threshold_sweep(tiny_ctx, instance="sparsine")
        assert set(res.values) == {1, 2}

    def test_profiling_noise_sweep(self, tiny_ctx):
        res = ablations.profiling_noise_sweep(
            tiny_ctx, instance="sparsine", noises=(0.0, 0.4)
        )
        assert res.values[0.0] > 0


#: The flags each command reads (and so the only ones it accepts).
_WORLD = {"--nodes", "--scale", "--instances", "--seed", "--max-iterations"}
_SIM = {"--timesteps", "--message-bytes", "--sim-model"}
_INPUT = {"--stream-input", "--chunk-size", "--pin-budget"}
_CLUSTER_KNOBS = {
    "--partitioner", "--scorer", "--gamma", "--kernel", "--shard-payload",
    "--shard-by", "--buffer-fraction", "--buffer-size", "--max-tracked-edges",
}
_COMMAND_FLAGS = {
    "table1": {"--scale", "--instances"},
    "figure1": {"--nodes", "--scale", "--seed"} | _SIM,
    "figure3": {"--nodes", "--scale", "--seed", "--max-iterations"},
    "figure4": _WORLD,
    "figure5": _WORLD | {"--jobs", "--iterations"} | _SIM,
    "figure6": {"--nodes", "--scale", "--seed", "--max-iterations"} | _SIM,
    "ablations": {"--nodes", "--scale", "--seed"},
    "all": _WORLD | {"--jobs", "--iterations"} | _SIM,
    "stream": _WORLD | _INPUT | _CLUSTER_KNOBS | {
        "--cache", "--buffer-fractions", "--workers", "--refine",
        "--refine-passes",
    },
    "convert": _INPUT | {"--store"},
    "serve": {
        "--host", "--port", "--workers", "--cache-dir", "--pool",
        "--max-queue-depth", "--api-key-file", "--rate-limit",
        "--rate-burst", "--store-budget",
    },
    "worker": {"--host", "--port", "--seed", "--psk-file", "--log-file"},
    "cluster": _WORLD | _INPUT | _CLUSTER_KNOBS | {
        "--cache", "--psk-file", "--hosts", "--ship", "--timeout",
        "--on-loss", "--no-compress", "--no-tailored",
    },
}


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"
        assert context_from_args(args).scale == 1.0
        assert build_parser().parse_args(["figure5"]).nodes == 4

    def test_each_command_accepts_only_the_flags_it_reads(self):
        import argparse

        parser = build_parser()
        commands = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ).choices
        assert set(commands) == set(_COMMAND_FLAGS)
        for name, sub in commands.items():
            accepted = {
                opt for action in sub._actions for opt in action.option_strings
            } - {"-h", "--help"}
            assert accepted == _COMMAND_FLAGS[name], name

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--hosts", "a:1"],
            ["worker", "--refine"],
            ["serve", "--max-tracked-edges", "5"],
            ["--scale", "0.5", "table1"],
        ],
    )
    def test_flags_a_command_does_not_read_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_knobs_the_ladder_does_not_read_exit_2(self, capsys):
        for argv in (
            ["stream", "--refine"],
            ["stream", "--partitioner", "minmax", "--buffer-fractions", "0.5"],
            ["stream", "--cache", "somewhere"],
            ["stream", "--stream-input", "g.hgr", "--scale", "0.5"],
            ["cluster", "--hosts", "a:1", "--partitioner", "hype"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "--refine needs --partitioner or --stream-input" in err
        assert "partitioner must be one of onepass, buffered, got 'hype'" in err

    def test_main_table1(self, capsys):
        rc = main(["table1", "--scale", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_main_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["figure9"])


class TestCacheDirNormalisation:
    """Regression: relative ``--cache``/``--store``/``--cache-dir`` must be
    pinned to the invocation directory at *parse* time.

    Before the fix, ``store_dir_for`` resolved the cache path at each
    call site, so a ``convert`` in one directory and a later ``stream
    --cache`` (or anything that chdirs between parse and use) silently
    read and wrote different stores.
    """

    def _parse(self, argv):
        return build_parser().parse_args(argv)

    def test_relative_cache_resolves_at_parse_time(self, tmp_path, monkeypatch):
        invocation_dir = tmp_path / "here"
        elsewhere = tmp_path / "elsewhere"
        invocation_dir.mkdir()
        elsewhere.mkdir()

        monkeypatch.chdir(invocation_dir)
        args = self._parse(["stream", "--cache", "my-cache"])
        assert args.cache == str(invocation_dir / "my-cache")

        # A chdir between parse and use (the old bug's trigger) must not
        # move the store: the parsed path is already absolute.
        monkeypatch.chdir(elsewhere)
        from repro.streaming.chunkstore import store_dir_for

        pinned = store_dir_for("g.hgr", args.cache)
        assert str(pinned).startswith(str(invocation_dir / "my-cache"))

    def test_convert_then_stream_share_one_store(
        self, tiny_hypergraph, tmp_path, monkeypatch
    ):
        from repro.hypergraph.io import write_hmetis
        from repro.streaming import stream_hmetis
        from repro.streaming.chunkstore import cached_stream

        workdir = tmp_path / "work"
        otherdir = tmp_path / "other"
        workdir.mkdir()
        otherdir.mkdir()
        hgr = workdir / "tiny.hgr"
        write_hmetis(tiny_hypergraph, hgr)

        monkeypatch.chdir(workdir)
        cache = self._parse(["stream", "--cache", "cache"]).cache
        stream, hit = cached_stream(hgr, cache, opener=stream_hmetis)
        stream.close()
        assert hit is False

        monkeypatch.chdir(otherdir)
        cache2 = self._parse(
            ["stream", "--cache", str(workdir / "cache")]
        ).cache
        stream, hit = cached_stream(hgr, cache2, opener=stream_hmetis)
        stream.close()
        assert hit is True, "same absolute cache dir must replay the store"

    def test_cache_dir_and_store_also_normalised(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = self._parse(["serve", "--cache-dir", "svc-cache"])
        assert args.cache_dir == str(tmp_path / "svc-cache")
        args = self._parse(
            ["convert", "--stream-input", "x.hgr", "--store", "out.chunkstore"]
        )
        assert args.store == str(tmp_path / "out.chunkstore")
