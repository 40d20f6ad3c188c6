"""Command-line front end: ``hyperpraw-repro``.

Regenerates any table/figure of the paper from the terminal::

    hyperpraw-repro table1 --scale 0.5
    hyperpraw-repro figure5 --nodes 4 --scale 0.5 --jobs 1 --iterations 1
    hyperpraw-repro all --scale 0.25

and runs the out-of-core streaming scenario::

    hyperpraw-repro stream                          # suite comparison ladder
    hyperpraw-repro stream --instances sparsine --scale 0.5 --chunk-size 256
    hyperpraw-repro stream --workers 4              # + worker-scaling report
    hyperpraw-repro stream --stream-input big.hgr   # partition a real file
    hyperpraw-repro stream --partitioner minmax --max-tracked-edges 4000
    hyperpraw-repro stream --stream-input big.hgr --cache ~/.hyperpraw-cache
                                                    # replay the binary chunk
                                                    # store on the second run

and converts a text hypergraph into a persistent binary chunk store
(ingest once, restream many — see docs/formats.md)::

    hyperpraw-repro convert --stream-input big.hgr
    hyperpraw-repro convert --stream-input big.mtx --store big.chunkstore

and boots the streaming partition service (upload hypergraphs over
HTTP, poll for assignments — see docs/service.md)::

    hyperpraw-repro serve --port 8080 --cache-dir ~/.hyperpraw-cache
    hyperpraw-repro serve --port 0 --workers 4   # ephemeral port, 4 job workers

and runs distributed partitioning across worker processes over TCP
(see docs/cluster.md)::

    hyperpraw-repro worker --port 7101 --seed 11        # on each host
    hyperpraw-repro cluster --hosts hostA:7101 hostB:7101 \\
        --stream-input big.hgr                          # on the coordinator

Each command accepts only the flags it reads (``hyperpraw-repro
<command> --help`` lists them), after the command name.  The partition
knobs of ``stream`` and ``cluster`` (``--partitioner``, ``--kernel``,
``--max-tracked-edges``, ...) are generated from
:data:`repro.partitioning.families.PARTITION_KNOBS` and validated by
:func:`~repro.partitioning.families.partition_spec`, exactly like the
service's ``POST /v1/partitions`` parameters, and every run builds its
partitioner with :func:`~repro.partitioning.families.build_partitioner`.
The console script is installed by ``pip install -e .`` (see setup.py);
``python -m repro.experiments.cli`` works from a source tree.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from repro.experiments import (
    ExperimentContext,
    ablations,
    figure1,
    figure3,
    figure4,
    figure5,
    figure6,
    table1,
)
from repro.partitioning.families import (
    PARTITION_KNOBS,
    build_partitioner,
    partition_spec,
)
from repro.service import ServiceConfig
from repro.utils.tables import format_kv

__all__ = ["main", "build_parser"]


def _resolved(value: str) -> str:
    """argparse type for path flags: normalise once, at parse time.

    A relative path would otherwise resolve against the CWD at each
    *use* site (``cached_stream`` calls ``store_dir_for`` per open, the
    service resolves its cache at startup, a worker appends to its log
    for its whole life), so a ``convert`` in one directory and a later
    ``stream --cache`` from another would silently talk to different
    stores.  Pinning the absolute path here makes the invocation
    directory the one and only anchor.
    """
    return str(Path(value).expanduser().resolve())


def _positive_int(value: str) -> int:
    """argparse type for ``serve --workers``: an integer >= 1."""
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return parsed


#: Every flag outside the partition knobs, declared once; _COMMANDS
#: gives each command's parent parser the ones that command reads.
_FLAGS = {
    # the simulated world (ExperimentContext)
    "--nodes": dict(
        type=int, default=4, help="simulated ARCHER-like nodes (24 cores each)"
    ),
    "--scale": dict(type=float, help="dataset scale multiplier (default 1.0)"),
    "--instances": dict(nargs="*", help="restrict to these suite instances"),
    "--seed": dict(type=int, default=20190805, help="master seed"),
    "--max-iterations": dict(
        type=int, default=100, help="HyperPRAW restreaming cap"
    ),
    "--jobs": dict(type=int, default=3, help="simulated job allocations"),
    "--iterations": dict(type=int, default=2, help="benchmark iterations per job"),
    "--timesteps": dict(type=int, default=10, help="benchmark timesteps"),
    "--message-bytes": dict(
        type=int, default=1024, help="payload per logical message"
    ),
    "--sim-model": dict(
        choices=("blocking", "overlap", "endpoint"),
        default="blocking",
        help="cluster simulator timing model",
    ),
    # the streamed input
    "--stream-input": dict(
        metavar="PATH",
        help="an hMetis (.hgr/.hmetis) or MatrixMarket (.mtx) file, "
        "partitioned out-of-core",
    ),
    "--chunk-size": dict(type=int, default=512, help="vertices per streamed chunk"),
    "--pin-budget": dict(
        type=int,
        metavar="PINS",
        help="cut streamed chunk boundaries by resident pins instead of "
        "a fixed vertex count (hub-dominated graphs)",
    ),
    "--cache": dict(
        type=_resolved,
        metavar="DIR",
        help="chunk-store cache directory for --stream-input: the first "
        "run converts the file into a persistent binary store, later "
        "runs replay it and skip the text parser entirely",
    ),
    "--buffer-fractions": dict(
        type=float,
        nargs="*",
        help="comparison ladder: BufferedRestreamer windows as fractions "
        "of |V| (default 0.125 0.5 1.0)",
    ),
    "--store": dict(
        type=_resolved,
        metavar="DIR",
        help="output chunk-store directory (default: <input>.chunkstore "
        "next to the input)",
    ),
    # the network, the service and the cluster
    "--host": dict(default="127.0.0.1", help="bind address"),
    "--port": dict(
        type=int,
        default=8080,
        help="TCP port; 0 binds an ephemeral port (serve prints it; "
        "worker logs it in the 'listening' event)",
    ),
    "--psk-file": dict(
        type=_resolved,
        metavar="PATH",
        help="pre-shared key file enabling the mutual HMAC handshake; "
        "worker and cluster must point at the same key "
        "(docs/cluster.md, 'running on untrusted networks')",
    ),
    "--workers": dict(
        type=_positive_int,
        default=ServiceConfig.workers,
        help="size of the async partition job pool",
    ),
    "--cache-dir": dict(
        type=_resolved,
        metavar="DIR",
        help="persistent directory for digest-keyed chunk stores "
        "(default: a private temp directory dropped on exit)",
    ),
    "--pool": dict(
        choices=("auto", "process", "thread"),
        default=ServiceConfig.pool,
        help="partition job execution: on persistent forked worker "
        "processes ('process'), inline on worker threads ('thread'), or 'auto' "
        "(process where fork exists)",
    ),
    "--max-queue-depth": dict(
        type=int,
        metavar="N",
        help="refuse async partition jobs beyond N queued "
        "(429 queue_full + Retry-After); default: unbounded",
    ),
    "--api-key-file": dict(
        metavar="FILE",
        help="require API keys, one per line ('#' comments); merged with "
        "the REPRO_API_KEYS environment variable (comma-separated). "
        "Without either, the service is open",
    ),
    "--rate-limit": dict(
        type=float,
        metavar="RPS",
        help="per-key token-bucket rate limit in requests/second "
        "(429 rate_limited beyond it; needs API keys); default: off",
    ),
    "--rate-burst": dict(
        type=float,
        default=ServiceConfig.rate_burst,
        metavar="N",
        help="token-bucket burst capacity per key",
    ),
    "--store-budget": dict(
        type=int,
        metavar="BYTES",
        help="byte budget for the chunk-store directory; coldest unpinned "
        "stores are LRU-evicted beyond it (evicted digests answer 409 "
        "store_evicted until re-uploaded); default: unbounded",
    ),
    "--log-file": dict(
        type=_resolved,
        metavar="PATH",
        help="append JSONL events here as well as stdout",
    ),
    "--hosts": dict(
        nargs="+",
        required=True,
        metavar="HOST:PORT",
        help="worker endpoints; each drives one shard",
    ),
    "--ship": dict(
        choices=("chunks", "text"),
        default="chunks",
        help="ship decoded chunk frames per shard (default) or broadcast "
        "the raw text for workers to ingest off the socket",
    ),
    "--timeout": dict(
        type=float,
        default=30.0,
        help="per-socket-operation straggler timeout in seconds",
    ),
    "--on-loss": dict(
        choices=("degrade", "fail"),
        default="degrade",
        help="on worker loss, reconnect-or-run-the-shard-locally "
        "(default) or fail loudly",
    ),
    "--no-compress": dict(
        action="store_true",
        help="disable zlib frame compression (v2 sessions compress by "
        "default; v1 peers never compress)",
    ),
    "--no-tailored": dict(
        action="store_true",
        help="broadcast full boundary snapshots instead of shipping each "
        "worker only the rows its shard touches (results are "
        "bit-identical)",
    ),
}

_SIMULATION = ("--timesteps", "--message-bytes", "--sim-model")
_PARTITION_WORLD = (
    "--nodes", "--scale", "--instances", "--seed", "--max-iterations"
)
_INPUT = ("--stream-input", "--chunk-size", "--pin-budget")
_NETWORK = ("--host", "--port")

#: command -> (summary, the flags it reads besides its partition knobs).
_COMMANDS = {
    "table1": ("Table 1: suite statistics", ("--scale", "--instances")),
    "figure1": (
        "Figure 1: architecture-blind benchmark on one job",
        ("--nodes", "--scale", "--seed") + _SIMULATION,
    ),
    "figure3": (
        "Figure 3: HyperPRAW stopping strategies",
        ("--nodes", "--scale", "--seed", "--max-iterations"),
    ),
    "figure4": ("Figure 4: partition quality on the suite", _PARTITION_WORLD),
    "figure5": (
        "Figure 5: application runtime on the suite",
        _PARTITION_WORLD + ("--jobs", "--iterations") + _SIMULATION,
    ),
    "figure6": (
        "Figure 6: traffic against bandwidth on one job",
        ("--nodes", "--scale", "--seed", "--max-iterations") + _SIMULATION,
    ),
    "ablations": ("HyperPRAW ablation sweeps", ("--nodes", "--scale", "--seed")),
    "all": (
        "table1 and figures 1-6",
        _PARTITION_WORLD + ("--jobs", "--iterations") + _SIMULATION,
    ),
    "stream": (
        "out-of-core streaming: the suite comparison ladder, or one "
        "partitioner on suite instances or a file",
        _PARTITION_WORLD + _INPUT + ("--cache", "--buffer-fractions"),
    ),
    "convert": (
        "convert a text hypergraph into a binary chunk store",
        _INPUT + ("--store",),
    ),
    "serve": (
        "boot the streaming partition service",
        _NETWORK + (
            "--workers", "--cache-dir", "--pool", "--max-queue-depth",
            "--api-key-file", "--rate-limit", "--rate-burst", "--store-budget",
        ),
    ),
    "worker": (
        "a cluster shard server",
        _NETWORK + ("--seed", "--psk-file", "--log-file"),
    ),
    "cluster": (
        "distributed partitioning over --hosts workers, one shard of the "
        "--partitioner base (default onepass) per host",
        _PARTITION_WORLD + _INPUT + (
            "--cache", "--psk-file", "--hosts", "--ship", "--timeout",
            "--on-loss", "--no-compress", "--no-tailored",
        ),
    ),
}

#: The partition knobs each command reads; ``--max-iterations`` is the
#: world flag instead.  ``cluster`` runs the two bases a remote worker
#: can rebuild (``_shard_spec``), one shard per host, without polish.
_CLUSTER_BASES = ("onepass", "buffered")
_KNOBS = {
    "stream": tuple(k for k in PARTITION_KNOBS if k != "max_iterations"),
    "cluster": (
        "partitioner", "scorer", "gamma", "kernel", "shard_payload",
        "shard_by", "buffer_fraction", "buffer_size", "max_tracked_edges",
    ),
}

#: Knobs the ``stream`` comparison ladder does not read.
_FAMILY_ONLY = (
    "scorer", "gamma", "buffer_fraction", "buffer_size", "refine",
    "refine_passes",
)


def _parent(flags) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    for flag in flags:
        parent.add_argument(flag, **_FLAGS[flag])
    return parent


def _add_knobs(parser: argparse.ArgumentParser, names, choices: dict) -> None:
    """One flag per partition knob; values stay strings for partition_spec."""
    group = parser.add_argument_group(
        "partition knobs",
        "validated like the service's POST /v1/partitions parameters",
    )
    for name in names:
        knob = PARTITION_KNOBS[name]
        options = choices.get(name) or knob.options()
        kwargs = dict(help=knob.description.format(choices=", ".join(options)))
        if knob.default is not None and name != "partitioner":
            kwargs["help"] += f" (default {knob.default})"
        if knob.kind == "bool":
            kwargs.update(nargs="?", const="1", metavar="{1,0}")
        elif options:
            kwargs["metavar"] = "{%s}" % ",".join(options)
        group.add_argument("--" + name.replace("_", "-"), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperpraw-repro",
        description="Reproduce the tables and figures of the HyperPRAW "
        "paper (ICPP 2019).",
    )
    commands = parser.add_subparsers(
        dest="command", required=True, metavar="command"
    )
    for name, (summary, flags) in _COMMANDS.items():
        sub = commands.add_parser(
            name, help=summary, description=summary, parents=[_parent(flags)]
        )
        sub.set_defaults(parser=sub)
        if name in _KNOBS:
            bases = {"partitioner": _CLUSTER_BASES} if name == "cluster" else {}
            _add_knobs(sub, _KNOBS[name], bases)
    return parser


def context_from_args(args) -> ExperimentContext:
    """The command's world: its world flags over the context defaults."""
    renamed = {"nodes": "num_nodes", "jobs": "num_jobs"}
    fields = {f.name for f in dataclasses.fields(ExperimentContext)}
    world = {renamed.get(flag, flag): value for flag, value in vars(args).items()}
    return ExperimentContext(
        **{k: v for k, v in world.items() if k in fields and v is not None}
    )


def _spec(args, **fixed) -> dict:
    """The validated partition spec from this command's knob flags.

    ``--max-iterations`` (the world flag) fills the ``max_iterations``
    knob; ``fixed`` overrides flags.  A bad value exits 2 with the
    message the service answers with a 400.
    """
    raw = {
        name: getattr(args, name)
        for name in _KNOBS[args.command]
        if getattr(args, name) is not None
    }
    raw["max_iterations"] = str(args.max_iterations)
    raw.update(fixed)
    try:
        return partition_spec(raw)
    except ValueError as exc:
        args.parser.error(str(exc))


def _opener_for(path: Path):
    """The text-ingest constructor matching ``path``'s format."""
    from repro.streaming import stream_hmetis, stream_matrix_market

    return stream_matrix_market if path.suffix.lower() == ".mtx" else stream_hmetis


def _open_streams(ctx: ExperimentContext, args):
    """Yield ``(stream, via)``: the ``--stream-input`` file, or each suite
    instance (default: the streaming stress instance) as a chunk stream.

    ``via`` says whether the text parser ran (``"text ingest"``), the
    file was converted into the ``--cache`` store (``"chunk store
    (converted)"``), a cached store was replayed with the parser skipped
    entirely (``"chunk store (replayed)"``) or the instance is resident
    (``"suite instance"``).
    """
    from repro.hypergraph.suite import STREAMING_INSTANCE, load_instance
    from repro.streaming import HypergraphChunkStream
    from repro.streaming.chunkstore import cached_stream

    kwargs = dict(chunk_size=args.chunk_size, pin_budget=args.pin_budget)
    if args.stream_input:
        if args.instances is not None or args.scale is not None:
            args.parser.error(
                "--instances and --scale pick suite instances; "
                "--stream-input partitions the file as it is"
            )
        path = Path(args.stream_input)
        opener = _opener_for(path)
        if args.cache:
            stream, hit = cached_stream(path, args.cache, opener=opener, **kwargs)
            yield stream, f"chunk store ({'replayed' if hit else 'converted'})"
        else:
            yield opener(path, **kwargs), "text ingest"
        return
    for name in ctx.instances or [STREAMING_INSTANCE]:
        hg = load_instance(name, scale=ctx.scale)
        yield HypergraphChunkStream(hg, **kwargs), "suite instance"


def _run_stream(ctx: ExperimentContext, args) -> str:
    """The ``stream`` command.

    With neither ``--partitioner`` nor ``--stream-input`` it prints the
    streamed-vs-in-memory comparison ladder; otherwise it runs the
    chosen partitioner (default: ``onepass`` and ``buffered``) on the
    suite instances or on the file.
    """
    if args.partitioner is None and args.stream_input is None:
        return _stream_ladder(ctx, args)
    if args.buffer_fractions is not None:
        args.parser.error(
            "--buffer-fractions sizes the comparison ladder's windows; "
            "use --buffer-fraction with --partitioner or --stream-input"
        )
    names = [args.partitioner] if args.partitioner else ["onepass", "buffered"]
    specs = [_spec(args, partitioner=name) for name in names]
    job = ctx.one_job()
    sections = []
    # One open serves every partitioner: streams are re-iterable, and a
    # cached run then hashes/validates the source exactly once.
    for stream, via in _open_streams(ctx, args):
        with stream:
            for spec in specs:
                result = build_partitioner(
                    spec, stream.num_vertices
                ).partition_stream(
                    stream, ctx.num_parts, cost_matrix=job.cost_matrix,
                    seed=ctx.seed,
                )
                sections.append(_stream_summary(ctx, job, stream, via, result))
    return "\n\n".join(sections)


def _stream_summary(ctx: ExperimentContext, job, stream, via, result) -> str:
    """One partition run over a chunk stream, as a ``key : value`` block.

    A suite instance is resident anyway, so its assignment is also
    scored on the whole hypergraph (cut, PC cost, imbalance).
    """
    from repro.core.metrics import evaluate_partition

    md = result.metadata
    rows = {
        "input": via,
        "vertices": stream.num_vertices,
        "hyperedges": stream.num_edges,
        "pins": stream.num_pins,
    }
    hg = getattr(stream, "hg", None)
    if hg is not None:
        quality = evaluate_partition(
            hg, result.assignment, ctx.num_parts, job.cost_matrix
        )
        rows["hyperedge cut"] = quality.hyperedge_cut
        rows["pc cost"] = quality.pc_cost
        rows["imbalance"] = round(quality.imbalance, 4)
    rows.update(
        {
            "peak resident pins": stream.peak_resident_pins,
            "peak tracked edges": md.get("peak_tracked_edges"),
            "evictions": md.get("evictions"),
            "monitored pc cost": md.get(
                "monitored_pc_cost", md.get("final_pc_cost")
            ),
            "kernel mode": md.get("kernel_mode"),
            "kernel seconds": md.get("pass_seconds"),
            "wall time [s]": md.get("wall_time_s"),
        }
    )
    if md.get("refined"):
        rows["refined cut"] = "%s -> %s" % (
            md.get("refine_cut_before"),
            md.get("refine_cut_after"),
        )
        rows["refine moves"] = md.get("refine_moves")
    return format_kv(
        rows,
        title=f"{result.algorithm} — {stream.name} -> {ctx.num_parts} parts",
    )


def _stream_ladder(ctx: ExperimentContext, args) -> str:
    """Streamed-vs-in-memory comparison on suite instances (plus the
    worker-scaling report when ``--workers`` > 1)."""
    from repro.bench.streaming import compare_sharded, compare_streaming
    from repro.hypergraph.suite import STREAMING_INSTANCE, load_instance

    for name in _FAMILY_ONLY:
        if getattr(args, name) is not None:
            args.parser.error(
                f"--{name.replace('_', '-')} needs --partitioner or "
                "--stream-input (the comparison ladder does not read it)"
            )
    spec = _spec(args)
    fractions = (
        (0.125, 0.5, 1.0)
        if args.buffer_fractions is None
        else tuple(args.buffer_fractions)
    )
    job = ctx.one_job()
    common = dict(
        cost_matrix=job.cost_matrix,
        chunk_size=args.chunk_size,
        pin_budget=args.pin_budget,
        max_tracked_edges=spec["max_tracked_edges"],
        max_iterations=ctx.max_iterations,
        kernel=spec["kernel"],
        seed=ctx.seed,
    )
    reports = []
    for name in ctx.instances or [STREAMING_INSTANCE]:
        hg = load_instance(name, scale=ctx.scale)
        reports.append(
            compare_streaming(
                hg, ctx.num_parts, buffer_fractions=fractions, **common
            ).render()
        )
        if spec["workers"] > 1:
            reports.append(
                compare_sharded(
                    hg,
                    ctx.num_parts,
                    workers=(1, spec["workers"]),
                    payload=spec["shard_payload"],
                    shard_by=spec["shard_by"],
                    **common,
                ).render()
            )
    return "\n\n".join(reports)


def _run_convert(args) -> str:
    """The ``convert`` command: text file -> persistent binary chunk store.

    Ingests once through the matching text parser, saves the store, then
    times one memory-mapped replay pass so the printout shows what later
    restreams will cost (see docs/formats.md for the on-disk layout).
    """
    from repro.streaming.chunkstore import open_store

    if not args.stream_input:
        args.parser.error("convert requires --stream-input PATH")
    path = Path(args.stream_input)
    store_dir = (
        Path(args.store)
        if args.store
        else path.with_name(path.name + ".chunkstore")
    )
    opener = _opener_for(path)
    t0 = time.perf_counter()
    with opener(
        path, chunk_size=args.chunk_size, pin_budget=args.pin_budget
    ) as stream:
        t_ingest = time.perf_counter() - t0
        t1 = time.perf_counter()
        stream.save(store_dir)
        t_save = time.perf_counter() - t1
    store = open_store(store_dir)
    t2 = time.perf_counter()
    for chunk in store:
        chunk.vertex_edges.sum()  # fault the mapped pages: a real pass
    t_replay = time.perf_counter() - t2
    data_bytes = int(store.manifest["data_bytes"])
    return format_kv(
        {
            "store": str(store_dir),
            "vertices": store.num_vertices,
            "hyperedges": store.num_edges,
            "pins": store.num_pins,
            "chunks": store.num_chunks,
            "data bytes": data_bytes,
            "source digest": store.source_digest,
            "text ingest [s]": t_ingest,
            "store write [s]": t_save,
            "store replay pass [s]": t_replay,
        },
        title=f"convert — {path.name} -> chunk store v{store.manifest['version']}",
    )


def _run_serve(args) -> int:
    """The ``serve`` command: boot the streaming partition service.

    Blocks until interrupted.  ``--workers`` sizes the async partition
    job pool; per-request sharded streaming rides on the ``workers=``
    query parameter (docs/service.md).
    """
    from repro.service import serve
    from repro.service.admission import keys_from_env, load_key_file

    keys = keys_from_env()
    if args.api_key_file is not None:
        keys = tuple(dict.fromkeys(load_key_file(args.api_key_file) + keys))
    return serve(
        ServiceConfig(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            workers=args.workers,
            pool=args.pool,
            max_queue_depth=args.max_queue_depth,
            api_keys=keys,
            rate_limit=args.rate_limit,
            rate_burst=args.rate_burst,
            store_budget_bytes=args.store_budget,
        )
    )


def _run_worker(args) -> int:
    """The ``worker`` command: a long-lived cluster shard server.

    Blocks until a coordinator sends a ``shutdown`` frame or the process
    is interrupted.  Port 0 binds an ephemeral port (the bound port is
    in the ``listening`` JSONL event on stdout); the handshake
    cross-checks ``--seed`` against the coordinator's (docs/cluster.md).
    """
    from repro.cluster import ClusterWorker
    from repro.cluster.protocol import load_psk

    worker = ClusterWorker(
        args.host,
        args.port,
        seed=args.seed,
        log_path=args.log_file,
        psk=load_psk(args.psk_file) if args.psk_file else None,
    )
    try:
        worker.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def _run_cluster(ctx: ExperimentContext, args) -> str:
    """The ``cluster`` command: distributed partitioning over ``--hosts``.

    Each endpoint drives one shard of the ``--partitioner`` base; loopback
    runs are bit-identical to forked sharding on the same inputs
    (docs/cluster.md).  With ``--stream-input`` the file is partitioned
    out-of-core; otherwise the suite streaming instance (or
    ``--instances``) is used.
    """
    from repro.cluster import DistributedStreamer
    from repro.cluster.protocol import load_psk

    spec = _spec(args)
    if spec["partitioner"] not in _CLUSTER_BASES:
        args.parser.error(
            f"partitioner must be one of {', '.join(_CLUSTER_BASES)}, "
            f"got {spec['partitioner']!r}"
        )
    psk = load_psk(args.psk_file) if args.psk_file else None
    job = ctx.one_job()
    sections = []
    for stream, via in _open_streams(ctx, args):
        with stream:
            streamer = DistributedStreamer(
                build_partitioner(spec, stream.num_vertices),
                hosts=args.hosts,
                ship=args.ship,
                timeout=args.timeout,
                on_loss=args.on_loss,
                chunk_size=args.chunk_size,
                payload=spec["shard_payload"],
                shard_by=spec["shard_by"],
                compress=not args.no_compress,
                tailored=not args.no_tailored,
                psk=psk,
            )
            t0 = time.perf_counter()
            result = streamer.partition_stream(
                stream, ctx.num_parts, cost_matrix=job.cost_matrix,
                seed=ctx.seed,
            )
            wall = time.perf_counter() - t0
            md = result.metadata
            sections.append(
                format_kv(
                    {
                        "input": via,
                        "hosts": " ".join(args.hosts),
                        "ship": args.ship,
                        "vertices": stream.num_vertices,
                        "hyperedges": stream.num_edges,
                        "pins": stream.num_pins,
                        "parallel mode": md.get("parallel_mode"),
                        "cluster wire bytes": md.get("cluster_wire_bytes"),
                        "wire versions": md.get("cluster_wire_versions"),
                        "compressed links": md.get("cluster_compress"),
                        "tailored rows": md.get("tailored_rows"),
                        "degraded shards": md.get("degraded_shards"),
                        "reconnected shards": md.get("reconnected_shards"),
                        "monitored pc cost": md.get(
                            "monitored_pc_cost", md.get("final_pc_cost")
                        ),
                        "wall time [s]": wall,
                    },
                    title=(
                        f"cluster/{spec['partitioner']} — {stream.name} -> "
                        f"{ctx.num_parts} parts"
                    ),
                )
            )
    return "\n\n".join(sections)


def _run_ablations(ctx: ExperimentContext) -> str:
    parts = [
        ablations.refinement_factor_sweep(ctx).render(),
        ablations.alpha_update_sweep(ctx).render(),
        ablations.presence_threshold_sweep(ctx).render(),
        ablations.stream_order_sweep(ctx).render(),
        ablations.alpha_initial_sweep(ctx).render(),
        ablations.profiling_noise_sweep(ctx).render(),
        ablations.tolerance_sweep(ctx).render(),
    ]
    return "\n\n".join(parts)


def main(argv: "list[str] | None" = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "worker":
        return _run_worker(args)
    if getattr(args, "cache", None) and not args.stream_input:
        args.parser.error("--cache needs --stream-input")
    ctx = context_from_args(args)
    runners = {
        "table1": lambda: table1.run(ctx).render(),
        "figure1": lambda: figure1.run(ctx).render(),
        "figure3": lambda: figure3.run(ctx).render(),
        "figure4": lambda: figure4.run(ctx).render(),
        "figure5": lambda: figure5.run(ctx).render(),
        "figure6": lambda: figure6.run(ctx).render(),
        "ablations": lambda: _run_ablations(ctx),
        "stream": lambda: _run_stream(ctx, args),
        "convert": lambda: _run_convert(args),
        "cluster": lambda: _run_cluster(ctx, args),
    }
    if args.command == "all":
        for name in ("table1", "figure1", "figure3", "figure4", "figure5", "figure6"):
            print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
            print(runners[name]())
        return 0
    print(runners[args.command]())
    return 0


if __name__ == "__main__":
    sys.exit(main())
