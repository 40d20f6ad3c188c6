"""Record and verify the committed ``BENCH_*.json`` baselines.

The four committed baselines pin the paper's Section 5 quality numbers
(cut, PC cost, imbalance) together with a digest of every assignment,
so they double as determinism contracts.  Each kind is one :class:`Kind`
spec: a schema name and version, the settings recorded in the file's
header, the function that runs them, and the row tables (key, exact and
timed fields).  This module owns the policy for all four:

* ``--diff-against`` reads the kind from the file's ``schema``, reruns
  the settings stored in the file's header on the file's own rows and
  compares.  A wrong schema raises.  A wrong version fails.  An exact
  field that moved fails and names the row, and so does a rerun row
  the baseline lacks.  A timed field beyond 1.5x only warns, because CI
  boxes are not benchmark boxes.  Baseline rows not rerun are ignored.
* ``--bench-out`` writes ``{schema, version, header..., tables...}``.
  It refuses when anything failed, and merges by key into an existing
  file of the same schema, version and header.

Usage::

    # record a kind (streaming, families or service)
    python -m repro.bench.baseline streaming --bench-out BENCH_STREAMING.json

    # verify a rerun reproduces a committed baseline
    python -m repro.bench.baseline --diff-against BENCH_STREAMING.json

    # the service kind can also require the process pool to win
    python -m repro.bench.baseline --diff-against BENCH_SERVICE.json \\
        --assert-speedup 1.3

``BENCH_CLUSTER.json`` is recorded over real sockets by
``scripts/run_experiments.py``, which calls :func:`diff` and
:func:`write` with :data:`CLUSTER`.  Diffing it here reruns every cell
through forked ``ShardedStreamer`` sharding, which the loopback
contract makes bit-identical to the cluster.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

SEED = 20190805


@dataclass(frozen=True)
class Table:
    """One list of rows in a baseline and how it is diffed."""

    path: tuple  # keys from the file's top level down to the row list
    key: tuple  # fields that identify a row
    exact: tuple  # fields a rerun must reproduce exactly
    timed: tuple = ()  # measured seconds: drift beyond 1.5x only warns

    def rows(self, payload: dict) -> list:
        for name in self.path:
            payload = payload[name]
        return payload

    def row_key(self, row: dict) -> tuple:
        return tuple(row[field] for field in self.key)


@dataclass(frozen=True)
class Kind:
    """One baseline contract.

    ``run(settings, rows)`` reruns ``settings`` (the header's values) on
    the cells of ``rows`` (rows of the first table; ``None`` runs the
    default matrix) and returns the file's tables.  ``check`` adds the
    failures a rerun can show on its own, without a baseline.
    """

    name: str
    schema: str
    version: int
    header: dict
    run: Callable
    tables: tuple
    regenerate: str
    check: Callable = lambda fresh: []


def contents(spec: Kind, settings: dict, fresh: dict) -> dict:
    """The file contents: schema, version, header, then the tables."""
    return {"schema": spec.schema, "version": spec.version, **settings, **fresh}


def load(path) -> "tuple[Kind, dict]":
    """Read a baseline and pick its kind from its ``schema``."""
    baseline = json.loads(Path(path).read_text())
    for spec in KINDS.values():
        if spec.schema == baseline.get("schema"):
            return spec, baseline
    raise ValueError(f"{path}: unknown baseline schema {baseline.get('schema')!r}")


def rerun(spec: Kind, baseline: dict, select=None) -> dict:
    """Rerun the baseline's header settings on its rows (those ``select`` keeps)."""
    rows = spec.tables[0].rows(baseline)
    if select is not None:
        rows = [row for row in rows if select(row)]
    return spec.run({field: baseline[field] for field in spec.header}, rows)


def _stale(spec: Kind, baseline: dict) -> "str | None":
    """Raise on another kind's file; say why a file of this kind is stale."""
    if baseline.get("schema") != spec.schema:
        raise ValueError(
            f"not a {spec.schema} baseline: schema {baseline.get('schema')!r}"
        )
    if baseline.get("version") != spec.version:
        return f"baseline version {baseline.get('version')!r} != {spec.version}"
    return None


def diff(spec: Kind, baseline: dict, fresh: dict) -> "list[str]":
    """Failures of a rerun against a baseline; timed drift only warns."""
    stale = _stale(spec, baseline)
    if stale:
        return [stale]
    failures = []
    for table in spec.tables:
        base_rows = {table.row_key(row): row for row in table.rows(baseline)}
        for row in table.rows(fresh):
            key = table.row_key(row)
            base = base_rows.get(key)
            if base is None:
                failures.append(f"{key}: rerun row missing from the baseline")
                continue
            failures += [
                f"{key}: {field} {row[field]!r} != baseline {base[field]!r}"
                for field in table.exact
                if row[field] != base[field]
            ]
            for field in table.timed:
                if base[field] and row[field] > 1.5 * base[field]:
                    warnings.warn(
                        f"{key}: {field} {row[field]:.3f}s > 1.5x baseline "
                        f"{base[field]:.3f}s",
                        RuntimeWarning,
                        stacklevel=2,
                    )
    return failures + spec.check(fresh)


def write(path, spec: Kind, new: dict, failures) -> "str | None":
    """Write ``new`` to ``path`` unless anything failed.

    A file already at ``path`` with the same schema, version and header
    keeps its rows: rerun rows replace theirs in place and new rows are
    appended.  Returns why nothing was written, or ``None``.
    """
    path = Path(path)
    if failures:
        return f"{path} not written: the run failed"
    if path.exists():
        old = json.loads(path.read_text())
        if _stale(spec, old) is None:
            moved = {f: old.get(f) for f in spec.header if old.get(f) != new[f]}
            if moved:
                return (
                    f"{path} not written: it was recorded with {moved}; "
                    f"remove it to start a new baseline"
                )
            for table in spec.tables:
                fresh = {table.row_key(row): row for row in table.rows(new)}
                merged = [fresh.pop(table.row_key(r), r) for r in table.rows(old)]
                rows = table.rows(new)
                rows[:] = merged + [r for r in rows if table.row_key(r) in fresh]
    path.write_text(json.dumps(new, indent=2) + "\n")
    return None


# -- the four kinds' run functions ------------------------------------------


def _instances(rows, default) -> list:
    if rows is None:
        return list(default)
    return list(dict.fromkeys(row["instance"] for row in rows))


def _run_contenders(
    s: dict, rows, *, compare: str, default: tuple, memory: bool
) -> dict:
    """One contender table per instance, from ``repro.bench.streaming``'s
    ``compare``; every header setting but ``scale`` and ``num_parts`` is
    passed through as a keyword.  ``memory`` adds the resident-pin and
    tracked-edge columns, and polished rows add their ``refine_*`` stats."""
    from repro.bench import streaming
    from repro.hypergraph.suite import load_instance

    knobs = {k: v for k, v in s.items() if k not in ("scale", "num_parts")}
    records = []
    for instance in _instances(rows, default):
        report = getattr(streaming, compare)(
            load_instance(instance, scale=s["scale"]), s["num_parts"], **knobs
        )
        print(f"[{instance}]\n{report.render()}")
        for r in report.records:
            rec = {
                "instance": instance,
                "algorithm": r.label,
                "wall_s": round(r.wall_s, 4),
                "cut": float(r.quality.hyperedge_cut),
                "pc_cost": round(float(r.quality.pc_cost), 6),
                "imbalance": round(float(r.quality.imbalance), 6),
            }
            if memory:
                rec["peak_resident_pins"] = r.peak_resident_pins
                rec["peak_tracked_edges"] = r.peak_tracked_edges
            rec["kernel_mode"] = r.kernel_mode
            rec["assignment_digest"] = r.digest
            if "refine_moves" in r.metadata:
                for field in ("refine_cut_before", "refine_cut_after"):
                    rec[field] = float(r.metadata[field])
                rec["refine_moves"] = int(r.metadata["refine_moves"])
            records.append(rec)
    return {"records": records}


def _run_service(s: dict, rows) -> dict:
    """The HTTP latency ladder, then the pool ladder on its smallest upload."""
    from repro.bench.service import compare_pools, compare_service

    common = dict(
        scale=s["scale"],
        k=s["num_parts"],
        partitioner=s["partitioner"],
        chunk_size=s["chunk_size"],
        threads=s["threads"],
        requests=s["requests"],
        seed=s["seed"],
    )
    default = ("2cubes_sphere", "ABACUS_shell_hd", "sparsine")
    report = compare_service(tuple(_instances(rows, default)), **common)
    print(report.render())
    smallest = min(report.records, key=lambda r: r.upload_bytes)
    ladder = compare_pools(smallest.instance, **common)
    print(ladder.render())
    t = report.throughput
    return {
        "latency": [
            {
                "instance": r.instance,
                "num_vertices": r.num_vertices,
                "num_edges": r.num_edges,
                "num_pins": r.num_pins,
                "upload_bytes": r.upload_bytes,
                "store_ingest_s": round(r.store_ingest_s, 4),
                "upload_partition_s": round(r.upload_partition_s, 4),
                "replay_partition_s": round(r.replay_partition_s, 4),
            }
            for r in report.records
        ],
        "throughput": {
            "instance": t.instance,
            "threads": t.threads,
            "requests": t.requests,
            "wall_s": round(t.wall_s, 4),
            "errors": t.errors,
            "rps": round(t.rps, 2),
        },
        "pool_ladder": {
            "instance": ladder.instance,
            "runs": [
                {
                    "pool": r.pool,
                    "threads": r.threads,
                    "requests": r.requests,
                    "wall_s": round(r.wall_s, 4),
                    "errors": r.errors,
                    "rps": round(r.rps, 2),
                    "assignment_digest": r.assignment_digest,
                }
                for r in ladder.runs
            ],
            "speedup": round(ladder.speedup, 3) if ladder.speedup else None,
        },
    }


def _check_service(fresh: dict) -> "list[str]":
    """Every request succeeds, and every pool serves the same bytes."""
    failures = []
    if fresh["throughput"]["errors"]:
        failures.append(f"throughput phase had {fresh['throughput']['errors']} errors")
    runs = fresh["pool_ladder"]["runs"]
    failures += [f"pool {r['pool']}: {r['errors']} errors" for r in runs if r["errors"]]
    digests = sorted({r["assignment_digest"] for r in runs})
    if len(digests) > 1:
        failures.append(f"pools disagree on assignment bytes: {digests}")
    return failures


def check_speedup(ratio: float, fresh: dict) -> "list[str]":
    """Fail unless process rps >= ``ratio`` x thread rps.  Single-core and
    fork-less boxes skip with a notice: there the process pool cannot
    win by design."""
    cores = os.cpu_count() or 1
    speedup = fresh["pool_ladder"]["speedup"]
    if speedup is None or cores < 2:
        why = "no process-pool run" if speedup is None else f"{cores} core(s)"
        print(f"speedup assert skipped: {why}")
        return []
    if speedup < ratio:
        return [
            f"process/thread speedup {speedup:.2f}x < {ratio:.2f}x "
            f"on {cores} cores"
        ]
    print(f"speedup ok: {speedup:.2f}x >= {ratio:.2f}x on {cores} cores")
    return []


_CLUSTER_KEY = ("instance", "workers", "payload", "wire", "netem")


def _run_cluster(s: dict, rows) -> dict:
    """Rerun cluster cells through forked sharding (no sockets).

    Wire mode and network profile do not change an assignment, so each
    ``(instance, workers, payload)`` cell runs once.
    """
    from repro.bench.streaming import assignment_digest
    from repro.core.metrics import hyperedge_cut
    from repro.hypergraph.suite import load_instance
    from repro.streaming import HypergraphChunkStream, OnePassStreamer, ShardedStreamer

    if rows is None:
        raise ValueError(f"record cluster baselines with: {CLUSTER.regenerate}")
    done, records = {}, []
    for row in rows:
        cell = (row["instance"], row["workers"], row["payload"])
        if cell not in done:
            hg = load_instance(row["instance"], scale=s["scale"])
            stream = HypergraphChunkStream(hg, s["chunk_size"])
            t0 = time.perf_counter()
            result = ShardedStreamer(
                OnePassStreamer(scorer=s["scorer"]),
                workers=row["workers"],
                chunk_size=s["chunk_size"],
                payload=row["payload"],
            ).partition_stream(stream, s["num_parts"], seed=s["seed"])
            done[cell] = {
                "wall_s": round(time.perf_counter() - t0, 4),
                "cut": hyperedge_cut(hg, result.assignment, s["num_parts"]),
                "assignment_digest": assignment_digest(result.assignment),
            }
        records.append({f: row[f] for f in _CLUSTER_KEY} | done[cell])
    return {"records": records}


def _regenerate(name: str, path: str) -> str:
    return f"python -m repro.bench.baseline {name} --bench-out {path}"


_QUALITY = Table(
    ("records",),
    ("instance", "algorithm"),
    ("cut", "assignment_digest"),
    ("wall_s",),
)

STREAMING = Kind(
    name="streaming",
    schema="bench-streaming",
    version=1,
    header=dict(
        seed=SEED, scale=0.3, num_parts=8, chunk_size=64, max_iterations=20,
        buffer_fractions=[0.25, 1.0], kernel="python",
    ),
    # a boundary-sparse mesh and a boundary-dense power-law instance
    run=partial(
        _run_contenders,
        compare="compare_streaming",
        default=("2cubes_sphere", "sparsine"),
        memory=False,
    ),
    tables=(_QUALITY,),
    regenerate=_regenerate("streaming", "BENCH_STREAMING.json"),
)

FAMILIES = Kind(
    name="families",
    schema="bench-families",
    version=1,
    header=dict(
        seed=SEED, scale=0.25, num_parts=8, chunk_size=64, max_iterations=20,
        refine_passes=4, kernel="python",
    ),
    # three structurally different instances
    run=partial(
        _run_contenders,
        compare="compare_families",
        default=("2cubes_sphere", "sparsine", "ABACUS_shell_hd"),
        memory=True,
    ),
    tables=(_QUALITY,),
    regenerate=_regenerate("families", "BENCH_FAMILIES.json"),
)

SERVICE = Kind(
    name="service",
    schema="bench-service",
    version=1,
    header=dict(
        seed=SEED, scale=0.05, num_parts=8, partitioner="onepass",
        chunk_size=256, threads=4, requests=16,
    ),
    run=_run_service,
    tables=(
        Table(
            ("latency",),
            ("instance",),
            ("num_vertices", "num_edges", "num_pins", "upload_bytes"),
            ("store_ingest_s", "upload_partition_s", "replay_partition_s"),
        ),
        Table(("pool_ladder", "runs"), ("pool",), ("assignment_digest",)),
    ),
    regenerate=_regenerate("service", "BENCH_SERVICE.json"),
    check=_check_service,
)

CLUSTER = Kind(
    name="cluster",
    schema="bench-cluster",
    version=2,
    header=dict(seed=SEED, scale=0.3, num_parts=8, chunk_size=64, scorer="eq1"),
    run=_run_cluster,
    tables=(
        Table(
            ("records",), _CLUSTER_KEY, ("cut", "assignment_digest"), ("wall_s",)
        ),
    ),
    regenerate=(
        "python scripts/run_experiments.py --loopback --workers 3 "
        "--workers-matrix 1 2 3 --payloads boundary full --wire lean v1 "
        "--instances stream_powerlaw_xl ABACUS_shell_hd --scale 0.3 "
        "--chunk-size 64 --bench-out BENCH_CLUSTER.json"
    ),
)

KINDS = {spec.name: spec for spec in (STREAMING, FAMILIES, SERVICE, CLUSTER)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "kind",
        nargs="?",
        choices=("streaming", "families", "service"),
        help="kind to record; with --diff-against it is read from the file",
    )
    parser.add_argument(
        "--bench-out", metavar="PATH", help="write the baseline here"
    )
    parser.add_argument(
        "--diff-against", metavar="PATH", help="rerun this baseline and compare"
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        metavar="RATIO",
        help="service: fail unless process rps >= RATIO x thread rps",
    )
    args = parser.parse_args(argv)
    if args.diff_against:
        spec, baseline = load(args.diff_against)
    elif args.kind:
        spec, baseline = KINDS[args.kind], None
    else:
        parser.error("name a kind to record, or --diff-against a baseline")
    if args.kind not in (None, spec.name):
        parser.error(f"{args.diff_against} is a {spec.name} baseline")
    if args.assert_speedup is not None and spec is not SERVICE:
        parser.error("--assert-speedup applies to service baselines")

    if baseline is None:
        settings = dict(spec.header)
        fresh, drift = spec.run(settings, None), []
    else:
        settings = {field: baseline[field] for field in spec.header}
        fresh = rerun(spec, baseline)
        drift = diff(spec, baseline, fresh)
    failures = list(drift)
    if args.assert_speedup is not None:
        failures += check_speedup(args.assert_speedup, fresh)
    if args.bench_out:
        new = contents(spec, settings, fresh)
        refused = write(args.bench_out, spec, new, failures)
        if refused:
            failures.append(refused)
        else:
            print(f"baseline written: {args.bench_out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if drift:
        print(f"regenerate deliberately with: {spec.regenerate}",
              file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
