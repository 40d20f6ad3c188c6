"""``scripts/run_experiments.py --diff-against`` reruns the baseline's settings.

The cell runner is stubbed, so no worker is launched: the test checks
that the cells run at the baseline header's seed, scale, num_parts,
chunk_size and scorer even with the CLI defaults left in place.
"""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _load_run_experiments():
    spec = importlib.util.spec_from_file_location(
        "run_experiments", REPO / "scripts" / "run_experiments.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_experiments_diff_reruns_the_baseline_settings(
    tmp_path, monkeypatch
):
    """The cluster diff runs its cells at the baseline header's settings
    even with the CLI defaults (scale 0.05, chunk 128) left in place."""
    harness = _load_run_experiments()
    row = {"instance": "stream_powerlaw_xl", "workers": 1,
           "payload": "boundary", "wire": "lean", "netem": "clean",
           "wall_s": 1.0, "cut": 5.0, "imbalance": 1.0, "wire_bytes": 10,
           "broadcast_bytes_saved": 0, "assignment_digest": "d1"}
    header = {"seed": 7, "scale": 0.3, "num_parts": 4, "chunk_size": 64,
              "scorer": "fennel"}
    path = tmp_path / "BENCH_CLUSTER.json"
    path.write_text(json.dumps(
        {"schema": "bench-cluster", "version": 2, **header, "records": [row]}
    ))
    seen = []

    def run_cell(args, endpoints, instance, payload, wire, netem, psk):
        seen.append({f: getattr(args, f) for f in header})
        return dict(row, degraded_shards=[])

    monkeypatch.setattr(harness, "_run_cell", run_cell)
    code = harness.main([
        "--hosts", "127.0.0.1:1", "--diff-against", str(path),
        "--outdir", str(tmp_path / "logs"),
    ])
    assert seen == [header]
    assert code == 0
