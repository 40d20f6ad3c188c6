"""The shared baseline differ and writer (``repro.bench.baseline``).

Pure JSON fixtures, no partitioning: each case edits a copy of a tiny
baseline or of its rerun and states what the diff must say.
"""

import copy
import json
import warnings
from dataclasses import replace

import pytest

from repro.bench import baseline as bl


def _streaming():
    return {
        "schema": "bench-streaming",
        "version": 1,
        **bl.STREAMING.header,
        "records": [
            {"instance": "a", "algorithm": "x", "wall_s": 1.0, "cut": 10.0,
             "assignment_digest": "d1"},
            {"instance": "a", "algorithm": "y", "wall_s": 2.0, "cut": 20.0,
             "assignment_digest": "d2"},
        ],
    }


def _service():
    run = {"threads": 4, "requests": 16, "wall_s": 0.1, "errors": 0,
           "rps": 100.0, "assignment_digest": "same"}
    return {
        "schema": "bench-service",
        "version": 1,
        **bl.SERVICE.header,
        "latency": [
            {"instance": "a", "num_vertices": 5, "num_edges": 4,
             "num_pins": 9, "upload_bytes": 40, "store_ingest_s": 0.01,
             "upload_partition_s": 0.02, "replay_partition_s": 0.01},
        ],
        "throughput": {"instance": "a", "threads": 4, "requests": 16,
                       "wall_s": 0.2, "errors": 0, "rps": 80.0},
        "pool_ladder": {
            "instance": "a",
            "runs": [{"pool": "thread", **run}, {"pool": "process", **run}],
            "speedup": 1.0,
        },
    }


def _set(path, value):
    """An edit that sets ``doc[path...] = value``."""
    def edit(doc):
        for name in path[:-1]:
            doc = doc[name]
        doc[path[-1]] = value
    return edit


def _drop_row(doc):
    del doc["records"][1]


#: (case, fixture, edit the baseline, edit the rerun, failure text, warns)
CASES = [
    ("identical rerun passes", _streaming, None, None, None, False),
    ("exact field mismatch fails and names the row", _streaming, None,
     _set(("records", 1, "assignment_digest"), "zz"),
     "('a', 'y'): assignment_digest 'zz' != baseline 'd2'", False),
    ("timed field beyond 1.5x warns but passes", _streaming, None,
     _set(("records", 0, "wall_s"), 1.6), None, True),
    ("timed field within 1.5x is quiet", _streaming, None,
     _set(("records", 0, "wall_s"), 1.4), None, False),
    ("wrong version fails", _streaming, _set(("version",), 0), None,
     "baseline version 0 != 1", False),
    ("rerun row missing from the baseline fails", _streaming, _drop_row,
     None, "('a', 'y'): rerun row missing from the baseline", False),
    ("extra baseline rows are ignored", _streaming, None, _drop_row, None,
     False),
    ("service shape mismatch fails", _service, None,
     _set(("latency", 0, "num_pins"), 10), "('a',): num_pins 10", False),
    ("service pools disagreeing on bytes fails", _service,
     _set(("pool_ladder", "runs", 1, "assignment_digest"), "other"),
     _set(("pool_ladder", "runs", 1, "assignment_digest"), "other"),
     "pools disagree on assignment bytes", False),
    ("service throughput errors fail", _service, None,
     _set(("throughput", "errors"), 2), "throughput phase had 2 errors",
     False),
]


@pytest.mark.parametrize(
    "make, edit_base, edit_fresh, failure, warns",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_diff(make, edit_base, edit_fresh, failure, warns):
    base = make()
    fresh = copy.deepcopy(base)
    for edit, doc in ((edit_base, base), (edit_fresh, fresh)):
        if edit is not None:
            edit(doc)
    spec = bl.KINDS[base["schema"].removeprefix("bench-")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        failures = bl.diff(spec, base, fresh)
    if failure is None:
        assert failures == []
    else:
        assert len(failures) == 1 and failure in failures[0], failures
    assert any("> 1.5x baseline" in str(w.message) for w in caught) == warns


def test_wrong_schema_raises():
    base = _streaming()
    with pytest.raises(ValueError, match="not a bench-families baseline"):
        bl.diff(bl.FAMILIES, base, copy.deepcopy(base))


def test_load_picks_the_kind_from_the_schema(tmp_path):
    path = tmp_path / "b.json"
    for spec in bl.KINDS.values():
        path.write_text(json.dumps({"schema": spec.schema}))
        assert bl.load(path)[0] is spec
    path.write_text(json.dumps({"schema": "bench-other"}))
    with pytest.raises(ValueError, match="unknown baseline schema"):
        bl.load(path)


def test_write_merges_by_key_and_refuses_on_failure(tmp_path):
    path = tmp_path / "b.json"
    old = _streaming()
    path.write_text(json.dumps(old))
    new = _streaming()
    new["records"][1]["cut"] = 21.0  # a rerun row replaces its old row
    new["records"][0] = {"instance": "b", "algorithm": "x", "wall_s": 1.0,
                         "cut": 1.0, "assignment_digest": "d9"}  # a new row

    assert bl.write(path, bl.STREAMING, copy.deepcopy(new), ["boom"])
    assert json.loads(path.read_text()) == old

    assert bl.write(path, bl.STREAMING, copy.deepcopy(new), []) is None
    merged = json.loads(path.read_text())
    assert [(r["instance"], r["algorithm"], r["cut"])
            for r in merged["records"]] == [
        ("a", "x", 10.0), ("a", "y", 21.0), ("b", "x", 1.0)]


def test_write_refuses_a_file_recorded_with_other_settings(tmp_path):
    path = tmp_path / "b.json"
    old = {**_streaming(), "scale": 0.05}
    path.write_text(json.dumps(old))
    refused = bl.write(path, bl.STREAMING, _streaming(), [])
    assert "recorded with {'scale': 0.05}" in refused
    assert json.loads(path.read_text()) == old


def test_write_replaces_a_stale_version(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({**_streaming(), "version": 0}))
    new = _streaming()
    del new["records"][1]
    assert bl.write(path, bl.STREAMING, copy.deepcopy(new), []) is None
    assert json.loads(path.read_text()) == new


def test_cli_reruns_the_header_settings(tmp_path, monkeypatch, capsys):
    """``--diff-against`` reruns the file's header on the file's rows."""
    base = {**_streaming(), "scale": 0.7}
    path = tmp_path / "b.json"
    path.write_text(json.dumps(base))
    records, calls = copy.deepcopy(base["records"]), []

    def run(settings, rows):
        calls.append((settings["scale"], [r["algorithm"] for r in rows]))
        return {"records": copy.deepcopy(records)}

    monkeypatch.setitem(
        bl.KINDS, "streaming", replace(bl.STREAMING, run=run)
    )
    assert bl.main(["--diff-against", str(path)]) == 0
    assert calls == [(0.7, ["x", "y"])]

    base["records"][0]["assignment_digest"] = "edited"
    path.write_text(json.dumps(base))
    assert bl.main(["--diff-against", str(path)]) == 1
    err = capsys.readouterr().err
    assert "('a', 'x'): assignment_digest 'd1' != baseline 'edited'" in err
    assert bl.STREAMING.regenerate in err
