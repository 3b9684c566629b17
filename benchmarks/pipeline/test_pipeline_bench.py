"""Tests of the pipeline benchmark itself (``pytest benchmarks/pipeline``).

Not part of the tier-1 suite (``testpaths = ["tests"]``): they start
child processes and take ~10 s.
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads(bench.SPEC_PATH.read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def names(section):
    return [entry["name"] for entry in SPEC[section]]


def test_benchmark_json_names_the_workloads_and_metrics_the_code_produces():
    assert names("workloads") == list(bench.WORKLOADS)
    catalogue = bench.per_layer_catalogue()
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == catalogue
    assert SPEC["paths"] == ["benchmarks/pipeline"]
    assert SPEC["command"] == ["python3", "benchmarks/pipeline/run.py"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def test_names_use_only_the_allowed_characters_and_are_unique():
    every = names("workloads") + names("end_to_end") + names("per_layer")
    assert all(NAME.match(name) for name in every)
    assert len(set(every)) == len(every)
    assert len(SPEC["per_layer"]) <= 128


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "workload": "w"}


def test_self_time_is_duration_minus_covered_child_time():
    tree = [
        span("root", 0.0, 10.0, None),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),     # overlaps a: 1..6 is covered once
        span("a", 7.0, 12.0, 0),    # clipped to the root's end
        span("leaf", 1.5, 2.0, 1),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx([10.0 - 5.0 - 3.0, 2.5, 3.0, 5.0, 0.5])


def test_recorder_nests_spans_and_refuses_to_close_out_of_order():
    recorder = spans.Recorder("w")
    with recorder.span("outer") as outer:
        with recorder.span("inner"):
            pass
    assert [s["parent"] for s in recorder.spans] == [None, outer]
    assert sum(spans.self_times(recorder.spans)) == pytest.approx(
        recorder.spans[0]["end"] - recorder.spans[0]["start"]
    )
    first = recorder.begin("first")
    recorder.begin("second")
    with pytest.raises(ValueError):
        recorder.end(first)


@pytest.mark.parametrize("seed", [2, 5])  # pinned in reference.json / not pinned
def test_traced_digests_equal_untraced_digests(seed):
    # One untraced and one traced pass; the run checks every digest of
    # both against the reference (seed 2) or against each other (seed 5).
    run = bench.measure("sweep72_cold", seed, 0.0, True, bench.load_reference(), smoke=True)
    assert [p["traced"] for p in run.passes] == [False, True]
    assert run.pinned == (seed == 2)
    assert run.passes[0]["digests"] == run.passes[1]["digests"]
    assert (run.failed, run.problems) == (0, [])
    assert list(run.per_layer) == [name for name, _, _ in bench.per_layer_catalogue()]
    assert run.per_layer["engine.run_s.uniform"] > 0
    assert run.per_layer["check.cdg_s"] == 0  # no check spans in a sweep


def test_corrupted_reference_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    reference = bench.load_reference()
    reference["digests"]["1"]["check_all"]["lint"] = "exit=1 errors=3 warnings=0 infos=0"
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference), encoding="utf-8")
    monkeypatch.setattr(bench, "REFERENCE_PATH", corrupted)

    assert bench.main(["--workload", "check_all", "--smoke", "--seconds", "0"]) == 1
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert (result["correct"], result["failed"], result["attempted"]) == (False, 1, 2)
    assert list(result["metrics"]) == names("end_to_end")
    assert "lint" in captured.err
