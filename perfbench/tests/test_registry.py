"""BENCHMARK.json against the code that fills it, and the layer map against both."""
import json
import re
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent.parent
REGISTRY = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((BENCH / "layer_map.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_registry_has_the_contract_keys():
    assert list(REGISTRY) == ["command", "paths", "run_seconds", "workloads", "end_to_end",
                              "per_layer"]
    assert REGISTRY["command"][:2] == ["python3", "perfbench/run.py"]
    assert REGISTRY["paths"] == ["perfbench"]
    assert isinstance(REGISTRY["run_seconds"], int) and 1 <= REGISTRY["run_seconds"] <= 60
    for workload in REGISTRY["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in REGISTRY["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in REGISTRY["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in REGISTRY["workloads"] + REGISTRY["end_to_end"]
             + REGISTRY["per_layer"]]
    assert len(names) == len(set(names))
    for metric in REGISTRY["end_to_end"] + REGISTRY["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")


def test_setup_time_is_registered_with_the_largest_bound():
    by_name = {m["name"]: m for m in REGISTRY["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in REGISTRY["end_to_end"])


def test_registry_matches_what_runs_report():
    assert [w["name"] for w in REGISTRY["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in REGISTRY["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in REGISTRY["per_layer"]] == \
        run.per_layer_names()


@pytest.mark.parametrize("layer", sorted(LAYER_MAP))
def test_layer_map_names_only_declared_metrics_and_workloads(layer):
    per_layer = {m["name"] for m in REGISTRY["per_layer"]}
    end_to_end = {m["name"] for m in REGISTRY["end_to_end"]}
    workloads = {w["name"] for w in REGISTRY["workloads"]}
    entry = LAYER_MAP[layer]
    assert layer in per_layer
    assert set(entry) <= {"moves", "unchanged", "note"}
    for kind in ("moves", "unchanged"):
        for workload, metrics in entry.get(kind, {}).items():
            assert workload in workloads
            assert metrics and set(metrics) <= end_to_end
    for workload, metrics in entry.get("unchanged", {}).items():
        assert not set(metrics) & set(entry.get("moves", {}).get(workload, ()))
