"""The benchmark's own tests: tiny runs of every workload, and a corrupted
verdict that must be counted as failed.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def tiny(wl, trace=0):
    return run.run_workload(wl, seed=3, seconds=0.05, trace=trace, rounds=1)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, key):
    res = tiny(workloads.make(name, ROOT), trace)
    assert {k: m["unit"] for k, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[key]}
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
    assert res["attempted"] >= 1 and res["failed"] == 0, res["failures"]
    if trace == 0:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_inputs_and_verdicts():
    a, b = (tiny(workloads.make("sweep", ROOT)) for _ in range(2))
    assert a["input_digest"] == b["input_digest"]
    assert a["output_digest"] == b["output_digest"]


def _corrupt_first_item(wl, corrupt):
    real = wl.run
    victim = []

    def run_and_corrupt(item, tr):
        verdict = real(item, tr)
        if not item.excluded and (not victim or item is victim[0]):
            victim[:1] = [item]
            corrupt(verdict)
        return verdict

    wl.run = run_and_corrupt
    return wl


def _flip_cut(cls):
    cls.is_cut = not cls.is_cut


def _flip_cut_flag(verdict):
    verdict["flags"]["is_cut"] = not verdict["flags"]["is_cut"]


def _wrong_exit(verdict):
    verdict["exit"] += 1


def _add_violation(verdict):
    verdict["violations"].append("corrupted")


def _flip_compose(verdict):
    verdict["compose"][1] ^= 1


def _flip_selection(verdict):
    verdict["family_ops"][1][0] ^= 1


@pytest.mark.parametrize("name,corrupt", [
    ("sweep", _flip_cut), ("lattice", _add_violation), ("lattice", _flip_compose),
    ("lattice", _flip_selection), ("duality", _flip_cut_flag), ("cli", _wrong_exit)])
def test_corrupted_verdict_is_counted_in_ops_failed(name, corrupt):
    res = tiny(_corrupt_first_item(workloads.make(name, ROOT), corrupt))
    assert res["failed"] >= 1
    assert sum(res["failures"].values()) == res["failed"]


def test_a_failed_input_counts_in_the_time_but_not_as_a_verdict():
    passes = run.Passes()
    for times in ({0: 0.5, 1: 1.5}, {0: 0.25, 1: 2.0}):
        passes.current = times
        passes.end_pass()
    passes.failed.add(1)
    assert passes.latencies == [0.25, 1.5]
    assert passes.items_per_s == 1 / 1.75


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
