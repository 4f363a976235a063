"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import counters  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return load_reference()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_each_workload(name, reference):
    result = run.run_benchmark(name, seed=0, seconds=None, trace=False, max_calls=2,
                               reference=reference)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["fail_frac"] == 0
    assert result["attempted"] == 2 * getattr(WORKLOADS[name], "count", 1)
    assert list(result["metrics"]) == [m for m, _unit in run.END_TO_END]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert list(result["wall"]) == [m for m, _unit in run.WALL]
    assert all(entry["value"] > 0 for entry in result["wall"].values())
    assert result["context"]["python"] and result["context"]["nproc"] >= 1


def test_traced_run_matches_untraced_and_counts_contractions(reference):
    result = run.run_benchmark("contract-loop", seed=0, seconds=None, trace=True, max_calls=2,
                               reference=reference)
    assert result["correct"], result["problems"]
    assert not any("traced output" in p for p in result["problems"])
    values = {m: e["value"] for m, e in result["metrics"].items()}
    assert list(values) == [m for m, _unit, _better in tracing.PER_LAYER]
    table = reference["contract-loop"]
    expected = sum(table["records"][f"{spec}#{gen_seed}"]["contractions"]
                   for spec, gen_seed in WORKLOADS["contract-loop"].plan(0, table["cost_order"])[:2])
    assert values["extraction.contractions"] == expected
    # one quotient rebuild per contraction, plus the final one that finds the minor
    assert values["graph.contract.calls"] == expected + 2
    assert values["certificates.verify_certificate.calls"] == 2
    assert values["certificates.valid_frac"] == 1.0
    assert values["flow.set_paths.calls"] == 0


def test_traced_analyze_counts_hadwiger_twice_per_small_graph(reference):
    wl = WORKLOADS["analyze-oracles"]
    calls = wl.round
    result = run.run_benchmark("analyze-oracles", seed=3, seconds=None, trace=True, max_calls=calls,
                               reference=reference)
    assert result["correct"], result["problems"]
    values = {m: e["value"] for m, e in result["metrics"].items()}
    small = sum(1 for spec, _seed in wl.plan(3, reference["analyze-oracles"]["cost_order"])[:calls]
                if int(spec[4:spec.index(",")]) <= 10)
    assert values["oracles.hadwiger_number.calls"] == 2 * small
    assert values["bounds.check_duchet_meyniel.calls"] == small
    assert values["flow.set_paths.calls"] == 0


def test_tracer_restores_every_original():
    from minor_toolkit import certificates, cli, extraction, flow, graph, graph6, oracles, suites

    originals = (oracles.internally_disjoint_st_paths, extraction.contract, cli.encode_graph6,
                 certificates.encode_graph6, suites.SUITES["menger_duality"], cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = set(tracing.wrapped_names())
        for name in ("minor_toolkit.oracles.internally_disjoint_st_paths",
                     "minor_toolkit.extraction.contract", "minor_toolkit.extraction.induced_subgraph",
                     "minor_toolkit.cli.encode_graph6", "minor_toolkit.certificates.encode_graph6",
                     "minor_toolkit.suites.menger_duality", "minor_toolkit.cli.main"):
            assert name in wrapped
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["analyze", "--generate", "gnp(8,0.5)", "--seed", "1"]) == 0
    finally:
        tracer.uninstall()
    assert tracing.wrapped_names() == []
    assert (oracles.internally_disjoint_st_paths, extraction.contract, cli.encode_graph6,
            certificates.encode_graph6, suites.SUITES["menger_duality"], cli.main) == originals
    assert oracles.internally_disjoint_st_paths is flow.internally_disjoint_st_paths
    assert extraction.contract is graph.contract and cli.encode_graph6 is graph6.encode_graph6
    totals = tracer.totals()["functions"]
    assert totals["cli.main"][0] == 1 and totals["oracles.hadwiger_number"][0] == 2


def test_corrupted_reference_value_fails_the_item(reference):
    wl = WORKLOADS["contract-loop"]
    bad = copy.deepcopy(reference)
    spec, gen_seed = wl.plan(0, bad["contract-loop"]["cost_order"])[0]
    bad["contract-loop"]["records"][f"{spec}#{gen_seed}"]["contractions"] += 1
    result = run.run_benchmark("contract-loop", seed=0, seconds=None, trace=False, max_calls=1,
                               reference=bad)
    assert result["failed"] == 1 and result["fail_frac"] == 1.0 and not result["correct"]
    assert "contractions" in result["problems"][0]


def test_certificate_with_a_flipped_vertex_fails_the_item(reference, tmp_path):
    from minor_toolkit import cli

    wl = WORKLOADS["contract-loop"]
    table = reference["contract-loop"]
    calls = wl.write_inputs(0, tmp_path, table)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(calls[0].argv)) == 0
    good = {"outputs": {0: out.getvalue()}, "errors": {}, "timings": [[0, 0.5, 0, 10**9]],
            "repeat_mismatches": []}
    assert run.evaluate(wl, calls, good, table)[:2] == (1, 0)

    rec = json.loads(out.getvalue())
    parts = rec["certificate"]["parts"]
    parts[0][0] = parts[1][0]  # the same vertex now sits in two branch sets
    bad = {**good, "outputs": {0: json.dumps(rec) + "\n"}}
    attempted, failed, problems = run.evaluate(wl, calls, bad, table)
    assert (attempted, failed) == (1, 1)
    assert any("certificate invalid" in p for p in problems)


def test_instruction_counter_grows_with_the_work_done():
    counter = counters.InstructionCounter()
    try:
        def count(n):
            start = counter.read()
            sum(i * i for i in range(n))
            return counter.read() - start
        small, large = count(10_000), count(100_000)
        counter.check_exclusive()
    finally:
        counter.close()
    assert 0 < small < large
    assert 5 < large / small < 20


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
