"""The benchmark's workloads: seeded inputs, CLI calls, and the correctness gate.

Graph workloads draw their inputs from fixed pools.  A family is a generator
spec ``f`` and the number ``c`` of its graphs in each round of calls; its pool
is ``f`` with generator seeds ``0 <= i < c * pool``.  ``reference.json`` holds
the key fields of every pool graph's record, as the CLI produced them at the
commit that introduced the benchmark, and each family's pool in order of the
user-mode instructions its calls retired there.  The benchmark seed only
picks and orders pool graphs, so every input it can produce has a reference
value.

Item costs within one family differ by up to 100x, so a plain random sample
of a few rounds gives a run-to-run spread far above any useful bound.  The
inputs are therefore a stratified sample: each family's cost-ordered pool is
cut into ``strata`` equal slices, and one block of calls is one round per
slice, taking ``c`` graphs of every family from that slice.  The worker stops
only at a block boundary, so every measured run holds whole blocks: the same
cost mix, whichever seed picked the graphs inside each slice.

When ``pool`` equals ``strata`` a block is the whole pool: every run calls
the same graphs and the seed only orders them.  ``analyze-oracles`` and
``mader-flow`` are built that way, because one run holds a single block and
a few graphs cost far more than the rest of their slice (45 billion
instructions against 22-27 for ``gnp(10,0.5)``): with a pool of four blocks,
which of them a seed drew moved ``instr_per_item`` by 9% from run to run.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Call:
    """One ``cli.main(argv)`` call and what it must produce."""

    argv: tuple[str, ...]
    items: int
    key: str | None = None  # pool key of the input graph, for graph workloads
    graph6: str | None = None  # the input graph, as written to its file


@dataclass(frozen=True)
class GraphWorkload:
    """One CLI command applied to one graph6 file per call."""

    name: str
    why: str
    command: tuple[str, ...]
    families: tuple[tuple[str, int], ...]  # (generator spec, graphs per round)
    pool: int  # rounds of distinct inputs; a family has pool * c graphs
    strata: int  # cost slices per family = rounds per block; divides pool
    fields: tuple[str, ...]
    trace_rounds: int

    @property
    def round(self) -> int:
        return sum(c for _spec, c in self.families)

    @property
    def block(self) -> int:
        return self.strata * self.round

    @property
    def trace_calls(self) -> int:
        return self.trace_rounds * self.round

    def pool_keys(self) -> list[str]:
        return [f"{spec}#{i}" for spec, c in self.families for i in range(c * self.pool)]

    def plan(self, seed: int, cost_order: dict[str, list[int]]) -> list[tuple[str, int]]:
        """(family spec, generator seed) of every input, in call order:
        pool // strata blocks, each one round per slice with the slices in a
        seeded order, and the graphs of a round in a seeded order."""
        rng = random.Random(f"{self.name}:{seed}")
        size = self.pool // self.strata
        picks = {}
        for spec, c in self.families:
            width = c * size
            picks[spec] = [rng.sample(cost_order[spec][s * width:(s + 1) * width], width)
                           for s in range(self.strata)]
        order: list[tuple[str, int]] = []
        for b in range(size):
            for s in rng.sample(range(self.strata), self.strata):
                rnd = [(spec, gen_seed) for spec, c in self.families
                       for gen_seed in picks[spec][s][b * c:(b + 1) * c]]
                order.extend(rng.sample(rnd, len(rnd)))
        return order

    def write_inputs(self, seed: int, workdir: Path, reference: dict[str, Any]) -> list[Call]:
        from minor_toolkit import generators
        from minor_toolkit.graph6 import encode_graph6

        calls = []
        for j, (spec, gen_seed) in enumerate(self.plan(seed, reference["cost_order"])):
            text = encode_graph6(generators.generate(spec, gen_seed))
            path = workdir / f"in{j:04d}.g6"
            path.write_text(text + "\n", encoding="ascii")
            calls.append(Call((*self.command, "--input", str(path)), 1,
                              f"{spec}#{gen_seed}", text))
        return calls

    def key_fields(self, record: dict[str, Any]) -> dict[str, Any]:
        out = {f: record.get(f) for f in self.fields if f != "contractions"}
        if "contractions" in self.fields:
            out["contractions"] = contractions(record)
        return out

    def check(self, call: Call, text: str, reference: dict[str, Any]) -> list[str]:
        """Problems with one call's stdout; empty when the output is correct."""
        try:
            records = [json.loads(line) for line in text.splitlines() if line.strip()]
        except json.JSONDecodeError as exc:
            return [f"output is not JSON lines: {exc}"]
        if len(records) != 1:
            return [f"expected one record, got {len(records)}"]
        rec = records[0]
        problems = []
        if rec.get("graph6") != call.graph6:
            problems.append("record graph6 differs from the input")
        expected = reference["records"].get(call.key)
        if expected is None:
            problems.append(f"no reference value for {call.key}")
        else:
            got = self.key_fields(rec)
            problems += [f"{f}: got {got.get(f)!r}, reference {v!r}"
                         for f, v in expected.items() if got.get(f) != v]
        problems += check_certificates(rec, call.graph6)
        return problems

    def failed_items(self, call: Call, text: str) -> int:
        return call.items


@dataclass(frozen=True)
class SuiteWorkload:
    """``experiment`` calls over seeded chunks of property-suite instances."""

    name: str
    why: str
    suites: tuple[str, ...]
    count: int  # instances per call
    chunks: int  # distinct calls per run
    trace_calls: int

    @property
    def block(self) -> int:
        return len(self.suites)

    def write_inputs(self, seed: int, workdir: Path, reference: dict[str, Any]) -> list[Call]:
        rng = random.Random(f"{self.name}:{seed}")
        return [Call(("experiment", "--suite", self.suites[j % len(self.suites)],
                      "--count", str(self.count), "--seed", str(rng.randrange(1 << 30))),
                     self.count)
                for j in range(self.chunks)]

    def check(self, call: Call, text: str, reference: dict[str, Any]) -> list[str]:
        try:
            summary = json.loads(text.splitlines()[0])
        except (IndexError, json.JSONDecodeError) as exc:
            return [f"no summary line: {exc}"]
        suite = call.argv[call.argv.index("--suite") + 1]
        problems = []
        if summary.get("suite") != suite:
            problems.append(f"summary names suite {summary.get('suite')!r}, not {suite!r}")
        if summary.get("instances") != call.items:
            problems.append(f"{summary.get('instances')} instances, expected {call.items}")
        if summary.get("failures") != 0:
            problems.append(f"{summary.get('failures')} falsified instances")
        return problems

    def failed_items(self, call: Call, text: str) -> int:
        """Items of a call that failed its check: the falsified rows, or the
        whole chunk when the summary itself is wrong."""
        try:
            summary = json.loads(text.splitlines()[0])
            failures = int(summary["failures"])
        except (IndexError, KeyError, TypeError, ValueError):
            return call.items
        if summary.get("instances") != call.items or not 0 < failures <= call.items:
            return call.items
        return failures


def contractions(record: dict[str, Any]) -> int:
    """The number of ``contract`` steps in an extraction record's trace."""
    return sum(1 for step in record.get("trace", ()) if step.get("step") == "contract")


def check_certificates(rec: dict[str, Any], graph6: str | None) -> list[str]:
    """Re-verify each certificate of a record and match it against the record."""
    from minor_toolkit import certificates

    certs = [rec["certificate"]] if "certificate" in rec else list(rec.get("certificates", ()))
    problems = []
    for cert in certs:
        if cert.get("host_graph6") != graph6:
            problems.append("certificate host differs from the input")
        result = certificates.verify_certificate(cert)
        if not result.valid:
            problems.append(f"certificate {result.status}: {result.detail}")
        if cert.get("kind") == "connectivity" and cert.get("vertices") != rec.get("vertices"):
            problems.append("connectivity certificate vertices differ from the record")
        if cert.get("kind") == "minor_model" and cert.get("parts") != rec.get("model_parts"):
            problems.append("minor-model certificate parts differ from the record")
    if certs and rec.get("verified") is not True:
        problems.append("the CLI did not report its certificate as verified")
    return problems


def load_reference() -> dict[str, dict[str, Any]]:
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)


# Seconds per item below are from the commit that introduced the benchmark.
WORKLOADS: dict[str, GraphWorkload | SuiteWorkload] = {w.name: w for w in (
    GraphWorkload(
        name="analyze-oracles",
        why="exact oracles at their size gates; Hadwiger dominates and flow is bypassed",
        command=("analyze",),
        # n <= 10 runs every oracle (Hadwiger twice, once inside the
        # Duchet-Meyniel check); n = 16 is the Hall-ratio gate; n = 20 runs
        # only chi and alpha.  0.003-2.8 s per item.  Five n = 16 graphs per
        # round put the median call on the Hall-ratio oracle, whose cost
        # hardly varies between graphs (about 0.056 s); with one per round the
        # median falls where the n = 9 and 10 costs overlap and moves by 12%
        # from seed to seed.
        families=(("gnp(9,0.3)", 1), ("gnp(9,0.5)", 1), ("gnp(9,0.7)", 1),
                  ("gnp(10,0.3)", 1), ("gnp(10,0.5)", 1), ("gnp(10,0.7)", 1),
                  ("gnp(16,0.5)", 5), ("gnp(20,0.5)", 1)),
        pool=8,
        strata=8,
        fields=("kappa", "chi", "alpha", "rho", "hadwiger", "duchet_meyniel_satisfied"),
        trace_rounds=2,
    ),
    GraphWorkload(
        name="mader-flow",
        why="few large flow networks: about three vertex-connectivity runs per item",
        command=("extract", "--op", "mader", "--verify"),
        # n and ambient density move in opposite directions so that every
        # stratum costs 0.4-1.2 s per item; a sparser n = 200 graph and a
        # denser n = 120 graph both stress the flow kernel.
        families=(("planted_dense(120,20,0.9,0.15)", 1), ("planted_dense(140,19,0.9,0.12)", 1),
                  ("planted_dense(160,18,0.9,0.1)", 1), ("planted_dense(180,17,0.9,0.09)", 1),
                  ("planted_dense(200,16,0.9,0.08)", 1)),
        pool=8,
        strata=8,
        fields=("outcome", "target", "kappa", "vertices"),
        trace_rounds=1,
    ),
    GraphWorkload(
        name="contract-loop",
        why="quotient rebuild on every grow-loop iteration; bypasses flow and oracles",
        command=("extract", "--op", "small_dense", "--verify"),
        # every pool graph ends in minor_found, after 217-232 contractions
        # (221-229 for generator seeds 0-9)
        families=(("planted_dense(500,24,0.9,0.05)", 1),),
        pool=48,
        strata=1,
        fields=("outcome", "kappa", "vertices", "model_parts", "contractions"),
        trace_rounds=8,
    ),
    SuiteWorkload(
        name="menger-sweep",
        why="thousands of tiny flow networks; a fixed cost per flow call shows here",
        suites=("menger_duality", "menger_variant"),
        count=100,
        chunks=4096,
        trace_calls=160,
    ),
)}
