"""Benchmark of the minor-toolkit CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark generates the workload's inputs
from the seed (``workloads.py``) and writes them as graph6 files, so the
program only sees files.  Every run starts fresh worker processes
(``worker.py``), each the single client of a closed loop that calls
``minor_toolkit.cli.main(argv)`` once per input, one call at a time.

``--trace 0`` measures the end-to-end metrics: the worker loops for
``--seconds`` seconds, rounded up to a whole block of calls (see
``workloads.py``).  The gated metrics count the user-mode instructions the
worker retires (``counters.py``), which do not move with the load of other
tenants of the host; wall-time throughput and latency are reported beside
them.  ``--trace 1`` measures the per-layer metrics: an
untraced worker and then a traced one run the workload's first
``trace_calls`` calls each, and the difference between their loop times is
the tracing overhead.  Every output is checked against ``reference.json`` and
every certificate is re-verified; failed items are counted, never fatal.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with the run context, goes to
``.perfbench/<workload>.trace<0|1>.json``; the spans of the last traced run of
a workload go to ``.perfbench/<workload>.spans``, as float64 records with the
result's ``span_fields`` (the name is an index into its ``span_names``).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import Any

from tracing import PER_LAYER, SPAN_FIELDS, layer_metrics
from workloads import WORKLOADS, Call, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
# Set-up-only workers per run, half before the timed worker and half after it,
# so that setup_s, their median together with the timed worker's, samples the
# host over the whole run rather than over the first second of it.
SETUP_SPAWNS = 9
WORKER_TIMEOUT_S = 150.0

# (metric, unit): the untraced run reports every one of these.
END_TO_END = (
    ("instr_per_item", "instr/item"),
    ("call_p50_instr", "instr"),
    ("call_tail_instr", "instr"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
# (metric, unit): wall-time figures of the same untraced run, printed and
# stored with the result but not gated, because they move with the host's load
WALL = (
    ("items_per_s", "items/s"),
    ("call_p50_s", "s"),
    ("call_tail_s", "s"),
)


def run_context() -> dict[str, Any]:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "python": platform.python_version(),
            **versions, "nproc": len(os.sched_getaffinity(0)), "loadavg_1m_start": os.getloadavg()[0]}


def spawn(spec: dict[str, Any], workdir: Path, tag: str) -> tuple[float, dict[str, Any] | None]:
    """Start one fresh worker; return its set-up seconds and, in run mode, its result."""
    spec = {**spec, "src": str(ROOT / "src"), "result": str(workdir / f"{tag}.result.json")}
    spec_path = workdir / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)], cwd=ROOT,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        _out, err = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {tag} failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    if spec["mode"] == "setup":
        return setup_s, None
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["outputs"] = {int(j): text for j, text in result["outputs"].items()}
    result["errors"] = {int(j): text for j, text in result["errors"].items()}
    return setup_s, result


def evaluate(wl: Any, calls: list[Call], run: dict[str, Any],
             reference: dict[str, Any]) -> tuple[int, int, list[str]]:
    """(attempted items, failed items, problems) of one worker run."""
    verdicts: dict[int, tuple[int, list[str]]] = {}
    for j, text in run["outputs"].items():
        if j in run["errors"]:
            problems = ["raised " + run["errors"][j].strip().splitlines()[-1]]
        else:
            problems = wl.check(calls[j], text, reference)
        verdicts[j] = (wl.failed_items(calls[j], text) if problems else 0, problems)
    attempted = failed = 0
    report: list[str] = []
    mismatched = set(run["repeat_mismatches"])
    for i, (j, _seconds, code, _instr) in enumerate(run["timings"]):
        items = calls[j].items
        attempted += items
        nfail, problems = verdicts[j]
        if not problems and code != 0:
            nfail, problems = items, [f"exit code {code}"]
        if i in mismatched:
            nfail, problems = items, problems + ["output differs from the first call with this input"]
        failed += nfail
        if problems and len(report) < 20:
            report.append(f"call {i} ({' '.join(calls[j].argv)}): {'; '.join(problems)}")
    return attempted, failed, report


def tail(times: list[float]) -> tuple[float, float]:
    """Time at the highest percentile with at least ten calls above it, and
    that percentile; the maximum (percentile 100) when there are too few calls."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_benchmark(name: str, seed: int, seconds: float | None, trace: bool,
                  max_calls: int | None = None,
                  reference: dict[str, Any] | None = None) -> dict[str, Any]:
    """One benchmark run.  ``max_calls`` caps an untraced run and sets the
    length of a traced one (default: the workload's ``trace_calls``)."""
    if seconds is None and max_calls is None and not trace:
        raise ValueError("an untraced run needs seconds or max_calls")
    wl = WORKLOADS[name]
    reference = load_reference() if reference is None else reference
    table = reference.get(name, {})
    context = run_context()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT_DIR))
    try:
        calls = wl.write_inputs(seed, workdir, table)
        inputs = sorted({c.argv[-1] for c in calls if "--input" in c.argv})

        def set_up(ks: range) -> list[float]:
            return [spawn({"mode": "setup", "inputs": inputs}, workdir, f"setup{k}")[0] for k in ks]

        setup = set_up(range(SETUP_SPAWNS // 2))
        base = {"mode": "run", "inputs": inputs, "calls": [c.argv for c in calls],
                "block": wl.block, "spans": None}
        if trace:
            limit = {"seconds": None, "max_calls": max_calls or wl.trace_calls}
        else:
            limit = {"seconds": seconds, "max_calls": max_calls}
        setup_s, plain = spawn({**base, **limit, "trace": False}, workdir, "plain")
        setup += [setup_s] + set_up(range(SETUP_SPAWNS // 2, SETUP_SPAWNS))
        attempted, failed, problems = evaluate(wl, calls, plain, table)
        result: dict[str, Any] = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
        if trace:
            spans_path = OUT_DIR / f"{name}.spans"
            _, traced = spawn({**base, **limit, "trace": True, "spans": str(spans_path)},
                              workdir, "traced")
            # both workers made the same calls; a traced call must match its untraced twin
            differ = [i for i, (untraced, traced_call)
                      in enumerate(zip(plain["timings"], traced["timings"]))
                      if untraced[2] != traced_call[2]
                      or plain["outputs"][untraced[0]] != traced["outputs"][untraced[0]]]
            failed += sum(calls[plain["timings"][i][0]].items for i in differ)
            problems += [f"call {i}: traced output or exit code differs from untraced" for i in differ]
            records = [json.loads(line) for j, *_rest in traced["timings"]
                       for line in traced["outputs"][j].splitlines()[:1] if line.startswith("{")]
            overhead = (traced["loop_s"] - plain["loop_s"]) / plain["loop_s"]
            values = layer_metrics(traced["trace"], records, overhead)
            metrics = {m: {"value": values[m], "unit": unit} for m, unit, _better in PER_LAYER}
            result.update(spans=str(spans_path.relative_to(ROOT)), span_fields=SPAN_FIELDS,
                          span_names=traced["span_names"],
                          untraced_loop_s=plain["loop_s"], traced_loop_s=traced["loop_s"])
        else:
            times = [t for _j, t, _c, _i in plain["timings"]]
            instrs = [n for _j, _t, _c, n in plain["timings"]]
            tail_s, tail_pct = tail(times)
            values = {"instr_per_item": plain["loop_instr"] / attempted,
                      "call_p50_instr": statistics.median(instrs),
                      "call_tail_instr": tail(instrs)[0],
                      "setup_s": statistics.median(setup),
                      "peak_rss_mb": plain["peak_rss_kib"] / 1024,
                      "items_per_s": attempted / plain["loop_s"],
                      "call_p50_s": statistics.median(times),
                      "call_tail_s": tail_s}
            metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
            result.update(calls=len(times), call_tail_pct=tail_pct, loop_s=plain["loop_s"],
                          loop_instr=plain["loop_instr"],
                          wall={m: {"value": values[m], "unit": unit} for m, unit in WALL})
        result.update(correct=failed == 0, attempted=attempted, failed=failed,
                      fail_frac=failed / attempted, setup_samples_s=setup, problems=problems,
                      metrics=metrics, context={**context, "loadavg_1m_end": os.getloadavg()[0]})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(OUT_DIR / f"{name}.trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def print_report(result: dict[str, Any]) -> None:
    ctx = result["context"]
    print(f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']}")
    print(f"context: commit={ctx['commit']} src_sha256={ctx['src_sha256'][:16]} python={ctx['python']} "
          f"numpy={ctx['numpy']} scipy={ctx['scipy']} nproc={ctx['nproc']} "
          f"loadavg_1m={ctx['loadavg_1m_start']:.2f}->{ctx['loadavg_1m_end']:.2f}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(f"fail_frac {result['fail_frac']:.6g} ratio ({result['failed']} of {result['attempted']} items)")
    if not result["trace"]:
        print(f"{result['calls']} calls in {result['loop_s']:.3f} s; call_tail_instr and call_tail_s "
              f"are at p{result['call_tail_pct']:.1f}; setup_s is the median of "
              f"{len(result['setup_samples_s'])} spawns")
        for metric, entry in result["wall"].items():
            print(f"{metric} {entry['value']:.6g} {entry['unit']} (wall time, not gated)")
    else:
        print(f"traced {result['traced_loop_s']:.3f} s vs untraced {result['untraced_loop_s']:.3f} s; "
              f"spans in {result['spans']}")
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "minor_toolkit" / "cli.py").is_file():
        print(f"error: no minor_toolkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
