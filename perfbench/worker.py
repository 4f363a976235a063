"""One fresh benchmark worker process.

    python3 perfbench/worker.py SPEC.json

Imports ``minor_toolkit.cli``, decodes every input file of the workload, and
prints ``ready``: the parent times set-up up to that line.  In ``setup`` mode
it then exits.  In ``run`` mode it is the single client of a closed loop: it
calls ``cli.main(argv)`` with the next call of the list, waiting for each
call to return, until ``seconds`` have passed and the calls made are a
whole number of ``block``s, or until ``max_calls`` calls are done, cycling
through the list if it runs out.  The loop always makes at
least one call.  Each call's wall time and user-mode instructions are
recorded (``counters.py``), and so are the loop's totals.  Each call's stdout
is captured; the first output of every distinct call is kept, and a repeat
whose output differs is recorded.
With ``trace`` set, the calls run under ``tracing.Tracer`` and the spans are
written to ``spans`` after the loop.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def peak_rss_kib() -> int:
    """Peak resident set of this process image (VmHWM).  ``ru_maxrss`` can
    carry over the parent's peak across exec, so it is only the fallback."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from minor_toolkit import cli
    from minor_toolkit.graph6 import read_graph6_file

    for path in spec["inputs"]:
        read_graph6_file(path)
    print("ready", flush=True)
    if spec["mode"] == "setup":
        return 0

    from counters import InstructionCounter
    counter = InstructionCounter()
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    calls = spec["calls"]
    seconds = spec["seconds"]
    max_calls = spec["max_calls"]
    block = spec["block"]
    timings: list[list] = []  # [call index, seconds, exit code or None, instructions]
    outputs: dict[int, str] = {}
    errors: dict[int, str] = {}
    repeat_mismatches: list[int] = []
    start = time.perf_counter()
    start_instr = counter.read()
    i = 0
    while True:
        j = i % len(calls)
        if tracer is not None:
            tracer.item = i
        out = io.StringIO()
        t0 = time.perf_counter()
        i0 = counter.read()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(calls[j]))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an item that raises is a failed item; the loop goes on
            code = None
            errors.setdefault(j, traceback.format_exc(limit=5))
        instr = counter.read() - i0
        elapsed = time.perf_counter() - t0
        timings.append([j, elapsed, code, instr])
        text = out.getvalue()
        if j not in outputs:
            outputs[j] = text
        elif outputs[j] != text:
            repeat_mismatches.append(i)
        i += 1
        if max_calls is not None and i >= max_calls:
            break
        if seconds is not None and i % block == 0 and time.perf_counter() - start >= seconds:
            break
    loop_s = time.perf_counter() - start
    loop_instr = counter.read() - start_instr
    counter.check_exclusive()
    counter.close()

    result = {"timings": timings, "outputs": outputs, "errors": errors,
              "repeat_mismatches": repeat_mismatches, "loop_s": loop_s, "loop_instr": loop_instr,
              "peak_rss_kib": peak_rss_kib(), "trace": None}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.totals()
        result["span_names"] = tracer.names
        with open(spec["spans"], "wb") as fh:
            tracer.spans.tofile(fh)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
