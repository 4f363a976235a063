"""Rebuild ``reference.json``: the key fields of every pool graph's CLI record,
and each family's pool ordered by the user-mode instructions its calls
retired (``counters.py``), which, unlike seconds, do not move with the load of
the host.

Run from the repository root, only on a commit whose outputs are trusted:

    python3 perfbench/record_reference.py [WORKLOAD ...]

Names re-record only those workloads and keep the others' entries.

Every record's certificates are re-verified before its fields are stored.
Prints the instructions and seconds of each call, as a per-item cost baseline.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from counters import InstructionCounter  # noqa: E402
from workloads import (REFERENCE_PATH, WORKLOADS, GraphWorkload,  # noqa: E402
                       check_certificates, load_reference)


def main(names: list[str]) -> int:
    from minor_toolkit import cli, generators
    from minor_toolkit.graph6 import encode_graph6

    reference: dict[str, dict] = load_reference() if names else {}
    counter = InstructionCounter()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        path = Path(tmp) / "in.g6"
        for wl in WORKLOADS.values():
            if not isinstance(wl, GraphWorkload) or (names and wl.name not in names):
                continue
            records: dict[str, dict] = {}
            cost: dict[str, int] = {}
            for key in wl.pool_keys():
                spec, _, gen_seed = key.rpartition("#")
                text = encode_graph6(generators.generate(spec, int(gen_seed)))
                path.write_text(text + "\n", encoding="ascii")
                out = io.StringIO()
                start = time.perf_counter()
                start_instr = counter.read()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main([*wl.command, "--input", str(path)])
                instr = counter.read() - start_instr
                elapsed = time.perf_counter() - start
                rec = json.loads(out.getvalue())
                problems = check_certificates(rec, text)
                if rc != 0 or problems:
                    print(f"{wl.name} {key}: exit {rc}, {problems}", file=sys.stderr)
                    return 1
                records[key] = wl.key_fields(rec)
                cost[key] = instr
                print(f"{wl.name} {key} {instr} instr {elapsed:.4f} s", flush=True)
            cost_order = {spec: sorted(range(c * wl.pool), key=lambda i: cost[f"{spec}#{i}"])
                          for spec, c in wl.families}
            reference[wl.name] = {"records": records, "cost_order": cost_order}
    with open(REFERENCE_PATH, "w", encoding="ascii") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
