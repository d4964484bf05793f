"""Regenerate ``reference.json``: the C* of every theorem of the ``balls``
and ``battery`` workloads for each input variant, and probe values of the
p = 2 solve (which does not depend on the seed).

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter these answers, and say why in
the change; the benchmark compares every run against this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from wulff_lab import cli  # noqa: E402

WORK = ROOT / ".perfbench_out" / "reference"


def _run(call) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(call.argv)
    if rc != 0:
        raise SystemExit(f"{call.argv} exited {rc}")


def main() -> int:
    ref = {"variants": workloads.VARIANTS, "balls": {}, "battery": {}}
    for name in ("balls", "battery"):
        for variant in range(workloads.VARIANTS):
            (call,) = workloads.prepare(name, str(WORK), variant, None)
            _run(call)
            with open(Path(call.out_dir) / "report.json") as fh:
                report = json.load(fh)
            ref[name][str(variant)] = {r["theorem"]: r["c_star"] for r in report["reports"]}
            print(name, variant, ref[name][str(variant)], file=sys.stderr)
    p2 = workloads.prepare("solve", str(WORK), 0, None)[0]
    _run(p2)
    u = workloads.read_wlf(str(Path(p2.out_dir) / "u.wlf"))[0]
    ref["solve"] = {"p2_probe": [float(u[c]) for c in workloads.P2_PROBE_CELLS]}
    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
