"""Benchmark of the wulff-lab command line, end to end and per layer.

    python3 perfbench/run.py --workload balls --seed 3 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` gives each one's rationale):

* ``balls``   -- ``wulff-lab run`` at 256^2, p = 1.5: pointwise Wulff and
  oscillation potentials at 49 seeded points, oscillation decay,
  Caccioppoli, BMO scan, SVG heatmaps.  Ball calculus under load.
* ``battery`` -- ``wulff-lab run --threads 2`` at 128^2 over seeded sample
  batteries.  Random fields, Riesz FFT maps, Lorentz/Orlicz norms.
* ``solve``   -- three ``wulff-lab solve`` calls (p = 2 at 256^2, p = 3 and
  p = 1.5 at 64^2 on a seeded non-degenerate datum).  Solver only.
* ``all``     -- each of the above in its own process, one after another.

A run is one fresh process, as a user's CLI call is: it imports
``wulff_lab.cli`` (timed), then calls ``cli.main([...])`` in a closed loop
with a single client until ``--seconds`` have passed, and checks every
call's outputs.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  A human-readable table with sample counts goes to stderr.

The end-to-end times are in reference-speed seconds: a median of measured
times is scaled by ``CALIBRATION_REF_S`` over the median time of a fixed
kernel that does not use the program (``calibrate``), run between the
measured steps (between the set-up probes for ``setup_s``, between the CLI
calls for ``wall_s`` and ``cpu_s``).  On a shared VM the
host's speed drifts by up to 1.8x within minutes and moves user CPU time
alike, which no in-run repetition removes; the scaling cancels most of that
drift, and a change to the program cannot move the kernel.  The raw
seconds and the kernel times are in the stderr table and the result file
(``*_raw_s``, ``calibration_s``).  Per-layer times are raw.

With ``--trace 1`` iterations alternate traced (even) and untraced (odd);
the traced ones wrap the package's public functions from outside (see
``tracing.py``).  Counts come from the first traced iteration, times are
medians over traced iterations, and the tracing overhead is traced minus
untraced ``wall_s``.  Every count must repeat exactly across traced
iterations and across runs of the same seed and source; ``bench.count_drift``
counts the ones that do not.

Everything the run writes goes under ``.perfbench_out/`` in the checkout:
a result file per run (with the machine record), the spans of traced runs
as JSON lines, and the counts used by the cross-run repeat check.  Compare
results only from one machine, and alternate the two sides of a pair.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4
# Stop starting iterations after this long, so a run ends within 180 s.
HARD_STOP_S = 120.0
PROBE = ("import time; t = time.perf_counter(); import wulff_lab.cli; "
         "print(repr(time.perf_counter() - t))")
MODULES = ("cli", "field_grid", "potential_engine", "plaplace_solver",
           "function_spaces", "inequality_lab")
COUNT_SUFFIXES = (".calls", ".bytes", ".balls_scanned", ".iterations")
# Median time of ``calibrate`` on the reference machine (2-core x86-64 VM,
# Python 3.11, numpy 2.4); it only sets the scale of the reported times.
CALIBRATION_REF_S = 0.25


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _probe_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def setup_probe(importtime: bool) -> tuple[float, dict[str, float]]:
    """Import ``wulff_lab.cli`` in a fresh interpreter; seconds and, with
    ``importtime``, the cumulative import seconds of each package module."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", PROBE]
    proc = subprocess.run(cmd, env=_probe_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        _fail(f"importing wulff_lab.cli failed:\n{proc.stderr}")
    return float(proc.stdout.strip()), tracing.parse_importtime(proc.stderr)


def machine_facts() -> dict:
    import numpy
    import scipy

    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches": caches,
    }


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def calibrate() -> float:
    """Seconds for a fixed kernel with the program's mix of work: small-array
    numpy calls as in the ball calculus, 2-D FFTs as in ``riesz_map``,
    full-grid elementwise sweeps as in the solver, and a plain Python loop."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.random.default_rng(0).random((256, 256))
    acc = 0.0
    for i in range(4000):
        box = a[i % 200:i % 200 + 33, 17:50]
        acc += float(box[box <= 0.5].mean())
    for _ in range(20):
        a = np.fft.irfft2(np.fft.rfft2(a) * 0.5, s=a.shape) + 0.5
    b = a.copy()
    for _ in range(500):
        b = np.sqrt(b * b + 1e-3) * 0.999
    x = 0
    for i in range(300000):
        x += i * i % 7
    return time.perf_counter() - t0


def _median(values):
    return statistics.median(values) if values else 0.0


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _invoke(cli, argv) -> tuple[int, str, float, float]:
    """One CLI call: exit code, captured stdout, wall and CPU seconds."""
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), _cpu()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # counted as a failed operation, never fatal to the run
        rc = -1
        err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - t0, _cpu() - c0
    if rc != 0 and err.getvalue():
        print(f"perfbench: {argv[0]} exited {rc}:\n{err.getvalue()}", file=sys.stderr)
    return rc, out.getvalue(), wall, cpu


def run_one(args, spec: dict) -> dict:
    if not (SRC / "wulff_lab" / "cli.py").is_file():
        _fail(f"no wulff_lab sources under {SRC}")
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)

    setup_cals, probes = [calibrate()], []
    for _ in range(SETUP_PROBES):
        probes.append(setup_probe(importtime=bool(args.trace)))
        setup_cals.append(calibrate())
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        return _measure(args, spec, reference, probes, setup_cals, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, spec, reference, probes, setup_cals, work) -> dict:
    calls = workloads.prepare(args.workload, str(work), args.seed, reference)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    from wulff_lab import cli
    from wulff_lab import potential_engine
    setup = [p[0] for p in probes] + [time.perf_counter() - t0]

    tracer = tracing.Tracer() if args.trace else None
    iters = []       # per iteration: traced, wall, cpu, per-call walls, layer numbers
    errors = []
    cals = [calibrate()]
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(iters) % 2 == 0
        kernel0 = potential_engine._kernel_table.cache_info()
        n_spans = 0
        if traced:
            n_spans = len(tracer.spans)
            tracer.install()
        results = []
        try:
            for k, call in enumerate(calls):
                shutil.rmtree(call.out_dir, ignore_errors=True)
                if traced:
                    tracer.run_id = f"{len(iters)}.{k}"
                results.append(_invoke(cli, call.argv))
                cals.append(calibrate())
        finally:
            if traced:
                tracer.uninstall()
        layer = None
        if traced:
            kernel1 = potential_engine._kernel_table.cache_info()
            layer = tracing.summarize(tracer.spans[n_spans:])
            layer["potential_engine.kernel_cache.hits"] = kernel1.hits - kernel0.hits
            layer["potential_engine.kernel_cache.misses"] = kernel1.misses - kernel0.misses
        for call, (rc, stdout, _, _) in zip(calls, results):
            errors += [f"iteration {len(iters)}: {op}: {why}"
                       for op, why in call.check(rc, stdout).items()]
        iters.append({
            "traced": traced,
            "wall": sum(r[2] for r in results),
            "cpu": sum(r[3] for r in results),
            "calls": {c.label: r[2] for c, r in zip(calls, results)},
            "layer": layer,
        })
        elapsed = time.perf_counter() - start
        kinds = {it["traced"] for it in iters}
        if elapsed >= HARD_STOP_S or (elapsed >= args.seconds
                                      and (tracer is None or len(kinds) == 2)):
            break

    plain = [it for it in iters if not it["traced"]]
    attempted = sum(len(c.ops) for c in calls) * len(iters)
    failed = len(errors)

    raw = {
        "wall": (_median([it["wall"] for it in plain]), len(plain)),
        "cpu": (_median([it["cpu"] for it in plain]), len(plain)),
        "setup": (_median(setup), len(setup)),
    }
    speed = CALIBRATION_REF_S / _median(cals)
    setup_speed = CALIBRATION_REF_S / _median(setup_cals)
    values = {
        "wall_s": (raw["wall"][0] * speed, raw["wall"][1]),
        "cpu_s": (raw["cpu"][0] * speed, raw["cpu"][1]),
        "setup_s": (raw["setup"][0] * setup_speed, raw["setup"][1]),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "fail_frac": (failed / attempted, attempted),
        "calibration_s": (_median(cals), len(cals)),
        "setup_calibration_s": (_median(setup_cals), len(setup_cals)),
        **{f"{k}_raw_s": v for k, v in raw.items()},
    }
    for case in workloads.SOLVE_CASES:
        walls = [it["calls"][case] for it in plain if case in it["calls"]]
        values[f"solve_s.{case}"] = (_median(walls), len(walls))

    drift: list[str] = []
    if tracer is not None:
        values.update(_layer_values(iters, probes, drift))
        values.update(_cross_run_drift(args, values, drift))
        OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(str(OUT / "spans" / f"{args.workload}.jsonl"),
                           {"workload": args.workload, "seed": args.seed})

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        value, _ = values.get(m["name"], (0.0, 0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    _print_table(args, spec, values, failed, attempted, errors, drift)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    _write_result(args, values, errors, drift, iters, result)
    return result


def _layer_values(iters, probes, drift) -> dict:
    traced = [it["layer"] for it in iters if it["traced"]]
    plain = [it["wall"] for it in iters if not it["traced"]]
    first = traced[0]
    out = {}
    for key in sorted(set().union(*traced)):
        if key.endswith(COUNT_SUFFIXES):
            out[key] = (first.get(key, 0), 1)
            seen = {t.get(key, 0) for t in traced}
            if len(seen) > 1:
                drift.append(f"{key}: {sorted(seen)} across traced iterations")
        elif key.startswith("potential_engine.kernel_cache."):
            out[key] = (first[key], 1)
        else:
            out[key] = (_median([t.get(key, 0.0) for t in traced]), len(traced))
    for mod in MODULES:
        samples = [p[1][mod] for p in probes if mod in p[1]]
        out[f"{mod}.import_s"] = (_median(samples), len(samples))
    out["bench.trace_overhead_s"] = (
        _median([it["wall"] for it in iters if it["traced"]]) - _median(plain), len(iters))
    return out


def _cross_run_drift(args, values, drift) -> dict:
    """Compare counts with the last run of the same workload, seed and source."""
    counts = {k: v for k, (v, _) in values.items() if k.endswith(COUNT_SUFFIXES)}
    path = OUT / "counts" / f"{args.workload}-seed{args.seed}-{source_hash()}.json"
    if path.exists():
        with open(path) as fh:
            previous = json.load(fh)
        for key in sorted(set(previous) | set(counts)):
            if previous.get(key, 0) != counts.get(key, 0):
                drift.append(f"{key}: {previous.get(key, 0)} in an earlier run, "
                             f"{counts.get(key, 0)} now")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(counts, fh, sort_keys=True, indent=1)
    return {"bench.count_drift": (len(drift), 1)}


def _print_table(args, spec, values, failed, attempted, failures, drift) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(fail_frac="ratio", wall_raw_s="s", cpu_raw_s="s", setup_raw_s="s",
                 calibration_s="s", setup_calibration_s="s")
    err = sys.stderr
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"failed {failed}/{attempted}", file=err)
    for name in sorted(values):
        value, n = values[name]
        if name.startswith("solve_s.") and args.workload != "solve":
            continue
        print(f"{name:<58} {value!r:>24} {units.get(name, ''):<6} n={n}", file=err)
    for line in failures + drift:
        print(f"! {line}", file=err)


def _write_result(args, values, failures, drift, iters, result) -> None:
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "time": time.time(),
        "source": source_hash(),
        "machine": machine_facts(),
        "values": {k: {"value": v, "samples": n} for k, (v, n) in values.items()},
        "iterations": [{k: it[k] for k in ("traced", "wall", "cpu", "calls")}
                       for it in iters],
        "failures": failures,
        "count_drift": drift,
        "result": result,
    }
    path = OUT / "results"
    path.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(path / name, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def run_all(args) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
        if proc.returncode != 0:
            _fail(f"workload {name} exited {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in res["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        _fail("--seed must be non-negative")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"missing {spec_path}")
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = run_all(args) if args.workload == "all" else run_one(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
