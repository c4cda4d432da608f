"""Benchmark of `cellcoh` verifications, run the way users run them.

    python3 perfbench/run.py --workload classes --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  Each op is one CLI command called in-process through
`cellcoh.cli.main([..., "--format", "json"])`, and its JSON report is
checked against values known by construction.  Ops run one after another
in this single process: a closed loop with one client and no threads.

With `--trace 0` the script repeats passes over the workload's op list
until `--seconds` is used up and prints the end-to-end metrics as medians
over the passes.  With `--trace 1` it makes one untraced pass, then one
pass with every layer wrapped (see `spans.py`), and prints the per-layer
metrics of the traced pass.  The last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "out"

# set-up is timed this many times, each in a fresh process
SETUP_PROBES = 7

# Time of `calibrate()` on the unloaded 2-core Xeon (Sapphire Rapids, KVM)
# the benchmark was written on; see `load_factors`.
CALIBRATION_S = 0.011


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _prepare(out: Path, seed: int) -> dict:
    """Import every layer of the program and write the seeded inputs."""
    import cellcoh.cli  # noqa: F401  (imports every layer)
    import inputs
    return inputs.generate(out, seed)


def calibrate() -> float:
    """Wall time of a fixed loop of the kinds of work the program does
    (Fraction arithmetic, object-dtype numpy arrays, dicts), about 11 ms.
    It calls no program code, so a change to the program cannot move it."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    a = np.array([Fraction(i, 7) for i in range(1, 200)], dtype=object)
    for _ in range(8):
        (a * a + a).sum()
    d = {}
    for i in range(20000):
        d[i % 997] = d.get(i % 997, 0) + i
    return perf_counter() - t0


def load_factors(calibrations) -> list[float]:
    """For each interval between two consecutive calibrations, the factor
    that turns a time measured in it into seconds at the speed the
    calibration has on an unloaded machine.

    The machine is shared: other load slows everything by up to 2x, in
    spells of a fraction of a second to minutes.  Dividing by the
    calibrations right before and right after cancels most of that: over
    eight 30 s runs of `classes` the per-op best raw time spread 31%
    (quartile distance over median), the calibrated time 2%.
    """
    return [2 * CALIBRATION_S / (b + a)
            for b, a in zip(calibrations, calibrations[1:])]


def _setup_times(work: Path, seed: int) -> list[float]:
    """Process start to first op, measured from outside on fresh processes:
    interpreter start, `import cellcoh` and input generation."""
    times = []
    for i in range(SETUP_PROBES):
        before = calibrate()
        t0 = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--setup-probe", str(work / f"probe{i}"), "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe {i} exited {proc.returncode}")
        times.append((t1 - t0) * load_factors([before, calibrate()])[0])
    return times


def _same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    match, _, _ = filecmp.cmpfiles(a, b, names, shallow=False)
    return len(match) == len(names)


def run_pass(ops, main, tracer=None):
    """Run every op once, with a calibration before each op and after the
    last; return (pass wall time, op times, calibrations, failure list)."""
    outputs = []
    times = []
    calibrations = []
    t_pass = perf_counter()
    for op in ops:
        calibrations.append(calibrate())
        if tracer is not None:
            tracer.begin_op(op.label)
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(op.argv + ["--format", "json"])
        except Exception:  # an op that raises counts as failed
            rc = None
            err.write(traceback.format_exc())
        times.append(perf_counter() - t0)
        outputs.append((rc, out.getvalue(), err.getvalue()))
    calibrations.append(calibrate())
    wall = perf_counter() - t_pass
    failures = []
    for op, (rc, text, err) in zip(ops, outputs):
        if rc is None:
            failures.append(f"{op.label}: raised\n{err}")
            continue
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            failures.append(f"{op.label}: exit {rc}, no JSON report: {err}")
            continue
        why = op.check(rc, report)
        if why:
            failures.append(f"{op.label}: {why}")
    return wall, times, calibrations, failures


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if sys.flags.optimize:
        # witness checks in the program are asserts; -O would time a
        # program with its checks stripped
        return _fail("refusing to run under python -O")
    if not (SRC / "cellcoh" / "__init__.py").is_file():
        return _fail(f"no program source at {SRC}; run from a checkout")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The program iterates over sets of cells, so the string-hash seed
        # changes pivot orders and with them the work: across six hash seeds
        # `descent rp2_6 --ring Z` took 1.0 to 1.8 s.  Pin it, so that runs
        # differ only by the machine and by --seed.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())]
                  + (sys.argv[1:] if argv is None else argv), env)
    sys.path.insert(0, str(SRC))

    if args.setup_probe is not None:
        _prepare(args.setup_probe, args.seed)
        print("ready", flush=True)
        return 0

    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = _prepare(work / "inputs", args.seed)
        from cellcoh import cli
        data = SRC / "cellcoh" / "data"
        ops = workloads.WORKLOADS[args.workload](inputs, data, args.seed)
        failures = []
        attempted = 0
        inputs_ok = True
        if args.trace:
            _, times, cal, bad = run_pass(ops, cli.main)
            failures += bad
            untraced = sum(t * f for t, f in zip(times, load_factors(cal)))
            import spans
            tracer = spans.Tracer()
            tracer.install()
            _, times, cal, bad = run_pass(
                ops, tracer.span("cli.main", cli.main), tracer)
            failures += bad
            attempted = 2 * len(ops)
            factors = load_factors(cal)
            values = tracer.per_layer(factors)
            values["trace.overhead_ratio"] = sum(
                t * f for t, f in zip(times, factors)) / untraced
            tracer.save(WORK / f"spans-{args.workload}.npz")
            metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
                       for m in spec["per_layer"]}
        else:
            setup = _setup_times(work, args.seed)
            inputs_ok = _same_files(work / "inputs", work / "probe0")
            op_times = [[] for _ in ops]
            t_start = perf_counter()
            while True:
                wall, times, cal, bad = run_pass(ops, cli.main)
                failures += bad
                attempted += len(ops)
                for acc, t, f in zip(op_times, times, load_factors(cal)):
                    acc.append(t * f)
                if perf_counter() - t_start + wall > args.seconds:
                    break
            per_op = [statistics.median(t) for t in op_times]
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = {
                "setup_s": statistics.median(setup),
                "verdict_s": sum(per_op),
                "op_p50_s": statistics.median(per_op),
                "slowest_op_s": max(per_op),
                "peak_rss_mb": rss_mb,
            }
            metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
                       for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    if not inputs_ok:
        print("FAILED inputs differ between two generations from one seed",
              file=sys.stderr)
    correct = inputs_ok and not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
