#!/usr/bin/env python3
"""Benchmark for tridet: one closed-loop client in one process.

    python3 perfbench/run.py --workload infer_dense --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all     # every workload in turn

Run from anywhere inside a checkout; the program is imported from the
checkout's `src` directory and nowhere else.  Each request starts only when
the previous one has completed.  With `--trace 0` the run reports the
end-to-end metrics.  With `--trace 1` it measures half the time untraced
and half traced, and reports the per-layer metrics with the tracing
overhead.  Every output is checked; see perfbench/README.md.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every request succeeded with a correct output, 1 when one did not, and 2
when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOAD_NAMES = ("infer_dense", "train", "gradcheck")
TAIL_BEYOND = 10         # samples that must lie beyond the tail percentile
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "items_per_s": "1/s",
    "cpu_ms_per_item": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Record:
    latency_s: float
    cpu_s: float
    items: int
    error: str | None


def use_checkout_sources():
    """Put the checkout's `src` first on sys.path, or refuse to run."""
    if not os.path.isfile(os.path.join(SRC, "tridet", "__init__.py")):
        raise RuntimeError(f"no tridet sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tridet
    found = os.path.dirname(os.path.dirname(os.path.abspath(tridet.__file__)))
    if found != SRC:
        raise RuntimeError(f"tridet was imported from {found}, not {SRC}")


def measure(workload, seconds, tracer=None, after=None):
    """Closed loop: issue requests one at a time while the next one, if it
    takes as long as the last, ends within `seconds` (at least one request).
    Only the call is timed; the preparation, the output check and
    `after()`, called after each request, are not."""
    records = []
    start = time.perf_counter()
    i = 0
    while not records or (time.perf_counter() - start
                          + records[-1].latency_s <= seconds):
        call, key = workload.prepare(i)
        if tracer is not None:
            tracer.request = i
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            output, error = call(), None
        except Exception as e:  # a failed request is counted, not fatal
            output, error = None, f"{type(e).__name__}: {e}"
        t1, c1 = time.perf_counter(), time.process_time()
        if error is None:
            error = workload.check(key, output)
        records.append(Record(t1 - t0, c1 - c0, workload.items_per_request,
                              error))
        if after is not None:
            after()
        i += 1
    return records


def tail_latency(latencies):
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, label); the maximum when there are too few samples."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], f"max of {n} samples, too few for a percentile"
    k = n - TAIL_BEYOND - 1
    return lat[k], f"p{100.0 * (k + 1) / n:.1f} of {n} samples"


def seconds_per_item(records):
    return sum(r.latency_s for r in records) / sum(r.items for r in records)


def end_to_end(records, setups):
    tail, tail_label = tail_latency([r.latency_s for r in records])
    items = sum(r.items for r in records)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": 1000.0 * statistics.median(r.latency_s for r in records),
        "latency_tail_ms": 1000.0 * tail,
        "items_per_s": 1.0 / seconds_per_item(records),
        "cpu_ms_per_item": 1000.0 * sum(r.cpu_s for r in records) / items,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "latency_p50_ms": f"{len(records)} samples",
        "latency_tail_ms": tail_label,
        "items_per_s": f"{items} items",
    }
    return metrics, notes


def blas_threads():
    """The thread count OpenBLAS reports, if numpy bundles OpenBLAS."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("openblas_get_num_threads",
                   "scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads"):
            get = getattr(lib, fn, None)
            if get is not None:
                get.restype = ctypes.c_int
                return get()
    return None


def machine_record():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "load_processes": 1,
    }


def run_workload(name, seed, seconds, trace):
    """Set up, warm up and measure one workload; returns the result record."""
    import probes
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[name]()
    references = workloads.load_references()
    expected = references.get(name, {}).get(str(seed))
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    home = os.getcwd()
    os.chdir(work)
    try:
        workload.make_inputs(seed)
        setups = [workload.setup()]
        workload.expected = expected
        records = measure(workload, 0)          # warm-up: one request
        if not trace:
            # One more set-up after each timed request, so that setup_s is
            # a median over the whole run, not over one moment of it.
            timed = measure(workload, seconds,
                            after=lambda: setups.append(workload.setup()))
            metrics, notes = end_to_end(timed, setups)
            units = END_TO_END
            records += timed
        else:
            untraced = measure(workload, seconds / 2)
            with Tracer() as tracer:
                probes.install(tracer)
                clamps = probes.clamp_count()
                traced = measure(workload, seconds / 2, tracer)
                clamps = probes.clamp_count() - clamps
            items = sum(r.items for r in traced)
            metrics = probes.per_layer(
                tracer, items, sum(r.latency_s for r in traced),
                seconds_per_item(untraced), clamps)
            units = probes.PER_LAYER
            notes = {"trace.item_ms": f"{len(traced)} traced requests",
                     "trace.untraced_item_ms":
                         f"{len(untraced)} untraced requests"}
            records += untraced + traced
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}")
    if trace:
        tracer.write_jsonl(stem + ".spans.jsonl")
    if name not in references:
        reference = "none: every check must pass"
    elif expected is None:
        reference = "none for this seed: property checks only"
    else:
        reference = "stored"
    errors = [f"request {i}: {r.error}" for i, r in enumerate(records)
              if r.error is not None]
    result = {
        "workload": name,
        "settings": {"seed": seed, "seconds": seconds, "trace": int(trace),
                     **workloads.reference_settings(),
                     "reference": reference},
        "machine": machine_record(),
        "attempted": len(records),
        "failed": len(errors),
        "errors": errors[:20],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "notes": notes,
    }
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    return result


def report(result):
    """Human-readable lines for one workload's result."""
    print(f"workload {result['workload']}  settings {json.dumps(result['settings'])}")
    print(f"machine {json.dumps(result['machine'])}")
    for m, v in result["metrics"].items():
        note = result["notes"].get(m)
        print(f"  {m} {v['value']:.6g} {v['unit']}" + (f"  ({note})" if note else ""))
    n, k = result["attempted"], result["failed"]
    print(f"  failed_ratio {k / n:.6g} ({k} failed of {n} attempted requests, "
          f"warm-up included)")
    for e in result["errors"]:
        print(f"  FAILED {e}")


def run_all(args):
    """Every workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        code = max(code, proc.returncode)
        if proc.returncode not in (0, 1):
            continue
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for m, v in last["metrics"].items():
            combined["metrics"][f"{name}.{m}"] = v
    if code == 2:
        return 2
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        use_checkout_sources()
    except (RuntimeError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
