#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_references.py

For workload seeds 0..RECORDED_SEEDS-1 (see workloads.py) this runs every
pooled input of `infer_dense` and `train` once through the program in the
checkout and stores, in perfbench/references.json, a digest of each
`tridet run` output and each training loss curve.  Regenerate only when
the program's output is meant to change; the benchmark then compares every
later run against it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def record(workload, seed):
    import workloads
    workload.make_inputs(seed)
    workload.setup()
    pool = workloads.TRAIN_POOL if workload.name == "train" \
        else workloads.IMAGE_POOL
    out = []
    for i in range(pool):
        call, key = workload.prepare(i)
        output = call()
        error = workload.check(key, output)
        if error is not None:
            raise RuntimeError(f"{workload.name} seed {seed} input {i}: {error}")
        if workload.name == "train":
            out.append(output)
        else:
            out.append(workloads.output_digest(output[1]))
    return out


def main():
    run.use_checkout_sources()
    import workloads

    refs = {"settings": workloads.reference_settings()}
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="references-", dir=run.WORK_ROOT)
    home = os.getcwd()
    os.chdir(work)
    try:
        for name in ("infer_dense", "train"):
            refs[name] = {}
            for seed in range(workloads.RECORDED_SEEDS):
                workload = workloads.WORKLOADS[name]()
                refs[name][str(seed)] = record(workload, seed)
                print(f"{name} seed {seed} recorded", flush=True)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFERENCES, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
