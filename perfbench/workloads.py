"""The benchmark's workloads: inputs made from the workload seed, the timed
request, and the untimed check of its output.

Every workload uses the `full` variant with the default config and the
default-seed weights, written to the working directory before set-up.  A
workload object is driven as

    workload.make_inputs(seed)      # untimed, in the working directory
    setup_s = workload.setup()      # the program's own set-up, timed
    workload.expected = ...         # the stored reference, or None
    call, key = workload.prepare(i) # untimed per-request preparation
    output = call()                 # the timed request
    error = workload.check(key, output)   # None when the output is right

The program sees only the files and arguments made here.  Import this
module after the checkout's `src` directory is on `sys.path`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import tridet
from tridet import cli, gradcheck, train

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

CONFIG = "full.cfg"
WEIGHTS = "full.w3a"
INFER_SIZE = 128         # image side of infer_dense, about 950 NMS candidates
RECORDED_SEEDS = 32      # workload seeds 0..31 have stored references
IMAGE_POOL = 16          # distinct images per seed, cycled by the requests
TRAIN_POOL = 8           # distinct training seeds per workload seed
TRAIN_STEPS = 4          # SGD steps per train request; one step is one item
LOSS_RTOL = 1e-6         # loss curves against the stored reference
SCORE_SLACK = 1e-6       # printed scores are rounded to 6 decimals
DIOU_SLACK = 1e-4        # and so are printed boxes
GRADCHECK_SUITES = ("tensor-core", "attention-head", "coord-attention",
                    "postproc-loss")


def load_references():
    """Stored outputs by workload and seed, from make_references.py."""
    with open(REFERENCES, encoding="utf-8") as f:
        refs = json.load(f)
    settings = reference_settings()
    if refs.get("settings") != settings:
        raise ValueError(f"{REFERENCES} was made with settings "
                         f"{refs.get('settings')}, the benchmark uses "
                         f"{settings}; regenerate it")
    return refs


def reference_settings():
    """What the stored references depend on besides the program."""
    return {"recorded_seeds": RECORDED_SEEDS, "infer_size": INFER_SIZE,
            "image_pool": IMAGE_POOL, "train_pool": TRAIN_POOL,
            "train_steps": TRAIN_STEPS}


def output_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def noise_ppm(seed, index, size):
    """A binary P6 image of uniform noise, fixed by (seed, index)."""
    rng = np.random.default_rng([seed, index])
    pixels = rng.integers(0, 256, (size, size, 3), dtype=np.uint8)
    return b"P6\n%d %d\n255\n" % (size, size) + pixels.tobytes()


def image_name(j):
    return f"in_{j:02d}.ppm"


def write_model_files():
    """The default config and the default-seed weights, as files."""
    cfg = tridet.ModelConfig.default("full")
    with open(CONFIG, "w", encoding="utf-8") as f:
        f.write(tridet.serialize_config(cfg))
    tridet.save_weights(tridet.build_model(cfg), WEIGHTS)


def load_model():
    """What `tridet run` does before it reads its image: load the config,
    build the model and load the weights from the saved files.  Returns
    the config, the model and the seconds it took."""
    t0 = time.perf_counter()
    cfg = tridet.load_config(CONFIG)
    model = tridet.build_model(cfg)
    tridet.load_weights(model, WEIGHTS)
    return cfg, model, time.perf_counter() - t0


def diou_violations(boxes, threshold):
    """Pairs of boxes [N, 4] (cx, cy, w, h) whose DIoU exceeds threshold.

    One row of pairs at a time: N x N matrices would raise the process's
    peak RSS, which the benchmark reports, on seeds with no reference."""
    b = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    x1, y1 = b[:, 0] - b[:, 2] / 2, b[:, 1] - b[:, 3] / 2
    x2, y2 = b[:, 0] + b[:, 2] / 2, b[:, 1] + b[:, 3] / 2
    area = b[:, 2] * b[:, 3]
    bad = 0
    for i in range(len(b) - 1):
        o = slice(i + 1, None)
        iw = np.clip(np.minimum(x2[i], x2[o]) - np.maximum(x1[i], x1[o]), 0, None)
        ih = np.clip(np.minimum(y2[i], y2[o]) - np.maximum(y1[i], y1[o]), 0, None)
        inter = iw * ih
        union = area[i] + area[o] - inter
        iou = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
        cw = np.maximum(x2[i], x2[o]) - np.minimum(x1[i], x1[o])
        ch = np.maximum(y2[i], y2[o]) - np.minimum(y1[i], y1[o])
        c2 = cw ** 2 + ch ** 2
        rho2 = (b[i, 0] - b[o, 0]) ** 2 + (b[i, 1] - b[o, 1]) ** 2
        d = iou - np.divide(rho2, c2, out=np.zeros_like(c2), where=c2 > 0)
        bad += int((d > threshold).sum())
    return bad


class Workload:
    items_per_request = 1
    expected = None      # the stored reference for the seed, if there is one


class Infer(Workload):
    """`tridet run` through `cli.main`, in process, on seeded noise images.

    The images are made before set-up and each is written to its file just
    before its request.  Set-up times the loading `cli.main` repeats in
    every request: config, model build and weights."""

    name = "infer_dense"

    def make_inputs(self, seed):
        write_model_files()
        self.images = [noise_ppm(seed, j, INFER_SIZE)
                       for j in range(IMAGE_POOL)]

    def setup(self):
        self.cfg, _, seconds = load_model()
        return seconds

    def prepare(self, i):
        j = i % IMAGE_POOL
        with open(image_name(j), "wb") as f:
            f.write(self.images[j])
        argv = ["run", CONFIG, WEIGHTS, image_name(j)]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return call, j

    def check(self, j, output):
        code, text, err = output
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        if self.expected is not None:
            if output_digest(text) != self.expected[j]:
                return f"output for {image_name(j)} differs from the reference"
            return None
        return self.check_detections(j, text)

    def check_detections(self, j, text):
        """For a seed with no stored reference: well-formed lines, scores
        descending and above the confidence threshold, and no two kept
        detections of one class above the DIoU threshold."""
        by_class = {}
        last = math.inf
        for line in text.splitlines():
            f = line.split()
            if len(f) != 7 or f[0] != image_name(j):
                return f"malformed detection line {line!r}"
            score, box = float(f[2]), [float(v) for v in f[3:]]
            in_range = self.cfg.conf_threshold - SCORE_SLACK < score <= last
            if not in_range or box[2] <= 0 or box[3] <= 0 \
                    or not all(map(math.isfinite, box)):
                return f"detection out of order or out of range: {line!r}"
            last = score
            by_class.setdefault(f[1], []).append(box)
        for cid, boxes in by_class.items():
            n = diou_violations(boxes, self.cfg.nms_threshold + DIOU_SLACK)
            if n:
                return f"{n} kept pairs of class {cid} exceed the DIoU threshold"
        return None


class Train(Workload):
    """One `train.train_toy` call of TRAIN_STEPS steps from the saved
    weights; the training seed, and so the mosaic, changes per request."""

    name = "train"
    items_per_request = TRAIN_STEPS

    def make_inputs(self, seed):
        write_model_files()
        self.seeds = [seed * TRAIN_POOL + j for j in range(TRAIN_POOL)]

    def setup(self):
        self.cfg, self.model, seconds = load_model()
        return seconds

    def prepare(self, i):
        j = i % TRAIN_POOL
        tridet.load_weights(self.model, WEIGHTS)
        seed = self.seeds[j]
        return (lambda: train.train_toy(self.model, self.cfg, TRAIN_STEPS,
                                        seed)), j

    def check(self, j, curve):
        if len(curve) != TRAIN_STEPS + 1 or not all(map(math.isfinite, curve)):
            return f"loss curve {curve} is not {TRAIN_STEPS + 1} finite values"
        if self.expected is not None:
            ref = self.expected[j]
            if any(abs(a - b) > LOSS_RTOL * abs(b) for a, b in zip(curve, ref)):
                return f"loss curve {curve} differs from the reference {ref}"
        return None


class Gradcheck(Workload):
    """`gradcheck.run_suite` over the four suites at one seed.

    `run_suite` draws its instances from seeds 0..n-1 itself, so the
    workload seed does not change this workload's inputs.  The suites read
    no files, so the only set-up on this path is importing the module,
    which a fresh interpreter does once; numpy is imported before the
    clock starts."""

    name = "gradcheck"

    def make_inputs(self, seed):
        pass

    def setup(self):
        code = ("import sys, time; import numpy; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import tridet.gradcheck; "
                "print(time.perf_counter() - t)")
        src = os.path.dirname(os.path.dirname(os.path.abspath(tridet.__file__)))
        out = subprocess.run([sys.executable, "-c", code, src], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        return float(out)

    def prepare(self, i):
        return (lambda: [(m, gradcheck.run_suite(m, 1))
                         for m in GRADCHECK_SUITES]), None

    def check(self, _, output):
        failed = [f"{m}/{r.name} ({r.max_err:.2e} >= {r.tol:.0e})"
                  for m, results in output for r in results if not r.passed]
        if failed or not all(results for _, results in output):
            return f"gradient checks failed: {', '.join(failed) or 'none ran'}"
        return None


WORKLOADS = {
    "infer_dense": Infer,
    "train": Train,
    "gradcheck": Gradcheck,
}
