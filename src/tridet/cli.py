"""Command-line front end: inference, gradient checks, parameter audits,
the toy training loop, and a weight-file round-trip self-test."""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile
from dataclasses import replace

from . import gradcheck as gc
from .config import ModelConfig, load_config
from .model import build_model, load_weights, save_weights
from .neck import count_params
from .postproc import format_detection
from .ppm import read_ppm, write_pgm
from .train import run_inference, train_toy


def _load_cfg(path):
    if path is None:
        return ModelConfig.default()
    return load_config(path)


def cmd_run(args):
    cfg = _load_cfg(args.config)
    model = build_model(cfg)
    load_weights(model, args.weights)
    image = read_ppm(args.image)
    rows = run_inference(model, cfg, image)
    sys.stdout.write(format_detection(args.image, rows))
    if args.dump_features:
        neck = model.neck
        c3, c4, c5 = model.backbone.forward(image)
        maps = [neck.ca3.forward(c3), neck.ca4.forward(c4),
                neck.ca5.forward(c5), *neck.forward(c3, c4, c5)]
        os.makedirs(args.dump_features, exist_ok=True)
        for name, fmap in zip(("ca3", "ca4", "ca5", "p3", "p4", "p5"), maps):
            write_pgm(os.path.join(args.dump_features, f"{name}.pgm"),
                      fmap.mean(axis=0))
    return 0


def cmd_gradcheck(args):
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    results = gc.run_suite(args.module, args.seeds)
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max_rel_err {r.max_err:.3e}  "
              f"tol {r.tol:.0e}  {status}")
        ok = ok and r.passed
    print(f"{'all checks passed' if ok else 'FAILURES detected'} "
          f"({len(results)} checks, {args.seeds} seeds each)")
    return 0 if ok else 1


def cmd_params(args):
    cfg = _load_cfg(args.config)
    model = build_model(cfg)
    table, total = count_params(model)
    width = max(len(n) for n in table)
    for name, n in table.items():
        print(f"{name:<{width}}  {n}")
    print(f"{'total':<{width}}  {total}")
    if args.compare_csp:
        plain, csp = (
            count_params(build_model(replace(cfg, csp_enabled=flag)))[0]["neck"]
            for flag in (False, True))
        print(f"neck-plain {plain}")
        print(f"neck-csp {csp}")
        print(f"csp-reduction {plain - csp}")
    return 0


def cmd_train_toy(args):
    for flag, value in (("--steps", args.steps), ("--seed", args.seed)):
        if value < 0:
            raise ValueError(f"{flag} must be at least 0, got {value}")
    if not 0 < args.lr < math.inf:
        raise ValueError(f"--lr must be finite and above 0, got {args.lr}")
    cfg = _load_cfg(args.config)
    model = build_model(cfg)
    curve = train_toy(model, cfg, args.steps, args.seed, args.lr, log=print)
    print(f"final loss {curve[-1]:.6f} (start {curve[0]:.6f})")
    return 0


def cmd_weights_selftest(args):
    cfg = _load_cfg(args.config)
    model = build_model(cfg)
    before = model.checksum()
    fd, path = tempfile.mkstemp(suffix=".w3a")
    os.close(fd)
    try:
        save_weights(model, path)
        load_weights(model, path)
    finally:
        os.unlink(path)
    after = model.checksum()
    if before != after:
        raise RuntimeError(
            f"round-trip checksum mismatch: {before} != {after}")
    print(f"weights round-trip ok, checksum {after}")
    return 0


@functools.cache  # parse_args keeps no state, so one parser serves every call
def build_parser():
    parser = argparse.ArgumentParser(
        prog="tridet",
        description="Triple-awareness detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run inference on a P6 image")
    p.add_argument("config")
    p.add_argument("weights")
    p.add_argument("image")
    p.add_argument("--dump-features", metavar="DIR",
                   help="write per-tap channel-mean feature maps as P5 files")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("gradcheck", help="run a finite-difference suite")
    p.add_argument("--module", required=True,
                   choices=sorted(gc.SUITES) + ["_corrupt"])
    p.add_argument("--seeds", type=int, default=20)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("params", help="print per-module parameter counts")
    p.add_argument("config", nargs="?")
    p.add_argument("--compare-csp", action="store_true",
                   help="also compare plain-neck vs CSP-neck totals")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("train-toy",
                       help="gradient-descent smoke test on a synthetic scene")
    p.add_argument("config", nargs="?")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=0.01)
    p.set_defaults(fn=cmd_train_toy)

    p = sub.add_parser("weights-io-selftest",
                       help="save/load round-trip bit-exactness check")
    p.add_argument("config", nargs="?")
    p.set_defaults(fn=cmd_weights_selftest)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:  # one-line machine-parseable diagnostic
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
