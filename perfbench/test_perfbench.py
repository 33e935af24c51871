"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_sources()

import probes      # noqa: E402  (needs the checkout's sources on sys.path)
import workloads   # noqa: E402
from tracer import Tracer   # noqa: E402
from tridet.gradcheck import CheckResult   # noqa: E402

MISSING = object()


def one_output(workload, i=0):
    call, key = workload.prepare(i)
    return key, call()


@pytest.fixture
def infer(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    w = workloads.WORKLOADS["infer_dense"]()
    w.make_inputs(0)
    w.setup()
    w.expected = workloads.load_references()["infer_dense"]["0"]
    return w


def test_tracer_restores_every_wrapped_name(infer):
    before = [(getattr(o, a), vars(o).get(a, MISSING))
              for o, a, _, _ in probes.WRAPS]
    with pytest.raises(ZeroDivisionError):
        with Tracer() as tracer:
            probes.install(tracer)
            assert all(getattr(o, a) is not f
                       for (o, a, _, _), (f, _) in zip(probes.WRAPS, before))
            one_output(infer)
            1 / 0
    after = [(getattr(o, a), vars(o).get(a, MISSING))
             for o, a, _, _ in probes.WRAPS]
    assert all(x is y for b, a in zip(before, after) for x, y in zip(b, a))
    assert tracer.calls["postproc.nms"] == 1 and tracer.calls["cli"] == 1


def test_traced_outputs_equal_untraced(infer, tmp_path):
    plain = one_output(infer)
    with Tracer() as tracer:
        probes.install(tracer)
        traced = one_output(infer)
    assert traced == plain and infer.check(*traced) is None
    # self times of a request add up to its traced time
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.total_s["cli"])

    tr = workloads.WORKLOADS["train"]()
    tr.make_inputs(0)
    tr.setup()
    plain = one_output(tr)
    with Tracer() as tracer:
        probes.install(tracer)
        traced = one_output(tr)
    assert traced == plain and tracer.calls["layers.sgd"] == workloads.TRAIN_STEPS


def test_altered_output_is_counted_as_failed(infer):
    j, (code, text, err) = one_output(infer, 3)
    assert infer.check(j, (code, text, err)) is None
    altered = text.replace("1", "2", 1)
    assert infer.check(j, (code, altered, err)) is not None
    assert infer.check(j, (1, text, "error: boom")) is not None

    # with no stored reference, a kept pair above the DIoU threshold fails
    infer.expected = None
    assert infer.check(j, (code, text, err)) is None
    line = text.splitlines()[0]
    assert infer.check(j, (code, line + "\n" + line + "\n", err)) is not None

    tr = workloads.WORKLOADS["train"]()
    tr.make_inputs(0)
    tr.setup()
    tr.expected = workloads.load_references()["train"]["0"]
    j, curve = one_output(tr, 1)
    assert tr.check(j, curve) is None
    assert tr.check(j, [curve[0] * (1 + 1e-5)] + curve[1:]) is not None
    assert tr.check(j, curve[:-1] + [float("nan")]) is not None

    bad = [("tensor-core", [CheckResult("conv2d", 1.0, 1e-5)])]
    assert workloads.Gradcheck().check(None, bad) is not None


def test_altered_output_fails_the_command(monkeypatch, capsys):
    class Altered(workloads.Infer):
        def prepare(self, i):
            call, key = super().prepare(i)

            def altered():
                code, text, err = call()
                return code, text + "x\n", err

            return altered, key

    monkeypatch.setitem(workloads.WORKLOADS, "infer_dense",
                        Altered)
    code = run.main(["--workload", "infer_dense", "--seed", "0",
                     "--seconds", "0.2"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and not last["correct"]
    assert last["failed"] == last["attempted"] >= 2


def test_seed_changes_the_inputs_and_nothing_else(tmp_path, monkeypatch):
    def inputs(name, seed):
        d = tmp_path / f"{name}-{seed}-{len(os.listdir(tmp_path))}"
        d.mkdir()
        monkeypatch.chdir(d)
        w = workloads.WORKLOADS[name]()
        w.make_inputs(seed)
        assert w.setup() > 0
        return d, w

    a, wa = inputs("infer_dense", 1)
    b, wb = inputs("infer_dense", 2)
    c, wc = inputs("infer_dense", 1)
    model_files = [workloads.CONFIG, workloads.WEIGHTS]
    assert sorted(os.listdir(a)) == sorted(model_files)
    assert filecmp.cmpfiles(a, b, model_files, shallow=False)[0] == model_files
    assert filecmp.cmpfiles(a, c, model_files, shallow=False)[0] == model_files
    assert all(x != y for x, y in zip(wa.images, wb.images))
    assert wa.images == wc.images and len(set(wa.images)) == workloads.IMAGE_POOL

    d, t1 = inputs("train", 1)
    e, t2 = inputs("train", 2)
    assert filecmp.cmpfiles(d, e, model_files, shallow=False)[0] == model_files
    assert set(t1.seeds).isdisjoint(t2.seeds)
    assert (t1.cfg, t1.model.checksum()) == (t2.cfg, t2.model.checksum())

    g, _ = inputs("gradcheck", 1)
    assert os.listdir(g) == []      # the suites read no files


def test_tail_latency():
    assert run.tail_latency(range(30))[0] == 19
    assert run.tail_latency([3, 1, 2])[0] == 3


def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(probes.PER_LAYER.items())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer_dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "no tridet sources" in proc.stderr
