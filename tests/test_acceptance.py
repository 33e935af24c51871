"""Acceptance gate: the eight library-level guarantees, each as one test.

1. Central-difference gradient suite across modules and seeds.
2. Closed-form oracle equivalences for the attention components.
3. DIoU-NMS against a greedy brute-force oracle plus hand geometry.
4. Focal-loss and label-smoothing reductions against cross-entropy.
5. Strictly positive parameter reduction from the CSP substitution.
6. Variant structure contracts and sub-second toy inference.
7. Training smoke test halves the loss deterministically.
8. Determinism and persistence of weights, inference, and augmentation.
"""

import time
from dataclasses import replace

import numpy as np
from numpy.testing import assert_allclose

from tridet import cli, gradcheck, ops
from tridet.attention import (BASE_OFFSETS, ScaleAttention, SpatialAttention,
                              TaskAttention)
from tridet.augment import LabeledImage, mixup, mosaic, rng_from_seed
from tridet.config import ModelConfig, serialize_config
from tridet.coordatt import CoordAttention
from tridet.layers import Conv2d
from tridet.model import build_model, load_weights, save_weights
from tridet.neck import Neck, count_params
from tridet.postproc import diou, diou_nms, focal_loss, label_smooth
from tridet.ppm import write_ppm
from tridet.train import run_inference, train_toy


class TestCriterion1Gradients:
    def test_gradient_suite_20_seeds_under_5_minutes(self):
        start = time.monotonic()
        for module in ("tensor-core", "attention-head", "coord-attention",
                       "postproc-loss"):
            for result in gradcheck.run_suite(module, seeds=20):
                assert result.passed, (
                    f"{module}/{result.name}: max rel err {result.max_err:.3e}"
                    f" exceeds tol {result.tol:.0e}")
        assert time.monotonic() - start < 300.0


class TestCriterion2OracleEquivalences:
    def test_spatial_attention_equals_conv2d_on_10_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            c, h, w = rng.integers(1, 5), rng.integers(4, 9), rng.integers(4, 9)
            x = rng.standard_normal((c, h, w))
            layer = SpatialAttention(c)
            layer.mod_pred.bias.value[:] = 40.0   # sigmoid(40.0) == 1.0
            taps = rng.uniform(-1.0, 1.0, 9)
            layer.tap_weights.value = taps.copy()
            got = layer.forward(x, x)
            kernel = np.zeros((c, c, 3, 3))
            for ch in range(c):
                for k, (dy, dx) in enumerate(BASE_OFFSETS):
                    kernel[ch, ch, dy + 1, dx + 1] = taps[k]
            ref = ops.conv2d(x, kernel, None, padding=1)
            assert np.abs(got - ref).max() < 1e-10

    def test_task_attention_default_equals_relu_exactly(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 4, 5))
        out = TaskAttention(6).forward(x)
        assert (out == np.maximum(x, 0.0)).all()

    def test_coord_attention_zero_parameters_scale_by_quarter(self):
        rng = np.random.default_rng(2)
        ca = CoordAttention(8, 4)
        for p in ca.params():
            p.value[:] = 0.0
        x = rng.standard_normal((8, 5, 7))
        assert_allclose(ca.forward(x), 0.25 * x, atol=1e-14)

    def test_scale_gate_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 3, 4))
        layer = ScaleAttention()
        layer.weight.value = rng.uniform(-0.5, 0.5, (2, 2))
        layer.bias.value = rng.uniform(-0.5, 0.5, 2)
        base, ctx = layer.forward(x)
        # base = g0 x and ctx = (g0 x + g1 x) / 2, read back per element
        gates = (base / x, 2 * ctx / x - base / x)
        for l in range(2):
            z = layer.bias.value[l]
            # each gate mixes both inputs of the linear map, which are
            # the mean of the single map
            for m in range(2):
                acc_m = 0.0
                for c in range(6):
                    for i in range(3):
                        for j in range(4):
                            acc_m += x[c, i, j]
                z += layer.weight.value[l, m] * acc_m / 72.0
            expect = max(0.0, min(1.0, (z + 1.0) / 2.0))
            assert_allclose(gates[l], expect, atol=1e-14)
            assert_allclose(gates[l], ops.hard_sigmoid(np.array(z)),
                            atol=1e-14)


def brute_force_nms(rows, threshold):
    """Kept rows of a greedy pass with the scalar `diou`, in rank order."""
    boxes = [r[:4] for r in rows.tolist()]
    pool = sorted(range(len(rows)), key=lambda i: (-rows[i, 5], i))
    keep = []
    alive = set(pool)
    for i in pool:
        if i not in alive:
            continue
        keep.append(i)
        alive.discard(i)
        for j in list(alive):
            if rows[j, 4] == rows[i, 4] and \
                    diou(boxes[j], boxes[i]) > threshold:
                alive.discard(j)
    return rows[keep]


class TestCriterion3DiouNms:
    def test_100_seeds_times_50_boxes_exact_match(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            rows = []
            for i in range(50):
                cx, cy = rng.uniform(0, 64, 2)
                w, h = rng.uniform(2, 20, 2)
                rows.append([cx, cy, w, h, int(rng.integers(0, 3)),
                             float(rng.uniform(0.05, 1.0))])
            rows = np.array(rows)
            got = diou_nms(rows, 0.45)
            ref = brute_force_nms(rows, 0.45)
            assert got.shape == ref.shape and \
                got.tobytes() == ref.tobytes(), f"seed {seed}: set/order mismatch"

    def test_hand_geometry_cases(self):
        # boxes as (cx, cy, w, h)
        b = (3.0, 4.0, 2.0, 2.0)
        assert abs(diou(b, b) - 1.0) < 1e-12
        a = (0.5, 0.5, 1.0, 1.0)
        c = (1.5, 1.5, 1.0, 1.0)
        assert abs(diou(a, c) - (-0.25)) < 1e-12


class TestCriterion4FocalReductions:
    def test_gamma_zero_alpha_one_equals_cross_entropy(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(0.05, 0.95, 64)
        y = (rng.random(64) < 0.5).astype(np.float64)
        got = focal_loss(p, y, alpha=1.0, gamma=0.0)
        # alpha applies to positives only; with y mixed use the symmetric form
        ce = -(y * np.log(p))
        pos = y == 1.0
        assert np.abs(got[pos] - ce[pos]).max() < 1e-12
        got_neg = focal_loss(p, y, alpha=0.0, gamma=0.0)
        ce_neg = -((1.0 - y) * np.log(1.0 - p))
        assert np.abs(got_neg[~pos] - ce_neg[~pos]).max() < 1e-12

    def test_label_smoothing_mass_and_argmax(self):
        for k in (2, 20, 80):
            y = np.zeros(k)
            y[k // 2] = 1.0
            s = label_smooth(y, 0.1)
            assert abs(s.sum() - 1.0) < 1e-12
            assert int(np.argmax(s)) == k // 2


class TestCriterion5ParameterAudit:
    def test_compare_csp_reports_positive_reduction_at_paper_widths(
            self, tmp_path, capsys):
        cfg = replace(ModelConfig.default(), widths=(256, 512, 1024),
                      ca_ratio=16)
        path = tmp_path / "paper.cfg"
        path.write_text(serialize_config(cfg))
        assert cli.main(["params", str(path), "--compare-csp"]) == 0
        out = capsys.readouterr().out
        values = {ln.split()[0]: int(ln.split()[1])
                  for ln in out.splitlines() if ln}
        assert values["csp-reduction"] > 0
        assert values["neck-plain"] - values["neck-csp"] == \
            values["csp-reduction"]
        # cross-check against direct construction
        plain = Neck(cfg.widths, cfg.ca_ratio, csp_enabled=False)
        csp = Neck(cfg.widths, cfg.ca_ratio, csp_enabled=True)
        assert count_params(plain)[1] - count_params(csp)[1] == \
            values["csp-reduction"]


class TestCriterion6VariantContracts:
    def test_tiny_one_block_three_ca_taps(self):
        model = build_model(ModelConfig.default("tiny"))
        assert all(len(h.blocks) == 1 for h in model.heads)
        taps = [name for name, m in model.named_modules()
                if isinstance(m, CoordAttention)]
        assert taps == ["neck.ca3", "neck.ca4", "neck.ca5"]

    def test_nano_depthwise_on_every_spatial_conv(self):
        model = build_model(ModelConfig.default("nano"))
        convs = [(name, m) for name, m in model.named_modules()
                 if isinstance(m, Conv2d) and m.k > 1]
        assert convs
        for name, conv in convs:
            assert conv.groups == conv.in_c == conv.out_c, name

    def test_both_variants_infer_64x64_under_one_second(self):
        img = np.random.default_rng(5).random((3, 64, 64))
        for variant in ("tiny", "nano"):
            cfg = ModelConfig.default(variant)
            model = build_model(cfg)
            start = time.monotonic()
            run_inference(model, cfg, img)
            assert time.monotonic() - start < 1.0, variant


class TestCriterion7TrainingSmoke:
    def test_200_steps_seed_7_halves_loss_deterministically(self):
        cfg = ModelConfig.default()
        start = time.monotonic()
        curve = train_toy(build_model(cfg), cfg, 200, 7)
        elapsed = time.monotonic() - start
        assert curve[-1] < 0.5 * curve[0], \
            f"loss {curve[0]:.4f} -> {curve[-1]:.4f}"
        assert elapsed < 600.0
        again = train_toy(build_model(cfg), cfg, 200, 7)
        assert curve == again


class TestCriterion8DeterminismPersistence:
    def test_weight_round_trip_bit_exact(self, tmp_path):
        model = build_model(ModelConfig.default())
        before = model.checksum()
        path = tmp_path / "w.bin"
        save_weights(model, path)
        for p in model.params():
            p.value[:] = -1.0
        load_weights(model, path)
        assert model.checksum() == before

    def test_run_output_byte_identical(self, tmp_path, capsys):
        cfg = replace(ModelConfig.default(), conf_threshold=0.2)
        cfg_path = tmp_path / "m.cfg"
        cfg_path.write_text(serialize_config(cfg))
        w_path = tmp_path / "w.bin"
        save_weights(build_model(cfg), w_path)
        img_path = tmp_path / "img.ppm"
        write_ppm(img_path, np.random.default_rng(6).random((3, 64, 64)))
        argv = ["run", str(cfg_path), str(w_path), str(img_path)]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first

    def test_mosaic_and_mixup_bit_identical_under_equal_seeds(self):
        rng = np.random.default_rng(7)
        imgs = [LabeledImage(rng.random((3, 32, 32)),
                             np.array([[16.0, 16.0, 10.0, 10.0, s, 1.0]]))
                for s in range(4)]
        a = mosaic(imgs, 32, rng_from_seed(99))
        b = mosaic(imgs, 32, rng_from_seed(99))
        assert (a.pixels == b.pixels).all()
        assert a.boxes.shape == b.boxes.shape
        assert a.boxes.tobytes() == b.boxes.tobytes()
        m1 = mixup(imgs[0], imgs[1], 0.3)
        m2 = mixup(imgs[0], imgs[1], 0.3)
        assert (m1.pixels == m2.pixels).all()
        assert m1.boxes.shape == m2.boxes.shape
        assert m1.boxes.tobytes() == m2.boxes.tobytes()
