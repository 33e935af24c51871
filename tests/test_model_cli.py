"""Model assembly, weight persistence, the training smoke loop, and the
command-line surface."""

import hashlib

import numpy as np
import pytest
from dataclasses import replace
from types import SimpleNamespace

from tridet import cli
from tridet.attention import TDAHead
from tridet.config import VARIANTS, ModelConfig, serialize_config
from tridet.coordatt import CoordAttention
from tridet.layers import Conv2d, Layer, Param, init_params
from tridet.model import (WeightFileError, build_model, load_weights,
                          save_weights)
from tridet.ppm import write_ppm
from tridet.train import run_inference, synthetic_scene, train_toy


# sha256 of what `run --dump-features` prints and of each map it writes, for
# a variant's default config with default-seed weights on a seeded 64x64
# image
DUMP_DIGESTS = {
    "full": {
        "stdout": "9fd29f85814704ffadfe52e42424c15e113b125e1b2a79f7f652a8ef4fc3fc4a",
        "ca3.pgm": "bf8ec7d8436ed0c9a9405825efe74ae79be3f015a6f60c40294e6994bf6f36b2",
        "ca4.pgm": "166cc7b0b9981b004475d18e39f7a2171d24634d5ae8532a56db0f10a6744b4d",
        "ca5.pgm": "e9ede443a730cb16dd9b20d8d815ad218bbfac852e7332af12fa6a66a770b3b5",
        "p3.pgm": "dd7c6abff9634122d065f1746a1254859bee9f5cb1f17947d9a501d9b620d7cb",
        "p4.pgm": "ee4b15b6f865fcb45d9fb0c406c1ab4714b36b7d0a6c35144ad786da36278149",
        "p5.pgm": "48754107c2c7db7d2027807c4444e770c457588c5f35fa721025c087e7547c32",
    },
    "nano": {
        "stdout": "a5caf42e8b0a8dcb057125789133ad8ea7990e483b211ce2ec0a0bde174c0f6a",
        "ca3.pgm": "ecd5448c86905462d5ec378ecc4603d9ae0ef75de0d2c08a7249827bedfffb70",
        "ca4.pgm": "38ff4f64b6fe6bb33f44f8f22bf0c5b84ff5f9fa10fe6f3390e32b186852476e",
        "ca5.pgm": "dce61f1e9c0afac20d273ebf0f537d05bd6965cf86f16501e8f28a82f41796ec",
        "p3.pgm": "efc25fdaab9172d56d5c0c63cd3fd0821b527213cb5ce51f3e53215acb553421",
        "p4.pgm": "8bdd33b84afc37879e6adfd201dfcc2495584154d9fba520aa60c5585fc092f2",
        "p5.pgm": "754da76c2ba9e471f05748aa7479cad08e5d82f56e3512d451c3046aa2300daf",
    },
}

# sha256 of what `run` prints for a variant's default config with
# default-seed weights on a seeded 256x256 image, where all three stride-2
# backbone convolutions take conv2d's per-tap path
RUN_256_DIGESTS = {
    "full": "3cf453466c6d4e5343ab46bec77e3d95331480560b4d2c783c182bc5c97131d6",
    "nano": "e964adbbc4f4e364baf3eea9bfa5c03d816a6904a101e952da8bbb149ba58cde",
}


def toy_cfg(variant="full", **kw):
    cfg = ModelConfig.default(variant)
    return replace(cfg, **kw) if kw else cfg


class TestBuildModel:
    def test_tiny_one_block_per_head(self):
        model = build_model(toy_cfg("tiny"))
        assert all(len(h.blocks) == 1 for h in model.heads)
        taps = [name for name, m in model.named_modules()
                if isinstance(m, CoordAttention)]
        assert taps == ["neck.ca3", "neck.ca4", "neck.ca5"]

    def test_full_two_blocks_per_head(self):
        model = build_model(toy_cfg("full"))
        assert all(len(h.blocks) == 2 for h in model.heads)

    def test_nano_depthwise_everywhere(self):
        model = build_model(toy_cfg("nano"))
        convs = [(name, m) for name, m in model.named_modules()
                 if isinstance(m, Conv2d) and m.k > 1]
        assert convs
        for name, conv in convs:
            assert conv.groups == conv.in_c, name

    def test_same_seed_same_checksum(self):
        a = build_model(toy_cfg())
        b = build_model(toy_cfg())
        assert a.checksum() == b.checksum()
        c = build_model(toy_cfg(seed=1))
        assert c.checksum() != a.checksum()

    def test_forward_shapes(self):
        model = build_model(toy_cfg())
        raws = model.forward(np.random.default_rng(0).random((3, 64, 64)))
        assert [r.shape for r in raws] == [(21, 8, 8), (21, 4, 4), (21, 2, 2)]


def _reachable_params(layer, seen):
    """Every Param held by `layer` or a Layer below it, found by an
    independent walk of the instance attributes that also follows tuples."""
    found = []
    for value in vars(layer).values():
        items = value if isinstance(value, (list, tuple)) else [value]
        for v in items:
            if id(v) in seen:
                continue
            if isinstance(v, Param):
                seen.add(id(v))
                found.append(v)
            elif isinstance(v, Layer):
                seen.add(id(v))
                found += _reachable_params(v, seen)
    return found


class TestNamedModules:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_param_reached_exactly_once(self, variant):
        model = build_model(toy_cfg(variant))
        walked = [id(p) for _, p in model.named_params()]
        assert len(walked) == len(set(walked))
        reachable = _reachable_params(model, set())
        assert sorted(walked) == sorted(id(p) for p in reachable)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_param_name_is_module_path_and_attribute(self, variant):
        model = build_model(toy_cfg(variant))
        modules = dict(model.named_modules())
        assert modules[""] is model
        for name, p in model.named_params():
            path, _, attr = name.rpartition(".")
            assert path and getattr(modules[path], attr) is p, name

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_list_children_appear(self, variant):
        cfg = toy_cfg(variant)
        model = build_model(cfg)
        paths = [name for name, _ in model.named_modules()]
        assert len(paths) == len(set(paths))
        expect = [f"backbone.stages.{i}" for i in range(5)]
        for h in range(3):
            expect += [f"heads.{h}"] + [f"heads.{h}.blocks.{b}.spatial"
                                        for b in range(cfg.n_blocks)]
        assert set(expect) <= set(paths)
        assert f"heads.0.blocks.{cfg.n_blocks}" not in paths

    def test_depthwise_head_paths_in_attribute_order(self):
        head = init_params(TDAHead(4, 2, 1, 1, depthwise=True),
                           np.random.default_rng(0))
        block = ["", ".scale", ".spatial", ".spatial.offset_dw",
                 ".spatial.mod_dw", ".spatial.offset_pred", ".spatial.mod_pred",
                 ".task", ".task.fc1", ".task.fc2"]
        assert [name for name, _ in head.named_modules()] == \
            [""] + [f"blocks.{b}{s}" for b in range(2) for s in block] \
            + ["conv3", "conv3_pw", "act", "conv1"]

    def test_dropped_children_leave_every_walk(self, tmp_path):
        full = build_model(toy_cfg("full"))
        dropped = full.heads[0].blocks[1]
        full.heads[0].blocks = full.heads[0].blocks[:1]
        nano = build_model(toy_cfg("nano"))
        spatial = nano.heads[0].blocks[0].spatial
        offset_dw, spatial.offset_dw = spatial.offset_dw, None
        for model, gone, stale in ((full, "heads.0.blocks.1.", dropped),
                                   (nano, "heads.0.blocks.0.spatial.offset_dw.",
                                    offset_dw)):
            names = [name for name, _ in model.named_params()]
            assert not [n for n in names if n.startswith(gone)]
            before = model.checksum()
            for p in stale.params():
                p.value += 1.0
            assert model.checksum() == before
            path = tmp_path / "w.bin"
            save_weights(model, path)
            assert gone.encode() not in path.read_bytes()
            load_weights(model, path)
            assert model.checksum() == before


class TestWeights:
    def test_round_trip_checksum(self, tmp_path):
        model = build_model(toy_cfg())
        before = model.checksum()
        path = tmp_path / "w.bin"
        save_weights(model, path)
        # perturb, then reload
        next(iter(model.params())).value[:] += 1.0
        load_weights(model, path)
        assert model.checksum() == before

    def test_foreign_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(WeightFileError, match="magic"):
            load_weights(build_model(toy_cfg()), path)

    def test_truncated_file_names_tensor(self, tmp_path):
        model = build_model(toy_cfg())
        path = tmp_path / "w.bin"
        save_weights(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(WeightFileError, match="truncated payload for"):
            load_weights(model, path)

    @pytest.mark.parametrize("fault, match", [
        ("truncated", "truncated payload for"),
        ("trailing", "4 trailing bytes"),
        ("duplicate", "duplicate tensor name"),
        ("bad_name", "tensor name at byte 10 is not UTF-8"),
        ("nan", "payload for 'heads.0.conv1.bias' holds 1 non-finite value"),
        ("inf", "payload for 'heads.0.conv1.bias' holds 2 non-finite value"),
    ])
    def test_bad_file_leaves_model_unchanged(self, tmp_path, fault, match):
        source = build_model(toy_cfg())
        pairs = list(source.named_params())
        bias = dict(pairs)["heads.0.conv1.bias"].value
        if fault == "nan":
            bias[3] = np.nan
        elif fault == "inf":
            bias[[1, 4]] = np.inf, -np.inf
        if fault == "duplicate":
            pairs.append(pairs[0])
        path = tmp_path / "w.bin"
        # save_weights only walks named_params(), so a stub can repeat a name
        save_weights(SimpleNamespace(named_params=lambda: pairs), path)
        data = path.read_bytes()
        if fault == "truncated":
            path.write_bytes(data[:-10])
        elif fault == "trailing":
            path.write_bytes(data + bytes(4))
        elif fault == "bad_name":
            # byte 10 is the first byte of the first manifest name
            path.write_bytes(data[:10] + b"\xff" + data[11:])
        target = build_model(toy_cfg(seed=1))
        before = target.checksum()
        with pytest.raises(WeightFileError, match=match):
            load_weights(target, path)
        assert target.checksum() == before

    def test_payload_faults_reported_in_load_order(self, tmp_path):
        # truncation, then trailing bytes, then the first non-finite tensor
        # in manifest (name) order, each with the model left as it was
        source = build_model(toy_cfg())
        params = dict(source.named_params())
        first, second = "heads.0.conv1.bias", "neck.ca3.squeeze.bias"
        params[second].value[0] = np.inf
        params[first].value[[1, 2]] = np.nan
        path = tmp_path / "w.bin"
        save_weights(source, path)
        data = path.read_bytes()
        last, p_last = sorted(params.items())[-1]
        at_last = len(data) - 4 * p_last.value.size
        target = build_model(toy_cfg(seed=1))
        before = target.checksum()
        for payload, msg in (
                (data[:-10], f"truncated payload for {last!r} at byte {at_last}"),
                (data + bytes(4), "4 trailing bytes after the last payload at "
                                  f"byte {len(data)}"),
                (data, f"payload for {first!r} holds 2 non-finite value(s)")):
            path.write_bytes(payload)
            with pytest.raises(WeightFileError) as exc:
                load_weights(target, path)
            assert str(exc.value) == msg
            assert target.checksum() == before
        params[first].value[[1, 2]] = 0.0
        params[second].value[0] = 0.0
        save_weights(source, path)
        load_weights(target, path)
        assert target.checksum() == source.checksum()
        for _, p in target.named_params():
            assert p.value.dtype == np.float64 and p.value.flags.c_contiguous
            assert p.grad.shape == p.value.shape and not p.grad.any()

    def test_unknown_tensor_rejected(self, tmp_path):
        small = build_model(toy_cfg("tiny"))
        big = build_model(toy_cfg("full"))
        path = tmp_path / "w.bin"
        save_weights(big, path)
        with pytest.raises(WeightFileError):
            load_weights(small, path)


class TestTrainToy:
    def test_loss_decreases_and_is_deterministic(self):
        cfg = toy_cfg()
        curve_a = train_toy(build_model(cfg), cfg, 20, 7)
        curve_b = train_toy(build_model(cfg), cfg, 20, 7)
        assert curve_a == curve_b
        assert curve_a[-1] < curve_a[0]

    def test_zero_learning_rate_constant_loss(self):
        cfg = toy_cfg()
        curve = train_toy(build_model(cfg), cfg, 5, 7, lr=0.0)
        assert all(v == curve[0] for v in curve)

    def test_scene_has_labeled_boxes(self):
        scene = synthetic_scene()
        assert len(scene.boxes) == 3
        assert scene.pixels.shape == (3, 64, 64)
        assert scene.boxes.shape == (3, 6)
        assert set(scene.boxes[:, 4].tolist()) == {0, 1}
        assert (scene.boxes[:, 5] == 1.0).all()


class TestCli:
    def _write_cfg(self, tmp_path, cfg):
        path = tmp_path / "m.cfg"
        path.write_text(serialize_config(cfg))
        return str(path)

    def _zero_weights(self, tmp_path, cfg, edit=None):
        model = build_model(cfg)
        for p in model.params():
            p.value[:] = 0.0
        if edit is not None:
            edit(model)
        path = tmp_path / "w.bin"
        save_weights(model, path)
        return str(path)

    def test_run_zero_weights_no_detections(self, tmp_path, capsys):
        cfg = toy_cfg()
        cfg_path = self._write_cfg(tmp_path, cfg)
        w_path = self._zero_weights(tmp_path, cfg)
        img_path = str(tmp_path / "img.ppm")
        write_ppm(img_path, np.random.default_rng(0).random((3, 64, 64)))
        assert cli.main(["run", cfg_path, w_path, img_path]) == 0
        assert capsys.readouterr().out == ""

    def test_run_planted_detection(self, tmp_path, capsys):
        cfg = toy_cfg(conf_threshold=0.3)
        cfg_path = self._write_cfg(tmp_path, cfg)

        def plant(model):
            bias = model.heads[2].conv1.bias.value
            nc = cfg.num_classes
            for a in range(3):
                bias[a * (5 + nc) + 4] = 6.0 if a == 0 else -10.0
                bias[a * (5 + nc) + 5] = 6.0

        w_path = self._zero_weights(tmp_path, cfg, plant)
        img_path = str(tmp_path / "img32.ppm")
        write_ppm(img_path, np.random.default_rng(1).random((3, 32, 32)))
        assert cli.main(["run", cfg_path, w_path, img_path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        fields = lines[0].split()
        assert fields[1] == "0"
        assert float(fields[3]) == 16.0 and float(fields[4]) == 16.0
        assert float(fields[5]) == 40.0 and float(fields[6]) == 40.0

    def test_run_byte_identical_across_invocations(self, tmp_path, capsys):
        cfg = toy_cfg(conf_threshold=0.2)
        cfg_path = self._write_cfg(tmp_path, cfg)
        model = build_model(cfg)
        w_path = str(tmp_path / "w.bin")
        save_weights(model, w_path)
        img_path = str(tmp_path / "img.ppm")
        write_ppm(img_path, np.random.default_rng(2).random((3, 64, 64)))
        cli.main(["run", cfg_path, w_path, img_path])
        first = capsys.readouterr().out
        cli.main(["run", cfg_path, w_path, img_path])
        assert capsys.readouterr().out == first

    def test_run_dump_features(self, tmp_path, capsys):
        cfg = toy_cfg()
        cfg_path = self._write_cfg(tmp_path, cfg)
        w_path = self._zero_weights(tmp_path, cfg)
        img_path = str(tmp_path / "img.ppm")
        write_ppm(img_path, np.random.default_rng(3).random((3, 64, 64)))
        feat_dir = tmp_path / "feats"
        assert cli.main(["run", cfg_path, w_path, img_path,
                         "--dump-features", str(feat_dir)]) == 0
        # P5 header "P5\n{w} {h}\n255\n": each tap keeps its level's extent
        extents = {p.name: p.read_bytes().split(b"\n")[1]
                   for p in feat_dir.iterdir()}
        assert extents == {"ca3.pgm": b"8 8", "p3.pgm": b"8 8",
                           "ca4.pgm": b"4 4", "p4.pgm": b"4 4",
                           "ca5.pgm": b"2 2", "p5.pgm": b"2 2"}
        capsys.readouterr()

    @pytest.mark.parametrize("variant", list(DUMP_DIGESTS))
    def test_run_dump_features_digests(self, tmp_path, capsys, monkeypatch,
                                       variant):
        # relative paths: the image path is part of every printed line
        monkeypatch.chdir(tmp_path)
        cfg = ModelConfig.default(variant)
        save_weights(build_model(cfg), "w.bin")
        write_ppm("img.ppm", np.random.default_rng(0).random((3, 64, 64)))
        assert cli.main(["run", self._write_cfg(tmp_path, cfg), "w.bin",
                         "img.ppm", "--dump-features", "feats"]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "feats").iterdir()}
        got["stdout"] = hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest()
        assert got == DUMP_DIGESTS[variant]

    @pytest.mark.parametrize("variant", list(RUN_256_DIGESTS))
    def test_run_digest_at_256(self, tmp_path, capsys, monkeypatch, variant):
        monkeypatch.chdir(tmp_path)
        cfg = ModelConfig.default(variant)
        save_weights(build_model(cfg), "w.bin")
        write_ppm("img.ppm", np.random.default_rng(0).random((3, 256, 256)))
        assert cli.main(["run", self._write_cfg(tmp_path, cfg), "w.bin",
                         "img.ppm"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == \
            RUN_256_DIGESTS[variant]

    def test_one_parser_serves_a_sequence_of_calls(self, tmp_path, capsys,
                                                   monkeypatch):
        # the parser is built once per process: no option or default of one
        # call may leak into the next
        monkeypatch.chdir(tmp_path)
        cfg_path = self._write_cfg(tmp_path, toy_cfg())
        save_weights(build_model(toy_cfg()), "w.bin")
        write_ppm("img.ppm", np.random.default_rng(4).random((3, 64, 64)))
        run = ["run", cfg_path, "w.bin", "img.ppm"]
        assert cli.main(run + ["--dump-features", "feats"]) == 0
        first = capsys.readouterr().out
        assert first.count("\n") > 10
        maps = sorted(p.name for p in (tmp_path / "feats").iterdir())
        assert len(maps) == 6
        (tmp_path / "feats").rename(tmp_path / "feats-1")
        assert cli.main(run) == 0
        assert capsys.readouterr().out == first
        assert not (tmp_path / "feats").exists()
        assert cli.main(["params", cfg_path]) == 0
        assert "total" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", cfg_path])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert cli.main(run) == 0
        assert capsys.readouterr().out == first
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["feats-1", "img.ppm", "m.cfg", "w.bin"]

    def test_run_missing_file_one_line_error(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, toy_cfg())
        rc = cli.main(["run", cfg_path, str(tmp_path / "nope.bin"),
                       str(tmp_path / "nope.ppm")])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_run_nonfinite_image_one_line_error(self, tmp_path, capsys,
                                                monkeypatch):
        cfg = toy_cfg()
        img = np.random.default_rng(5).random((3, 64, 64))
        img[1, 5, 7] = np.nan
        msg = ("input image has 1 non-finite pixel value(s), "
               "the first at index (1, 5, 7)")
        model = build_model(cfg)
        for call in (lambda: run_inference(model, cfg, img),
                     lambda: model.backbone.forward(img)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == msg
        # a P6 file cannot hold NaN, so the reader is replaced
        monkeypatch.setattr(cli, "read_ppm", lambda path: img)
        rc = cli.main(["run", self._write_cfg(tmp_path, cfg),
                       self._zero_weights(tmp_path, cfg),
                       str(tmp_path / "nan.ppm")])
        assert rc != 0
        assert capsys.readouterr().err == f"error: {msg}\n"

    @pytest.mark.parametrize("value, msg", [
        (np.nan, "payload for 'heads.0.conv1.bias' holds 1 non-finite "
                 "value(s)"),
        (800.0, "extent logit 800.0 at stride 8, anchor 0, cell (0, 0) "
                "overflows exp"),
    ])
    def test_run_bad_head_bias_one_line_error(self, tmp_path, capsys, value,
                                              msg):
        cfg = toy_cfg()

        def edit(model):
            # anchor 0 at stride 8: confident everywhere, width logit `value`
            bias = model.heads[0].conv1.bias.value
            bias[[2, 4, 5]] = value, 6.0, 6.0

        img_path = str(tmp_path / "img.ppm")
        write_ppm(img_path, np.random.default_rng(6).random((3, 32, 32)))
        rc = cli.main(["run", self._write_cfg(tmp_path, cfg),
                       self._zero_weights(tmp_path, cfg, edit), img_path])
        assert rc != 0
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {msg}\n"

    def test_gradcheck_command(self, capsys):
        assert cli.main(["gradcheck", "--module", "tensor-core",
                         "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_gradcheck_corrupt_fixture_fails(self, capsys):
        assert cli.main(["gradcheck", "--module", "_corrupt",
                         "--seeds", "1"]) == 1
        capsys.readouterr()

    def test_gradcheck_takes_no_config(self, capsys):
        # the suites read no config, so a path is a usage error
        with pytest.raises(SystemExit) as exc:
            cli.main(["gradcheck", "/nonexistent.cfg", "--module", "_corrupt"])
        assert exc.value.code == 2
        assert "unrecognized arguments: /nonexistent.cfg" in capsys.readouterr().err

    def test_params_compare_csp(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, toy_cfg())
        assert cli.main(["params", cfg_path, "--compare-csp"]) == 0
        out = capsys.readouterr().out
        reduction = int([ln for ln in out.splitlines()
                         if ln.startswith("csp-reduction")][0].split()[1])
        assert reduction > 0

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_params_compare_csp_matches_neck_row(self, tmp_path, capsys,
                                                 variant):
        # every variant builds a CSP neck, so the comparison's neck-csp
        # must be the neck the table counts
        cfg_path = self._write_cfg(tmp_path, toy_cfg(variant))
        assert cli.main(["params", cfg_path, "--compare-csp"]) == 0
        values = {ln.split()[0]: int(ln.split()[1])
                  for ln in capsys.readouterr().out.splitlines()}
        assert values["neck-csp"] == values["neck"]
        assert values["neck-plain"] - values["neck-csp"] == \
            values["csp-reduction"]

    def test_params_tiny_below_full(self, tmp_path, capsys):
        totals = []
        for variant in ("tiny", "full"):
            cfg_path = self._write_cfg(tmp_path, toy_cfg(variant))
            assert cli.main(["params", cfg_path]) == 0
            out = capsys.readouterr().out
            totals.append(int([ln for ln in out.splitlines()
                               if ln.startswith("total")][0].split()[1]))
        assert totals[0] < totals[1]

    def test_train_toy_command(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, toy_cfg())
        assert cli.main(["train-toy", cfg_path, "--steps", "3",
                         "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("step 0 loss ")
        assert "final loss" in out

    def test_train_toy_class_beyond_num_classes(self, tmp_path, capsys):
        # the training scene labels classes 0 and 1
        cfg_path = self._write_cfg(tmp_path, toy_cfg(num_classes=1))
        assert cli.main(["train-toy", cfg_path, "--steps", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: label row 1: target class 1 is out of range "
                       "for num_classes = 1\n")

    @pytest.mark.parametrize("argv, flag", [
        (["train-toy", "--steps", "1", "--seed", "-1"], "--seed"),
        (["train-toy", "--steps", "-1"], "--steps"),
        (["gradcheck", "--module", "coord-attention", "--seeds", "0"],
         "--seeds"),
    ])
    def test_bad_count_flag_one_line_error(self, capsys, argv, flag):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {flag} must be at least ")

    @pytest.mark.parametrize("lr", ["nan", "inf", "-1", "0"])
    def test_bad_lr_one_line_error(self, capsys, lr):
        assert cli.main(["train-toy", "--steps", "1", f"--lr={lr}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --lr must be finite and above 0, got {float(lr)}\n"

    def test_weights_io_selftest(self, capsys):
        assert cli.main(["weights-io-selftest"]) == 0
        assert "round-trip ok" in capsys.readouterr().out


class TestInference:
    def test_pure_function_of_inputs(self):
        cfg = toy_cfg(conf_threshold=0.2)
        model = build_model(cfg)
        img = np.random.default_rng(4).random((3, 64, 64))
        a = run_inference(model, cfg, img)
        b = run_inference(model, cfg, img)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
