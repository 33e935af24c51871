"""Configuration text format and portable pixmap I/O."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tridet import cli
from tridet.config import (ANCHOR_DOMAIN, ANCHOR_KEYS, KEYS, VARIANTS,
                           ConfigError, ModelConfig, load_config, parse_config,
                           serialize_config)
from tridet.model import build_model, save_weights
from tridet.ppm import ImageFormatError, read_ppm, write_pgm, write_ppm


class TestConfig:
    def test_round_trip_fixed_point(self):
        cfg = ModelConfig.default("tiny")
        text = serialize_config(cfg)
        again = serialize_config(parse_config(text))
        assert text == again
        assert parse_config(text) == cfg

    def test_every_field_round_trips(self):
        cfg = ModelConfig(
            variant="nano", num_classes=3, widths=(8, 16, 24), seed=5,
            csp_enabled=False, anchors=(((4.0, 6.0),), ((10.0, 12.5),),
                                        ((30.0, 20.0),)),
            conf_threshold=0.3, nms_threshold=0.6, alpha=0.4, gamma=1.5,
            smooth_eps=0.05, w_box=0.2, w_obj=0.7, w_cls=0.9, ca_ratio=8,
            dyrelu_reduction=2, lambda_a=0.75, lambda_b=0.125).validate()
        unchanged = [f.name for f in fields(ModelConfig)
                     if getattr(cfg, f.name) == f.default]
        assert unchanged == []
        assert parse_config(serialize_config(cfg)) == cfg

    def test_floats_keep_every_digit(self):
        cfg = replace(ModelConfig(), alpha=0.1234567, anchors=(
            ((10.123456789, 8.0),), ((16.0, 1e-7 / 3),), ((32.0, 32.0),)))
        text = serialize_config(cfg)
        assert "loss.alpha = 0.1234567\n" in text
        assert "anchors.p3 = 10.123456789x8\n" in text
        assert parse_config(text) == cfg

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_default_text_is_pinned(self, variant):
        widths = "32,64,128" if variant == "x-toy" else "16,32,64"
        assert serialize_config(ModelConfig.default(variant)) == (
            f"model.variant = {variant}\n"
            "model.num_classes = 2\n"
            f"model.widths = {widths}\n"
            "model.seed = 0\n"
            "model.csp = true\n"
            "detect.conf_threshold = 0.25\n"
            "detect.nms_threshold = 0.45\n"
            "loss.alpha = 0.25\n"
            "loss.gamma = 2\n"
            "loss.smooth_eps = 0.1\n"
            "loss.w_box = 0.05\n"
            "loss.w_obj = 1\n"
            "loss.w_cls = 0.5\n"
            "attention.ca_ratio = 16\n"
            "attention.dyrelu_reduction = 4\n"
            "attention.lambda_a = 1\n"
            "attention.lambda_b = 0.5\n"
            "anchors.p3 = 8x8,16x12,12x16\n"
            "anchors.p4 = 24x24,32x24,24x32\n"
            "anchors.p5 = 40x40,48x56,56x48\n")

    def test_comments_and_blank_lines_ignored(self):
        text = serialize_config(ModelConfig.default())
        noisy = "# header\n\n" + text.replace(
            "model.seed = 0", "model.seed = 3   # inline note")
        cfg = parse_config(noisy)
        assert cfg.seed == 3

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("model.bogus = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("model.variant full\n")

    def test_variant_contracts(self):
        assert ModelConfig.default("tiny").n_blocks == 1
        assert ModelConfig.default("full").n_blocks == 2
        assert ModelConfig.default("nano").depthwise
        assert not ModelConfig.default("full").depthwise
        x = ModelConfig.default("x-toy")
        assert x.widths == (32, 64, 128)
        assert x.mosaic_scale_range == (0.25, 1.75)
        assert x.mosaic_shift_limit == 0.1

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant="huge").validate()
        with pytest.raises(ConfigError):
            ModelConfig(widths=(10, 32, 64)).validate()
        with pytest.raises(ConfigError):
            ModelConfig(conf_threshold=1.5).validate()
        with pytest.raises(ConfigError):
            ModelConfig(smooth_eps=1.0).validate()

    def test_anchor_parsing(self):
        text = serialize_config(ModelConfig.default()).replace(
            "anchors.p3 = 8x8,16x12,12x16", "anchors.p3 = 4x6,8x6,6x9")
        cfg = parse_config(text)
        assert cfg.anchors[0] == ((4.0, 6.0), (8.0, 6.0), (6.0, 9.0))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text(serialize_config(ModelConfig.default("nano")))
        assert load_config(path).variant == "nano"


_DEFAULT_TEXT = serialize_config(ModelConfig.default())

# case -> (config text, key the error must name, line it must name)
BAD_CONFIGS = {
    "zero_classes": (_DEFAULT_TEXT.replace(
        "model.num_classes = 2", "model.num_classes = 0"),
        "model.num_classes", 2),
    "anchor_count_mismatch": (_DEFAULT_TEXT.replace(
        "anchors.p3 = 8x8,16x12,12x16", "anchors.p3 = 8x8,16x12"),
        "anchors.p3", 18),
    "duplicate_key": (_DEFAULT_TEXT + "model.seed = 4\n", "model.seed", 21),
    "csp_not_boolean": (_DEFAULT_TEXT.replace(
        "model.csp = true", "model.csp = yes"), "model.csp", 5),
    "zero_ca_ratio": (_DEFAULT_TEXT.replace(
        "attention.ca_ratio = 16", "attention.ca_ratio = 0"),
        "attention.ca_ratio", 14),
    "zero_dyrelu_reduction": (_DEFAULT_TEXT.replace(
        "attention.dyrelu_reduction = 4", "attention.dyrelu_reduction = 0"),
        "attention.dyrelu_reduction", 15),
    "negative_seed": (_DEFAULT_TEXT.replace(
        "model.seed = 0", "model.seed = -1"), "model.seed", 4),
    "anchor_without_x": (_DEFAULT_TEXT.replace(
        "anchors.p3 = 8x8,16x12,12x16", "anchors.p3 = 8y8"), "anchors.p3", 18),
    "alpha_above_one": (_DEFAULT_TEXT.replace(
        "loss.alpha = 0.25", "loss.alpha = 1.5"), "loss.alpha", 8),
    "negative_alpha": (_DEFAULT_TEXT.replace(
        "loss.alpha = 0.25", "loss.alpha = -0.25"), "loss.alpha", 8),
    "negative_gamma": (_DEFAULT_TEXT.replace(
        "loss.gamma = 2", "loss.gamma = -50"), "loss.gamma", 9),
    "negative_w_box": (_DEFAULT_TEXT.replace(
        "loss.w_box = 0.05", "loss.w_box = -0.05"), "loss.w_box", 11),
    "negative_w_obj": (_DEFAULT_TEXT.replace(
        "loss.w_obj = 1", "loss.w_obj = -1"), "loss.w_obj", 12),
    "negative_w_cls": (_DEFAULT_TEXT.replace(
        "loss.w_cls = 0.5", "loss.w_cls = -0.5"), "loss.w_cls", 13),
    # finite, but overflows the task attention in one training step
    "huge_lambda_a": (_DEFAULT_TEXT.replace(
        "attention.lambda_a = 1", "attention.lambda_a = 1e308"),
        "attention.lambda_a", 16),
    # the CSP neck built at width 2 has a convolution with fan-in 0
    "width_two": (_DEFAULT_TEXT.replace(
        "model.widths = 16,32,64", "model.widths = 2,2,2").replace(
        "attention.ca_ratio = 16", "attention.ca_ratio = 2"),
        "model.widths", 3),
    "huge_w_obj": (_DEFAULT_TEXT.replace(
        "loss.w_obj = 1", "loss.w_obj = 1e300"), "loss.w_obj", 12),
}


class TestConfigBoundaries:
    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_rejected_naming_key_and_line(self, case):
        text, key, line = BAD_CONFIGS[case]
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.key == key
        assert str(exc.value).startswith(f"line {line}: ")
        assert key in str(exc.value)

    def test_built_config_names_key_without_line(self):
        with pytest.raises(ConfigError, match="^bad value for model.num_classes"):
            ModelConfig(num_classes=0).validate()
        three = ((1.0, 1.0),) * 3
        with pytest.raises(ConfigError, match="anchors.p4"):
            ModelConfig(anchors=(three, three[:1], three)).validate()

    def test_cli_prints_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        for case, (text, _, line) in sorted(BAD_CONFIGS.items()):
            path.write_text(text)
            assert cli.main(["params", str(path)]) == 1, case
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: line {line}: "), case
            assert captured.err.count("\n") == 1, case


# every float key, and the anchor extents
FINITE_KEYS = ("loss.alpha", "loss.gamma", "loss.w_box", "loss.w_obj",
               "loss.w_cls", "attention.lambda_a", "attention.lambda_b",
               "detect.conf_threshold", "detect.nms_threshold",
               "loss.smooth_eps") + ANCHOR_KEYS


def _with_value(key, value, base=_DEFAULT_TEXT):
    """The config text `base` with `key` set to `value`, and its line."""
    lines = base.splitlines(keepends=True)
    line = next(i for i, ln in enumerate(lines, 1)
                if ln.startswith(f"{key} = "))
    text = f"{value}x8,8x8,8x8" if key in ANCHOR_KEYS else value
    lines[line - 1] = f"{key} = {text}\n"
    return "".join(lines), line


class TestNonFiniteConfig:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FINITE_KEYS)
    def test_rejected_naming_key_and_line(self, key, value):
        text, line = _with_value(key, value)
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.key == key
        assert str(exc.value).startswith(f"line {line}: bad value for {key}: ")
        assert "finite" in str(exc.value)

    def test_run_prints_one_error_line(self, tmp_path, capsys):
        cfg = ModelConfig.default()
        w_path = tmp_path / "w.bin"
        save_weights(build_model(cfg), w_path)
        img_path = tmp_path / "img.ppm"
        write_ppm(img_path, np.random.default_rng(0).random((3, 64, 64)))
        text, line = _with_value("attention.lambda_a", "inf")
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text)
        assert cli.main(["run", str(cfg_path), str(w_path),
                         str(img_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: line {line}: bad value for "
                                f"attention.lambda_a: inf is not finite\n")


def _narrow(variant):
    return replace(ModelConfig.default(variant), widths=(4, 8, 16),
                   ca_ratio=4).validate()


@pytest.fixture(scope="module")
def narrow_files(tmp_path_factory):
    """Weights for every variant at widths (4, 8, 16), and a 64x64 image."""
    path = tmp_path_factory.mktemp("narrow")
    for variant in VARIANTS:
        save_weights(build_model(_narrow(variant)), path / f"{variant}.bin")
    write_ppm(path / "img.ppm", np.random.default_rng(0).random((3, 64, 64)))
    return path


@st.composite
def _one_float_key(draw):
    """A variant, a float key (or anchor key) and a value for it drawn from
    past both ends of its domain, NaN and the infinities included."""
    key = draw(st.sampled_from(FINITE_KEYS))
    lo, hi = ANCHOR_DOMAIN if key in ANCHOR_KEYS else KEYS[key][3]
    top = min(hi, 1e300)
    value = draw(st.one_of(st.floats(lo - 1.0, 2.0 * top + 1.0), st.floats()))
    return draw(st.sampled_from(VARIANTS)), key, value


class TestConfigDomains:
    @settings(max_examples=120, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_one_float_key())
    def test_refused_at_parse_or_runs(self, narrow_files, capsys, case):
        variant, key, value = case
        text, line = _with_value(key, repr(value),
                                 serialize_config(_narrow(variant)))
        cfg_path = narrow_files / "drawn.cfg"
        cfg_path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["train-toy", str(cfg_path), "--steps", "1"])
            out, err = capsys.readouterr()
            if code:
                assert out == ""
                assert err.startswith(f"error: line {line}: bad value for "
                                      f"{key}: ")
                assert err.count("\n") == 1
                return
            assert math.isfinite(float(out.split("final loss ")[1].split()[0]))
            assert cli.main(["run", str(cfg_path),
                             str(narrow_files / f"{variant}.bin"),
                             str(narrow_files / "img.ppm")]) == 0
            assert capsys.readouterr().err == ""
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = np.round(rng.random((3, 6, 8)) * 255) / 255
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert_allclose(back, img, atol=1e-9)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
        img = read_ppm(path)
        assert img.shape == (3, 1, 2)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(ImageFormatError, match="magic"):
            read_ppm(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(ImageFormatError, match="byte"):
            read_ppm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(ImageFormatError, match="maxval"):
            read_ppm(path)

    def test_pgm_normalizes(self, tmp_path):
        path = tmp_path / "g.pgm"
        write_pgm(path, np.array([[0.0, 10.0], [5.0, 10.0]]))
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        assert list(data[-4:]) == [0, 255, 128, 255]

    @pytest.mark.parametrize("extents", [b"-4 4", b"4 -4", b"0 0", b"0 3"])
    def test_non_positive_extent_rejected(self, tmp_path, extents):
        path = tmp_path / "e.ppm"
        path.write_bytes(b"P6\n" + extents + b"\n255\n" + bytes(48))
        with pytest.raises(ImageFormatError, match="non-positive image extent"):
            read_ppm(path)
