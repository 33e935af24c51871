"""tridet: a from-scratch triple-awareness detection-head stack.

Dense C×H×W tensor kernels with hand-written backwards, attention heads,
coordinate attention, a feature-fusion neck, detection losses and
post-processing, augmentation, and a deterministic CLI around them.
"""

from .config import STRIDES, ConfigError, ModelConfig, load_config, \
    parse_config, serialize_config
from .model import Model, WeightFileError, build_model, load_weights, \
    save_weights
from .postproc import diou, diou_nms, focal_loss, label_smooth
from .train import run_inference, train_toy

__all__ = [
    "STRIDES", "ConfigError", "ModelConfig", "load_config", "parse_config",
    "serialize_config", "Model", "WeightFileError", "build_model",
    "load_weights", "save_weights", "diou", "diou_nms", "focal_loss",
    "label_smooth", "run_inference", "train_toy",
]

__version__ = "0.1.0"
