"""Shadow removal with mask-aware state-space scanning.

The package covers the full loop: a small reverse-mode autodiff engine,
selective scan kernels, shadow-first scan orders, the dual-scale network,
training, metrics, and a batch CLI.
"""

from .autodiff import GradTape, Tensor, backward
from .blocks import ShadowNet, dfmb_interleave, fold_back
from .checkpoint import load_checkpoint, model_from_checkpoint, restore_model, save_checkpoint
from .config import ModelConfig
from .errors import (
    ConfigError,
    ContractError,
    EmptyRegionError,
    NoShadowRegion,
    ShapeError,
    ValidationError,
)
from .maskgrid import PatchGrid, RegionRect, partition_patches, shadow_rect
from .metrics import EvalReport, evaluate, format_report, psnr, rmse_lab, srgb_to_lab, ssim
from .scanorder import (
    ScanPath,
    dump_path,
    horizontal_order,
    mas_order,
    pixel_order,
    spiral_in,
)
from .ssm import SsmDirection, discretize
from .train import cosine_lr, dataset_loss, load_dir_pairs, make_toy_pairs, train

__version__ = "0.1.0"

__all__ = [
    "GradTape",
    "Tensor",
    "backward",
    "ShadowNet",
    "dfmb_interleave",
    "fold_back",
    "load_checkpoint",
    "model_from_checkpoint",
    "restore_model",
    "save_checkpoint",
    "ModelConfig",
    "ConfigError",
    "ContractError",
    "EmptyRegionError",
    "NoShadowRegion",
    "ShapeError",
    "ValidationError",
    "PatchGrid",
    "RegionRect",
    "partition_patches",
    "shadow_rect",
    "EvalReport",
    "evaluate",
    "format_report",
    "psnr",
    "rmse_lab",
    "srgb_to_lab",
    "ssim",
    "ScanPath",
    "dump_path",
    "horizontal_order",
    "mas_order",
    "pixel_order",
    "spiral_in",
    "SsmDirection",
    "discretize",
    "cosine_lr",
    "dataset_loss",
    "load_dir_pairs",
    "make_toy_pairs",
    "train",
    "__version__",
]
