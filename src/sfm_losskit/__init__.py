"""Structure-from-motion loss engine with a synthetic-scene harness."""

from .errors import (
    CodecError,
    ConfigError,
    DegenerateGeometryError,
    DegenerateMaskError,
    DimensionError,
    DivergedError,
    EmptyContextError,
    InvalidDepthError,
    LossKitError,
    NoSupervisionError,
)
from .geometry import CameraIntrinsics, PoseSE3
from .losses import (
    LossBreakdown,
    LossWeights,
    min_photometric,
    total_loss,
    total_loss_grad,
)
from .metrics import DepthMetrics, evaluate
from .optimize import OptimConfig, OptimState, gradcheck, run, step
from .supervision import SparseDepth, decimate, synth_lidar
from .synth import Scene, SceneSpec, make_scene, render_view
from .warp import sample_bilinear, sample_bilinear_grad

__version__ = "0.1.0"
