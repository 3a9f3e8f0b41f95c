"""Exception types shared by all modules."""


class LossKitError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(LossKitError):
    """Invalid configuration value, unknown key, or malformed config file."""


class DimensionError(LossKitError):
    """Raster shapes are inconsistent with each other or with the intrinsics."""


class InvalidDepthError(LossKitError):
    """A depth required to be finite and above geometry.EPS_Z (1e-6) was not."""


class EmptyContextError(LossKitError):
    """A context set with zero source frames was supplied."""


class NoSupervisionError(LossKitError):
    """No usable depth labels: empty valid set or zero relative baseline."""


class DegenerateMaskError(LossKitError):
    """Every pixel was removed by the static-pixel mask / warp validity."""


class DegenerateGeometryError(LossKitError):
    """A view pose leaves part of the scene geometry unreachable."""


class DivergedError(LossKitError):
    """Optimization produced a non-finite gradient or loss.

    Carries the iteration index as the ``iteration`` attribute.
    """

    def __init__(self, iteration):
        self.iteration = int(iteration)
        super().__init__(f"non-finite value during optimization (iteration {self.iteration})")


class CodecError(LossKitError):
    """Malformed PFM/PPM stream or unsupported variant."""
