"""Twin-beam quantitative phase imaging simulator and analysis toolkit."""

__version__ = "0.1.0"

from .core import (
    ConfigError,
    GridError,
    NoPhotonError,
    ObjectSpec,
    OpticalSystem,
    RngStream,
    ScalarField2D,
    TwinBeamConfig,
    blank_object,
    generate_edge_target,
    generate_test_target,
    validate_config,
)
from .qpf import read_qpf, write_qpf

__all__ = [
    "ConfigError",
    "GridError",
    "NoPhotonError",
    "ObjectSpec",
    "OpticalSystem",
    "RngStream",
    "ScalarField2D",
    "TwinBeamConfig",
    "blank_object",
    "generate_edge_target",
    "generate_test_target",
    "validate_config",
    "read_qpf",
    "write_qpf",
    "__version__",
]
