"""G-Net web-service modeling, composition, simulation and verification."""

from . import algebra, analysis, dsl, guards, io, prod, sim
from .errors import GnetError
from .model import (BlockFragment, GNetModel, GoalLabel, GspSpec,
                    InternalStructure, IspRef, MethodSpec, OpLabel, Place,
                    PlaceKind, Registry, TauLabel, WebService,
                    rename_apart, validate)

__version__ = "0.1.0"

__all__ = [
    "algebra", "analysis", "dsl", "guards", "io", "prod", "sim",
    "GnetError", "BlockFragment", "GNetModel", "GoalLabel", "GspSpec",
    "InternalStructure", "IspRef", "MethodSpec", "OpLabel", "Place",
    "PlaceKind", "Registry", "TauLabel", "WebService",
    "rename_apart", "validate", "__version__",
]
