"""stabledyn: jointly learned dynamics, controllers, and Lyapunov functions
with closed-loop exponential stability by construction."""

from .diffcore import Tape
from .models import Hyper, StableDynamicsModel
from .systems import get_system, system_names
from .training import Dataset, TrainConfig, load_checkpoint, sample_dataset, save_checkpoint, train
from .sim import FieldGrid, Trajectory, export_field, rk4_step, rollout_many

__version__ = "0.1.0"

__all__ = [
    "Tape",
    "Hyper", "StableDynamicsModel",
    "get_system", "system_names",
    "Dataset", "TrainConfig", "load_checkpoint", "sample_dataset",
    "save_checkpoint", "train",
    "FieldGrid", "Trajectory", "export_field", "rk4_step", "rollout_many",
    "__version__",
]
