"""Goal-based motion prediction with a variational Normal-Wishart mixture.

The package models the spatial distribution of a target agent's long-term
goal as a mixture of bivariate Gaussians with conjugate Normal-Wishart
posteriors emitted by small attention encoders, samples goals from the
Student-t posterior predictive with non-maximum suppression, and completes
trajectories to the selected goals.
"""

import os

# One OpenBLAS thread unless the variable is set, before numpy loads: OpenBLAS splits some weight-gradient
# products across threads, each split rounding differently, so trained bytes would depend on the core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .autodiff import ParamTape, check_gradients
from .dataio import Scenario, SynthConfig, load_scenario, synth_generate, to_target_frame
from .encoders import EncoderConfig, forward_spatial, init_spatial_params, init_trajectory_params
from .mixture import MixturePosterior, elbo, z_posterior
from .sampling import CandidatePool, NmsConfig, circle_iou, generate_candidates, nms_select
from .trajectory import MetricReport, Predictions, complete_trajectory, displacement_metrics, predict_topk
from .training import TrainConfig, train_spatial, train_trajectory

__version__ = "0.1.0"

__all__ = [
    "CandidatePool",
    "EncoderConfig",
    "MetricReport",
    "MixturePosterior",
    "NmsConfig",
    "ParamTape",
    "Predictions",
    "Scenario",
    "SynthConfig",
    "TrainConfig",
    "check_gradients",
    "circle_iou",
    "complete_trajectory",
    "displacement_metrics",
    "elbo",
    "forward_spatial",
    "generate_candidates",
    "init_spatial_params",
    "init_trajectory_params",
    "load_scenario",
    "nms_select",
    "predict_topk",
    "synth_generate",
    "to_target_frame",
    "train_spatial",
    "train_trajectory",
    "z_posterior",
]
