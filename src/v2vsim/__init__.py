"""Desk-scale toolkit for channel-aware collaborative perception experiments.

Three subsystems share one package: V2V link planning that minimizes the
average transmission delay under a sub-channel budget, a block-transform
codec with ratio-driven rate control and entropy-model refinement, and
Fourier-domain alignment that swaps low-frequency amplitude between vehicle
images to shrink their style gap.
"""

__version__ = "0.1.0"

from .channel import (ChannelParams, Scenario, VehicleNode, capacity_matrix,
                      channel_gain, link_capacity)
from .codec import (CodecConfig, EncodedFrame, EntropyModel, decode,
                    deserialize_frame, encode, rate_control, refine_model,
                    serialize_frame)
from .errors import (BudgetError, ImageFormatError, InfeasibleError,
                     ParseError, SizeError, ValidationError)
from .fourier import (FreqMask, Spectrum, align, dft2, domain_gap, idft2,
                      low_freq_mask, mix_amplitude)
from .metrics import QualityReport, iou, ms_ssim, psnr
from .planner import (CommPlan, SolverConfig, average_delay,
                      compression_lower_bound, exhaustive_optimum, optimize,
                      transmission_delay, validate_plan)
from .scenario_io import (ScenarioDocument, format_scenario, parse_scenario,
                          parse_scenario_document)
from .simulate import RunManifest, SimulationResult, simulate, write_outputs

__all__ = [
    "BudgetError", "ChannelParams", "CodecConfig", "CommPlan", "EncodedFrame",
    "EntropyModel", "FreqMask", "ImageFormatError", "InfeasibleError",
    "ParseError", "QualityReport", "RunManifest", "Scenario",
    "ScenarioDocument", "SimulationResult", "SizeError", "SolverConfig",
    "Spectrum", "ValidationError", "VehicleNode", "align", "average_delay",
    "capacity_matrix", "channel_gain", "compression_lower_bound", "decode",
    "deserialize_frame", "dft2", "domain_gap", "encode",
    "exhaustive_optimum", "format_scenario", "idft2", "iou", "link_capacity",
    "low_freq_mask", "mix_amplitude", "ms_ssim", "optimize", "parse_scenario",
    "parse_scenario_document", "psnr", "rate_control",
    "refine_model", "serialize_frame", "simulate", "transmission_delay",
    "validate_plan", "write_outputs",
]
