"""Desk-scale toolkit for channel-aware collaborative perception experiments.

Three subsystems share one package: V2V link planning that minimizes the
average transmission delay under a sub-channel budget, a block-transform
codec with ratio-driven rate control and entropy-model refinement, and
Fourier-domain alignment that swaps low-frequency amplitude between vehicle
images to shrink their style gap.
"""

__version__ = "0.1.0"
