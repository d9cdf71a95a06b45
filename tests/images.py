"""Test images: the codec fixtures, a block-aligned texture and a
brightness-shifted domain pair.  Deterministic, like ``v2vsim.synth``.
"""

import numpy as np

from v2vsim.synth import sine_image


def gradient_image(height: int = 32, width: int = 32) -> np.ndarray:
    """Smooth diagonal ramp, the friendliest content for a block transform."""
    yy = np.linspace(0.1, 0.9, height)[:, None]
    xx = np.linspace(0.0, 0.8, width)[None, :]
    return np.clip(0.5 * yy + 0.5 * xx, 0.0, 1.0)


def blocks_image(height: int = 32, width: int = 32, tile: int = 8) -> np.ndarray:
    """Checker of flat tiles at staggered gray levels."""
    yy = (np.arange(height)[:, None] // tile)
    xx = (np.arange(width)[None, :] // tile)
    levels = ((yy * 3 + xx * 5) % 7) / 7.0
    return 0.1 + 0.8 * levels


def codec_fixture_images() -> list[np.ndarray]:
    """The three canonical fixtures used by the codec verification suite."""
    return [gradient_image(), sine_image(), blocks_image()]


def rich_image(height: int = 64, width: int = 64) -> np.ndarray:
    """Strongly textured scene whose periods line up with 8-pixel blocks.

    Block-aligned frequencies repeat the same transform coefficients in every
    block, the kind of redundancy an entropy model can learn from.
    """
    yy = np.arange(height)[:, None] / height
    xx = np.arange(width)[None, :] / width
    fy = height / 8.0
    fx = width / 8.0
    img = (0.5
           + 0.25 * np.sin(2 * np.pi * fy * yy)
           + 0.20 * np.cos(2 * np.pi * 2 * fx * xx))
    return np.clip(img, 0.0, 1.0)


def shifted_domain_pair(count: int = 4, height: int = 32, width: int = 32,
                        brightness_shift: float = 0.3,
                        seed: int = 7) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Two image sets separated by a synthetic domain gap.

    Set A holds textured scenes; set B holds the same scenes brightened by a
    constant, the classic exposure mismatch between two vehicle cameras.
    """
    rng = np.random.default_rng(seed)
    set_a, set_b = [], []
    yy = np.arange(height)[:, None] / height
    xx = np.arange(width)[None, :] / width
    for _ in range(count):
        f1, f2 = rng.uniform(1.0, 4.0, size=2)
        p1, p2 = rng.uniform(0, 2 * np.pi, size=2)
        img = (0.35
               + 0.2 * np.sin(2 * np.pi * f1 * yy + p1)
               + 0.15 * np.cos(2 * np.pi * f2 * xx + p2))
        img = np.clip(img, 0.0, 1.0)
        set_a.append(img)
        set_b.append(np.clip(img + brightness_shift, 0.0, 1.0))
    return set_a, set_b
