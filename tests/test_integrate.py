"""Integrand specifications and the built-in estimation targets."""
import math

import numpy as np
import pytest

from integrate import IntegrandSpec, SpecError, grid_points, sin2_target

# Midpoint sums computed at 40-digit precision and rounded.
S_N1_B2PI5 = 0.375  # exact: (sin^2(pi/10) + sin^2(3 pi/10))/2
S_N2_B2PI5 = 0.38111793546310580
S_N1_BPI20 = 0.0076781864672988555


def test_grid_points():
    assert np.allclose(grid_points(1), [0.25, 0.75])
    assert np.allclose(grid_points(2), [0.125, 0.375, 0.625, 0.875])


def test_sin2_target_values():
    _, s1 = sin2_target(1, 2 * math.pi / 5)
    _, s2 = sin2_target(2, 2 * math.pi / 5)
    _, s3 = sin2_target(1, math.pi / 20)
    assert s1 == pytest.approx(S_N1_B2PI5, abs=1e-15)
    assert s2 == pytest.approx(S_N2_B2PI5, abs=1e-15)
    assert s3 == pytest.approx(S_N1_BPI20, abs=1e-15)


def test_sin2_target_rejects_nonpositive_n():
    with pytest.raises(SpecError):
        sin2_target(0, 1.0)


def test_spec_validation():
    with pytest.raises(SpecError):
        IntegrandSpec(n=1, probabilities=(0.5, 0.5, 0.0), values=(0.1, 0.2, 0.3))
    with pytest.raises(SpecError):
        IntegrandSpec(n=1, probabilities=(0.7, 0.5), values=(0.1, 0.2))
    with pytest.raises(SpecError):
        IntegrandSpec(n=1, probabilities=(-0.1, 1.1), values=(0.1, 0.2))
    with pytest.raises(SpecError):
        IntegrandSpec(n=1, probabilities=(0.5, 0.5), values=(0.1, 1.2))
