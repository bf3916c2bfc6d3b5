"""Dense statevector oracle: unitarity, eigenstructure, and model agreement."""
import math

import numpy as np
import pytest

from aemle import DomainError, amplitude_point, noisy_good_prob

from circuitsim import (
    amplified_state,
    build_A,
    build_Q,
    depolarize,
    depolarized_good_prob,
    good_state_probability,
    initial_state,
)
from integrate import IntegrandSpec, sin2_target


@pytest.fixture(scope="module")
def spec_n2():
    spec, s = sin2_target(2, 2 * math.pi / 5)
    return spec, s


def test_A_is_unitary(spec_n2):
    spec, _ = spec_n2
    A = build_A(spec)
    assert np.allclose(A @ A.conj().T, np.eye(A.shape[0]), atol=1e-12)


def test_initial_state_encodes_target(spec_n2):
    spec, s = spec_n2
    state = initial_state(build_A(spec))
    assert good_state_probability(state) == pytest.approx(s, abs=1e-12)
    # data-register marginals match the cell probabilities
    probs = np.abs(state) ** 2
    marginal = probs[0::2] + probs[1::2]
    assert np.allclose(marginal, spec.probabilities, atol=1e-12)


def test_Q_is_unitary(spec_n2):
    spec, _ = spec_n2
    Q = build_Q(build_A(spec))
    assert np.allclose(Q @ Q.conj().T, np.eye(Q.shape[0]), atol=1e-12)


def test_Q_eigenphases(spec_n2):
    # the rotation subspace carries eigenvalues exp(+-2i theta_a)
    spec, s = spec_n2
    theta = math.asin(math.sqrt(s))
    eig = np.linalg.eigvals(build_Q(build_A(spec)))
    phases = np.angle(eig)
    assert np.min(np.abs(phases - 2 * theta)) < 1e-10
    assert np.min(np.abs(phases + 2 * theta)) < 1e-10


def test_amplification_rotates_amplitude(spec_n2):
    spec, s = spec_n2
    A = build_A(spec)
    pt = amplitude_point(s)
    for m in range(8):
        got = good_state_probability(amplified_state(A, m))
        assert got == pytest.approx(noisy_good_prob(m, pt), abs=1e-12)


def test_depolarized_prob_pure_limit(spec_n2):
    spec, s = spec_n2
    A = build_A(spec)
    for m in (0, 3, 7):
        assert depolarized_good_prob(A, m, 1.0) == pytest.approx(
            noisy_good_prob(m, amplitude_point(s)), abs=1e-12
        )


def test_depolarized_prob_rejects_bad_survival(spec_n2):
    spec, _ = spec_n2
    A = build_A(spec)
    with pytest.raises(DomainError):
        depolarized_good_prob(A, 1, 0.0)
    with pytest.raises(DomainError):
        depolarized_good_prob(A, 1, 1.5)


def test_depolarize_channel_properties(spec_n2):
    spec, _ = spec_n2
    state = initial_state(build_A(spec))
    rho = np.outer(state, state.conj())
    out = depolarize(rho, 0.7)
    assert np.trace(out) == pytest.approx(1.0, abs=1e-12)
    # channel output is a convex mix: eigenvalues stay in [0, 1]
    vals = np.linalg.eigvalsh(out)
    assert np.all(vals > -1e-12)
    # p = 1 is the identity channel
    assert np.allclose(depolarize(rho, 1.0), rho, atol=1e-15)


def test_channel_commutes_with_amplification(spec_n2):
    # evolving then mixing equals mixing then evolving, per round
    spec, _ = spec_n2
    A = build_A(spec)
    Q = build_Q(A)
    state = initial_state(A)
    rho = np.outer(state, state.conj())
    p = 0.85
    left = depolarize(Q @ rho @ Q.conj().T, p)
    right = Q @ depolarize(rho, p) @ Q.conj().T
    assert np.allclose(left, right, atol=1e-12)


def test_size_cap():
    n = 12
    size = 2**n
    spec = IntegrandSpec(
        n=n, probabilities=tuple([1.0 / size] * size), values=tuple([0.5] * size)
    )
    with pytest.raises(DomainError):
        build_A(spec)
