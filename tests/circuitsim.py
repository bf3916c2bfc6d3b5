"""Exact statevector oracle for the amplitude amplification model.

Builds the state-preparation unitary A and the amplification operator
Q = -A S_0 A^{-1} S_chi as dense matrices on n data qubits plus one ancilla
(ancilla least significant), and evaluates good-state probabilities from
first principles.  This module exists to validate the analytic probability
model, not to scale: n + 1 is capped at 12 qubits.
"""
from __future__ import annotations

import numpy as np

from aemle import DomainError

from integrate import IntegrandSpec, SpecError

MAX_QUBITS = 12


def _check_size(n: int) -> None:
    if n + 1 > MAX_QUBITS:
        raise DomainError(f"dense oracle limited to n+1 <= {MAX_QUBITS} qubits, got n={n}")


def build_A(spec: IntegrandSpec) -> np.ndarray:
    """State preparation A = R (P (x) I_1) on n+1 qubits.

    P loads sqrt(p_j) onto the data register (any unitary with that first
    column; a Householder reflection is used).  R rotates the ancilla to
    sqrt(f_j)|1> + sqrt(1-f_j)|0> controlled on the data value j.
    """
    _check_size(spec.n)
    size = 2**spec.n
    p = np.asarray(spec.probabilities, dtype=float)
    f = np.asarray(spec.values, dtype=float)
    if abs(float(p.sum()) - 1.0) > 1e-10:
        raise SpecError(f"probabilities sum to {p.sum()}, expected 1 within 1e-10")
    if np.any(f < 0.0) or np.any(f > 1.0):
        raise SpecError("values must lie in [0, 1]")

    # Householder reflection mapping e_0 -> sqrt(p); orthogonal, first column sqrt(p).
    v = np.sqrt(p)
    w = v.copy()
    w[0] -= 1.0
    norm2 = float(np.dot(w, w))
    if norm2 < 1e-30:
        P = np.eye(size)
    else:
        P = np.eye(size) - 2.0 * np.outer(w, w) / norm2

    # Ancilla rotation, block-diagonal over data values.
    R = np.zeros((2 * size, 2 * size))
    c = np.sqrt(1.0 - f)
    s = np.sqrt(f)
    for j in range(size):
        R[2 * j, 2 * j] = c[j]
        R[2 * j + 1, 2 * j] = s[j]
        R[2 * j, 2 * j + 1] = -s[j]
        R[2 * j + 1, 2 * j + 1] = c[j]
    return R @ np.kron(P, np.eye(2))


def build_Q(A: np.ndarray) -> np.ndarray:
    """Amplification operator Q = -A S_0 A^{-1} S_chi.

    S_chi flips the phase of ancilla-|1> components; S_0 flips the phase of
    the all-zeros state.  The leading minus sign (a global phase) is retained
    exactly so the eigenphase structure matches the definition.
    """
    dim = A.shape[0]
    s_chi = np.ones(dim)
    s_chi[1::2] = -1.0
    s_0 = np.ones(dim)
    s_0[0] = -1.0
    # column scaling implements right-multiplication by the diagonal reflections
    return -(A * s_0) @ (A.conj().T * s_chi)


def initial_state(A: np.ndarray) -> np.ndarray:
    """A|0>, the prepared state."""
    return np.ascontiguousarray(A[:, 0], dtype=complex)


def good_state_probability(state: np.ndarray) -> float:
    """Probability of the ancilla reading 1 (odd basis indices)."""
    return float(np.sum(np.abs(state[1::2]) ** 2))


def amplified_state(A: np.ndarray, m: int) -> np.ndarray:
    """Q^m A|0> by repeated application."""
    if m < 0:
        raise DomainError(f"m={m} must be >= 0")
    Q = build_Q(A)
    state = initial_state(A)
    for _ in range(m):
        state = Q @ state
    return state


def depolarized_good_prob(A: np.ndarray, m: int, p_survive: float) -> float:
    """Good-state probability after m amplifications through a depolarizing channel.

    The density matrix starts at the prepared pure state and each round maps
    rho -> depolarize(Q rho Q^dag, p); the probability is the weight on the
    ancilla-|1> (odd) diagonal entries.  No closed form of the noisy
    evolution is assumed.
    """
    if not (0.0 < p_survive <= 1.0):
        raise DomainError(f"survival probability {p_survive} outside (0, 1]")
    if m < 0:
        raise DomainError(f"m={m} must be >= 0")
    Q = build_Q(A)
    state = initial_state(A)
    rho = np.outer(state, state.conj())
    for _ in range(m):
        rho = depolarize(Q @ rho @ Q.conj().T, p_survive)
    return float(np.sum(rho.diagonal()[1::2].real))


def depolarize(rho: np.ndarray, p_survive: float) -> np.ndarray:
    """One application of the depolarizing channel p rho + (1-p) I/d."""
    d = rho.shape[0]
    return p_survive * rho + (1.0 - p_survive) * np.eye(d) / d
