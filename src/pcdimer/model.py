"""Physical parameters and Hamiltonians of two driven emitters coupled to the
two normal modes of a photonic-crystal dimer.

Unit conventions
----------------
Every energy and rate is stored as an hbar-scaled quantity in micro-eV;
times are in picoseconds.  The single conversion constant is
``HBAR_UEV_PS`` and it is applied exactly once, when the Lindblad generator
is assembled (see :mod:`pcdimer.liouvillian`).

Mode frequencies are conveniently referenced to the lower normal mode
(``omega = 0`` for mode 1 in the shipped presets); only detunings enter the
rotating-frame dynamics, so the absolute optical frequency drops out.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
import itertools
import math

import numpy as np
import scipy.sparse as sp

from .exceptions import DomainError
from .hilbert import CompositeSpace, Operator, basis_index, boson, lowering_operators, qubit

__all__ = [
    "HBAR_UEV_PS",
    "ModeParams",
    "QDParams",
    "DriveParams",
    "CouplingMatrix",
    "SystemParams",
    "DarkState",
    "coupling_from_field",
    "model_terms",
    "coefficients",
    "build_effective_hamiltonian",
    "identify_dark_state",
    "preset_params",
    "PRESET_NAMES",
]

# hbar in ueV * ps; converts hbar-scaled energies (ueV) into inverse times (1/ps)
HBAR_UEV_PS = 658.2119569


@dataclass(frozen=True)
class ModeParams:
    """One photonic normal mode: frequency, linewidth and incoherent pump rate
    (all hbar-scaled, in ueV)."""

    omega: float
    gamma: float
    pump: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.omega, self.gamma, self.pump))):
            raise DomainError(f"mode parameters must be finite, got {self}")
        if self.gamma < 0:
            raise DomainError(f"mode linewidth must be >= 0, got {self.gamma}")
        if self.pump < 0:
            raise DomainError(f"incoherent pump rate must be >= 0, got {self.pump}")


@dataclass(frozen=True)
class QDParams:
    """One emitter: exciton transition energy, radiative decay rate and pure
    dephasing rate (all hbar-scaled, in ueV)."""

    omega: float
    gamma: float = 0.0
    gamma_d: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.omega, self.gamma, self.gamma_d))):
            raise DomainError(f"emitter parameters must be finite, got {self}")
        if self.gamma < 0:
            raise DomainError(f"emitter decay rate must be >= 0, got {self.gamma}")
        if self.gamma_d < 0:
            raise DomainError(f"dephasing rate must be >= 0, got {self.gamma_d}")


@dataclass(frozen=True)
class DriveParams:
    """Coherent continuous-wave drive of the two emitters.

    The complex drive amplitudes are ``amplitude * exp(i * phase_n)`` and the
    drive frequency is ``pump_freq`` (same reference as the mode frequencies).
    """

    amplitude: float
    phase1: float = 0.0
    phase2: float = 0.0
    pump_freq: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.amplitude, self.phase1, self.phase2,
                                       self.pump_freq))):
            raise DomainError(f"drive parameters must be finite, got {self}")
        if self.amplitude < 0:
            raise DomainError(f"drive amplitude must be >= 0, got {self.amplitude}")

    @property
    def omega1(self) -> complex:
        return self.amplitude * np.exp(1j * self.phase1)

    @property
    def omega2(self) -> complex:
        return self.amplitude * np.exp(1j * self.phase2)


@dataclass(frozen=True)
class CouplingMatrix:
    """Couplings g[m][n] between normal mode m and emitter n (hbar-scaled, ueV).

    The sign pattern across the second index records the bonding (equal signs)
    or antibonding (opposite signs) parity of each mode.
    """

    g: tuple[tuple[complex, complex], tuple[complex, complex]]

    def __post_init__(self):
        rows = tuple(tuple(complex(x) for x in row) for row in self.g)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise DomainError("coupling matrix must be 2x2 (two modes, two emitters)")
        if not all(math.isfinite(x.real) and math.isfinite(x.imag)
                   for row in rows for x in row):
            raise DomainError("coupling matrix entries must be finite")
        object.__setattr__(self, "g", rows)

    def as_array(self) -> np.ndarray:
        return np.array(self.g, dtype=complex)

    @staticmethod
    def bonding_antibonding(g: float) -> "CouplingMatrix":
        """Equal-magnitude couplings: mode 1 bonding (+g, +g), mode 2
        antibonding (+g, -g)."""
        return CouplingMatrix(((g, g), (g, -g)))


@dataclass(frozen=True)
class SystemParams:
    """Complete parameter set of the two-emitter / two-mode system."""

    modes: tuple[ModeParams, ModeParams]
    dots: tuple[QDParams, QDParams]
    coupling: CouplingMatrix
    drive: DriveParams
    truncation: int = 1

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "dots", tuple(self.dots))
        if len(self.modes) != 2 or len(self.dots) != 2:
            raise DomainError("exactly two modes and two emitters are required")
        if self.truncation < 1:
            raise DomainError(f"Fock truncation must be >= 1, got {self.truncation}")

    def space(self) -> CompositeSpace:
        """Composite space in the fixed ordering (QD1, QD2, mode1, mode2)."""
        b = boson(self.truncation)
        return CompositeSpace((qubit(), qubit(), b, b))

    @property
    def splitting(self) -> float:
        return self.modes[1].omega - self.modes[0].omega

    # ---- sweep helpers: return a modified copy ---------------------------

    def with_drive(self, **kwargs) -> "SystemParams":
        return dataclasses.replace(self, drive=dataclasses.replace(self.drive, **kwargs))

    def with_drive_detuning(self, delta: float) -> "SystemParams":
        return self.with_drive(pump_freq=self.modes[0].omega + delta)

    def with_qd2_detuning(self, delta: float) -> "SystemParams":
        dot2 = dataclasses.replace(self.dots[1], omega=self.dots[0].omega + delta)
        return dataclasses.replace(self, dots=(self.dots[0], dot2))

    def with_dephasing(self, gamma_d: float) -> "SystemParams":
        dots = tuple(dataclasses.replace(d, gamma_d=gamma_d) for d in self.dots)
        return dataclasses.replace(self, dots=dots)

    def with_qd_decay(self, gamma: float) -> "SystemParams":
        dots = tuple(dataclasses.replace(d, gamma=gamma) for d in self.dots)
        return dataclasses.replace(self, dots=dots)

    def with_splitting(self, splitting: float) -> "SystemParams":
        mode2 = dataclasses.replace(self.modes[1], omega=self.modes[0].omega + splitting)
        return dataclasses.replace(self, modes=(self.modes[0], mode2))

    def with_mode_linewidths(self, gamma1: float, gamma2: float) -> "SystemParams":
        modes = (
            dataclasses.replace(self.modes[0], gamma=gamma1),
            dataclasses.replace(self.modes[1], gamma=gamma2),
        )
        return dataclasses.replace(self, modes=modes)

    def with_truncation(self, truncation: int) -> "SystemParams":
        return dataclasses.replace(self, truncation=truncation)


def coupling_from_field(omega0: float, d2: float, ey: float) -> float:
    """Emitter-mode coupling energy from the normal-mode field amplitude.

    Parameters
    ----------
    omega0 : float
        Average exciton transition energy (hbar * omega0) in eV.
    d2 : float
        Squared dipole moment in eV * nm^3.
    ey : float
        Normal-mode electric field amplitude at the emitter position, in
        nm^(-3/2) under the unit-volume normalization of the mode field.

    Returns
    -------
    float
        Coupling energy hbar*g in ueV; linear in ``ey``.
    """
    if not all(map(math.isfinite, (omega0, d2, ey))):
        raise DomainError(
            f"field-to-coupling inputs must be finite, got {(omega0, d2, ey)}")
    if omega0 <= 0:
        raise DomainError(f"transition energy must be positive, got {omega0}")
    if d2 < 0:
        raise DomainError(f"squared dipole moment must be >= 0, got {d2}")
    return 1e6 * math.sqrt(2.0 * math.pi * omega0 * d2) * ey


@lru_cache(maxsize=16)
def model_terms(space: CompositeSpace) -> tuple[sp.csc_matrix, tuple[np.ndarray, ...]]:
    """The term operators of the model on ``space``: the rotating-frame
    Hamiltonian is sum_k theta_k T_k and the jumps C_j act at the rates
    r_j, with (theta, r) = ``coefficients(params)``.

    Couplings and drive amplitudes enter through their real and imaginary
    parts: conj(g) X + g X^dag = Re g (X + X^dag) + Im g i(X^dag - X), for
    X = a_m^dag sigma_n, and likewise for Omega_n sigma_n^dag.  Returns
    ``(hamiltonian, jumps)``.  Column k of the sparse (d^2, 16)
    ``hamiltonian`` is the C-order flattened Hermitian term T_k:
    a_1^dag a_1, a_2^dag a_2, sigma_1^dag sigma_1, sigma_2^dag sigma_2, then
    X + X^dag and i(X^dag - X) for X = a_m^dag sigma_n in the order
    (m, n) = (1, 1), (1, 2), (2, 1), (2, 2), then sigma_n + sigma_n^dag and
    i(sigma_n^dag - sigma_n) for n = 1, 2.  ``jumps`` are the eight dense,
    read-only d x d Lindblad channels: per mode the loss a_m and the pump
    a_m^dag, per emitter the decay sigma_n and the dephasing projector
    sigma_n^dag sigma_n.  Cached per space; treat as read-only.
    """
    sm1, sm2, a1, a2 = (low.matrix for low in lowering_operators(space))
    exchange = [a.conj().T @ sm for a in (a1, a2) for sm in (sm1, sm2)]
    terms = itertools.chain(
        (a.conj().T @ a for a in (a1, a2, sm1, sm2)),
        (x + x.conj().T for x in exchange),
        (1j * (x.conj().T - x) for x in exchange),
        (sm + sm.conj().T for sm in (sm1, sm2)),
        (1j * (sm.conj().T - sm) for sm in (sm1, sm2)))
    hamiltonian = sp.csc_matrix(np.stack([term.ravel() for term in terms], axis=1))
    jumps = (a1, a1.conj().T, a2, a2.conj().T,
             sm1, sm1.conj().T @ sm1, sm2, sm2.conj().T @ sm2)
    for c in jumps:
        c.flags.writeable = False
    return hamiltonian, jumps


def coefficients(params: SystemParams) -> np.ndarray:
    """Real coefficient vector of ``params`` over ``model_terms``
    (hbar-scaled, ueV): the 16 Hamiltonian coefficients, then the 8 jump
    rates.

    The Hamiltonian coefficients are the mode and emitter frequencies minus
    the drive frequency, Re and Im of the couplings g[m][n], and Re and Im
    of the drive amplitudes.  The rates are the linewidth and pump rate of
    each mode and the decay rate and twice the dephasing rate of each
    emitter: gamma_d is the coherence-decay rate, a bare emitter's
    off-diagonal element decaying as exp(-gamma_d t / hbar) with populations
    untouched, and the projector jump halves the phase-damping efficiency of
    the plain Lindblad form.
    """
    wp = params.drive.pump_freq
    (m1, m2), (q1, q2) = params.modes, params.dots
    g = params.coupling.as_array().ravel()
    drive = np.array([params.drive.omega1, params.drive.omega2])
    return np.concatenate((
        [m1.omega - wp, m2.omega - wp, q1.omega - wp, q2.omega - wp],
        g.real, g.imag, drive.real, drive.imag,
        [m1.gamma, m1.pump, m2.gamma, m2.pump,
         q1.gamma, 2.0 * q1.gamma_d, q2.gamma, 2.0 * q2.gamma_d],
    ))


def build_effective_hamiltonian(params: SystemParams) -> Operator:
    """Rotating-frame Hamiltonian at the drive frequency (hbar-scaled, ueV).

    Mode and emitter frequencies appear shifted by the drive frequency; the
    emitter-mode couplings and the now time-independent drive terms are added
    with their Hermitian conjugates.  Built as sum_k theta_k T_k over the
    Hermitian terms of ``model_terms``: each entry and its transpose sum the
    same real multiples of conjugate values in the same order, so the result
    is exactly Hermitian entrywise.
    """
    space = params.space()
    hamiltonian, _ = model_terms(space)
    d = space.total_dim
    theta = coefficients(params)[:hamiltonian.shape[1]]
    return Operator(space, (hamiltonian @ theta).reshape(d, d))


@dataclass(frozen=True)
class DarkState:
    """Single-excitation eigenstate with minimal photonic weight.

    Attributes
    ----------
    detuning : float
        Eigenstate energy relative to the lower mode frequency (ueV).
    amplitudes : np.ndarray
        Normalized amplitudes on (exciton 1, exciton 2, photon 1, photon 2).
    photonic_weight : float
        Total population of the two photonic components.
    """

    detuning: float
    amplitudes: np.ndarray
    photonic_weight: float


def identify_dark_state(params: SystemParams) -> DarkState:
    """Diagonalize the drive-free single-excitation block of the model's
    Hamiltonian and return the eigenstate least mixed with the photonic
    modes.

    The block is read from ``build_effective_hamiltonian`` at Fock cutoff 1
    and drive frequency 0, so its diagonal holds the bare frequencies; its
    rows and columns are the states with one excitation in QD1, QD2, mode 1
    and mode 2, in that order.  Ties in photonic weight are broken toward the
    lower-energy eigenstate.
    """
    if np.all(params.coupling.as_array() == 0):
        raise DomainError(
            "all couplings vanish: the single-excitation block is degenerate "
            "and no unique dark state exists"
        )
    hamiltonian = build_effective_hamiltonian(
        params.with_truncation(1).with_drive(pump_freq=0.0))
    single = [basis_index(hamiltonian.space, occupations)
              for occupations in np.eye(4, dtype=int).tolist()]
    block = hamiltonian.matrix[np.ix_(single, single)]
    try:
        energies, vectors = np.linalg.eigh(block)
    except np.linalg.LinAlgError:  # entries near the largest double overflow
        raise DomainError("the single-excitation block does not diagonalize: "
                          "couplings or frequencies out of range") from None
    weights = np.sum(np.abs(vectors[2:, :]) ** 2, axis=0)
    # lowest-energy state among (near-exact) minimal-weight ties; eigh returns
    # energies ascending, so the first qualifying index wins
    best = int(np.flatnonzero(weights <= weights.min() + 1e-12)[0])
    vec = vectors[:, best].copy()
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot] / abs(vec[pivot])
    vec = vec / phase  # fixed phase convention: largest component real > 0
    return DarkState(
        detuning=float(energies[best] - params.modes[0].omega),
        amplitudes=vec,
        photonic_weight=float(weights[best]),
    )


# ---------------------------------------------------------------------------
# Parameter presets
# ---------------------------------------------------------------------------
#
# Coupling magnitude, mode linewidths and drive amplitude are reference
# values for 30-degree L3 dimers at two intercavity distances; the
# normal-mode splitting is a free preset field chosen well inside the
# spectrally-well-split regime (splitting >> linewidths >> drive).

_PRESET_G = 110.0          # ueV, all emitter-mode couplings
_PRESET_DRIVE = 1.0        # ueV, coherent drive amplitude
_PRESET_SPLITTING = 2200.0  # ueV, default normal-mode splitting


def _make_preset(gamma1: float, gamma2: float, splitting: float) -> SystemParams:
    return SystemParams(
        modes=(
            ModeParams(omega=0.0, gamma=gamma1),
            ModeParams(omega=splitting, gamma=gamma2),
        ),
        dots=(QDParams(omega=0.0), QDParams(omega=0.0)),
        coupling=CouplingMatrix.bonding_antibonding(_PRESET_G),
        drive=DriveParams(amplitude=_PRESET_DRIVE),
        truncation=1,
    )


_PRESETS = {
    # close-spaced dimer: broad normal modes
    "dimer30_dc901": lambda: _make_preset(67.0, 37.0, _PRESET_SPLITTING),
    # wide-spaced dimer: narrow normal modes, smaller splitting
    "dimer30_dc2252": lambda: _make_preset(17.0, 16.0, 1200.0),
    # symmetric illustrative baseline
    "generic_weak_pump": lambda: _make_preset(50.0, 50.0, _PRESET_SPLITTING),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_params(name: str) -> SystemParams:
    """Frozen parameter sets for the shipped dimer configurations.

    Emitters start resonant with the lower mode, undriven in frequency
    (``pump_freq = omega_1``) with zero phases; sweep and protocol code moves
    the drive onto the dark state explicitly.
    """
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise DomainError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    return factory()
