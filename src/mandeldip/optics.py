"""Distinguishability model: filters, coherence length and mode overlap.

Spectral filters are Gaussian. A filter of FWHM bandwidth dl at center
wavelength l gives a coherence length l_c = (2 ln2 / pi) * l^2 / dl
(FWHM, Gaussian time-bandwidth convention). The dip of the coincidence
rate versus optical delay then has FWHM sqrt(2) * l_c.

The overlap amplitude m collapses path delay, polarization mismatch and
a scalar spectral-mismatch knob into the single number consumed by the
Fock layer: photon 2's temporal mode is m * (matched) +
sqrt(1 - |m|^2) * (orthogonal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# FWHM time-bandwidth factor for Gaussian spectra: l_c = K * lambda^2 / dlambda
_GAUSSIAN_TB_FACTOR = 2.0 * math.log(2.0) / math.pi


@dataclass(frozen=True)
class FilterSpec:
    """Gaussian interference filter: center wavelength and FWHM, in nm."""

    center_nm: float
    fwhm_nm: float

    def __post_init__(self):
        if self.center_nm <= 0:
            raise ValueError("filter center wavelength must be positive")
        if not self.fwhm_nm > 0:
            raise ValueError("filter bandwidth must be positive")


def coherence_length(filt: FilterSpec) -> float:
    """FWHM coherence length in um set by a Gaussian filter."""
    if math.isinf(filt.fwhm_nm):
        raise ValueError("coherence length undefined for infinite bandwidth")
    lam_um = filt.center_nm * 1e-3
    dlam_um = filt.fwhm_nm * 1e-3
    return _GAUSSIAN_TB_FACTOR * lam_um ** 2 / dlam_um


def heralded_bandwidth(signal_filter: FilterSpec, herald_filter: FilterSpec,
                       pump: FilterSpec) -> FilterSpec:
    """Effective signal-wavelength filter after heralding on the twin.

    Energy conservation maps the herald filter onto the signal wavelength
    with equal frequency width, dl_sig = dl_her * (l_sig / l_her)^2; the
    mapped filter then combines with the physical signal filter as a
    product of Gaussians (inverse-variance sum in frequency). The pump
    center must satisfy 1/l_pump = 1/l_sig + 1/l_her within 1%.
    """
    inv_pump = 1.0 / pump.center_nm
    inv_sum = 1.0 / signal_filter.center_nm + 1.0 / herald_filter.center_nm
    if abs(inv_pump - inv_sum) / inv_pump > 0.01:
        raise ValueError(
            "wavelength triple violates energy conservation: "
            f"1/{pump.center_nm} != 1/{signal_filter.center_nm} + "
            f"1/{herald_filter.center_nm}")
    ratio = signal_filter.center_nm / herald_filter.center_nm
    mapped_fwhm = herald_filter.fwhm_nm * ratio ** 2
    if math.isinf(mapped_fwhm):
        return signal_filter
    if math.isinf(signal_filter.fwhm_nm):
        combined = mapped_fwhm
    else:
        combined = 1.0 / math.sqrt(signal_filter.fwhm_nm ** -2
                                   + mapped_fwhm ** -2)
    return FilterSpec(center_nm=signal_filter.center_nm, fwhm_nm=combined)


def overlap_sq(delays_um, coherence_length_um: float,
               polarization_angle_rad: float = 0.0,
               spectral_mismatch: float = 0.0) -> np.ndarray:
    """Overlap |m(delay)|^2 of the delayed photon at every delay.

    |m(delay)|^2 = cos^2(angle) * (1 - mismatch) * exp(-d^2 / (2 s^2))
    with s = l_c / (2 sqrt(ln 2)), so |m|^2 versus delay has FWHM
    sqrt(2) * l_c.
    """
    if coherence_length_um <= 0:
        raise ValueError("coherence length must be positive")
    if not 0.0 <= spectral_mismatch <= 1.0:
        raise ValueError("spectral_mismatch must lie in [0, 1]")
    sigma_d = coherence_length_um / (2.0 * math.sqrt(math.log(2.0)))
    d = np.asarray(delays_um, dtype=float)
    return (math.cos(polarization_angle_rad) ** 2 * (1.0 - spectral_mismatch)
            * np.exp(-d ** 2 / (2.0 * sigma_d ** 2)))


def decompose_modes(m: complex) -> tuple[complex, float]:
    """Split the delayed photon into matched/orthogonal amplitudes."""
    if abs(m) > 1.0 + 1e-12:
        raise ValueError("overlap amplitude must satisfy |m| <= 1")
    return complex(m), math.sqrt(max(0.0, 1.0 - abs(m) ** 2))
