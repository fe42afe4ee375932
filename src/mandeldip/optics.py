"""Distinguishability model: filters, coherence length and mode overlap.

Spectral filters are Gaussian. A filter of FWHM bandwidth dl at center
wavelength l gives a coherence length l_c = (2 ln2 / pi) * l^2 / dl
(FWHM, Gaussian time-bandwidth convention). The dip of the coincidence
rate versus optical delay then has FWHM sqrt(2) * l_c.

Path delay, polarization mismatch and a scalar spectral-mismatch knob
set the overlap x = |m|^2 of photon 2's wave packet with photon 1's,
which the engine reads over the grid (`overlap_sq`).
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
        if not 0.0 < self.center_nm < math.inf:
            raise ValueError("filter center must be positive and finite")
        if not 0.0 < self.fwhm_nm < math.inf:
            raise ValueError("filter bandwidth must be positive and finite")


def coherence_length(filt: FilterSpec) -> float:
    """FWHM coherence length in um set by a Gaussian filter."""
    lam_um = filt.center_nm * 1e-3
    dlam_um = filt.fwhm_nm * 1e-3
    return _GAUSSIAN_TB_FACTOR * lam_um ** 2 / dlam_um


def heralded_bandwidth(signal_filter: FilterSpec,
                       herald_filter: FilterSpec) -> FilterSpec:
    """Effective signal-wavelength filter after heralding on the twin.

    Energy conservation, which also fixes the pump centre at
    1/l_pump = 1/l_sig + 1/l_her, maps the herald filter onto the signal
    wavelength with equal frequency width, dl_sig = dl_her * (l_sig /
    l_her)^2; the mapped filter then combines with the physical signal
    filter as a product of Gaussians (inverse-variance sum in frequency).
    """
    ratio = signal_filter.center_nm / herald_filter.center_nm
    mapped_fwhm = herald_filter.fwhm_nm * ratio ** 2
    combined = 1.0 / math.sqrt(signal_filter.fwhm_nm ** -2
                               + mapped_fwhm ** -2)
    return FilterSpec(center_nm=signal_filter.center_nm, fwhm_nm=combined)


def dip_variance(coherence_length_um: float) -> float:
    """Variance s^2 of the Gaussian |m(delay)|^2, s = l_c / (2 sqrt(ln 2));
    a ValueError unless l_c > 0 and s^2 is a positive finite float."""
    variance = (coherence_length_um / (2.0 * math.sqrt(math.log(2.0)))) ** 2
    if not (coherence_length_um > 0 and 0.0 < variance < math.inf):
        raise ValueError("the dip width's square must be a positive "
                         "finite float")
    return variance


def overlap_sq(delays_um, coherence_length_um: float,
               polarization_angle_rad: float = 0.0,
               spectral_mismatch: float = 0.0) -> np.ndarray:
    """Overlap |m(delay)|^2 of the delayed photon at every delay.

    |m(delay)|^2 = cos^2(angle) * (1 - mismatch) * exp(-d^2 / (2 s^2))
    with s^2 from `dip_variance`, so |m|^2 versus delay has FWHM
    sqrt(2) * l_c.
    """
    if not 0.0 <= spectral_mismatch <= 1.0:
        raise ValueError("spectral_mismatch must lie in [0, 1]")
    variance = dip_variance(coherence_length_um)
    d = np.asarray(delays_um, dtype=float)
    return (math.cos(polarization_angle_rad) ** 2 * (1.0 - spectral_mismatch)
            * np.exp(-d ** 2 / (2.0 * variance)))
