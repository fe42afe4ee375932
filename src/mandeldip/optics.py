"""Distinguishability model: filters, coherence length and mode overlap.

Spectral filters are Gaussian, each given by its centre wavelength and
FWHM in nm (`runner.ExperimentConfig` checks both). A filter of FWHM
bandwidth dl at center wavelength l gives a coherence length
l_c = (2 ln2 / pi) * l^2 / dl (FWHM, Gaussian time-bandwidth convention).
The dip of the coincidence rate versus optical delay then has FWHM
sqrt(2) * l_c.

Path delay, polarization mismatch and a scalar spectral-mismatch knob
set the overlap x = |m|^2 of photon 2's wave packet with photon 1's,
which the engine reads over the grid (`overlap_sq`).
"""

from __future__ import annotations

import math

import numpy as np

# FWHM time-bandwidth factor for Gaussian spectra: l_c = K * lambda^2 / dlambda
_GAUSSIAN_TB_FACTOR = 2.0 * math.log(2.0) / math.pi


def coherence_length(center_nm: float, fwhm_nm: float) -> float:
    """FWHM coherence length in um set by a Gaussian filter of centre
    `center_nm` and FWHM `fwhm_nm`."""
    lam_um = center_nm * 1e-3
    dlam_um = fwhm_nm * 1e-3
    return _GAUSSIAN_TB_FACTOR * lam_um ** 2 / dlam_um


def heralded_bandwidth(signal_nm: float, signal_fwhm_nm: float,
                       herald_nm: float, herald_fwhm_nm: float) -> float:
    """FWHM in nm of the effective signal-wavelength filter after
    heralding on the twin; the filter stays centred at `signal_nm`.

    Energy conservation, which also fixes the pump centre at
    1/l_pump = 1/l_sig + 1/l_her, maps the herald filter onto the signal
    wavelength with equal frequency width, dl_sig = dl_her * (l_sig /
    l_her)^2; the mapped filter then combines with the physical signal
    filter as a product of Gaussians (inverse-variance sum in frequency).
    """
    ratio = signal_nm / herald_nm
    mapped_fwhm = herald_fwhm_nm * ratio ** 2
    return 1.0 / math.sqrt(signal_fwhm_nm ** -2 + mapped_fwhm ** -2)


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
    # a delay beyond about 1.3e154 um squares to inf, whose overlap
    # exp(-inf) is exactly 0: that overflow is the right answer
    with np.errstate(over="ignore"):
        envelope = np.exp(-d ** 2 / (2.0 * variance))
    return (math.cos(polarization_angle_rad) ** 2 * (1.0 - spectral_mismatch)
            * envelope)
