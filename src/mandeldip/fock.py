"""Closed-form two-mode amplitudes of the 50-50 beam splitter, the
kernel of the scan engine, with the convention

    a_dag -> (c_dag + i d_dag) / sqrt(2)
    b_dag -> (i c_dag + d_dag) / sqrt(2)

for inputs a, b and outputs c, d. The full Fock-state algebra the
engine is tested against lives with the tests (`tests/fock_reference.py`).
"""

from __future__ import annotations

import math
from typing import List

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def beamsplitter_amplitudes(na: int, nb: int) -> List[complex]:
    """Output amplitudes of the two-mode basis state |na, nb> on the 50-50
    beam splitter: entry kc is <kc, kd| U |na, nb> with kd = na + nb - kc.

    Expands (a_dag)^na (b_dag)^nb / sqrt(na! nb!) in the output creation
    operators; the ket factor sqrt(kc! kd!) turns each monomial into a
    normalized basis vector. Outputs that interfere away (such as
    |1,1> -> |1,1>) are kept, with amplitude zero up to rounding.
    """
    if na < 0 or nb < 0:
        raise ValueError("photon numbers must be non-negative")
    combos = [0j] * (na + nb + 1)
    pref = _SQRT_HALF ** (na + nb) / math.sqrt(
        math.factorial(na) * math.factorial(nb))
    for j in range(na + 1):
        ca = math.comb(na, j) * (1j) ** (na - j)
        for k in range(nb + 1):
            cb = math.comb(nb, k) * (1j) ** k
            combos[j + k] += pref * ca * cb
    return [coeff * math.sqrt(math.factorial(kc) * math.factorial(na + nb - kc))
            for kc, coeff in enumerate(combos)]
