"""Reference copy of the direct form of the phase-estimation outcome law,
one sine pass per phase, that `dee.qpe.outcome_law` replaced with angle
addition over an `offset_basis`.  The tests compare the library against it."""

import numpy as np


def direct_outcome_law(frac, offsets, t):
    """sin^2(pi frac) / (T sin(pi (j - frac) / T))^2 at the offsets j, and 1
    where the denominator is 0."""
    law = np.subtract(offsets, frac)
    law *= np.pi / t
    np.sin(law, out=law)
    law *= t
    law *= law
    zero = law == 0.0
    np.divide(np.sin(np.pi * frac) ** 2, law, out=law, where=~zero)
    law[zero] = 1.0
    return law
