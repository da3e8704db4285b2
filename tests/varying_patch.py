"""A seeded n = 2 patch whose every field varies from point to point.

Constant patches cannot tell a swapped grid axis or a broadcasting slip from
correct code; on this 5 x 6 grid every point carries its own alpha, V0, SPD
h0, first-order metric jet and traceless H.
"""
import numpy as np

from scatjet.boundary_jets import BoundaryPatch
from scatjet.synthetic import draw_admissible_energies, random_spd, traceless_symmetric

AXES = (5, 6)


def varying_patch(seed: int):
    """``(patch, energies, H)``: a patch whose first-order jets are ``h^(1) = h0 H h0``
    with a traceless ``H`` per point and ``V^(1) = W1 = 0``, the regime in which
    the first-order fit is exact.
    """
    rng = np.random.default_rng(seed)
    n = len(AXES)
    alpha = rng.uniform(0.5, 2.0, size=AXES)
    v0 = rng.uniform(-1.0, 1.0, size=AXES)
    h0 = np.empty(AXES + (n, n))
    H = np.empty(AXES + (n, n))
    for idx in np.ndindex(*AXES):
        h0[idx] = random_spd(rng, n)
        H[idx] = traceless_symmetric(rng, n)
    v1 = np.zeros(AXES)
    patch = BoundaryPatch(n=n, axes=AXES, alpha=alpha, v_jet=(v0, v1), h_jet=(h0, h0 @ H @ h0))
    return patch, draw_admissible_energies(rng, patch), H
