"""A seeded n = 2 patch pair whose every field varies from point to point.

Constant patches cannot tell a swapped grid axis or a broadcasting slip from
correct code; on this 5 x 6 grid every point carries its own alpha, V0, SPD
h0, first-order jets and traceless H.
"""
import numpy as np

from scatjet.boundary_jets import BoundaryPatch
from scatjet.synthetic import draw_admissible_energies, random_spd, traceless_symmetric

AXES = (5, 6)


def varying_patch_pair(seed: int):
    """``(patch1, patch2, energies, H)``: two patches sharing zeroth-order data.

    ``patch2``'s first-order metric jet differs by ``L = h0 H h0`` with a
    traceless ``H`` per point, and its potential jet not at all (``W1 = 0``),
    the regime in which the first-order fit is exact.
    """
    rng = np.random.default_rng(seed)
    n = len(AXES)
    alpha = rng.uniform(0.5, 2.0, size=AXES)
    v0 = rng.uniform(-1.0, 1.0, size=AXES)
    v1 = rng.uniform(-0.5, 0.5, size=AXES)
    h0 = np.empty(AXES + (n, n))
    h1 = np.empty(AXES + (n, n))
    H = np.empty(AXES + (n, n))
    for idx in np.ndindex(*AXES):
        h0[idx] = random_spd(rng, n)
        H[idx] = traceless_symmetric(rng, n)
        s = rng.normal(size=(n, n))
        h1[idx] = (s + s.T) / 2.0
    L = h0 @ H @ h0
    patch1 = BoundaryPatch(n=n, axes=AXES, alpha=alpha, v_jet=(v0, v1), h_jet=(h0, h1))
    patch2 = BoundaryPatch(n=n, axes=AXES, alpha=alpha, v_jet=(v0, v1), h_jet=(h0, h1 + L))
    return patch1, patch2, draw_admissible_energies(rng, patch1), H
