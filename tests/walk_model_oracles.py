"""Whole-table routes of walk_model, as test oracles of its node tables and blocks.

lattice_offset_pointwise integrates the same integrand on the same panels as
walk_model._lattice_offset, but on a node table of its own per law, so every
theta-only part (polylogs, rho_m, the atom matrices) is recomputed per law
instead of read from one table per build.  one_minus_char_panels_whole
assembles 1 - phi on uniform panels in one pass over the whole array, with
the batched chirp-z, as WalkLaw.one_minus_char_panels does over its blocks.
"""
import math

import numpy as np
from special_oracles import chirp_z_batched

from stablewalk import stable_params_of
from stablewalk.special import integrate_panels, panel_breaks
from stablewalk.walk_model import _Nodes


def lattice_offset_pointwise(law) -> float:
    """C0 = lim_{tau->0} [pi_0(tau) - pi_0^inf(tau)] (real), on a node table of its own."""
    params = stable_params_of(law)

    def g(th):
        nodes = _Nodes(th)
        ex = law._excess(nodes)
        cp = law._main(nodes)
        return (-ex / ((ex + cp) * cp)).real + 0j

    val, _ = integrate_panels(g, panel_breaks(math.pi, 2, 45, math.pi))
    tail = (
        2.0
        * math.cos(math.pi * params.gamma / 2.0)
        * math.pi ** (1.0 - law.spec.alpha)
        / ((law.spec.alpha - 1.0) * params.c_circ)
    )
    return (2.0 * val.real - tail) / (2.0 * math.pi)


def one_minus_char_panels_whole(law, theta: np.ndarray) -> np.ndarray:
    """1 - phi on uniform panels theta[j, k] = theta[0, k] + j h (two rows or more), one pass over every node."""
    pts, ms = law._atoms_for_fourier()
    ys = np.rint(pts).astype(np.int64)
    Y = int(np.abs(ys).max(initial=0))
    c = np.zeros(2 * Y + 1)
    np.add.at(c, ys + Y, ms)
    F = chirp_z_batched(c[:, None] * np.exp(1j * np.outer(np.arange(-Y, Y + 1), theta[0])),
                        -Y, 0, len(theta), theta[1, 0] - theta[0, 0])
    nodes = _Nodes(theta)
    return law._excess(nodes, F) + law._main(nodes)
