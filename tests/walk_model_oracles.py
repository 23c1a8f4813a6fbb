"""The lattice offset C0 evaluated pointwise, as a test oracle of the builder's node tables.

lattice_offset_pointwise integrates the same integrand on the same panels as
walk_model._lattice_offset, but on a node table of its own per law, so every
theta-only part (polylogs, rho_m, the atom matrices) is recomputed per law
instead of read from one table per build.
"""
import math

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
