"""Constraint regimes and the instances each theorem's space draws.

Every refined bound holds on a specific parameter window. This script
prints the windows, draws instances from the specs of theorems that use
each regime, and verifies the advertised constraints numerically.

Run with: python3 demos/03_regimes_and_samplers.py
"""

import numpy as np

from opineq import (
    THEOREMS,
    BoundParams,
    RegimeId,
    SpdMatrix,
    make_spd,
    regime_feasible,
    regime_window,
)
from opineq.inequalities import _draw_states
from opineq.stacked import StackedView


class Instance:
    """One instance drawn from a theorem's space as a one-row view: its matrices and scalars."""

    def __init__(self, theorem_id, params, dim, rng):
        space = THEOREMS[theorem_id].space(dim, params, False)
        self.view = StackedView(params, dim, *_draw_states(space, dim, 1, lambda key: rng))
        self.scalars = {name: float(value[0]) for name, value in self.view.scalars.items()}

    def spd(self, name):
        """The matrix with spectrum ``name`` on frame ``name``."""
        return SpdMatrix.from_eigh(self.view.spectra[name][0], self.view.frames[name][0])


def draw(theorem_id, params, dim, rng):
    return Instance(theorem_id, params, dim, rng)


def rel_spectrum(a, b):
    inv_root = a.inv_sqrt().entries
    return np.linalg.eigvalsh(inv_root @ b.entries @ inv_root)


def main():
    rng = np.random.default_rng(3)
    params = BoundParams(m=0.5, m_prime=2.0, M=4.0)
    print("params:", params.as_dict())
    print("derived h = M/m:", params.h, " K(h):", params.K_h)

    for regime in (RegimeId.SELF_INVERSE_LOW, RegimeId.SELF_INVERSE_HIGH,
                   RegimeId.SHIFTED):
        window = regime_window(regime, params)
        print(f"{regime.value:18s} feasible={regime_feasible(regime, params)[0]} "
              f"window=[{window.lo:.4f}, {window.hi:.4f}]")

    # relative pair (lemma_amgm): B = A^{1/2} C A^{1/2} with C on [m, M], so the
    # spectrum of A^{-1/2} B A^{-1/2} lands in [m, M]
    view = draw("lemma_amgm", BoundParams(m=2.0, M=5.0), 3, rng)
    a = view.spd("a")
    root = a.sqrt().entries
    b = make_spd(root @ view.spd("c").entries @ root)
    print("relative spectrum:", np.round(rel_spectrum(a, b), 4))

    # shifted pair (polya_szego): B = (1-t) m' A + t M I, so m I <= m' A <= B <= M I
    view = draw("polya_szego", params, 3, rng)
    a, t = view.spd("a").entries, view.scalars["t"]
    b = (1.0 - t) * 2.0 * a + t * 4.0 * np.eye(3)
    chain = (np.linalg.eigvalsh(2.0 * a - 0.5 * np.eye(3))[0],
             np.linalg.eigvalsh(b - 2.0 * a)[0],
             np.linalg.eigvalsh(4.0 * np.eye(3) - b)[0])
    print("shifted chain min eigs (all >= 0):", np.round(chain, 6))

    # sandwich pair (lin_chain): spectra pinned inside [m, m'] and [M', M]
    boxed = BoundParams(m=1.0, m_prime=2.0, M_prime=3.0, M=4.0)
    view = draw("lin_chain", boxed, 3, rng)
    print("sandwich spectra:", np.round(np.linalg.eigvalsh(view.spd("a").entries), 3),
          np.round(np.linalg.eigvalsh(view.spd("b").entries), 3))

    # self-inverse windows (kantorovich) pin A between m I and its own inverse scaled
    low = draw("kantorovich", params, 4, rng).spd("a")
    print("low-window spectrum:", np.round(np.linalg.eigvalsh(low.entries), 4))

    # infeasible boxes are refused, never quietly clipped
    bad = BoundParams(m=3.0, m_prime=2.0, M=4.0)
    ok, reason = regime_feasible(RegimeId.SELF_INVERSE_LOW, bad)
    print("low window feasible at m=3, m'=2, M=4:", ok, "|", reason)


if __name__ == "__main__":
    main()
