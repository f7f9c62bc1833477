"""The refined inequalities themselves, one worked instance each.

The refinement divides a classical constant by kappa(c) = 1 + (ln c)^2/8
(natural log) raised to the power the squaring structure calls for, so
every refined bound is at least as strong as its classical parent.

Run with: python3 demos/04_refined_bounds.py
"""

import numpy as np

from opineq import (
    THEOREMS,
    BoundParams,
    IsometryPair,
    SpdMatrix,
    check_kantorovich_refined,
    check_lemma_refined_amgm,
    check_lin_chain,
    check_lin_refined_squared,
    check_wielandt_operator,
    identity_map,
    kantorovich_constant,
    make_spd,
    refinement_constants,
    refinement_factor,
    scalar_refined_amgm,
)
from opineq.inequalities import _draw_states
from opineq.stacked import StackedView


def draw(theorem_id, params, dim, rng):
    """One instance drawn from the theorem's space, as the one row of a view."""
    space = THEOREMS[theorem_id].space(dim, params, False)
    return StackedView(params, dim, *_draw_states(space, dim, 1, lambda key: rng))


def spd(view, name):
    """The matrix with spectrum ``name`` on frame ``name``."""
    return SpdMatrix.from_eigh(view.spectra[name][0], view.frames[name][0])


def show(rec):
    print(f"  {rec.theorem_id:22s} lhs={rec.lhs_value:.6f} rhs={rec.rhs_value:.6f} "
          f"ratio={rec.ratio:.6f} holds={rec.verdict.holds}")


def main():
    rng = np.random.default_rng(21)
    print("kappa(4) =", refinement_factor(4.0), " K(4) =", kantorovich_constant(4.0))

    print("scalar arithmetic-geometric gap with the kappa factor:")
    show(scalar_refined_amgm(1.0, 4.0))

    print("matrix version under m A <= B:")
    # the spec derives B = A^{1/2} C A^{1/2} from A, which keeps 2A <= B
    view = draw("lemma_amgm", BoundParams(m=2.0, M=6.0), 3, rng)
    a = spd(view, "a")
    root = a.sqrt().entries
    show(check_lemma_refined_amgm(a, make_spd(root @ spd(view, "c").entries @ root), 2.0))

    print("kantorovich with the squared divisor:")
    view = draw("kantorovich", BoundParams(m=0.5, m_prime=2.0, M=4.0), 3, rng)
    show(check_kantorovich_refined(spd(view, "a"), view.vectors["x"][0], 0.5, 2.0, 4.0))

    print("squared operator bound, both reading orders:")
    boxed = BoundParams(m=1.0, m_prime=2.0, M_prime=3.0, M=4.0)
    view = draw("lin_chain", boxed, 3, rng)
    a, b = spd(view, "a"), spd(view, "b")
    for variant in ("mapped_mean", "mean_of_maps"):
        show(check_lin_refined_squared(identity_map(3), a, b, boxed, variant))

    print("every intermediate chain link behind the squared bound:")
    for rec in check_lin_chain(identity_map(3), a, b, boxed):
        print(f"  {rec.detail:20s} ratio={rec.ratio:.6f} holds={rec.verdict.holds}")

    print("operator wielandt, three strengths on one instance:")
    # drawn on the refined window [sqrt(m'), m'/m], which the plain window contains
    wparams = BoundParams(m=1.5, M=4.0, m_prime=4.0)
    view = draw("wielandt_refined", wparams, 4, rng)
    # X and Y are the first and last two columns of one frame, as the spec takes them
    frame = view.frames["pair"][0]
    pair = IsometryPair(frame[:, :2], frame[:, 2:])
    for variant in ("bhatia_davis", "gumus", "refined"):
        show(check_wielandt_operator(identity_map(2), spd(view, "a"), pair, wparams, variant))

    print("classical constants next to their refined counterparts:")
    table = refinement_constants(boxed)
    for row in table.rows:
        print(f"  {row.name:12s} classical={row.classical:.6f} "
              f"refined={row.refined:.6f} shrink={row.improvement_ratio:.4f}")


if __name__ == "__main__":
    main()
