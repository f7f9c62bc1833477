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
    check_kantorovich_refined,
    check_lin_chain,
    check_lin_refined_squared,
    identity_map,
    kantorovich_constant,
    refinement_constants,
    refinement_factor,
    scalar_refined_amgm,
)
from opineq.inequalities import InstanceView, first_values


def draw(theorem_id, params, dim, rng):
    """A view of one instance drawn from the theorem's space, hypotheses validated."""
    spec = THEOREMS[theorem_id]
    state = first_values(spec.space(dim, params, False), params, dim, rng)
    return InstanceView(state, dim, validate=True)


def show(rec):
    print(f"  {rec.theorem_id:22s} lhs={rec.lhs_value:.6f} rhs={rec.rhs_value:.6f} "
          f"ratio={rec.ratio:.6f} holds={rec.verdict.holds}")


def main():
    rng = np.random.default_rng(21)
    print("kappa(4) =", refinement_factor(4.0), " K(4) =", kantorovich_constant(4.0))

    print("scalar arithmetic-geometric gap with the kappa factor:")
    show(scalar_refined_amgm(1.0, 4.0))

    print("matrix version under m A <= B:")
    # the spec derives B = A^{1/2} C A^{1/2} from A, so its evaluate builds the pair
    view = draw("lemma_amgm", BoundParams(m=2.0, M=6.0), 3, rng)
    show(*THEOREMS["lemma_amgm"].evaluate(view, 1e-8))

    print("kantorovich with the squared divisor:")
    view = draw("kantorovich", BoundParams(m=0.5, m_prime=2.0, M=4.0), 3, rng)
    show(check_kantorovich_refined(view.spd("a"), view.vectors["x"], 0.5, 2.0, 4.0))

    print("squared operator bound, both reading orders:")
    boxed = BoundParams(m=1.0, m_prime=2.0, M_prime=3.0, M=4.0)
    view = draw("lin_chain", boxed, 3, rng)
    a, b = view.spd("a"), view.spd("b")
    for variant in ("mapped_mean", "mean_of_maps"):
        show(check_lin_refined_squared(identity_map(3), a, b, boxed, variant))

    print("every intermediate chain link behind the squared bound:")
    for rec in check_lin_chain(identity_map(3), a, b, boxed):
        print(f"  {rec.detail:20s} ratio={rec.ratio:.6f} holds={rec.verdict.holds}")

    print("operator wielandt, three strengths on one instance:")
    # drawn on the refined window [sqrt(m'), m'/m], which the plain window contains
    wparams = BoundParams(m=1.5, M=4.0, m_prime=4.0)
    view = draw("wielandt_refined", wparams, 4, rng)
    for variant in ("bhatia_davis", "gumus", "refined"):
        show(*THEOREMS[f"wielandt_{variant}"].evaluate(view, 1e-8))

    print("classical constants next to their refined counterparts:")
    table = refinement_constants(boxed)
    for row in table.rows:
        print(f"  {row.name:12s} classical={row.classical:.6f} "
              f"refined={row.refined:.6f} shrink={row.improvement_ratio:.4f}")


if __name__ == "__main__":
    main()
