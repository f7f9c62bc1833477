"""Operator means and positive unital linear maps.

Shows the geometric mean's congruence covariance, a few map
constructions, and two facts every map here satisfies, checked as
records: Choi's inequality Phi(A)^-1 <= Phi(A^-1) and the norm AM-GM
bound ||AB|| <= ||A+B||^2 / 4.

Run with: python3 demos/02_means_and_maps.py
"""

import numpy as np

from opineq import (
    apply_map,
    arithmetic_mean,
    check_choi_record,
    check_norm_amgm_record,
    compression_map,
    geometric_mean,
    haar_orthogonal,
    make_spd,
    pinching_map,
    trace_normalize_map,
)


def main():
    rng = np.random.default_rng(11)
    a = make_spd(np.diag([1.0, 2.0, 4.0]))
    b = make_spd(np.diag([9.0, 2.0, 1.0]))

    geo = geometric_mean(a, b)
    print("A#B for commuting A, B:", np.round(np.diag(geo.entries), 4))
    print("arithmetic mean diag:", np.diag(arithmetic_mean(a, b).entries))

    # congruence covariance: T (A#B) T^T equals (T A T^T) # (T B T^T)
    t = haar_orthogonal(3, rng) * 1.3
    left = t @ geo.entries @ t.T
    right = geometric_mean(make_spd(t @ a.entries @ t.T),
                           make_spd(t @ b.entries @ t.T)).entries
    print("congruence covariance defect:", np.linalg.norm(left - right))

    # three unital maps: corner compression, diagonal pinching, trace average
    big = make_spd(np.diag([1.0, 2.0, 3.0, 4.0]) + 0.3)
    corner = compression_map(np.eye(4)[:, :2])
    print("corner of a 4x4:", np.round(apply_map(corner, big.entries), 4).tolist())
    pinch = pinching_map((np.array([0, 1]), np.array([2, 3])))
    print("pinched to 2x2 blocks:", np.round(apply_map(pinch, big.entries), 4).tolist())

    # inverse of the image sits below the image of the inverse
    spec = trace_normalize_map(3)
    verdict = check_choi_record(spec, a).verdict
    print("Phi(A)^-1 <= Phi(A^-1):", verdict.holds,
          " slack:", f"{verdict.min_gap_eig:.4f}")

    # norm arithmetic-geometric mean bound, tight when A = B
    same = check_norm_amgm_record(a, a).verdict
    print("||A.A|| <= ||A+A||^2/4 slack at A = B:", f"{same.min_gap_eig:.2e}")


if __name__ == "__main__":
    main()
