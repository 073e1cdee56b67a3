#!/usr/bin/env python3
"""Cross-check the chord-tangent oracle against the linear-system torsion test.

Runs seeded random divisor classes over a family of smooth cubics with
rational torsion and asserts both routes return identical orders.
"""

import argparse
import random
import sys
import time

from curvetorsion import (
    DivisorClass,
    EllipticChart,
    GeometryCache,
    HomogeneousPoly,
    PicardContext,
    PlaneCurve,
    cluster_from_point,
    elliptic_class_order,
    intersect,
    torsion_order,
)


def form(terms):
    return HomogeneousPoly.from_terms(terms)


CURVES = [
    ("y^2 z = x^3 + z^3", form({(0, 2, 1): 1, (3, 0, 0): -1, (0, 0, 3): -1}), (0, 1, 0), 6,
     [(0, 1, 0), (2, 3, 1), (2, -3, 1), (0, 1, 1), (0, -1, 1), (-1, 0, 1)]),
    ("y^2 z = x^3 - 36 x z^2", form({(0, 2, 1): 1, (3, 0, 0): -1, (1, 0, 2): 36}), (0, 1, 0), 2,
     [(0, 1, 0), (0, 0, 1), (6, 0, 1), (-6, 0, 1)]),
    ("y^2 z = x^3 + 4 z^3", form({(0, 2, 1): 1, (3, 0, 0): -1, (0, 0, 3): -4}), (0, 1, 0), 3,
     [(0, 1, 0), (0, 2, 1), (0, -2, 1)]),
    ("y^2 z = x^3 + 4 x z^2", form({(0, 2, 1): 1, (3, 0, 0): -1, (1, 0, 2): -4}), (0, 1, 0), 4,
     [(0, 1, 0), (2, 4, 1), (2, -4, 1), (0, 0, 1)]),
    ("y^2 z + y z^2 = x^3 - x^2 z", form({(0, 2, 1): 1, (0, 1, 2): 1, (3, 0, 0): -1, (2, 0, 1): 1}), (0, 1, 0), 5,
     [(0, 1, 0), (0, 0, 1), (0, -1, 1), (1, 0, 1), (1, -1, 1)]),
    ("x^3 + y^3 + z^3 = 0", form({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}), (1, -1, 0), 3,
     [(1, -1, 0), (0, 1, -1), (1, 0, -1)]),
]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=20240803)
    ap.add_argument("--per-curve", type=int, default=10)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    t0 = time.time()
    checked = 0
    for label, eq, origin, exponent, points in CURVES:
        curve = PlaneCurve(eq, "E")
        chart = EllipticChart(curve, origin)
        ctx = PicardContext(curve)
        orders = []
        for k in range(args.per_curve):
            if k == args.per_curve - 1:
                line = PlaneCurve(
                    form({(1, 0, 0): rng.randint(1, 5), (0, 1, 0): rng.randint(1, 5),
                          (0, 0, 1): rng.randint(1, 5)}), "l")
                div = intersect(curve, line)
                cls = DivisorClass(ctx, [(cl, m) for cl, m in div.clusters], 1,
                                   check_membership=False)
            else:
                chosen = [points[rng.randrange(len(points))] for _ in range(3)]
                cls = DivisorClass(ctx, [(cluster_from_point(p, curve=curve), 1) for p in chosen], 1)
            lin = torsion_order(cls, exponent).order
            orc = elliptic_class_order(chart, cls, exponent)
            if lin != orc or lin is None:
                print(f"MISMATCH on {label}: linear {lin} vs oracle {orc}")
                return 1
            orders.append(lin)
            checked += 1
        print(f"{label}: orders {orders} agree on both routes")
    print(f"\n{checked} classes checked, all consistent, {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    with GeometryCache():
        sys.exit(main())
