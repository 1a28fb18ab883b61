"""Exact weight enumeration of the extended Golay code, and how little of
it the bit union bound actually needs.

The extended (24,12,8) Golay code is small enough to enumerate outright.
We compute its full weight enumerator, then compare the bit union bound
built from all weight classes against the bound built from the minimum
weight class alone: above a few dB the two are nearly indistinguishable,
which is what makes partial weight enumerators useful for long codes.
"""

import numpy as np

from pwe.bounds import RateContext, union_bound_bit
from pwe.codes import exact_weight_distribution, get_code


def main():
    code = get_code("golay-24-12")
    wd = exact_weight_distribution(code)
    print(f"{code.name}: n={code.n} k={code.k}")
    print("full weight enumerator:")
    for w, a in wd.counts:
        print(f"  A_{w} = {a}")

    ctx = RateContext(code.n, code.k)
    full = {w: a for w, a in wd.counts if w > 0}
    head = {8: full[8]}
    print("\nEb/N0   full-WE bound   A_8-only bound   ratio")
    for db in np.arange(1.0, 8.5, 0.5):
        b_full = union_bound_bit(full, ctx, float(db))
        b_head = union_bound_bit(head, ctx, float(db))
        print(f"{db:5.1f}   {b_full:12.4e}   {b_head:13.4e}   {b_head / b_full:.4f}")
    print("\nThe minimum-weight class dominates the bound once the channel")
    print("is good enough that deep error events are rare.")


if __name__ == "__main__":
    main()
