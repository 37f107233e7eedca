#!/usr/bin/env python3
"""Scan the spare-routed witness terms against their three-dimensional
bounds over a four-dimensional full set algebra.

Two comparisons are run over every element (and every pair of elements):

* the coordinate swap routed through the spare index against the
  low-dimensional swap bound, and
* the relational composition routed through the spare index against the
  low-dimensional composition bound.

The full scan finds counterexamples: elements whose value depends on the
spare coordinate escape the bound.  Restricting to elements fixed by the
spare cylindrifier (the "spare-closed" elements) removes every failure,
and the script verifies that restricted claim exhaustively as well.
"""

from __future__ import annotations

import argparse
import itertools
import time

from cylkit.bao import Element
from cylkit.constructions import full_set_algebra
from cylkit.neat import cyl_fixed_masks
from cylkit.terms import (
    Exhaustive,
    check_equation,
    eval_term,
    relcomp01_lowdim,
    relcomp01_spare,
    swap01_lowdim,
    swap01_spare,
)

SPARE = 3


def describe_counterexample(structure, report) -> str:
    env = report.counterexample_env() or {}
    parts = []
    for var, el in sorted(env.items()):
        atoms = ", ".join(structure.atoms[a] for a in el.atom_indices())
        parts.append(f"var{var} = {{{atoms}}}")
    return "; ".join(parts)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--base",
        type=int,
        default=2,
        help="size of the point base of the 4-dimensional full set algebra",
    )
    args = parser.parse_args()

    structure = full_set_algebra(4, args.base)
    print(
        f"structure: full set algebra, dim 4, base {args.base} "
        f"({structure.natoms} atoms, 2^{structure.natoms} elements)"
    )

    start = time.perf_counter()
    unary = check_equation(
        structure, swap01_spare(), swap01_lowdim(), Exhaustive(), "leq"
    )
    binary = check_equation(
        structure, relcomp01_spare(), relcomp01_lowdim(), Exhaustive(), "leq"
    )
    elapsed = time.perf_counter() - start

    print(f"\nfull scan ({elapsed:.2f}s):")
    for name, report in (("swap", unary), ("composition", binary)):
        if report.holds:
            print(f"  {name}: bound holds on all {report.assignments} assignments")
        else:
            print(f"  {name}: bound FAILS")
            print(f"    counterexample: {describe_counterexample(structure, report)}")

    closed = [Element(structure, m) for m in cyl_fixed_masks(structure, SPARE)]
    print(f"\nspare-closed elements (fixed by c_{SPARE}): {len(closed)}")

    start = time.perf_counter()
    swap_ok = 0
    s_spare, s_low = swap01_spare(), swap01_lowdim()
    for x in closed:
        lhs = eval_term(structure, s_spare, {0: x})
        rhs = eval_term(structure, s_low, {0: x})
        swap_ok += lhs.mask & ~rhs.mask == 0
    r_spare, r_low = relcomp01_spare(), relcomp01_lowdim()
    comp_ok = 0
    pairs = 0
    for x, y in itertools.product(closed, repeat=2):
        env = {0: x, 1: y}
        lhs = eval_term(structure, r_spare, env)
        rhs = eval_term(structure, r_low, env)
        comp_ok += lhs.mask & ~rhs.mask == 0
        pairs += 1
    elapsed = time.perf_counter() - start

    print(f"restricted scan ({elapsed:.2f}s):")
    print(f"  swap bound holds on {swap_ok}/{len(closed)} spare-closed elements")
    print(f"  composition bound holds on {comp_ok}/{pairs} spare-closed pairs")
    if swap_ok == len(closed) and comp_ok == pairs:
        print(
            "\nconclusion: the bounds are exact on elements that ignore the "
            "spare coordinate and fail as soon as it matters"
        )


if __name__ == "__main__":
    main()
