#!/usr/bin/env python3
"""Sweep the truncated atomic games across structures and horizons.

Two experiments, both reporting the exact solver's verdicts as ground
truth with no asserted trend:

* triangle games over the graded relation algebras, varying the grading,
  the pebble budget, and the round horizon;
* fresh-node games over a full set algebra and two deliberately damaged
  copies (one missing cylindrifier pair each), showing at which horizon
  the challenger first exposes each defect.
"""

from __future__ import annotations

import argparse
import re
import time

from cylkit.bao import BudgetExceededError
from cylkit.constructions import bin_forb, full_set_algebra, hh_ra
from cylkit.games import (
    VARIANT_FRESH,
    VARIANT_TRIANGLE,
    GameSpec,
    drop_cyl_pair,
    solve,
)


def row(name: str, pebbles, rounds: int, res, secs: float) -> str:
    peb = "-" if pebbles is None else str(pebbles)
    return (
        f"{name:<22} {peb:>7} {rounds:>6} {res.winner:>7} "
        f"{res.rounds_used:>11} {res.stats.states_explored:>12} {secs:>7.2f}s"
    )


HEADER = (
    f"{'structure':<22} {'pebbles':>7} {'rounds':>6} {'winner':>7} "
    f"{'rounds_used':>11} {'states':>12} {'time':>8}"
)


def solve_row(name: str, spec: GameSpec, budget: int) -> None:
    start = time.perf_counter()
    try:
        res = solve(spec, 0, budget=budget)
    except BudgetExceededError as exc:
        peb = "-" if spec.pebbles is None else str(spec.pebbles)
        reached = re.search(r"after (\d+) states", str(exc))
        states = reached.group(1) if reached else "-"
        print(
            f"{name:<22} {peb:>7} {spec.rounds:>6} {'(budget)':>7} "
            f"{'-':>11} {states:>12} {time.perf_counter() - start:>7.2f}s",
            flush=True,
        )
        return
    print(row(name, spec.pebbles, spec.rounds, res, time.perf_counter() - start), flush=True)


def triangle_sweep(rounds_max: int, pebbles: list[int], budget: int) -> None:
    print("triangle games over graded relation algebras")
    print(HEADER)
    structures = [
        ("hh_ra(3,1,3)", hh_ra(3, 1, 3)),
        ("hh_ra(3,2,3)", hh_ra(3, 2, 3)),
        ("bin_forb(3,1,2)", bin_forb(3, 1, 2)),
    ]
    for name, structure in structures:
        for p in pebbles:
            for rounds in range(rounds_max + 1):
                spec = GameSpec(VARIANT_TRIANGLE, structure, rounds, pebbles=p)
                solve_row(name, spec, budget)


def damage_sweep(rounds_max: int, budget: int) -> None:
    base = full_set_algebra(3, 2)
    structures = [
        ("full-set intact", base),
        ("drop T0 pair (0,4)", drop_cyl_pair(base, 0, 0, 4)),
        ("drop T0 loop (1,1)", drop_cyl_pair(base, 0, 1, 1)),
    ]
    print("\nfresh-node games: horizon needed to expose missing pairs")
    print(HEADER)
    for name, structure in structures:
        for rounds in range(rounds_max + 1):
            spec = GameSpec(VARIANT_FRESH, structure, rounds)
            solve_row(name, spec, budget)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rounds-max", type=int, default=2, help="largest horizon to solve"
    )
    parser.add_argument(
        "--pebbles",
        default="2,3",
        help="comma-separated pebble budgets for the triangle games",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=2_000_000,
        help="per-game state budget; over-budget games print a refusal row",
    )
    args = parser.parse_args()
    pebbles = [int(v) for v in args.pebbles.split(",") if v]
    triangle_sweep(args.rounds_max, pebbles, args.budget)
    damage_sweep(args.rounds_max, args.budget)


if __name__ == "__main__":
    main()
