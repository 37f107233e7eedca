"""Command-line front door.

Verbs: gen, check, nr, rd, rl, ra-reduct, iso-check, split, game, export,
suite.  Exit status: 0 = pass, 1 = check failed, 2 = usage error,
3 = budget refusal.  All JSON output is canonical: sorted keys, 2-space
indent, trailing newline.  The environment variable CYLKIT_BUDGET
overrides the default search budget for game solving (numeric semantics:
the maximum number of search states explored before refusal).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance
from .bao import (
    BudgetExceededError,
    CaAtomStructure,
    check_ca_frame,
    column_pairs,
    element,
    structure_from_dict,
    structure_to_dict,
    transpose,
)
from .constructions import (
    SplitPolicy,
    basic_matrices,
    bin_forb,
    full_set_algebra,
    hh_ra,
    johnson_extend,
    monk_atom_listing,
    monk_atoms,
    split_atom,
    three_cube,
)
from .games import (
    EXISTS,
    FORALL,
    VARIANT_TRIANGLE,
    VARIANTS,
    CaNetwork,
    GameSpec,
    RaNetwork,
    network_to_dot,
    play_interactive,
    replay_transcript,
    solve,
    transcript_from_json,
    transcript_to_json,
)
from .neat import nr, ra_reduct, rd_rho, restriction_iso, rl_x
from .ra import RaAtomStructure, check_ra_axioms, ra_from_dict, ra_to_dict


def _canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_any(path: str) -> CaAtomStructure | RaAtomStructure:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if "dim" in data:
        return structure_from_dict(data)
    return ra_from_dict(data)


def _load_ca(path: str) -> CaAtomStructure:
    s = _load_any(path)
    if not isinstance(s, CaAtomStructure):
        raise ValueError(f"{path}: expected a cylindric-style structure file")
    return s


def _load_ra(path: str) -> RaAtomStructure:
    s = _load_any(path)
    if not isinstance(s, RaAtomStructure):
        raise ValueError(f"{path}: expected a relation-algebra structure file")
    return s


def _dump_structure(s: CaAtomStructure | RaAtomStructure) -> dict:
    if isinstance(s, CaAtomStructure):
        return structure_to_dict(s)
    return ra_to_dict(s)


def _indices(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


# ---------------------------------------------------------------------------
# verb implementations (each returns the exit status)


def _cmd_gen(args) -> int:
    kind = args.kind
    if kind == "monk":
        s: CaAtomStructure | RaAtomStructure = monk_atoms(args.m, args.n)
    elif kind == "johnson":
        s = johnson_extend(monk_atoms(args.m, args.n))
    elif kind == "full-set":
        s = full_set_algebra(args.dim, args.base)
    elif kind == "three-cube":
        s = three_cube()
    elif kind == "hh-ra":
        s = hh_ra(args.n, args.r, args.psi_cap, strict=not args.non_strict)
    elif kind == "bin":
        s = bin_forb(args.n, args.r, args.psi_cap)
    elif kind == "basic-matrices":
        s = basic_matrices(args.m, bin_forb(args.n, args.r, args.psi_cap))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown generator {kind!r}")
    _write(_canonical_json(_dump_structure(s)), args.output)
    return 0


def _cmd_check(args) -> int:
    if args.what == "ca-frame":
        report = check_ca_frame(_load_ca(args.file))
        out = {
            "passed": report.passed,
            "conditions": [
                {"name": c.name, "passed": c.passed} for c in report.conditions
            ],
        }
        _write(_canonical_json(out), args.output)
        return 0 if report.passed else 1
    if args.what == "ra-axioms":
        ra_report = check_ra_axioms(_load_ra(args.file))
        out = {
            "passed": ra_report.passed,
            "laws": [
                {"name": law.name, "passed": law.passed, "detail": law.detail}
                for law in ra_report.laws
            ],
        }
        _write(_canonical_json(out), args.output)
        return 0 if ra_report.passed else 1
    raise ValueError(f"unknown check {args.what!r}")


def _cmd_nr(args) -> int:
    s = _load_ca(args.file)
    frame, cert = nr(s, _indices(args.gamma), force=args.force)
    out = {
        "gamma": list(frame.gamma),
        "classes": [list(c) for c in frame.classes],
        "certificate": {
            "passed": cert.passed,
            "level": cert.certificate_level,
            "details": list(cert.details),
            "counterexample": cert.counterexample,
        },
        "quotient": None
        if frame.structure is None
        else structure_to_dict(frame.structure),
    }
    _write(_canonical_json(out), args.output)
    return 0 if cert.passed else 1


def _cmd_rd(args) -> int:
    s = _load_ca(args.file)
    renamed = rd_rho(s, _indices(args.rho))
    _write(_canonical_json(structure_to_dict(renamed)), args.output)
    return 0


def _cmd_rl(args) -> int:
    s = _load_ca(args.file)
    result = rl_x(s, element(s, _indices(args.atoms)))
    out = {
        "kept": list(result.kept),
        "commutes": result.commutes,
        "probe": [
            {"i": i, "j": j, "commutes": ok} for i, j, ok in result.probe
        ],
        "details": list(result.details),
        "structure": structure_to_dict(result.structure),
    }
    _write(_canonical_json(out), args.output)
    return 0


def _cmd_ra_reduct(args) -> int:
    s = _load_ca(args.file)
    red = ra_reduct(s)
    out = {
        "passed": red.passed,
        "associativity_required": red.associativity_required,
        "laws": [
            {"name": law.name, "passed": law.passed, "detail": law.detail}
            for law in red.axioms.laws
        ],
        "ra": ra_to_dict(red.ra),
    }
    _write(_canonical_json(out), args.output)
    return 0 if red.passed else 1


def _cmd_iso_check(args) -> int:
    report = restriction_iso(
        args.msmall, args.mbig, bin_forb(args.n, args.r, args.psi_cap)
    )
    out = {
        "passed": report.passed,
        "certificate_level": report.certificate_level,
        "mapping": None if report.mapping is None else list(report.mapping),
        "details": list(report.details),
        "counterexample": report.counterexample,
    }
    _write(_canonical_json(out), args.output)
    return 0 if report.passed else 1


def _cmd_split(args) -> int:
    s = _load_any(args.file)
    result = split_atom(s, args.atom, SplitPolicy(args.copies, "inherit"))
    out = {
        "split_atom": result.split_atom,
        "copy_map": [list(grp) for grp in result.copy_map],
        "structure": _dump_structure(result.structure),
    }
    _write(_canonical_json(out), args.output)
    return 0


def _game_spec(args) -> GameSpec:
    structure = _load_any(args.structure)
    if args.variant == VARIANT_TRIANGLE:
        if not isinstance(structure, RaAtomStructure):
            raise ValueError(
                "the triangle variant needs a relation-algebra structure file"
            )
    elif not isinstance(structure, CaAtomStructure):
        raise ValueError(
            f"the {args.variant} variant needs a cylindric-style structure file"
        )
    return GameSpec(args.variant, structure, args.rounds, args.pebbles)


def _cmd_game(args) -> int:
    if args.action == "solve":
        spec = _game_spec(args)
        result = solve(spec, args.atom, budget=args.budget)
        _write(_canonical_json(result.to_dict()), args.output)
        return 0
    if args.action == "play":
        spec = _game_spec(args)
        transcript = play_interactive(
            spec, args.side, args.atom, budget=args.budget
        )
        if args.transcript:
            _write(transcript_to_json(transcript), args.transcript)
        if args.dot and transcript.final_nodes is not None:
            net = RaNetwork if spec.variant == VARIANT_TRIANGLE else CaNetwork
            final = net(spec.structure, transcript.final_nodes, transcript.final_labels)
            _write(network_to_dot(final), args.dot)
        return 0
    if args.action == "replay":
        spec = _game_spec(args)
        with open(args.transcript, encoding="utf-8") as fh:
            transcript = transcript_from_json(fh.read())
        try:
            final = replay_transcript(spec, transcript, budget=args.budget)
        except RuntimeError as exc:
            sys.stderr.write(f"replay divergence: {exc}\n")
            return 1
        if args.dot and final is not None:
            _write(network_to_dot(final), args.dot)
        sys.stdout.write("replay matches the recorded events\n")
        return 0
    raise ValueError(f"unknown game action {args.action!r}")


_DOT_COLOURS = (
    "red",
    "blue",
    "green",
    "orange",
    "purple",
    "brown",
    "cyan",
    "magenta",
)


def _structure_dot(s: CaAtomStructure | RaAtomStructure) -> str:
    lines = ["graph structure {"]
    if isinstance(s, CaAtomStructure):
        for a, label in enumerate(s.atoms):
            lines.append(f'  a{a} [label="{label}"];')
        for i in range(s.dim):
            colour = _DOT_COLOURS[i % len(_DOT_COLOURS)]
            for b, a in column_pairs(transpose(s.cyl[i])):
                if a < b:
                    lines.append(f'  a{a} -- a{b} [color={colour}, label="T{i}"];')
    else:
        for a, label in enumerate(s.atoms):
            shape = ", shape=doublecircle" if a in s.identity else ""
            lines.append(f'  a{a} [label="{label}"{shape}];')
        for a, b in enumerate(s.converse):
            if a < b:
                lines.append(f'  a{a} -- a{b} [style=dashed, label="conv"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _structure_text(s: CaAtomStructure | RaAtomStructure) -> str:
    lines: list[str] = []
    if isinstance(s, CaAtomStructure):
        try:
            listing = monk_atom_listing(s)
        except ValueError:
            listing = None
        lines.append(f"dimension {s.dim}, {s.natoms} atoms")
        if listing is not None:
            for idx, entry in enumerate(listing):
                blocks = " | ".join(
                    "{" + ",".join(map(str, b)) + "}" for b in entry["R"]
                )
                colours = ", ".join(f"{k}->{v}" for k, v in sorted(entry["f"].items()))
                lines.append(f"  atom {idx}: partition {blocks}; colours {colours or '-'}")
        else:
            for idx, label in enumerate(s.atoms):
                lines.append(f"  atom {idx}: {label}")
    else:
        lines.append(f"{s.natoms} atoms, identity {sorted(s.identity)}")
        for idx, label in enumerate(s.atoms):
            lines.append(f"  atom {idx}: {label} (converse {s.converse[idx]})")
    return "\n".join(lines) + "\n"


def _cmd_export(args) -> int:
    s = _load_any(args.file)
    if args.format == "dot":
        _write(_structure_dot(s), args.output)
    elif args.format == "text":
        _write(_structure_text(s), args.output)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown format {args.format!r}")
    return 0


def _cmd_suite(args) -> int:
    results = acceptance.run_all()
    _write(acceptance.format_table(results), args.output)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylkit",
        description=(
            "Generate, check, transform, and play games over finite atom "
            "structures of cylindric-style and relation algebras."
        ),
        epilog=(
            "Exit status: 0 pass, 1 check failed, 2 usage error, 3 budget "
            "refusal.  CYLKIT_BUDGET overrides the default game search "
            "budget (max states explored)."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def out_flag(p):
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    gen = sub.add_parser("gen", help="generate a structure")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    g = gen_sub.add_parser("monk", help="coloured-partition structure")
    g.add_argument("--m", type=int, required=True, help="dimension (3..5)")
    g.add_argument("--n", type=int, required=True, help="colour count (m..6)")
    out_flag(g)
    g = gen_sub.add_parser("johnson", help="coloured-partition structure with swaps")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    out_flag(g)
    g = gen_sub.add_parser("full-set", help="full tuple algebra over a finite base")
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--base", type=int, required=True)
    out_flag(g)
    g = gen_sub.add_parser("three-cube", help="27 triples over a 3-element base")
    out_flag(g)
    g = gen_sub.add_parser("hh-ra", help="graded relation algebra")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--psi-cap", type=int, required=True)
    g.add_argument(
        "--non-strict",
        action="store_true",
        help="use the non-strict second forbidden family (breaks associativity)",
    )
    out_flag(g)
    g = gen_sub.add_parser("bin", help="two-graded relation algebra")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--psi-cap", type=int, default=None)
    out_flag(g)
    g = gen_sub.add_parser("basic-matrices", help="matrix algebra over a bin structure")
    g.add_argument("--m", type=int, required=True, help="matrix side")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--psi-cap", type=int, default=None)
    out_flag(g)

    chk = sub.add_parser("check", help="run a validity report")
    chk.add_argument("what", choices=["ca-frame", "ra-axioms"])
    chk.add_argument("file")
    out_flag(chk)

    p = sub.add_parser("nr", help="quotient by the dropped indices, with certificate")
    p.add_argument("file")
    p.add_argument("--gamma", required=True, help="kept indices, comma-separated")
    p.add_argument("--force", action="store_true", help="quotient even when a dropped relation is not an equivalence")
    out_flag(p)

    p = sub.add_parser("rd", help="rename operator indices along an injection")
    p.add_argument("file")
    p.add_argument("--rho", required=True, help="image indices, comma-separated")
    out_flag(p)

    p = sub.add_parser("rl", help="relativize to the atoms of an element")
    p.add_argument("file")
    p.add_argument("--atoms", required=True, help="atom indices, comma-separated")
    out_flag(p)

    p = sub.add_parser("ra-reduct", help="relation-algebra view of a structure")
    p.add_argument("file")
    out_flag(p)

    p = sub.add_parser("iso-check", help="matrix restriction against the quotient")
    p.add_argument("--msmall", type=int, required=True)
    p.add_argument("--mbig", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--psi-cap", type=int, default=None)
    out_flag(p)

    p = sub.add_parser("split", help="replace an atom by related copies")
    p.add_argument("file")
    p.add_argument("--atom", type=int, required=True)
    p.add_argument("--copies", type=int, required=True)
    out_flag(p)

    game = sub.add_parser("game", help="solve or play a truncated game")
    game_sub = game.add_subparsers(dest="action", required=True)

    def game_flags(p, with_atom=True):
        p.add_argument("--variant", choices=VARIANTS, required=True)
        p.add_argument("--rounds", type=int, required=True)
        p.add_argument("--pebbles", type=int, default=None)
        p.add_argument("--structure", required=True, help="structure JSON file")
        if with_atom:
            p.add_argument("--atom", type=int, required=True, help="demanded atom index")
        p.add_argument("--budget", type=int, default=None, help="max states explored")

    p = game_sub.add_parser("solve", help="exact winner and strategy")
    game_flags(p)
    out_flag(p)
    p = game_sub.add_parser("play", help="interactive play against the engine")
    game_flags(p)
    p.add_argument("--side", choices=[EXISTS, FORALL], required=True)
    p.add_argument("--transcript", default=None, help="write the transcript JSON here")
    p.add_argument("--dot", default=None, help="write the final network as DOT here")
    p = game_sub.add_parser("replay", help="re-run a recorded transcript")
    game_flags(p, with_atom=False)
    p.add_argument("--transcript", required=True, help="transcript JSON to replay")
    p.add_argument("--dot", default=None, help="write the final network as DOT here")

    p = sub.add_parser("export", help="render a structure file")
    p.add_argument("file")
    p.add_argument("--format", choices=["dot", "text"], required=True)
    out_flag(p)

    p = sub.add_parser("suite", help="run the full verification battery")
    out_flag(p)

    return parser


_DISPATCH = {
    "gen": _cmd_gen,
    "check": _cmd_check,
    "nr": _cmd_nr,
    "rd": _cmd_rd,
    "rl": _cmd_rl,
    "ra-reduct": _cmd_ra_reduct,
    "iso-check": _cmd_iso_check,
    "split": _cmd_split,
    "game": _cmd_game,
    "export": _cmd_export,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.verb](args)
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget refusal: {exc}\n")
        return 3
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
