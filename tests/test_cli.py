"""End-to-end tests for the command-line interface: exit codes, JSON
outputs, file round-trips, interactive play, and the verification suite."""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from cylkit.bao import structure_from_json, structure_to_json
from cylkit.cli import main
from cylkit.constructions import full_set_algebra, three_cube
from cylkit.games import (
    EXISTS,
    FORALL,
    GameSpec,
    drop_cyl_pair,
    network_to_dot,
    replay_transcript,
    transcript_from_json,
)
from cylkit.ra import ra_from_json


@pytest.fixture
def cs3_file(tmp_path):
    path = tmp_path / "cs3.json"
    assert main(["gen", "full-set", "--dim", "3", "--base", "2", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture
def bin_file(tmp_path):
    path = tmp_path / "bin.json"
    argv = ["gen", "bin", "--n", "3", "--r", "1", "--psi-cap", "2", "-o", str(path)]
    assert main(argv) == 0
    return str(path)


@pytest.fixture
def monk_file(tmp_path):
    path = tmp_path / "monk.json"
    assert main(["gen", "monk", "--m", "3", "--n", "3", "-o", str(path)]) == 0
    return str(path)


# ---------------------------------------------------------------------------
# generation


def test_gen_monk_round_trips_and_is_deterministic(tmp_path, monk_file):
    first = open(monk_file, encoding="utf-8").read()
    structure = structure_from_json(first)
    assert structure.natoms == 34 and structure.dim == 3
    again = tmp_path / "again.json"
    assert main(["gen", "monk", "--m", "3", "--n", "3", "-o", str(again)]) == 0
    assert again.read_text(encoding="utf-8") == first


def test_gen_full_set_prints_to_stdout(capsys):
    assert main(["gen", "full-set", "--dim", "3", "--base", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 3 and len(payload["atoms"]) == 8


def test_gen_ra_file_lacks_the_dim_key(bin_file):
    text = open(bin_file, encoding="utf-8").read()
    assert "dim" not in json.loads(text)
    assert ra_from_json(text).natoms == 5


def test_gen_rejects_out_of_range_parameters(capsys):
    assert main(["gen", "monk", "--m", "2", "--n", "3"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_gen_unknown_kind_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main(["gen", "hyperbolic"])


# ---------------------------------------------------------------------------
# checking


def test_check_ca_frame_passes_on_generated_structures(cs3_file, capsys):
    assert main(["check", "ca-frame", cs3_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["conditions"])


def test_check_ca_frame_flags_a_broken_relation(tmp_path, capsys):
    damaged = drop_cyl_pair(full_set_algebra(3, 2), 0, 0, 4)
    path = tmp_path / "damaged.json"
    path.write_text(structure_to_json(damaged), encoding="utf-8")
    assert main(["check", "ca-frame", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    failed = [c["name"] for c in payload["conditions"] if not c["passed"]]
    assert any(name.startswith("T0") for name in failed)


def test_check_ra_axioms_reports_the_associativity_defect(bin_file, capsys):
    assert main(["check", "ra-axioms", bin_file]) == 1
    payload = json.loads(capsys.readouterr().out)
    verdicts = {law["name"]: law["passed"] for law in payload["laws"]}
    assert verdicts["associativity"] is False
    assert all(ok for name, ok in verdicts.items() if name != "associativity")


def test_check_ra_axioms_passes_on_a_lawful_algebra(tmp_path):
    path = tmp_path / "hh.json"
    argv = ["gen", "hh-ra", "--n", "3", "--r", "1", "--psi-cap", "3", "-o", str(path)]
    assert main(argv) == 0
    assert main(["check", "ra-axioms", str(path)]) == 0


def test_check_rejects_the_wrong_structure_kind(bin_file, capsys):
    assert main(["check", "ca-frame", bin_file]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reducts and transforms


def test_nr_quotient_command(cs3_file, capsys):
    assert main(["nr", cs3_file, "--gamma", "1,2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["passed"] is True
    assert payload["gamma"] == [1, 2]
    assert len(payload["classes"]) == 4
    assert payload["quotient"] is not None


def test_nr_certificate_is_exhaustive_past_twelve_classes(tmp_path, capsys):
    path = tmp_path / "fs43.json"
    assert main(["gen", "full-set", "--dim", "4", "--base", "3", "-o", str(path)]) == 0
    assert main(["nr", str(path), "--gamma", "0,1,2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["classes"]) == 27
    assert payload["certificate"]["level"] == "exhaustive"
    assert payload["certificate"]["passed"] is True


@pytest.fixture
def forced_file(tmp_path):
    """The three-cube with pair (0,1) cut from T2, which is then not
    symmetric."""
    path = tmp_path / "forced.json"
    path.write_text(structure_to_json(drop_cyl_pair(three_cube(), 2, 0, 1)), encoding="utf-8")
    return str(path)


def test_nr_refuses_a_dropped_non_equivalence(forced_file, capsys):
    assert main(["nr", forced_file, "--gamma", "0,1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "dropped relation is not an equivalence" in err


def test_nr_force_quotients_a_dropped_non_equivalence(forced_file, capsys):
    assert main(["nr", forced_file, "--gamma", "0,1", "--force"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1aed7ded93e43d7081d8c421994cafa46442c4cdd355dfeba3cfedce0a2e2076"
    )


def test_rd_renames_and_round_trips(cs3_file, capsys):
    assert main(["rd", cs3_file, "--rho", "2,1,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    renamed = structure_from_json(json.dumps(payload))
    base = structure_from_json(open(cs3_file, encoding="utf-8").read())
    assert renamed.cyl[0] == base.cyl[2] and renamed.cyl[2] == base.cyl[0]


def test_rl_reports_the_commutation_probe(cs3_file, capsys):
    assert main(["rl", cs3_file, "--atoms", "0,7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kept"] == [0, 7]
    assert {frozenset((p["i"], p["j"])) for p in payload["probe"]} == {
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    }
    assert len(payload["structure"]["atoms"]) == 2


def test_ra_reduct_command(tmp_path, capsys):
    path = tmp_path / "cs4.json"
    assert main(["gen", "full-set", "--dim", "4", "--base", "2", "-o", str(path)]) == 0
    assert main(["ra-reduct", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["associativity_required"] is True
    assert len(payload["ra"]["atoms"]) == 4


def test_iso_check_command(capsys):
    argv = [
        "iso-check",
        "--msmall", "3", "--mbig", "4",
        "--n", "3", "--r", "1", "--psi-cap", "2",
    ]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert sorted(payload["mapping"]) == list(range(61))


def test_split_command(monk_file, capsys):
    assert main(["split", monk_file, "--atom", "0", "--copies", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["split_atom"] == 0
    assert len(payload["copy_map"][0]) == 3
    assert len(payload["structure"]["atoms"]) == 34 + 2


# ---------------------------------------------------------------------------
# games


def test_game_solve_writes_the_result(cs3_file, tmp_path):
    out = tmp_path / "result.json"
    argv = [
        "game", "solve",
        "--variant", "fresh", "--rounds", "1",
        "--structure", cs3_file, "--atom", "0",
        "-o", str(out),
    ]
    assert main(argv) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["winner"] == EXISTS
    assert payload["rounds_used"] == 1
    assert payload["stats"]["states_explored"] == 1383


def test_game_solve_triangle_variant(bin_file, capsys):
    argv = [
        "game", "solve",
        "--variant", "triangle", "--rounds", "1", "--pebbles", "2",
        "--structure", bin_file, "--atom", "0",
    ]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["winner"] == EXISTS


def test_game_solve_refuses_mismatched_structure(bin_file, capsys):
    argv = [
        "game", "solve",
        "--variant", "fresh", "--rounds", "1",
        "--structure", bin_file, "--atom", "0",
    ]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_game_budget_refusal_exits_3(cs3_file, capsys, monkeypatch):
    monkeypatch.setenv("CYLKIT_BUDGET", "100")
    argv = [
        "game", "solve",
        "--variant", "fresh", "--rounds", "2",
        "--structure", cs3_file, "--atom", "0",
    ]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("budget refusal:")


def test_game_play_then_replay(cs3_file, tmp_path, capsys, monkeypatch):
    transcript = tmp_path / "play.json"
    dot = tmp_path / "final.dot"
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n" * 10))
    argv = [
        "game", "play",
        "--variant", "fresh", "--rounds", "1",
        "--structure", cs3_file, "--atom", "0",
        "--side", FORALL,
        "--transcript", str(transcript),
        "--dot", str(dot),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    record = json.loads(transcript.read_text(encoding="utf-8"))
    assert record["winner"] == EXISTS and record["human_side"] == FORALL
    assert dot.read_text(encoding="utf-8").startswith("graph network {")
    # the play draws the recorded final network, the one a replay rebuilds
    spec = GameSpec("fresh", structure_from_json(open(cs3_file).read()), 1, None)
    replayed = replay_transcript(spec, transcript_from_json(transcript.read_text()))
    assert dot.read_bytes() == network_to_dot(replayed).encode()

    replay = [
        "game", "replay",
        "--variant", "fresh", "--rounds", "1",
        "--structure", cs3_file,
        "--transcript", str(transcript),
    ]
    assert main(replay + ["--dot", str(tmp_path / "replayed.dot")]) == 0
    assert "replay matches the recorded events" in capsys.readouterr().out
    assert (tmp_path / "replayed.dot").read_bytes() == dot.read_bytes()

    record["final_labels"] = [7 for _ in record["final_labels"]]
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(record), encoding="utf-8")
    replay[-1] = str(forged)
    assert main(replay) == 1
    assert capsys.readouterr().err.startswith("replay divergence:")


@pytest.mark.parametrize(
    "structure, game",
    [
        # three nodes and eight distinct labels
        ("cs3_file", ["--variant", "fresh", "--rounds", "1"]),
        ("bin_file", ["--variant", "triangle", "--rounds", "2", "--pebbles", "3"]),
    ],
)
def test_game_play_dot_is_the_replayed_network(
    structure, game, request, tmp_path, capsys, monkeypatch
):
    game = [*game, "--structure", request.getfixturevalue(structure)]
    transcript, dot, again = (tmp_path / name for name in ("t.json", "play.dot", "replay.dot"))
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n" * 10))
    argv = ["game", "play", *game, "--atom", "1", "--side", FORALL]
    assert main(argv + ["--transcript", str(transcript), "--dot", str(dot)]) == 0
    assert main(["game", "replay", *game, "--transcript", str(transcript), "--dot", str(again)]) == 0
    assert "replay matches the recorded events" in capsys.readouterr().out
    assert dot.read_text(encoding="utf-8").startswith("graph network {")
    assert dot.read_bytes() == again.read_bytes()


# ---------------------------------------------------------------------------
# export and the verification suite


def test_export_dot_draws_the_structure(cs3_file, bin_file, capsys):
    assert main(["export", cs3_file, "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph structure {")
    assert 'label="T0"' in dot
    assert main(["export", bin_file, "--format", "dot"]) == 0
    ra_dot = capsys.readouterr().out
    assert "doublecircle" in ra_dot


def test_export_text_renders_monk_blocks(monk_file, capsys):
    assert main(["export", monk_file, "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert text.strip()
    assert main(["export", monk_file, "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("graph structure {")


def test_export_text_lists_labels_that_are_not_pair_partitions(tmp_path, capsys):
    # each label of full-set --dim 2 parses as a pair of integers
    path = tmp_path / "fs22.json"
    assert main(["gen", "full-set", "--dim", "2", "--base", "2", "-o", str(path)]) == 0
    assert main(["export", str(path), "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = json.loads(path.read_text())["atoms"]
    assert lines == ["dimension 2, 4 atoms"] + [
        f"  atom {k}: {label}" for k, label in enumerate(labels)
    ]


def test_suite_is_deterministic_and_reports_every_criterion(tmp_path):
    first, second = tmp_path / "one.txt", tmp_path / "two.txt"
    assert main(["suite", "-o", str(first)]) == 0
    assert main(["suite", "-o", str(second)]) == 0
    text = first.read_text(encoding="utf-8")
    assert text == second.read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    verdict_lines = [ln for ln in lines if "PASS" in ln or "FAIL" in ln]
    assert len(verdict_lines) == 12
    assert sum("PASS" in ln for ln in verdict_lines) == 12
    assert sum("FAIL" in ln for ln in verdict_lines) == 0
    assert lines[-1] == "12/12 criteria passed"


@pytest.mark.parametrize("pair, shown", [([True, 0], "True"), ([0, 1.0], "1.0")])
def test_check_refuses_a_non_integer_atom_index(tmp_path, capsys, pair, shown):
    path = tmp_path / "bad.json"
    data = {
        "dim": 2,
        "atoms": ["a", "b"],
        "cyl": [[pair], []],
        "diag": [[[0, 1], []], [[], [0, 1]]],
    }
    path.write_text(json.dumps(data))
    assert main(["check", "ca-frame", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cylindrifier relation T0 has a non-integer atom index {shown}\n"
