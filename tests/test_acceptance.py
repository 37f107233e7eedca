"""Acceptance battery: one test per criterion, each asserting the
criterion's own verdict.

Criterion 7 checks the spare-routed swap and composition against their
three-dimensional bounds where the spare index 3 is meant to be used: on
every element fixed by c_3 (the neat 3-reduct, 2^8 of the 2^16 elements)
and on every pair of them.  Off that reduct the bounds are false, because
routing through index 3 frees that coordinate; so the criterion also asserts
that the unrestricted exhaustive sweep refutes both bounds and that its
counterexample (the singleton {(0,0,0,0)}) is not c_3-fixed.  The tests
below the battery show that each of those conditions can fail the
criterion.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest

from cylkit import acceptance
from cylkit.acceptance import CRITERIA, format_table, run_all
from cylkit.bao import top
from cylkit.terms import (
    EquationReport,
    Join,
    Meet,
    One,
    Var,
    Zero,
    check_equation,
    variables,
)

NUMBERS = [number for number, _ in CRITERIA]


@pytest.fixture(scope="module")
def results():
    return {res.number: res for res in run_all()}


@pytest.mark.parametrize("number", NUMBERS)
def test_criterion(number, results):
    res = results[number]
    assert res.passed, f"criterion {number} ({res.title}): {res.detail}"


def test_every_criterion_gets_exactly_one_verdict_line(results):
    table = format_table(tuple(results[n] for n in NUMBERS))
    verdicts = [ln for ln in table.splitlines() if "PASS" in ln or "FAIL" in ln]
    assert len(verdicts) == len(NUMBERS) == 12


def _refuted_at_top(structure, *_):
    return EquationReport(False, ((0, top(structure)),), 1, "exhaustive", "leq")


def _binary_unrefuted(structure, lhs, rhs, *args):
    # a binary bound that holds takes the full 2^32 sweep; report it instead
    if variables(lhs) == {0}:
        return check_equation(structure, lhs, rhs, *args)
    return EquationReport(True, None, 1 << 32, "exhaustive", "leq")


# bounds that are always 0 or always the top, written over Var(0) so that
# they evaluate to one value per assignment like the real bounds
def _bottom():
    return Meet(Var(0), Zero())


def _top():
    return Join(Var(0), One())


@pytest.mark.parametrize(
    ("name", "replacement", "expected"),
    [
        ("swap01_lowdim", _bottom, "unary: fails at c_3-fixed var0="),
        ("relcomp01_lowdim", _bottom, "binary: fails at c_3-fixed var0="),
        ("swap01_lowdim", _top, "unary: holds on all 256 c_3-fixed elements, "
         "unrestricted holds over 65536 assignments"),
        ("check_equation", _binary_unrefuted, "binary: holds on all 65536 "
         "c_3-fixed pairs, unrestricted holds over 4294967296 assignments"),
        ("check_equation", _refuted_at_top, "}, c_3-fixed; binary:"),
        ("time", SimpleNamespace(perf_counter=itertools.count(0.0, 60.0).__next__),
         "within 60s: no"),
    ],
    ids=[
        "fixed-element-above-unary-bound",
        "fixed-pair-above-binary-bound",
        "unary-bound-not-refuted",
        "binary-bound-not-refuted",
        "counterexample-is-c3-fixed",
        "takes-60s",
    ],
)
def test_criterion_7_fails_when(monkeypatch, name, replacement, expected):
    monkeypatch.setattr(acceptance, name, replacement)
    res = acceptance.criterion_07()
    assert not res.passed
    assert expected in res.detail, res.detail
