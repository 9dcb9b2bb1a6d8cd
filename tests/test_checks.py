"""The self-check suite at reduced sizes, plus its dispatch table."""

import dataclasses

import pytest

from shadowscan.checks import (
    SUITES,
    CheckResult,
    check_discretization,
    check_form_equivalence,
    check_identity,
    check_interleave,
    check_scan_locality,
    check_scan_validity,
    run_suite,
)
from shadowscan.errors import InputError


def test_form_equivalence_small():
    res = check_form_equivalence(cases=5)
    assert res.passed
    assert res.max_err <= 1e-10


def test_discretization():
    res = check_discretization()
    assert res.passed
    assert res.name == "zoh-discretization"


def test_scan_validity_small():
    res = check_scan_validity(max_side=4)
    assert res.passed
    assert "cases exhausted" in res.detail


def test_scan_locality_small():
    res = check_scan_locality(trials=50)
    assert res.passed


def test_interleave_check():
    assert check_interleave().passed


def test_identity_check():
    res = check_identity()
    assert res.passed
    assert res.max_err == 0.0


def test_run_suite_dispatch():
    results = run_suite("scan")
    assert [r.name for r in results] == ["scan-validity", "scan-locality"]
    assert run_suite("interleave")[0].name == "interleave-roundtrip"
    with pytest.raises(InputError):
        run_suite("everything")
    assert set(SUITES) == {"ssm-equiv", "grad", "scan", "interleave"}


def test_check_result_is_frozen():
    res = check_interleave()
    assert isinstance(res, CheckResult)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.passed = False
