"""Unit tests for the verification checks and suite driver."""

from __future__ import annotations

import hashlib
import json

import pytest

from ordspec import spectra, verify
from ordspec.errors import DomainError, UsageError


def _verdicts(report: verify.CheckReport) -> dict[str, int]:
    out: dict[str, int] = {}
    for c in report.claims:
        out[c.verdict] = out.get(c.verdict, 0) + 1
    return out


def test_diff_items_pass_on_sample_parameters() -> None:
    cases = [
        ("i", 3, 3), ("i", 4, 5), ("i", 5, 3),
        ("ii", 4, 4), ("ii", 5, 3),
        ("iii", 3, 4), ("iii", 3, 9),
        ("iv", 3, 5),
        ("v", 2, 3), ("v", 3, 5), ("v", 4, 3),
        ("vi", 4, 2), ("vi", 4, 3), ("vi", 5, 2), ("vi", 6, 3),
    ]
    for item, n, q in cases:
        report = verify.check_diff(item, n, q)
        assert report.passed, verify.summary(report)


def test_diff_hypothesis_violations_raise() -> None:
    with pytest.raises(DomainError):
        verify.check_diff("i", 3, 4)
    with pytest.raises(DomainError):
        verify.check_diff("i", 2, 3)
    with pytest.raises(DomainError):
        verify.check_diff("ii", 4, 2)
    with pytest.raises(DomainError):
        verify.check_diff("iii", 3, 3)
    with pytest.raises(DomainError):
        verify.check_diff("iv", 3, 4)
    with pytest.raises(DomainError):
        verify.check_diff("vi", 3, 3)
    with pytest.raises(DomainError):
        verify.check_diff("vii", 3, 3)


def test_diff_ii_direct_at_n4_even_q_conditional_elsewhere() -> None:
    direct = verify.check_diff("ii", 4, 4)
    assert "assumed" not in _verdicts(direct)
    conditional = verify.check_diff("ii", 5, 3)
    assert _verdicts(conditional).get("assumed", 0) >= 1


def test_diff_i_records_other_branch_as_info() -> None:
    report = verify.check_diff("i", 4, 5)
    assert _verdicts(report).get("info", 0) >= 1


def test_adjacency_pass_cases() -> None:
    for which, fam, n, q, k in [
        ("adj_s", "Sp", 5, 2, 10), ("adj_s", "Sp", 5, 2, 8),
        ("adj_s", "Bn", 5, 3, 10), ("adj_s", "Sp", 6, 4, 12),
        ("adj_s", "Sp", 6, 2, 5),
        ("adj_o", "Dplus", 6, 2, 10), ("adj_o", "Dplus", 6, 3, 5),
        ("adj_p", "O8minus", 4, 4, 6), ("adj_p", "O8plus", 4, 3, 3),
    ]:
        group = spectra.group_id(fam, n, q)
        report = verify.check_adjacency(which, group, k)
        assert report.passed, verify.summary(report)


def test_adjacency_domain_errors() -> None:
    with pytest.raises(DomainError):
        verify.check_adjacency("adj_s", spectra.group_id("Sp", 4, 2), 8)
    with pytest.raises(DomainError):
        verify.check_adjacency("adj_s", spectra.group_id("Sp", 5, 2), 7)
    with pytest.raises(DomainError):
        verify.check_adjacency("adj_s", spectra.group_id("Dplus", 6, 2), 10)
    with pytest.raises(DomainError):
        verify.check_adjacency("adj_o", spectra.group_id("Sp", 6, 2), 10)
    with pytest.raises(DomainError):
        verify.check_adjacency("adj_o", spectra.group_id("Dplus", 5, 2), 8)
    with pytest.raises(DomainError):
        verify.check_adjacency("adj_p", spectra.group_id("Sp", 5, 2), 8)
    with pytest.raises(DomainError):
        verify.check_adjacency("nope", spectra.group_id("Sp", 5, 2), 8)


def test_adj_p_reports_failing_hypothesis() -> None:
    group = spectra.group_id("O8plus", 4, 5)
    report = verify.check_adjacency("adj_p", group, 4)
    assert not report.passed
    statements = {c.statement: c for c in report.claims}
    hyp = next(c for s, c in statements.items() if s.startswith("hypothesis"))
    assert hyp.verdict == "fail"
    # with the hypothesis broken the conclusion really is false: 65 = 5 * 13
    # is an element order of O8+(5)
    member = next(c for c in report.claims if "65" in c.statement)
    assert member.verdict == "fail"
    assert member.witness == (65,)


def test_adj_p_assumed_only_without_a_full_form() -> None:
    """O10+(3) has no full closed form, so its r p claim stays assumed and
    is never promoted to pass; O8+(3) has one, so its claim is decided."""
    for fam, n, k, rp, verdict in (
        ("Dplus", 5, 8, 123, "assumed"), ("O8plus", 4, 6, 21, "pass"),
    ):
        report = verify.check_adjacency("adj_p", spectra.group_id(fam, n, 3), k)
        (claim,) = [c for c in report.claims if c.statement.startswith(f"r p = {rp} ")]
        assert claim.verdict == verdict, fam
        assert report.passed, fam


def test_adj_p_vacuous_at_zsigmondy_gap() -> None:
    group = spectra.group_id("O8minus", 4, 2)
    report = verify.check_adjacency("adj_p", group, 6)
    assert report.passed
    assert _verdicts(report).get("vacuous", 0) == 1


def test_coclique_witness_cases_pass() -> None:
    for case, n, q in [
        ("n_odd", 5, 2), ("n_odd", 5, 3), ("n_odd", 7, 2),
        ("n_even", 6, 2), ("n_even", 6, 3), ("n_even", 8, 2),
        ("dplus", 6, 2), ("dplus", 6, 3), ("dplus", 8, 2),
    ]:
        report = verify.check_coclique_witness(case, n, q)
        assert report.passed, verify.summary(report)
        assert _verdicts(report).get("pass", 0) >= 2, (case, n, q)


def test_coclique_witness_hypothesis_violations() -> None:
    with pytest.raises(DomainError):
        verify.check_coclique_witness("n_odd", 4, 2)
    with pytest.raises(DomainError):
        verify.check_coclique_witness("n_even", 5, 2)
    with pytest.raises(DomainError):
        verify.check_coclique_witness("dplus", 7, 3)
    with pytest.raises(DomainError):
        verify.check_coclique_witness("other", 6, 2)


def test_go8_equality_checks() -> None:
    for q in (2, 4, 8):
        report = verify.check_go8_equality(q)
        assert report.passed, verify.summary(report)
    with pytest.raises(DomainError):
        verify.check_go8_equality(3)


def test_membership_positive_and_negative() -> None:
    good = verify.check_membership("Sp", 2, 3, 9, expected=True)
    assert good.passed
    control = verify.check_membership("Bn", 3, 3, 30, expected=True)
    assert not control.passed
    assert control.claims[0].witness == (30,)


def test_membership_rejects_an_unknown_part() -> None:
    with pytest.raises(DomainError):
        verify.check_membership("Sp", 2, 3, 5, True, "bogus")


def test_claim_validation() -> None:
    with pytest.raises(DomainError):
        verify.Claim("x", "maybe")
    with pytest.raises(DomainError):
        verify.Claim("x", "fail")
    assert verify.Claim("x", "pass").witness == ()


def test_report_serialization_round_trip_and_determinism() -> None:
    report = verify.check_diff("i", 3, 3)
    text = verify.serialize_report(report)
    again = verify.serialize_report(verify.check_diff("i", 3, 3))
    assert text == again
    back = verify.parse_report(text)
    assert verify.serialize_report(back) == text
    assert back.check_id == report.check_id
    assert back.claims == report.claims
    timed = verify.serialize_report(report, include_timing=True)
    assert "elapsed" in timed
    assert "elapsed" not in text
    with pytest.raises(UsageError):
        verify.parse_report("nope")


def test_parse_report_rejects_well_formed_json_that_breaks_an_invariant() -> None:
    good = json.loads(verify.serialize_report(verify.check_diff("i", 3, 3)))
    claim = good["claims"][0]
    for bad in (
        {"verdict": "fail", "witness": []},
        {"verdict": "maybe"},
    ):
        text = json.dumps({**good, "claims": [{**claim, **bad}]})
        with pytest.raises(UsageError):
            verify.parse_report(text)


def test_summary_marks_verdicts() -> None:
    report = verify.check_diff("ii", 5, 3)
    text = verify.summary(report)
    assert text.startswith("[PASS]")
    assert "~" in text  # the assumed line
    failing = verify.check_membership("Bn", 3, 3, 30, expected=True)
    assert "[FAIL]" in verify.summary(failing)
    assert "witness: 30" in verify.summary(failing)


def test_run_suite_validates_config() -> None:
    with pytest.raises(UsageError):
        verify.run_suite([])
    with pytest.raises(UsageError):
        verify.run_suite({"checks": "nope"})
    with pytest.raises(UsageError):
        verify.run_suite({"checks": [{"item": "i"}]})
    with pytest.raises(UsageError):
        verify.run_suite({"checks": [{"kind": "explode"}]})
    try:
        verify.run_suite({"checks": [{"kind": "diff", "item": "i"}]})
    except UsageError as exc:
        assert "checks[0]" in str(exc)
    else:
        raise AssertionError("missing keys not reported")


def test_run_suite_rejects_mistyped_grid_values(monkeypatch) -> None:
    ran = []
    monkeypatch.setattr(verify, "check_go8_equality", lambda q: ran.append(q))
    member = {"kind": "membership", "family": "Sp", "n": 2, "q": 3,
              "value": 5, "expected": True}
    for bad in (
        {"n": 2.9}, {"n": True}, {"q": "3"}, {"value": None},
        {"expected": "false"}, {"expected": 1}, {"part": "bogus"},
    ):
        with pytest.raises(UsageError, match=r"checks\[1\]"):
            verify.run_suite({"checks": [{"kind": "go8", "q": 2}, {**member, **bad}]})
    with pytest.raises(UsageError, match=r"checks\[1\].*k must be an integer"):
        verify.run_suite({"checks": [
            {"kind": "go8", "q": 2},
            {"kind": "adjacency", "which": "adj_s", "family": "Sp", "n": 5,
             "q": 2, "k": "10"},
        ]})
    with pytest.raises(UsageError, match="unknown kind"):
        verify.run_suite({"checks": [{"kind": ["go8"], "q": 2}]})
    assert ran == []
    # the accepted forms
    for part in ("full", "p-prime"):
        (report,) = verify.run_suite({"checks": [{**member, "part": part}]})
        assert report.passed and report.check_id.endswith(f":{part}:5")


def test_run_suite_turns_raises_into_failed_reports() -> None:
    reports = verify.run_suite({"checks": [
        {"kind": "diff", "item": "i", "n": 3, "q": 4},
        {"kind": "diff", "item": "i", "n": 3, "q": 3},
    ]})
    assert len(reports) == 2
    assert not reports[0].passed
    assert "check raised" in reports[0].claims[0].statement
    assert reports[1].passed
    assert not verify.suite_passed(reports)


def test_run_suite_reports_unexpected_exceptions(monkeypatch) -> None:
    def broken(q):
        raise AssertionError("internal: broken check")

    monkeypatch.setattr(verify, "check_go8_equality", broken)
    reports = verify.run_suite({"checks": [
        {"kind": "diff", "item": "i", "n": 3, "q": 3},
        {"kind": "go8", "q": 3},
        {"kind": "diff", "item": "v", "n": 2, "q": 3},
    ]})
    assert len(reports) == 3
    assert reports[0].passed and reports[2].passed
    assert not reports[1].passed
    assert reports[1].check_id == "go8[1]"
    assert "AssertionError" in reports[1].claims[0].statement

    def interrupted(q):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "check_go8_equality", interrupted)
    with pytest.raises(KeyboardInterrupt):
        verify.run_suite({"checks": [{"kind": "go8", "q": 3}]})


def test_default_config_runs_clean() -> None:
    reports = verify.run_suite(verify.default_config())
    assert len(reports) == 208
    failing = [r.check_id for r in reports if not r.passed]
    assert not failing, failing
    assert verify.suite_passed(reports)
    # the canonical reports, byte for byte, and their verdict totals
    text = "\n".join(verify.serialize_report(r) for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ab3597d9d84797685725f7600f265d7b447aae7386879a2e408cc1e3a9619699"
    )
    totals: dict[str, int] = {}
    for r in reports:
        for verdict, count in _verdicts(r).items():
            totals[verdict] = totals.get(verdict, 0) + count
    assert totals == {"pass": 585, "info": 42, "assumed": 75}
