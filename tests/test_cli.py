"""End-to-end tests of the command line interface: outputs, structured
round-trips, and the exit code contract (0 ok, 1 failed check, 2 usage,
3 domain, 4 resource)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordspec

from ordspec import cli, primegraph, spectra, verify


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_text(capsys) -> None:
    code, out, _ = _run(capsys, "spectrum", "Sp", "2", "3")
    assert code == 0
    assert out == "5 9 12\n"


def _run_fresh(script: str) -> str:
    """stdout of script run in a fresh interpreter that imports this
    checkout's package."""
    src = str(Path(ordspec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_start_up_does_not_import_sympy() -> None:
    """sympy is imported on first use above 2^20, so neither importing the
    CLI nor `spectrum Sp 2 3` loads it (checked in a fresh interpreter)."""
    script = (
        "import sys\n"
        "import ordspec.cli\n"
        "assert 'sympy' not in sys.modules, 'import ordspec.cli'\n"
        "assert ordspec.cli.main(['spectrum', 'Sp', '2', '3']) == 0\n"
        "assert 'sympy' not in sys.modules, 'spectrum Sp 2 3'\n"
    )
    assert _run_fresh(script) == "5 9 12\n"


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["spectrum", "Sp", "2", "3"], ()),
        (["graph", "Sp", "4", "2"], ("primegraph",)),
        (["coclique", "Sp", "4", "2", "--size", "3"], ("primegraph",)),
        (["oracle", "twisted", "8"], ("oracle",)),
        (["verify", "diff", "--item", "i", "--n", "3", "--q", "3"],
         ("primegraph", "verify", "zsigmondy")),
        (["verify", "go8", "--q", "2"],
         ("oracle", "primegraph", "verify", "zsigmondy")),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(argv, extra) -> None:
    """After cli.main in a fresh interpreter, the ordspec modules loaded
    are the CLI's own four plus those the command calls; hashlib, which
    only the oracle's disk cache uses, is not loaded."""
    script = (
        "import sys\n"
        "import ordspec.cli\n"
        f"assert ordspec.cli.main({argv!r}) == 0\n"
        "print(*sorted(m for m in sys.modules\n"
        "              if m.startswith('ordspec') or m == 'hashlib'))\n"
    )
    loaded = _run_fresh(script).splitlines()[-1].split()
    own = ("cli", "errors", "arith", "spectra")
    assert loaded == sorted(["ordspec", *(f"ordspec.{m}" for m in own + extra)])


def test_package_namespace_is_loaded_on_first_access() -> None:
    """Each public name resolves to its submodule's object, star-import
    and dir() see every name, an unknown name is an AttributeError that
    names it, and a bare import loads no submodule."""
    assert len(ordspec.__all__) == 33
    for name in ordspec.__all__:
        value = getattr(ordspec, name)
        assert value.__module__.startswith("ordspec."), name
        assert value is getattr(sys.modules[value.__module__], name), name
    namespace: dict = {}
    exec("from ordspec import *", namespace)
    assert set(ordspec.__all__) <= namespace.keys()
    with pytest.raises(AttributeError, match="no_such_name"):
        ordspec.no_such_name
    script = (
        "import sys\n"
        "import ordspec\n"
        "assert set(ordspec.__all__) <= set(dir(ordspec)), 'dir'\n"
        "print(*sorted(m for m in sys.modules if m.startswith('ordspec')))\n"
    )
    assert _run_fresh(script) == "ordspec\n"


def test_spectrum_o8minus(capsys) -> None:
    code, out, _ = _run(capsys, "spectrum", "O8minus", "4", "2")
    assert code == 0
    assert out == "8 9 12 17 21 30\n"


def test_spectrum_p_prime_part(capsys) -> None:
    code, out, _ = _run(
        capsys, "spectrum", "Dplus", "4", "3", "--part", "p-prime"
    )
    assert code == 0
    assert out == "8 13 14 20\n"


def test_spectrum_excluded_case_is_domain_error(capsys) -> None:
    code, _, err = _run(capsys, "spectrum", "Sp", "2", "2")
    assert code == 3
    assert "excluded" in err


def test_spectrum_structured_round_trips(capsys) -> None:
    code, out, _ = _run(
        capsys, "spectrum", "Sp", "3", "4", "--format", "structured"
    )
    assert code == 0
    direct = spectra.spectrum(spectra.group_id("Sp", 3, 4))
    assert spectra.parse_spectrum(out.strip()) == direct
    assert spectra.serialize(spectra.parse_spectrum(out.strip())) == out.strip()


def test_bad_usage_exits_2(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "Xx", "2", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2


def test_graph_text_and_structured(capsys) -> None:
    code, out, _ = _run(capsys, "graph", "Sp", "4", "2")
    assert code == 0
    assert "vertices: 2 3 5 7 17" in out
    assert "2-3" in out and "3-7" in out

    code, out, _ = _run(capsys, "graph", "Sp", "4", "2", "--format", "structured")
    assert code == 0
    direct = primegraph.build_graph(spectra.group_id("Sp", 4, 2))
    assert primegraph.parse_graph(out.strip()) == direct
    assert primegraph.export_graph(primegraph.parse_graph(out.strip())) == out.strip()


def test_coclique_lists_the_triple(capsys) -> None:
    code, out, _ = _run(capsys, "coclique", "Sp", "4", "2", "--size", "3")
    assert code == 0
    assert out == "{5,7,17}\n"


def test_coclique_structured(capsys) -> None:
    code, out, _ = _run(
        capsys, "coclique", "Sp", "4", "2", "--size", "3",
        "--format", "structured",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["cocliques"] == [[5, 7, 17]]


def test_verify_go8_passes(capsys) -> None:
    code, out, _ = _run(capsys, "verify", "go8", "--q", "2")
    assert code == 0
    assert "[PASS]" in out
    assert "failed: 0" in out


def test_verify_diff_structured_round_trips(capsys) -> None:
    code, out, _ = _run(
        capsys, "verify", "diff", "--item", "i", "--n", "3", "--q", "3",
        "--format", "structured",
    )
    assert code == 0
    report = verify.parse_report(out.strip())
    assert verify.serialize_report(report) == out.strip()
    assert report.passed


def test_verify_structured_equals_the_suite_report(capsys) -> None:
    # one entry per verify subcommand, run once through the CLI and once as
    # a suite grid: the canonical report must be the same
    for argv, entry in (
        (("diff", "--item", "vi", "--n", "4", "--q", "2"),
         {"kind": "diff", "item": "vi", "n": 4, "q": 2}),
        (("adjacency", "--which", "adj_p", "--family", "O8plus", "--n", "4",
          "--q", "5", "--k", "4"),
         {"kind": "adjacency", "which": "adj_p", "family": "O8plus", "n": 4,
          "q": 5, "k": 4}),
        (("coclique-witness", "--case", "dplus", "--n", "6", "--q", "3"),
         {"kind": "coclique", "case": "dplus", "n": 6, "q": 3}),
        (("go8", "--q", "4"), {"kind": "go8", "q": 4}),
    ):
        code, out, _ = _run(capsys, "verify", *argv, "--format", "structured")
        (report,) = verify.run_suite({"checks": [entry]})
        assert out == verify.serialize_report(report) + "\n", argv
        assert code == (0 if report.passed else 1)


def test_verify_failing_check_exits_1(capsys) -> None:
    code, out, _ = _run(
        capsys, "verify", "adjacency", "--which", "adj_p",
        "--family", "O8plus", "--n", "4", "--q", "5", "--k", "4",
    )
    assert code == 1
    assert "[FAIL]" in out


def test_verify_domain_error_exits_3(capsys) -> None:
    code, _, err = _run(capsys, "verify", "diff", "--item", "i", "--n", "3", "--q", "4")
    assert code == 3
    assert "odd q" in err


def test_verify_suite_with_grid_file(capsys, tmp_path) -> None:
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"checks": [
        {"kind": "diff", "item": "v", "n": 2, "q": 3},
        {"kind": "go8", "q": 4},
    ]}), encoding="utf-8")
    code, out, _ = _run(capsys, "verify", "suite", "--grid", str(grid))
    assert code == 0
    assert "checks: 2  passed: 2  failed: 0" in out


def test_verify_suite_grid_with_failing_control(capsys, tmp_path) -> None:
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"checks": [
        {"kind": "membership", "family": "Bn", "n": 3, "q": 3,
         "value": 30, "expected": True},
    ]}), encoding="utf-8")
    code, out, _ = _run(capsys, "verify", "suite", "--grid", str(grid))
    assert code == 1
    assert "witness: 30" in out


def test_verify_suite_bad_grid_exits_2(capsys, tmp_path) -> None:
    code, _, err = _run(capsys, "verify", "suite", "--grid", str(tmp_path / "no.json"))
    assert code == 2
    assert "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, _, err = _run(capsys, "verify", "suite", "--grid", str(bad))
    assert code == 2


def test_oracle_enumerate_output(capsys, tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("ORDSPEC_CACHE_DIR", str(tmp_path))
    code, out, _ = _run(capsys, "oracle", "enumerate", "Sp4", "3")
    assert code == 0
    assert out == "order=51840 spectrum=5 9 12\n"
    # second call must hit the cache and agree
    code, out2, _ = _run(capsys, "oracle", "enumerate", "Sp4", "3")
    assert code == 0
    assert out2 == out
    assert list(tmp_path.iterdir())


def test_oracle_enumerate_unwritable_entry_exits_2(capsys, tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("ORDSPEC_CACHE_DIR", str(tmp_path))
    entry = tmp_path / "GOplus4q2-9806dafe1b79.json"
    entry.mkdir()
    code, out, err = _run(capsys, "oracle", "enumerate", "GO4plus", "2")
    assert code == 2
    assert out == ""
    assert str(entry) in err and "Traceback" not in err


def test_oracle_enumerate_cap_exits_4(capsys) -> None:
    code, _, err = _run(capsys, "oracle", "enumerate", "Sp4", "3", "--cap", "100")
    assert code == 4
    assert "cap" in err.lower() or "exceed" in err.lower()


def test_oracle_sample_deterministic(capsys) -> None:
    code, out1, _ = _run(
        capsys, "oracle", "sample", "Sp4", "3", "--count", "40", "--seed", "9"
    )
    assert code == 0
    code, out2, _ = _run(
        capsys, "oracle", "sample", "Sp4", "3", "--count", "40", "--seed", "9"
    )
    assert out1 == out2
    spec = spectra.spectrum(spectra.group_id("Sp", 2, 3))
    for word in out1.strip().removeprefix("orders=").split():
        assert spectra.contains(spec, int(word))


def test_oracle_twisted(capsys) -> None:
    code, out, _ = _run(capsys, "oracle", "twisted", "8")
    assert code == 0
    assert out == "order=8\n"
    code, _, err = _run(capsys, "oracle", "twisted", "3")
    assert code == 3


def test_oracle_unsupported_group_q(capsys) -> None:
    code, _, err = _run(capsys, "oracle", "enumerate", "Sp4", "7")
    assert code == 3
    assert "supported" in err
