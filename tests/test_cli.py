"""End-to-end checks of the command line entry point (main called directly)."""

import hashlib
import json

import numpy as np
import pytest

import rla
from rla import InstanceResult, TheoremReport, to_doc
from rla.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_doc(tmp_path, doc, name="alg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def heis_file(tmp_path, heis2u):
    return write_doc(tmp_path, to_doc(heis2u))


@pytest.fixture
def heis3_file(tmp_path, heis3):
    return write_doc(tmp_path, to_doc(heis3), name="heis3.json")


def test_check_valid(capsys, heis_file):
    code, out, _ = run(capsys, "check", heis_file)
    assert code == 0
    assert out.strip() == "valid: p=2 dim=3 basis=[x, y, z]"


def test_check_invalid_axioms(capsys, tmp_path):
    doc = {"p": 2, "dim": 3, "pmap": [[0] * 3] * 3,
           "brackets": [{"i": 0, "j": 1, "v": [0, 0, 1]},
                        {"i": 0, "j": 2, "v": [1, 0, 0]}]}
    code, _, err = run(capsys, "check", write_doc(tmp_path, doc))
    assert code == 2
    assert "invalid algebra" in err and "(0, 1, 2)" in err


def test_check_bad_input(capsys, tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"p": 2, "dim"', encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 1 and "error:" in err
    doc = {"p": 2, "dim": 1, "pmap": [[0]], "sc": []}
    code, _, err = run(capsys, "check", write_doc(tmp_path, doc))
    assert code == 1 and "unknown keys" in err
    code, _, err = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 1


def test_check_rejects_boolean_entries(capsys, tmp_path):
    for doc in ({"p": 2, "dim": True, "pmap": [[0]]},
                {"p": 2, "dim": 1, "pmap": [[True]]}):
        code, out, err = run(capsys, "check", write_doc(tmp_path, doc))
        assert code == 1 and err.startswith("error:") and out == ""


def test_inspect_json(capsys, heis_file):
    code, out, _ = run(capsys, "inspect", heis_file, "--json")
    assert code == 0
    info = json.loads(out)
    assert info["center_dim"] == 1
    assert info["center_basis"] == [[0, 0, 1]]
    assert info["torus_dim"] == 0
    assert info["nilpotency_class"] == 2
    assert info["p_unipotent"] is True
    assert info["maximal_abelian_p_ideal"] == [[1, 0, 0], [0, 0, 1]]
    assert info["codim1_max_p_ideal_count"] == 3


def test_inspect_plain(capsys, heis_file):
    code, out, _ = run(capsys, "inspect", heis_file)
    assert code == 0
    lines = out.splitlines()
    assert "center_dim: 1" in lines
    assert "abelian: false" in lines
    assert lines == sorted(lines)


def test_inspect_non_nilpotent(capsys, tmp_path):
    path = write_doc(tmp_path, to_doc(rla.two_dim_nonabelian(3).algebra))
    code, out, _ = run(capsys, "inspect", path, "--json")
    assert code == 0
    info = json.loads(out)
    assert info["nilpotent"] is False
    assert info["nilpotency_class"] is None
    assert info["maximal_abelian_p_ideal"] is None


def test_derivations_dims_and_absence(capsys, heis_file):
    code, out, _ = run(capsys, "derivations", heis_file, "--square-zero",
                       "--nilpotent")
    assert code == 0
    lines = out.splitlines()
    assert lines[:4] == ["der: 6", "der_p: 4", "inner: 2", "h1: 2"]
    assert "square-zero outer restricted: none (complete search)" in lines
    assert "nilpotent outer restricted: none (complete search)" in lines


def test_derivations_witness(capsys, heis3_file):
    code, out, _ = run(capsys, "derivations", heis3_file, "--square-zero")
    assert code == 0
    assert "square-zero outer restricted: witness" in out
    assert "  matrix rows: [[0, 1, 0], [0, 0, 0], [0, 0, 0]]" in out
    assert "  D(y) = x" in out
    assert "  D(x) = 0" in out


def test_derivations_basis_picks(capsys, heis_file):
    code, out, _ = run(capsys, "derivations", heis_file, "--restricted",
                       "--outer")
    assert code == 0
    assert "restricted: witness" in out
    assert "outer restricted: witness" in out


def test_derivations_budget(capsys, heis_file):
    code, _, err = run(capsys, "derivations", heis_file, "--square-zero",
                       "--budget", "3")
    assert code == 3
    assert "budget exceeded" in err and "16" in err


def test_budget_env_and_flag(capsys, monkeypatch, heis_file):
    monkeypatch.setenv("RLA_BUDGET", "3")
    code, _, err = run(capsys, "derivations", heis_file, "--square-zero")
    assert code == 3
    # an explicit flag wins over the environment
    code, out, _ = run(capsys, "derivations", heis_file, "--square-zero",
                       "--budget", "65536")
    assert code == 0 and "none (complete search)" in out


@pytest.mark.parametrize("var, value", [("RLA_BUDGET", "abc"),
                                        ("RLA_WORKERS", "two"),
                                        ("RLA_WORKERS", "0")])
def test_bad_env_override_is_input_error(capsys, monkeypatch, var, value):
    monkeypatch.setenv(var, value)
    code, out, err = run(capsys, "verify", "--claim", "Prop-3.1")
    assert code == 1
    assert err.startswith("error:") and var in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("verify", "--claim", "Prop-3.1", "--budget", "0"),
    ("verify", "--claim", "Prop-3.1", "--budget", "-3"),
    ("verify", "--claim", "Prop-3.1", "--workers", "0"),
    ("derivations", "HEIS", "--budget", "0")])
def test_non_positive_flag_is_usage_error(capsys, heis_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([heis_file if a == "HEIS" else a for a in argv])
    out, err = capsys.readouterr()
    assert exc.value.code == 1
    assert "error:" in err and "positive integer" in err
    assert "Traceback" not in err and out == ""


def test_h1(capsys, heis_file):
    code, out, _ = run(capsys, "h1", heis_file)
    assert code == 0
    assert out.splitlines() == ["z1: 4", "b1: 2", "h1: 2",
                                "cross-check: der_p=4 inner=2 ok"]


def test_h1_certifies_cocycles_apart_from_their_builder(capsys, monkeypatch,
                                                        heis_file):
    # same dimension as der_p, but x -> x breaks the Leibniz rule at
    # [x, y] = z: the dimension comparison alone would print "ok"
    def fake_z1(L, M):
        return rla.Subspace.from_rows(np.eye(L.dim * L.dim, dtype=np.int64)[:4],
                                      L.p, L.dim * L.dim)

    monkeypatch.setattr("rla.cli.z1", fake_z1)
    code, out, err = run(capsys, "h1", heis_file)
    assert code == 2
    assert out == "" and err.startswith("error:") and "Leibniz" in err


def test_verify_with_reports(capsys, tmp_path):
    out_json = str(tmp_path / "report.json")
    out_csv = str(tmp_path / "report.csv")
    code, out, _ = run(capsys, "verify", "--claim", "Prop-3.1",
                       "--out", out_json, "--csv", out_csv)
    assert code == 0
    assert out.strip() == "Prop-3.1: pass=9 fail=0 exception=0 budget=0 total=9"
    with open(out_json, encoding="utf-8") as fh:
        text = fh.read()
    rep = TheoremReport.from_json(text)
    assert rep.claim == "Prop-3.1" and rep.clean
    with open(out_csv, encoding="utf-8") as fh:
        assert fh.readline().strip() == "claim,algebra_id,verdict,witness,invariants"
    code, _, _ = run(capsys, "verify", "--claim", "Prop-3.1",
                     "--out", str(tmp_path / "again.json"))
    assert code == 0
    with open(tmp_path / "again.json", encoding="utf-8") as fh:
        assert fh.read() == text


def test_verify_population_flags(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "Thm-3.3",
                       "--p", "2", "--dim", "2")
    assert code == 0
    assert "total=18" in out


def test_verify_budget_exit(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--claim", "Thm-3.3",
                       "--p", "2", "--dim", "3", "--budget", "4")
    assert code == 3
    assert "budget=8" in out
    out_json = str(tmp_path / "report.json")
    code, out, _ = run(capsys, "verify", "--claim", "Prop-3.2", "--budget", "1",
                       "--out", out_json)
    assert code == 3
    assert "budget=8 total=8" in out
    with open(out_json, encoding="utf-8") as fh:
        assert TheoremReport.from_json(fh.read()).summary["budget"] == 8


def test_verify_workers_env(capsys, monkeypatch):
    monkeypatch.setenv("RLA_WORKERS", "2")
    code, out, _ = run(capsys, "verify", "--claim", "Thm-3.3",
                       "--p", "3", "--dim", "2")
    assert code == 0
    assert "pass=33" in out and "exception=51" in out


def test_verify_unknown_claim(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--claim", "Thm-9.9"])
    assert exc.value.code == 1


def test_verify_claim_precondition(capsys):
    code, _, err = run(capsys, "verify", "--claim", "Prop-3.2", "--p", "3")
    assert code == 2 and "characteristic 2" in err
    for claim in ("Thm-3.3", "Prop-3.1"):
        code, out, err = run(capsys, "verify", "--claim", claim, "--dim", "0")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "dim bound" in err
        assert "Traceback" not in err


def test_verify_catalog_claim_bad_prime(capsys):
    for claim in ("Prop-3.1", "Remark-counterexample"):
        for p in ("0", "4"):
            code, out, err = run(capsys, "verify", "--claim", claim, "--p", p)
            assert code == 2 and out == ""
            assert err.startswith("error:") and "prime" in err
            assert "Traceback" not in err


def test_verify_failure_exit(capsys, monkeypatch):
    rows = [InstanceResult("x", "fail", invariants={"reason": "made up"})]
    fake = TheoremReport(claim="Thm-3.3", population={"count": 1},
                         instances=rows, summary=rla.summarize(rows))
    monkeypatch.setattr("rla.cli.verify_claim", lambda *a, **k: fake)
    code, out, _ = run(capsys, "verify", "--claim", "Thm-3.3")
    assert code == 4
    assert "fail=1" in out


def test_enumerate_stdout(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "2", "--dim", "1")
    assert code == 0
    docs = json.loads(out)
    assert [d["name"] for d in docs] == ["gf2-d1-abelian-000000",
                                         "gf2-d1-abelian-000001"]
    assert docs[0]["algebra"]["p"] == 2


def test_enumerate_to_file(capsys, tmp_path):
    out_path = str(tmp_path / "enum.json")
    code, out, _ = run(capsys, "enumerate", "--p", "3", "--dim", "1",
                       "--dedup", "--out", out_path)
    assert code == 0
    assert "wrote 3 algebras" in out
    with open(out_path, encoding="utf-8") as fh:
        assert len(json.load(fh)) == 3


def test_enumerate_bad_prime(capsys):
    # (3, 4) would list 3^16 p-map tables; a non-prime is refused the same way
    for p, dim in (("5", "2"), ("3", "4"), ("4", "2")):
        code, out, err = run(capsys, "enumerate", "--p", p, "--dim", dim)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "enumeration supports" in err
        assert "dim bound" in err and "Traceback" not in err


def test_enumerate_dedup_digest_pinned(capsys):
    for p, dim, digest in (
            ("2", "3", "a529c6e16de140d24852a0c6fb9f7c8f9f24e112dd2f056e116873c9c4366686"),
            ("3", "2", "99a377b9822c46c43a32980cfc4126dde11988a7cbd911cd0bcf7a0f79f34f34")):
        code, out, _ = run(capsys, "enumerate", "--p", p, "--dim", dim, "--dedup")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 21
    assert "heisenberg-gf2-unipotent: dim=3 p=2" in lines


def test_catalog_export(capsys, tmp_path, heis2u):
    out_path = str(tmp_path / "heis.json")
    code, out, _ = run(capsys, "catalog", "export",
                       "--name", "heisenberg-gf2-unipotent", "--out", out_path)
    assert code == 0 and out == ""
    with open(out_path, encoding="utf-8") as fh:
        back = rla.from_doc(json.load(fh))
    assert back.table_equal(heis2u)
    code, out, _ = run(capsys, "catalog", "export",
                       "--name", "torus1-gf5")
    assert code == 0 and json.loads(out)["p"] == 5


def test_catalog_export_requires_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "export"])
    assert exc.value.code == 1


def test_catalog_export_unknown_name(capsys):
    code, _, err = run(capsys, "catalog", "export", "--name", "nope")
    assert code == 1 and "unknown catalog name" in err


def test_no_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_huge_integer_entries_are_reduced_mod_p(capsys, tmp_path):
    huge = 10 ** 23  # beyond int64; even, so 0 mod 2
    for doc in ({"p": 2, "dim": 1, "pmap": [[huge]]},
                {"p": 2, "dim": 2, "pmap": [[0, 0], [0, 0]],
                 "brackets": [{"i": 0, "j": 1, "v": [huge, huge + 2]}]}):
        code, out, err = run(capsys, "check", write_doc(tmp_path, doc))
        assert (code, err) == (0, "")
        assert out.startswith(f"valid: p=2 dim={doc['dim']} basis=[x0")
    L = rla.from_doc({"p": 3, "dim": 1, "pmap": [[huge]]})  # 10^23 = 1 mod 3
    assert L.pmap.tolist() == [[1]]


def test_undecodable_or_too_deep_document_is_input_error(capsys, tmp_path):
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe{}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    for path in (latin, deep):
        for command in ("check", "inspect"):
            code, out, err = run(capsys, command, str(path))
            assert code == 1 and out == ""
            assert err.startswith("error:") and "Traceback" not in err
