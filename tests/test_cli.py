"""Command-line interface: subcommand behavior, output formats, and the
exit-code contract (0 accepted/success, 1 definitive negative, 2
malformed input, 3 resource bound)."""

import json

import pytest

from flatact import BoundExceeded
from flatact.certificates import TorusCertificate, build_a4_certificate
from flatact.cli import (_BOUND, EXIT_BOUND, EXIT_MALFORMED, EXIT_NEGATIVE,
                         EXIT_OK, main)
from flatact.cohomology import (DEFAULT_GROUP_BOUND, CohomologyBoundExceeded,
                                CohomologyError, ZQModule, cocycle_to_text, h2)
from flatact.fpgroups import (CosetLimitExceeded, SearchBoundExceeded,
                              symmetric_presentation)
from flatact.groups import (GroupBoundExceeded, GroupError, PermGroup,
                            TableGroup, group_to_text)
from flatact.zlinalg import IntMatrix


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return _write


@pytest.mark.parametrize("cls,base", [
    (CosetLimitExceeded, Exception), (SearchBoundExceeded, Exception),
    (CohomologyBoundExceeded, CohomologyError), (GroupBoundExceeded, GroupError)],
    ids=lambda c: c.__name__)
def test_every_bound_error_is_one_bound_exceeded(cls, base):
    assert _BOUND is BoundExceeded
    assert issubclass(cls, BoundExceeded) and issubclass(cls, base)


class TestSnf:
    def test_diagonal(self, write, capsys):
        path = write("m.txt", IntMatrix.from_rows(
            [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]).to_text())
        assert main(["snf", path]) == EXIT_OK
        assert "diagonal: 2 2 156" in capsys.readouterr().out

    def test_json_transforms(self, write, capsys):
        path = write("m.txt", IntMatrix.from_rows([[2, 0], [0, 3]]).to_text())
        assert main(["snf", path, "--transforms", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagonal"] == [1, 6]
        assert set(payload) == {"diagonal", "d", "u", "v"}

    def test_malformed_matrix(self, write, capsys):
        path = write("m.txt", "2 2\n1 2 3\n")
        assert main(["snf", path]) == EXIT_MALFORMED

    def test_missing_file(self, tmp_path):
        assert main(["snf", str(tmp_path / "nope.txt")]) == EXIT_MALFORMED


class TestH2:
    def _c4_module_files(self, write):
        group = write("g.txt", group_to_text(TableGroup.cyclic(4)))
        module = write("m.txt", "lattice 1\n1 1\n1\n")
        return group, module

    def test_invariant_factors(self, write, capsys):
        group, module = self._c4_module_files(write)
        assert main(["h2", group, module]) == EXIT_OK
        assert "H^2 invariant factors: 4" in capsys.readouterr().out

    def test_degree_one(self, write, capsys):
        group = write("g.txt", group_to_text(TableGroup.cyclic(2)))
        module = write("m.txt", "lattice 1\n1 1\n-1\n")
        assert main(["h2", group, module, "--degree", "1"]) == EXIT_OK
        assert "H^1 invariant factors: 2" in capsys.readouterr().out

    def test_class_of(self, write, capsys):
        group, module = self._c4_module_files(write)
        c4 = TableGroup.cyclic(4)
        mod = ZQModule.lattice(c4, [IntMatrix.identity(1)])
        rep = h2(mod).representative((1,))
        cocycle = write("c.txt", cocycle_to_text(rep))
        assert main(["h2", group, module, "--class-of", cocycle,
                     "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["class_coordinates"] == [1]
        assert payload["zero_class"] is False

    def test_group_order_limit(self, write, capsys):
        group = write("g.txt", group_to_text(PermGroup.symmetric(5)))
        mats = "\n".join("3 3\n1 0 0\n0 1 0\n0 0 1"
                         for _ in PermGroup.symmetric(5).generators())
        module = write("m.txt", "lattice 3\n%s\n" % mats)
        assert main(["h2", group, module, "--group-order-limit", "24"]) \
            == EXIT_BOUND

    def test_finite_coefficients(self, write, capsys):
        group = write("g.txt", group_to_text(TableGroup.cyclic(2)))
        module = write("m.txt", "finite 2\n1 1\n1\n")
        assert main(["h2", group, module]) == EXIT_OK
        assert "H^2 invariant factors: 2" in capsys.readouterr().out


class TestVerify:
    def test_torus_accepted(self, write, capsys):
        cert = write("c.json", json.dumps(build_a4_certificate().to_dict()))
        assert main(["verify-torus", cert]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: accepted" in out
        assert "PASS extension-exact" in out

    def test_torus_rejected(self, write, capsys):
        d = build_a4_certificate().to_dict()
        d["alpha"] = [[0, 0], [0, 0]]
        cert = write("c.json", json.dumps(d))
        assert main(["verify-torus", cert]) == EXIT_NEGATIVE
        out = capsys.readouterr().out
        assert "FAIL alpha-surjective" in out
        assert "verdict: rejected" in out

    def test_json_report_matches_text_verdict(self, write, capsys):
        cert = write("c.json", json.dumps(build_a4_certificate().to_dict()))
        assert main(["verify-torus", cert, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "accepted"
        assert all(c["passed"] for c in payload["checklist"])

    def test_kind_mismatch_is_malformed(self, write):
        cert = write("c.json", json.dumps(build_a4_certificate().to_dict()))
        assert main(["verify-flat", cert]) == EXIT_MALFORMED

    def test_unknown_field_is_malformed(self, write):
        d = build_a4_certificate().to_dict()
        d["comment"] = "hello"
        cert = write("c.json", json.dumps(d))
        assert main(["verify-torus", cert]) == EXIT_MALFORMED

    def test_invalid_json_is_malformed(self, write):
        cert = write("c.json", "{not json")
        assert main(["verify-torus", cert]) == EXIT_MALFORMED

    def test_quotient_over_the_h2_bound(self, write, capsys):
        # C_2q over its central C_2: Q = C_q with q one over the default
        # group bound, acting on Z^q by the cyclic shift, alpha = sum mod 2
        q = DEFAULT_GROUP_BOUND + 1
        shift = IntMatrix.from_rows([[1 if i == (j + 1) % q else 0 for j in range(q)]
                                     for i in range(q)])
        cert = TorusCertificate(TableGroup.cyclic(2 * q), [q], q, [shift],
                                IntMatrix.from_rows([[1] * q]))
        path = write("c.json", json.dumps(cert.to_dict()))
        assert main(["verify-torus", path]) == EXIT_BOUND
        assert "exceeds bound %d" % DEFAULT_GROUP_BOUND in capsys.readouterr().err


class TestJordan:
    def test_witness_found(self, write, capsys):
        group = write("g.txt", group_to_text(PermGroup.alternating(4)))
        assert main(["jordan", group, "--bound", "12"]) == EXIT_OK
        assert "order 4, index 3" in capsys.readouterr().out

    def test_no_witness(self, write):
        group = write("g.txt", group_to_text(PermGroup.alternating(5)))
        assert main(["jordan", group, "--bound", "10"]) == EXIT_NEGATIVE

    def test_group_order_limit(self, write, capsys):
        group = write("g.txt", group_to_text(PermGroup.alternating(5)))
        assert main(["jordan", group, "--bound", "10",
                     "--group-order-limit", "59"]) == EXIT_BOUND
        assert "group order 60 exceeds bound 59" in capsys.readouterr().err


class TestScreen:
    def test_default_range_hits(self, capsys):
        assert main(["screen"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "k=7 residues mod 2903040: [ 645120, 0 ]" in out
        assert ("k=8 residues mod 696729600: [ 10321920, 2654208, 0, 6912, "
                "497664, 115200, 28800, 1440, 672 ]") in out

    def test_no_hits_range(self, capsys):
        assert main(["screen", "--range", "3..6"]) == EXIT_NEGATIVE
        assert "no hits" in capsys.readouterr().out

    def test_bad_range(self):
        assert main(["screen", "--range", "seven"]) == EXIT_MALFORMED
        assert main(["screen", "--range", "9..3"]) == EXIT_MALFORMED

    def test_bad_catalog(self, write):
        path = write("cat.txt", "7: 1 2 3\n")
        assert main(["screen", "--catalog", path]) == EXIT_MALFORMED


class TestCosetAndLowIndex:
    def test_coset_enumeration(self, write, capsys):
        pres = write("p.txt", symmetric_presentation(4).to_text())
        assert main(["coset", pres]) == EXIT_OK
        assert "cosets: 24" in capsys.readouterr().out

    def test_coset_subgroup(self, write, capsys):
        pres = write("p.txt", symmetric_presentation(4).to_text())
        assert main(["coset", pres, "--subgroup", "1", "--subgroup", "2"]) \
            == EXIT_OK
        assert "cosets: 4" in capsys.readouterr().out

    def test_coset_limit_exceeded(self, write):
        pres = write("p.txt", symmetric_presentation(6).to_text())
        assert main(["coset", pres, "--coset-limit", "50"]) == EXIT_BOUND

    def test_bad_subgroup_word(self, write):
        pres = write("p.txt", symmetric_presentation(3).to_text())
        assert main(["coset", pres, "--subgroup", "1,x"]) == EXIT_MALFORMED

    def test_subgroup_letter_out_of_range(self, write):
        pres = write("p.txt", symmetric_presentation(3).to_text())
        assert main(["coset", pres, "--subgroup", "1,3"]) == EXIT_MALFORMED

    def test_low_index(self, write, capsys):
        pres = write("p.txt", symmetric_presentation(3).to_text())
        assert main(["low-index", pres, "--max-index", "3",
                     "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert [c["index"] for c in payload["classes"]] == [1, 2, 3]

    def test_low_index_node_limit(self, write):
        pres = write("p.txt", symmetric_presentation(5).to_text())
        assert main(["low-index", pres, "--max-index", "6",
                     "--node-limit", "10"]) == EXIT_BOUND


class TestEpiSearch:
    def test_found(self, write, capsys):
        src = write("src.txt", group_to_text(PermGroup.alternating(5)))
        tgt = write("tgt.txt", group_to_text(PermGroup.alternating(5)))
        assert main(["epi-search", src, tgt]) == EXIT_OK
        assert "epimorphisms found:" in capsys.readouterr().out

    def test_empty(self, write):
        src = write("src.txt", group_to_text(PermGroup.symmetric(5)))
        tgt = write("tgt.txt", group_to_text(PermGroup.alternating(5)))
        assert main(["epi-search", src, tgt]) == EXIT_NEGATIVE

    def test_presented_source(self, write):
        src = write("src.txt", symmetric_presentation(3).to_text())
        tgt = write("tgt.txt", group_to_text(PermGroup.symmetric(3)))
        assert main(["epi-search", src, tgt]) == EXIT_OK

    def test_table_group_source_is_malformed(self, write):
        src = write("src.txt", group_to_text(TableGroup.cyclic(4)))
        tgt = write("tgt.txt", group_to_text(PermGroup.symmetric(3)))
        assert main(["epi-search", src, tgt]) == EXIT_MALFORMED

    def test_node_limit(self, write):
        src = write("src.txt", group_to_text(PermGroup.symmetric(5)))
        tgt = write("tgt.txt", group_to_text(PermGroup.alternating(5)))
        assert main(["epi-search", src, tgt, "--node-limit", "3"]) == EXIT_BOUND
