"""Command-line interface: subcommand behavior, output formats, and the
exit-code contract (0 accepted/success, 1 definitive negative, 2
malformed input, 3 resource bound)."""

import json
from importlib import resources

import pytest

from flatact import BoundExceeded
from flatact.certificates import (CrystalElement, TorusCertificate,
                                  build_a4_certificate, crystal_is_identity,
                                  crystal_power)
from flatact import cli
from flatact.cli import (EXIT_BOUND, EXIT_MALFORMED, EXIT_NEGATIVE, EXIT_OK,
                         main)
from flatact.cohomology import (DEFAULT_GROUP_BOUND, CohomologyBoundExceeded,
                                CohomologyError, ZQModule, cocycle_to_text, h2)
from flatact.fpgroups import (CosetLimitExceeded, SearchBoundExceeded,
                              symmetric_presentation)
from flatact.groups import (DEFAULT_SUBGROUP_ORDER_BOUND, GroupBoundExceeded,
                            GroupError, PermGroup, TableGroup, group_to_text)
from flatact.zlinalg import IntMatrix
from test_certificates import (certificate_ambient, hantzsche_wendt_certificate,
                               non_normal_certificate)


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
def test_every_bound_error_is_one_bound_exceeded(cls, base, monkeypatch):
    assert issubclass(cls, BoundExceeded) and issubclass(cls, base)

    def raise_bound(args):
        raise cls("bound")

    monkeypatch.setattr(cli, "_cmd_snf", raise_bound)
    assert main(["snf", "m.txt"]) == EXIT_BOUND


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

    def test_no_rows_keeps_its_columns(self, write, capsys):
        path = write("m.txt", "0 3\n")
        assert main(["snf", path, "--transforms", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagonal"] == [] and payload["u"] == []
        assert payload["v"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_malformed_matrix(self, write, capsys):
        path = write("m.txt", "2 2\n1 2 3\n")
        assert main(["snf", path]) == EXIT_MALFORMED

    def test_missing_file(self, tmp_path):
        assert main(["snf", str(tmp_path / "nope.txt")]) == EXIT_MALFORMED

    @pytest.mark.parametrize("text", ["-1 0\n", "-2 -3\n1 2 3\n4 5 6\n"])
    def test_negative_size_is_malformed(self, write, capsys, text):
        assert main(["snf", write("m.txt", text)]) == EXIT_MALFORMED
        assert "is negative" in capsys.readouterr().err


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

    def test_rank_zero_module(self, write, capsys):
        group = write("g.txt", group_to_text(TableGroup.cyclic(2)))
        assert main(["h2", group, write("m.txt", "lattice 0\n0 0\n")]) == EXIT_OK
        assert "H^2 invariant factors: (trivial)" in capsys.readouterr().out
        # a 0 x 3 action matrix is not 0 x 0
        assert main(["h2", group, write("m.txt", "lattice 0\n0 3\n")]) == EXIT_MALFORMED

    def test_negative_action_matrix_size_is_malformed(self, write, capsys):
        group = write("g.txt", group_to_text(TableGroup.cyclic(2)))
        assert main(["h2", group, write("m.txt", "lattice 1\n-1 -1 5\n")]) \
            == EXIT_MALFORMED
        assert "matrix size -1 x -1 is negative" in capsys.readouterr().err

    def test_empty_table_group_is_malformed(self, write, capsys):
        group = write("g.txt", "table 0\n")
        assert main(["h2", group, write("m.txt", "lattice 0\n")]) == EXIT_MALFORMED
        assert "not one of the 0 table elements" in capsys.readouterr().err

    @pytest.mark.parametrize("text,degree,factors", [
        ("\nfinite 2\n1 1\n1\n", "2", "2"),
        ("\nlattice 1\n1 1\n-1\n", "1", "2")], ids=["finite", "lattice"])
    def test_module_with_a_leading_blank_line(self, write, capsys, text, degree, factors):
        group = write("g.txt", group_to_text(TableGroup.cyclic(2)))
        module = write("m.txt", text)
        assert main(["h2", group, module, "--degree", degree]) == EXIT_OK
        assert ("H^%s invariant factors: %s" % (degree, factors)
                in capsys.readouterr().out)


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

    def test_non_integer_entries_are_malformed(self, write):
        # each of these used to be truncated by int() and then accepted
        d = json.loads((resources.files("flatact") / "data" / "a4.cert.json").read_text())
        d["alpha"] = [[1.9, 0], [0, True]]
        d["A_generators"][0] = [1.0, 0.2, 3, 2]
        cert = write("c.json", json.dumps(d))
        assert main(["verify-torus", cert]) == EXIT_MALFORMED

    @pytest.mark.parametrize("rho", [[[[1, 0, 0], [0, 1, 0], [0, 0, 1]]], [[[2, 0], [0, 1]]]],
                             ids=["wrong-size", "not-unimodular"])
    def test_bad_rho_is_malformed(self, write, rho):
        d = build_a4_certificate().to_dict()
        d["rho"] = rho
        assert main(["verify-torus", write("c.json", json.dumps(d))]) == EXIT_MALFORMED

    def test_shipped_hantzsche_wendt_accepted(self, capsys):
        path = str(resources.files("flatact") / "data" / "hantzsche_wendt.flat.json")
        assert main(["verify-flat", path]) == EXIT_OK
        assert "verdict: accepted" in capsys.readouterr().out

    def test_hantzsche_wendt_with_a_fixed_point_rejected(self, write, capsys):
        cert = hantzsche_wendt_certificate(zero_first=True)
        path = write("c.json", json.dumps(cert.to_dict()))
        assert main(["verify-flat", path, "--format", "json"]) == EXIT_NEGATIVE
        payload = json.loads(capsys.readouterr().out)
        assert payload["checklist"][-1] == {
            "name": "torsion-free", "passed": False,
            "detail": "kernel of the induced map has torsion"}
        found = payload["witnesses"]["torsion_element"]
        element = CrystalElement(tuple(found["translation"]), found["rotation"],
                                 certificate_ambient(cert))
        assert not crystal_is_identity(element)
        assert crystal_is_identity(crystal_power(element, 2))

    @pytest.mark.parametrize("kind,failed", [("torus", "extension-exact"),
                                             ("flat", "quotient-match")])
    def test_non_normal_a_rejected(self, write, capsys, kind, failed):
        # a rejection, not malformed input: G/A does not exist
        path = write("c.json", json.dumps(non_normal_certificate(kind).to_dict()))
        assert main(["verify-" + kind, path]) == EXIT_NEGATIVE
        out = capsys.readouterr().out
        assert "FAIL %s (A is not normal in G)" % failed in out
        assert "verdict: rejected" in out

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

    def test_s7_within_the_default_limit(self, write, capsys):
        group = write("g.txt", group_to_text(PermGroup.symmetric(7)))
        assert main(["jordan", group, "--bound", "5040"]) == EXIT_OK
        assert "order 1, index 5040" in capsys.readouterr().out

    def test_empty_table_group_is_malformed(self, write, capsys):
        assert main(["jordan", write("g.txt", "table 0\n"), "--bound", "1"]) \
            == EXIT_MALFORMED
        assert "not one of the 0 table elements" in capsys.readouterr().err

    def test_negative_degree_is_malformed(self, write, capsys):
        assert main(["jordan", write("g.txt", "perm -2 0\n"), "--bound", "1"]) \
            == EXIT_MALFORMED
        assert "degree -2 or generator count 0 is negative" in capsys.readouterr().err

    def test_default_limit(self, write, capsys):
        group = write("g.txt", group_to_text(PermGroup.symmetric(8)))
        assert main(["jordan", group, "--bound", "10"]) == EXIT_BOUND
        assert ("group order 40320 exceeds bound %d" % DEFAULT_SUBGROUP_ORDER_BOUND
                in capsys.readouterr().err)


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

    @pytest.mark.parametrize("rng", ["-2..24", "-1..24", "0..24"])
    def test_range_below_one(self, rng, capsys):
        # `=` keeps argparse from reading the leading minus as an option
        assert main(["screen", "--range=" + rng]) == EXIT_MALFORMED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n must be at least 1" in captured.err

    def test_bad_catalog(self, write):
        path = write("cat.txt", "7: 1 2 3\n")
        assert main(["screen", "--catalog", path]) == EXIT_MALFORMED

    def test_repeated_catalog_dimension(self, write, capsys):
        # the shipped catalogue passes its checks; a second line for
        # dimension 1 must not silently replace the first
        shipped = (resources.files("flatact") / "data" / "imf_orders.txt").read_text()
        path = write("cat.txt", shipped + "1: 3\n")
        assert main(["screen", "--catalog", path]) == EXIT_MALFORMED
        assert "repeated catalogue dimension 1" in capsys.readouterr().err


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
