"""Torus and flat-manifold action certificates: construction, JSON
roundtrips, verification checklists, and the Jordan-bound witness."""

import copy
import json
from fractions import Fraction
from importlib import resources

import pytest

from flatact.certificates import (CertificateError, CrystalElement,
                                  FlatCertificate, JordanQuery,
                                  TorusCertificate, abelian_identification,
                                  build_a4_certificate, certificate_from_dict,
                                  crystal_identity, crystal_is_identity,
                                  crystal_multiply, crystal_power,
                                  jordan_witness, verify_flat_certificate,
                                  verify_torus_certificate)
from flatact.cohomology import (Cocycle2, ZQModule, extension_class, h2,
                                induced_h2, is_in_image)
from flatact.groups import (PermGroup, Permutation, TableGroup, group_to_text,
                            iter_isomorphisms, quotient_group)
from flatact.zlinalg import AbHom, IntMatrix


def klein_bottle_ambient():
    c2 = TableGroup.cyclic(2)
    module = ZQModule.lattice(c2, [IntMatrix.from_rows([[1, 0], [0, -1]])])
    cocycle = Cocycle2(module, {(1, 1): (1, 0)})
    return (module, cocycle)


class TestCrystalElement:
    def test_klein_bottle_generator_squares_to_translation(self):
        ambient = klein_bottle_ambient()
        t = CrystalElement((0, 0), 1, ambient)
        sq = crystal_power(t, 2)
        assert sq.phi == 0 and sq.v == (1, 0)
        assert not crystal_is_identity(sq)
        # the square is a pure translation along the fixed axis
        assert crystal_power(t, 4).v == (2, 0)

    def test_zero_cocycle_gives_torsion(self):
        module, _ = klein_bottle_ambient()
        ambient = (module, Cocycle2.zero(module))
        t = CrystalElement((3, 5), 1, ambient)
        # (x, phi)^2 = (x + phi.x, 1); second coordinate flips sign
        sq = crystal_multiply(t, t)
        assert sq.phi == 0 and sq.v == (6, 0)
        u = CrystalElement((0, 5), 1, ambient)
        assert crystal_is_identity(crystal_power(u, 2))

    def test_identity_and_inverse_shape(self):
        ambient = klein_bottle_ambient()
        e = crystal_identity(ambient)
        assert crystal_is_identity(e)
        t = CrystalElement((1, 2), 1, ambient)
        assert crystal_multiply(e, t).v == (1, 2)
        with pytest.raises(CertificateError):
            CrystalElement((1,), 1, ambient)


class TestAbelianIdentification:
    def test_klein_subgroup_of_a4(self):
        g = PermGroup.alternating(4)
        gens = [Permutation.from_cycles(4, [(0, 1), (2, 3)]),
                Permutation.from_cycles(4, [(0, 2), (1, 3)])]
        a_els, a_group, ident = abelian_identification(g, gens)
        assert len(a_els) == 4
        assert a_group.invariant_factors == (2, 2)
        assert ident[g.identity()] == (0, 0)

    def test_repeated_generator_rejected(self):
        g = PermGroup.alternating(4)
        gen = Permutation.from_cycles(4, [(0, 1), (2, 3)])
        with pytest.raises(CertificateError):
            abelian_identification(g, [gen, gen])

    def test_bad_order_chain_rejected(self):
        s3 = PermGroup.symmetric(3)
        with pytest.raises(CertificateError):
            abelian_identification(
                s3, [Permutation.from_cycles(3, [(0, 1, 2)]),
                     Permutation.from_cycles(3, [(0, 1)])])


class TestTorusCertificate:
    def test_a4_certificate_accepted(self):
        report = verify_torus_certificate(build_a4_certificate())
        assert report.verdict
        assert report.failed_check() is None
        assert all(c.passed for c in report.checklist)
        assert "extension_class" in report.witnesses

    def test_shipped_fixture_matches_builder(self):
        text = (resources.files("flatact") / "data" / "a4.cert.json").read_text()
        cert = certificate_from_dict(json.loads(text))
        assert cert == build_a4_certificate()
        assert verify_torus_certificate(cert).verdict

    def test_dict_roundtrip(self):
        cert = build_a4_certificate()
        assert certificate_from_dict(cert.to_dict()) == cert

    def test_alpha_not_surjective_rejected(self):
        d = build_a4_certificate().to_dict()
        d["alpha"] = [[0, 0], [0, 0]]
        report = verify_torus_certificate(certificate_from_dict(d))
        assert not report.verdict
        assert report.failed_check() == "alpha-surjective"

    def test_unfaithful_rho_rejected(self):
        d = build_a4_certificate().to_dict()
        d["rho"] = [[[1, 0], [0, 1]]]
        report = verify_torus_certificate(certificate_from_dict(d))
        assert not report.verdict
        assert report.failed_check() == "rho-faithful"

    def test_non_unimodular_rho_is_malformed(self):
        d = build_a4_certificate().to_dict()
        d["rho"] = [[[2, 0], [0, 1]]]
        with pytest.raises(CertificateError):
            certificate_from_dict(d)

    def test_unknown_field_rejected(self):
        d = build_a4_certificate().to_dict()
        d["extra"] = 1
        with pytest.raises(CertificateError):
            certificate_from_dict(d)

    def test_missing_field_rejected(self):
        d = build_a4_certificate().to_dict()
        del d["alpha"]
        with pytest.raises(CertificateError):
            certificate_from_dict(d)

    def test_flat_fields_on_torus_kind_rejected(self):
        d = build_a4_certificate().to_dict()
        d["phi"] = []
        with pytest.raises(CertificateError):
            certificate_from_dict(d)

    @pytest.mark.parametrize("field,value", [
        ("alpha", [[1.9, 0], [0, 1]]), ("alpha", [[1, 0], [0, True]]),
        ("alpha", [[1, "0"], [0, 1]]), ("rho", [[[0, -1], [1.0, -1]]]),
        ("rho", [[[0, -1], [1, "-1"]]]), ("A_generators", [[1.0, 0.2, 3, 2], [2, 3, 0, 1]]),
        ("A_generators", [[1, 0, 3, 2], [2, 3, False, 1]]),
        ("A_generators", [[1, 0, 3, 2], ["2", 3, 0, 1]])])
    def test_non_integer_entries_are_malformed(self, field, value):
        # int() would read each of these as an integer: 1.9 as 1, True as 1
        d = build_a4_certificate().to_dict()
        d[field] = value
        with pytest.raises(CertificateError, match="expected a list of integers"):
            certificate_from_dict(d)

    def test_report_serialization(self):
        report = verify_torus_certificate(build_a4_certificate())
        d = report.to_dict()
        assert d["verdict"] == "accepted"
        assert all({"name", "passed", "detail"} <= set(c) for c in d["checklist"])


def klein_bottle_certificate(cocycle_value=(1, 0)):
    """Flat certificate: the trivial group acting on the Klein bottle."""
    trivial = TableGroup.cyclic(1)
    c2 = TableGroup.cyclic(2)
    return FlatCertificate(
        trivial, [], 2, [IntMatrix.from_rows([[1, 0], [0, -1]])],
        IntMatrix.zero(0, 2), [1], c2,
        {(1, 1): tuple(cocycle_value)}, {})


FLAT_CHECKS = ["phi-normal", "rho-representation", "rho-faithful",
               "quotient-match", "alpha-surjective", "alpha-equivariant",
               "cocycle-valid", "coboundary-witness", "kernel-lattice",
               "phi-effective", "torsion-free"]


def a4_flat_certificate(iso_index, wrong_witness=False):
    """A4 on a torus viewed through the flat criterion: trivial holonomy,
    phi_star = Q, and the cocycle and coboundary witness built through the
    iso_index-th isomorphism Q -> G/A.  Q is cyclic of order 3, so there
    are two; the verifier tries them in that order, and under the second
    the certificate of the first fails alpha-equivariant.  With
    wrong_witness, the witness value of the first element it lists is
    changed."""
    g = PermGroup.alternating(4)
    gens = [Permutation.from_cycles(4, [(0, 1), (2, 3)]),
            Permutation.from_cycles(4, [(0, 2), (1, 3)])]
    a_els, a_group, ident = abelian_identification(g, gens)
    ext = extension_class(g, a_els, ident, a_group)
    phi_star = ext.quotient
    q_star, star_proj, _ = quotient_group(phi_star, [phi_star.identity()])
    iso = list(iter_isomorphisms(q_star, ext.quotient))[iso_index]

    def bar(x):
        return iso(star_proj(x))

    r = IntMatrix.from_rows([[0, -1], [1, -1]])
    rho = []
    for qg in phi_star.generators():
        m2 = ext.module.act_matrix(bar(qg))
        cand = [r, r * r]
        rho.append(next(
            c for c in cand
            if all((c[i, j] - m2[i, j]) % 2 == 0
                   for i in range(2) for j in range(2))))
    lat_mod = ZQModule.lattice(phi_star, rho)
    fin_mod = ZQModule.finite(
        phi_star, a_group,
        [ext.module.act_matrix(bar(qg)) for qg in phi_star.generators()])
    pulled = Cocycle2(
        fin_mod,
        {(x, y): ext.cocycle.value(bar(x), bar(y))
         for x in phi_star.elements() for y in phi_star.elements()})
    h_lat = h2(lat_mod)
    h_fin = h2(fin_mod)
    alpha = AbHom(2, a_group, IntMatrix.identity(2))
    induced = induced_h2(alpha, h_lat, h_fin)
    pre = is_in_image(h_fin.class_of(pulled), induced)
    assert pre is not None
    cstar = h_lat.representative(pre)
    pushed = Cocycle2(
        fin_mod, {k: alpha.apply(v) for k, v in cstar.values.items()})
    witness = h_fin.coboundary_witness(pushed.sub(pulled))
    assert witness is not None
    if wrong_witness:
        x = next(iter(witness))
        witness[x] = ((witness[x][0] + 1) % 2,) + witness[x][1:]
    return FlatCertificate(
        g, gens, 2, rho, IntMatrix.identity(2), [], phi_star,
        {k: v for k, v in cstar.values.items()}, witness)


def klein_four_certificate(witness, phi1_translation=(Fraction(1, 2), 0)):
    """Flat certificate with both phi and Q nontrivial, so that bar has a
    kernel and the subextension restricts c* to phi, a proper subgroup of
    phi_star.  G = (Z/2)^2 (element 2a + b is (a, b)) with A = <(1,0)>
    and n = 2; phi_star = (Z/2)^2 with phi1 = 1 acting by diag(1,-1) and
    phi2 = 2 by diag(-1,1), phi = <phi1>, and alpha = (0 1).  c* is the
    cocycle of the translation parts phi1_translation of phi1 and (0,0)
    of phi2; `witness` is the coboundary witness b."""
    klein = [[x ^ y for y in range(4)] for x in range(4)]
    phi_star = TableGroup(klein)
    assert phi_star.generators() == [1, 2]
    signs = {x: ((-1) ** (x >> 1), (-1) ** (x & 1)) for x in range(4)}
    rho = [IntMatrix.diagonal(signs[1]), IntMatrix.diagonal(signs[2])]
    zero = (0, 0)
    t = {0: zero, 1: tuple(phi1_translation), 2: zero, 3: tuple(phi1_translation)}
    cocycle = {}
    for x in range(4):
        for y in range(4):
            v = [a + s * b - c for a, s, b, c in zip(t[x], signs[x], t[y], t[x ^ y])]
            assert all(c.denominator == 1 for c in map(Fraction, v))
            cocycle[(x, y)] = tuple(int(c) for c in v)
    return FlatCertificate(
        TableGroup(klein), [2], 2, rho, IntMatrix.from_rows([[0, 1]]), [1],
        phi_star, cocycle, witness)


class TestFlatCertificate:
    @pytest.mark.parametrize("witness", [{}, {1: (1,), 3: (1,)}, {2: (1,), 3: (1,)}])
    def test_klein_four_accepted(self, witness):
        cert = klein_four_certificate(witness)
        report = verify_flat_certificate(cert)
        assert [(c.name, c.passed) for c in report.checklist] == \
            [(name, True) for name in FLAT_CHECKS]
        assert report.verdict and report.witnesses == {"kernel_index": 2}
        again = verify_flat_certificate(certificate_from_dict(cert.to_dict()))
        assert again.to_dict() == report.to_dict()

    @pytest.mark.parametrize("witness", [{2: (1,)}, {1: (1,)}])
    def test_klein_four_witness_that_is_not_a_cocycle_rejected(self, witness):
        report = verify_flat_certificate(klein_four_certificate(witness))
        assert [c.name for c in report.checklist] == FLAT_CHECKS[:8]
        assert report.failed_check() == "coboundary-witness"
        assert not report.verdict and report.witnesses == {}

    def test_klein_four_without_translation_has_torsion(self):
        report = verify_flat_certificate(klein_four_certificate({}, (0, 0)))
        assert [c.name for c in report.checklist] == FLAT_CHECKS
        assert report.failed_check() == "torsion-free"
        assert report.witnesses["torsion_element"]["rotation"] == 1

    def test_klein_bottle_accepted(self):
        report = verify_flat_certificate(klein_bottle_certificate())
        assert report.verdict
        assert report.failed_check() is None

    def test_torsion_detected_for_zero_cocycle(self):
        report = verify_flat_certificate(klein_bottle_certificate((0, 0)))
        assert not report.verdict
        assert report.failed_check() == "torsion-free"
        assert "torsion_element" in report.witnesses

    def test_klein_bottle_dict_roundtrip(self):
        cert = klein_bottle_certificate()
        again = certificate_from_dict(cert.to_dict())
        assert isinstance(again, FlatCertificate)
        assert verify_flat_certificate(again).verdict

    @pytest.mark.parametrize("iso_index", [0, 1])
    def test_a4_flat_certificate_accepted(self, iso_index):
        report = verify_flat_certificate(a4_flat_certificate(iso_index))
        assert report.verdict, report.failed_check()
        assert [c.name for c in report.checklist] == FLAT_CHECKS

    @pytest.mark.parametrize("iso_index", [0, 1])
    def test_a4_flat_certificate_with_a_wrong_witness_rejected(self, iso_index):
        report = verify_flat_certificate(a4_flat_certificate(iso_index, True))
        assert [(c.name, c.passed, c.detail) for c in report.checklist] == [
            ("phi-normal", True, "phi must be normal in phi_star"),
            ("rho-representation", True, ""),
            ("rho-faithful", True, ""),
            ("quotient-match", True, "quotients of order 3 identified"),
            ("alpha-surjective", True, "image must be all of A"),
            ("alpha-equivariant", True, "alpha(g.x) must equal bar(g).alpha(x)"),
            ("cocycle-valid", True, "c* fails the cocycle identity"),
            ("coboundary-witness", False,
             "alpha-pushforward of c* must differ from the extension class "
             "of G by the coboundary of b")]
        assert not report.verdict and report.witnesses == {}

    @pytest.mark.parametrize("field,value", [
        ("cocycle", [[1, 1, [1.0, 0]]]), ("cocycle", [[1, 1, [1, True]]]),
        ("cocycle", [[1, 1, ["1", 0]]]), ("coboundary_witness", [[1, [0.5]]]),
        ("coboundary_witness", [[1, [False]]]), ("coboundary_witness", [[1, ["0"]]]),
        ("rho", [[[1, 0], [0, -1.0]]])])
    def test_non_integer_entries_are_malformed(self, field, value):
        d = klein_bottle_certificate().to_dict()
        d[field] = value
        with pytest.raises(CertificateError, match="expected a list of integers"):
            certificate_from_dict(d)

    def test_non_integer_phi_images_are_malformed(self):
        # phi_star as a permutation group: C2 acting on two points
        d = klein_bottle_certificate().to_dict()
        c2 = group_to_text(PermGroup([(1, 0)]))
        d.update(phi_star=c2, phi=[[1.0, 0]], cocycle=[], coboundary_witness=[])
        with pytest.raises(CertificateError, match="expected a list of integers"):
            certificate_from_dict(d)
        d["phi"] = [[1, 0]]
        assert certificate_from_dict(d).phi == [Permutation((1, 0))]

    def test_phi_outside_phi_star_rejected(self):
        trivial = TableGroup.cyclic(1)
        c2 = TableGroup.cyclic(2)
        with pytest.raises(CertificateError):
            FlatCertificate(
                trivial, [], 2, [IntMatrix.from_rows([[1, 0], [0, -1]])],
                IntMatrix.zero(0, 2), [5], c2, {(1, 1): (1, 0)}, {})


class TestJordanWitness:
    def test_a4_has_small_abelian_normal_subgroup(self):
        g = PermGroup.alternating(4)
        res = jordan_witness(JordanQuery(2, 12, g))
        assert res is not None
        sub, index = res
        assert len(sub) == 4 and index == 3

    def test_a5_exceeds_small_bound(self):
        g = PermGroup.alternating(5)
        assert jordan_witness(JordanQuery(3, 10, g)) is None

    def test_cyclic_group_is_its_own_witness(self):
        g = TableGroup.cyclic(8)
        sub, index = jordan_witness(JordanQuery(1, 1, g))
        assert len(sub) == 8 and index == 1

    def test_bound_validation(self):
        with pytest.raises(CertificateError):
            JordanQuery(2, 0, PermGroup.alternating(4))
