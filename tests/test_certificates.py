"""Torus and flat-manifold action certificates: construction, JSON
roundtrips, verification checklists, and the Jordan-bound witness."""

import copy
import json
import random
from fractions import Fraction
from functools import partial
from importlib import resources

import pytest

from flatact.certificates import (CertificateError, CheckResult, CrystalElement,
                                  FlatCertificate, JordanQuery,
                                  TorusCertificate, abelian_identification,
                                  build_a4_certificate, certificate_from_dict,
                                  crystal_identity, crystal_is_identity,
                                  crystal_multiply, crystal_power,
                                  jordan_witness, verify_flat_certificate,
                                  verify_torus_certificate)
from flatact.cohomology import (Cocycle2, ZQModule, extension_class, h2,
                                induced_h2, is_in_image, torsion_free_check,
                                torsion_free_check_by_restriction)
from flatact.groups import (PermGroup, Permutation, TableGroup, group_to_text,
                            iter_isomorphisms, quotient_group, subgroup_closure)
from flatact.zlinalg import (AbHom, EchelonSolver, IntMatrix, kernel_basis,
                             solve_modulo)
from test_zlinalg import hermite_index


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

    def test_non_normal_a_rejected_at_extension_exact(self):
        report = verify_torus_certificate(non_normal_certificate("torus"))
        assert [(c.name, c.passed, c.detail) for c in report.checklist] == [
            ("extension-exact", False, "A is not normal in G")]
        assert not report.verdict and report.witnesses == {}


def non_normal_certificate(kind):
    """A certificate of the given kind whose A, the subgroup <(0 1)> of S3,
    is not normal in G; the flat one has phi trivial in phi_star = C2,
    acting on Z by -1."""
    s3 = PermGroup.symmetric(3)
    a_gens = [Permutation.from_cycles(3, [(0, 1)])]
    rho, alpha = [IntMatrix.from_rows([[-1]])], IntMatrix.identity(1)
    if kind == "torus":
        return TorusCertificate(s3, a_gens, 1, rho, alpha)
    return FlatCertificate(s3, a_gens, 1, rho, alpha, [], TableGroup.cyclic(2), {}, {})


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
    mats = {x: IntMatrix.diagonal(((-1) ** (x >> 1), (-1) ** (x & 1))) for x in range(4)}
    zero = (0, 0)
    t = {0: zero, 1: tuple(phi1_translation), 2: zero, 3: tuple(phi1_translation)}
    return FlatCertificate(
        TableGroup(klein), [2], 2, [mats[1], mats[2]], IntMatrix.from_rows([[0, 1]]),
        [1], phi_star, translation_cocycle(phi_star, mats, t), witness)


def translation_parts(identity, multiply, act, steps):
    """The translation parts t of the elements reached from `identity` by
    right multiplication with the g of `steps`, pairs (g, t(g)): x g, when
    first reached, gets t(x) + act(x).t(g), that of the word that reached
    it."""
    parts = {identity: (0,) * len(steps[0][1])}
    frontier = [identity]
    while frontier:
        x = frontier.pop(0)
        for g, tg in steps:
            y = multiply(x, g)
            if y not in parts:
                parts[y] = tuple(a + b for a, b in zip(parts[x], act(x).apply(tg)))
                frontier.append(y)
    return parts


def translation_cocycle(group, mats, t):
    """c(x, y) = t(x) + x.t(y) - t(xy) for the translation parts t (element
    -> vector of Fractions) of a Bieberbach group over `group`, whose
    element x acts by mats[x]; the values must be integral."""
    cocycle = {}
    for x in group.elements():
        for y in group.elements():
            v = [a + b - c for a, b, c in
                 zip(t[x], mats[x].apply(t[y]), t[group.multiply(x, y)])]
            assert all(Fraction(c).denominator == 1 for c in v)
            cocycle[(x, y)] = tuple(int(c) for c in v)
    return cocycle


def section_certificate(order=2):
    """G = A = Z/order and phi = phi_star = C2 acting on Z^2 by a
    reflection, with alpha = (1 0), c*(t, t) = (2, 0) and b(t) = 1: an
    element (v, t) of the subextension has alpha(v) = -1 modulo the order.
    (-1, 0; t) is one of order 2."""
    c2 = TableGroup.cyclic(2)
    return FlatCertificate(
        TableGroup.cyclic(order), [1], 2, [IntMatrix.from_rows([[1, 0], [0, -1]])],
        IntMatrix.from_rows([[1, 0]]), [1], c2, {(1, 1): (2, 0)}, {1: (1,)})


HALF = Fraction(1, 2)

# Three of the ten closed flat 3-manifolds (Conway-Rossetti, "Describing
# the platycosms", 2003), as the affine maps x -> m x + t that generate
# their fundamental groups together with the translations of Z^3
PLATYCOSMS = {
    "hantzsche-wendt": [([[1, 0, 0], [0, -1, 0], [0, 0, -1]], (HALF, HALF, 0)),
                        ([[-1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, HALF, HALF))],
    "dicosm": [([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], (0, 0, HALF))],
    "first-amphicosm": [([[1, 0, 0], [0, -1, 0], [0, 0, 1]], (HALF, 0, 0))],
}
HOLONOMY_ORDERS = {"hantzsche-wendt": 4, "dicosm": 2, "first-amphicosm": 2}


def bieberbach(generators, zero_first=False):
    """(point group, lattice module, cocycle) of the group generated by Z^n
    and the affine maps (m, t) of `generators`; with zero_first, the first
    map's translation is replaced by 0.  The point group's elements are the
    matrices, each with the translation part of the first word in the
    generators that reaches it."""
    gens = [(IntMatrix.from_rows(m), tuple(Fraction(x) for x in t))
            for m, t in generators]
    if zero_first:
        gens[0] = (gens[0][0], (0,) * len(gens[0][1]))
    identity = IntMatrix.identity(gens[0][0].rows)
    parts = translation_parts(identity, lambda a, b: a * b, lambda m: m, gens)
    els = list(parts)
    group = TableGroup.from_function(els, lambda a, b: a * b, identity)
    module = ZQModule.lattice(group, [els[g] for g in group.generators()])
    cocycle = translation_cocycle(group, els, [parts[m] for m in els])
    return group, module, Cocycle2(module, cocycle)


def bieberbach_certificate(generators, zero_first=False):
    """The flat certificate of the trivial group acting on the flat manifold
    of bieberbach(generators, zero_first): phi = phi_star = its point group."""
    group, module, cocycle = bieberbach(generators, zero_first)
    return FlatCertificate(
        TableGroup.cyclic(1), [], module.rank,
        [module.act_matrix(g) for g in group.generators()],
        IntMatrix.zero(0, module.rank), group.generators(), group,
        cocycle.values, {})


def hantzsche_wendt_certificate(zero_first=False):
    """The certificate shipped as data/hantzsche_wendt.flat.json; with
    zero_first, the first generator's translation is zeroed, which gives
    the group a fixed point."""
    return bieberbach_certificate(PLATYCOSMS["hantzsche-wendt"], zero_first)


def certificate_ambient(cert):
    """The (module, cocycle) of the extension of phi_star along c*, in which
    a reported torsion element (v, phi) lives."""
    module = ZQModule.lattice(cert.phi_star, cert.rho, rank=cert.n)
    return module, Cocycle2(module, cert.cocycle)


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

    def test_non_normal_a_rejected_at_quotient_match(self):
        report = verify_flat_certificate(non_normal_certificate("flat"))
        assert [c.name for c in report.checklist] == FLAT_CHECKS[:4]
        assert report.checklist[-1] == CheckResult(
            "quotient-match", False, "A is not normal in G")
        assert not report.verdict and report.witnesses == {}

    def test_phi_outside_phi_star_rejected(self):
        trivial = TableGroup.cyclic(1)
        c2 = TableGroup.cyclic(2)
        with pytest.raises(CertificateError):
            FlatCertificate(
                trivial, [], 2, [IntMatrix.from_rows([[1, 0], [0, -1]])],
                IntMatrix.zero(0, 2), [5], c2, {(1, 1): (1, 0)}, {})


def kernel_subextension_check(cert):
    """The torsion-free step the long way round, as the differential
    reference for verify_flat_certificate: build the subextension over phi
    with lattice N = ker alpha in the coordinates of a Hermite basis of N,
    moving c* restricted to phi into N by a section s with
    alpha(s(x)) = -b(x), and run torsion_free_check on it.  Returns
    (True, None), or (False, (v, phi)) with the element of finite order
    mapped back into the certificate's Z^n by (y, x) -> (y + s(x), x)."""
    _, a_group, _ = abelian_identification(cert.group, cert.a_generators)
    star_mod, cstar = certificate_ambient(cert)
    basis = kernel_basis(AbHom(cert.n, a_group, cert.alpha))
    phi_els = subgroup_closure(cert.phi_star, cert.phi)
    h_phi = TableGroup.from_function(phi_els, cert.phi_star.multiply,
                                     cert.phi_star.identity())
    phi_lat = ZQModule.lattice(
        h_phi, [star_mod.act_matrix(phi_els[x]) for x in h_phi.generators()],
        rank=cert.n)
    solver = EchelonSolver(basis)

    def n_coords(vec):
        y = solver.solve(tuple(vec))
        assert y is not None, "vector expected in ker alpha is outside it"
        return tuple(y)

    sub_mod = ZQModule.lattice(h_phi, [
        IntMatrix.from_columns(
            [n_coords(phi_lat.act_matrix(g).apply(basis.row(j))) for j in range(basis.rows)],
            basis.rows)
        for g in h_phi.generators()], rank=basis.rows)
    s_of = {
        x: solve_modulo(cert.alpha, a_group.invariant_factors, tuple(
            -t for t in a_group.reduce(cert.coboundary_witness.get(phi_els[x], a_group.zero()))))
        for x in h_phi.elements() if x != h_phi.identity()}
    restricted = Cocycle2(phi_lat, {
        (x, y): cstar.value(phi_els[x], phi_els[y])
        for x in h_phi.elements() for y in h_phi.elements()})
    adjusted = restricted.add(Cocycle2.coboundary(phi_lat, s_of))
    sub_cocycle = Cocycle2(sub_mod, {k: n_coords(v) for k, v in adjusted.values.items()})
    tf, witness = torsion_free_check(h_phi, sub_mod, sub_cocycle)
    if tf:
        return True, None
    y, x = witness
    v = [sum(c * basis[j, i] for j, c in enumerate(y)) + s_of[x][i] for i in range(cert.n)]
    return False, (tuple(v), phi_els[x])


def assert_torsion_element(cert, v, phi):
    """(v, phi) lies over the subextension, alpha(v) = -b(phi) modulo A,
    and has the order of phi, which is prime."""
    _, a_group, _ = abelian_identification(cert.group, cert.a_generators)
    b = cert.coboundary_witness.get(phi, a_group.zero())
    assert a_group.reduce(cert.alpha.apply(v)) == a_group.reduce(tuple(-t for t in b))
    ambient = certificate_ambient(cert)
    p = cert.phi_star.element_order(phi)
    element = CrystalElement(tuple(v), phi, ambient)
    assert not crystal_is_identity(element)
    assert crystal_is_identity(crystal_power(element, p))


def mutations(cert, rng, count):
    """`count` seeded mutations of a certificate: c* plus the coboundary
    of translations t with random entries in {-1, -1/2, 0, 1/2, 1} on the
    generators of phi_star (carried to every element by translation_parts),
    and a random witness b half of the time."""
    _, a_group, _ = abelian_identification(cert.group, cert.a_generators)
    module, cstar = certificate_ambient(cert)
    grp = cert.phi_star
    els = grp.elements()
    mats = {x: module.act_matrix(x) for x in els}
    for _ in range(count):
        steps = [(g, tuple(Fraction(rng.randrange(-2, 3), 2) for _ in range(cert.n)))
                 for g in grp.generators()]
        t = translation_parts(grp.identity(), grp.multiply, mats.__getitem__, steps)
        shift = translation_cocycle(grp, mats, t)
        cocycle = {k: module.add(cstar.value(*k), shift[k]) for k in shift}
        witness = cert.coboundary_witness
        if rng.random() < 0.5:
            witness = {x: tuple(rng.randrange(f) for f in a_group.invariant_factors)
                       for x in els if x != grp.identity()}
        yield FlatCertificate(cert.group, cert.a_generators, cert.n, cert.rho,
                              cert.alpha, cert.phi, grp, cocycle, witness)


ORACLE_BASES = {
    "klein-four": lambda: klein_four_certificate({}),
    "klein-four-other-witness": lambda: klein_four_certificate({1: (1,), 3: (1,)}),
    "klein-four-no-translation": lambda: klein_four_certificate({}, (0, 0)),
    "klein-bottle": klein_bottle_certificate,
    "klein-bottle-zero-cocycle": lambda: klein_bottle_certificate((0, 0)),
    "section": section_certificate,
    # -b(x) differs from b(x) modulo 3
    "section-modulo-3": lambda: section_certificate(3),
}


class TestKernelSubextensionOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_BASES))
    def test_same_verdict_on_seeded_mutations(self, name):
        rng = random.Random(name)
        base = ORACLE_BASES[name]()
        verdicts = []
        for cert in [base] + list(mutations(base, rng, 40)):
            report = verify_flat_certificate(cert)
            if report.checklist[-1].name != "torsion-free":
                continue
            tf, witness = kernel_subextension_check(cert)
            assert report.checklist[-1].passed == tf
            verdicts.append(tf)
            if not tf:
                assert_torsion_element(cert, *witness)
                found = report.witnesses["torsion_element"]
                assert_torsion_element(cert, found["translation"], found["rotation"])
        # the mutations reach the step often, with both answers
        assert len(verdicts) >= 8 and set(verdicts) == {True, False}

    @pytest.mark.parametrize("name", sorted(PLATYCOSMS))
    @pytest.mark.parametrize("zero_first", [False, True])
    def test_same_verdict_on_platycosms(self, name, zero_first):
        cert = bieberbach_certificate(PLATYCOSMS[name], zero_first)
        tf, _ = kernel_subextension_check(cert)
        assert tf == (not zero_first) == verify_flat_certificate(cert).verdict

    def test_section_certificate_witness_is_in_its_own_lattice(self):
        cert = section_certificate()
        report = verify_flat_certificate(cert)
        assert report.failed_check() == "torsion-free"
        assert report.witnesses["torsion_element"] == {"translation": (-1, 0), "rotation": 1}
        assert_torsion_element(cert, (-1, 0), 1)
        # the zero translation is not: (0, t)^2 = (2, 0)
        square = crystal_power(CrystalElement((0, 0), 1, certificate_ambient(cert)), 2)
        assert (square.v, square.phi) == ((2, 0), 0)


def assert_implied_checks(cert, report):
    """What verify_flat_certificate records without computing it, for a
    certificate that passed alpha-surjective (and so rho-faithful),
    recomputed: ker alpha has index |A| in Z^n, the product of its Hermite
    diagonal, and the matrices of phi are distinct.  When the report gets
    that far, kernel-lattice and phi-effective passed, and kernel_index
    is the index."""
    _, a_group, _ = abelian_identification(cert.group, cert.a_generators)
    index = hermite_index(kernel_basis(AbHom(cert.n, a_group, cert.alpha)), cert.n)
    assert index == a_group.order
    module, _ = certificate_ambient(cert)
    phi_els = subgroup_closure(cert.phi_star, cert.phi)
    assert len({module.act_matrix(x).data for x in phi_els}) == len(phi_els)
    checks = {c.name: c.passed for c in report.checklist}
    if "kernel-lattice" in checks:
        assert checks["kernel-lattice"] and checks["phi-effective"]
        assert report.witnesses["kernel_index"] == index


IMPLIED_BASES = {
    **ORACLE_BASES,
    "a4-flat-0": partial(a4_flat_certificate, 0),
    "a4-flat-1": partial(a4_flat_certificate, 1),
    **{name: partial(bieberbach_certificate, PLATYCOSMS[name]) for name in PLATYCOSMS},
    **{name + "-zeroed": partial(bieberbach_certificate, PLATYCOSMS[name], True)
       for name in PLATYCOSMS},
}


class TestImpliedChecks:
    @pytest.mark.parametrize("name", sorted(IMPLIED_BASES))
    def test_kernel_index_and_faithful_phi(self, name):
        base = IMPLIED_BASES[name]()
        reached = 0
        for cert in [base] + list(mutations(base, random.Random(name), 10)):
            report = verify_flat_certificate(cert)
            passed = {c.name for c in report.checklist if c.passed}
            if "alpha-surjective" in passed:
                assert_implied_checks(cert, report)
                reached += "kernel-lattice" in passed
        assert reached


class TestPlatycosms:
    @pytest.mark.parametrize("name", sorted(PLATYCOSMS))
    def test_both_torsion_checks_accept(self, name):
        group, module, cocycle = bieberbach(PLATYCOSMS[name])
        assert group.order() == HOLONOMY_ORDERS[name]
        assert torsion_free_check(group, module, cocycle) == (True, None)
        assert torsion_free_check_by_restriction(group, module, cocycle) == (True, None)

    @pytest.mark.parametrize("name", sorted(PLATYCOSMS))
    def test_zeroed_translation_has_torsion(self, name):
        group, module, cocycle = bieberbach(PLATYCOSMS[name], zero_first=True)
        ok, (x, phi) = torsion_free_check(group, module, cocycle)
        assert not ok
        element = CrystalElement(x, phi, (module, cocycle))
        assert crystal_is_identity(crystal_power(element, group.element_order(phi)))
        assert torsion_free_check_by_restriction(group, module, cocycle) == (False, phi)

    @pytest.mark.parametrize("name", sorted(PLATYCOSMS))
    def test_flat_certificate_accepted(self, name):
        cert = bieberbach_certificate(PLATYCOSMS[name])
        report = verify_flat_certificate(cert)
        assert [(c.name, c.passed) for c in report.checklist] == \
            [(check, True) for check in FLAT_CHECKS]
        assert report.witnesses == {"kernel_index": 1}
        again = verify_flat_certificate(certificate_from_dict(cert.to_dict()))
        assert again.to_dict() == report.to_dict()

    @pytest.mark.parametrize("name", sorted(PLATYCOSMS))
    def test_zeroed_flat_certificate_rejected_at_torsion_free(self, name):
        cert = bieberbach_certificate(PLATYCOSMS[name], zero_first=True)
        report = verify_flat_certificate(cert)
        assert [c.name for c in report.checklist] == FLAT_CHECKS
        assert report.failed_check() == "torsion-free"
        found = report.witnesses["torsion_element"]
        assert_torsion_element(cert, found["translation"], found["rotation"])

    def test_shipped_hantzsche_wendt_is_hantzsche_wendt_certificate(self):
        text = (resources.files("flatact") / "data" / "hantzsche_wendt.flat.json").read_text()
        assert text == json.dumps(hantzsche_wendt_certificate().to_dict(), indent=2) + "\n"
        cert = certificate_from_dict(json.loads(text))
        assert cert == hantzsche_wendt_certificate()
        assert verify_flat_certificate(cert).verdict


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
