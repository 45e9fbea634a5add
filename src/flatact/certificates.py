"""Action certificates and their verification.

Two certificate kinds are handled.  A torus certificate packages a
finite group G, a normal abelian subgroup A with quotient Q, an integral
representation of Q and an equivariant surjection alpha: Z^n -> A; it is
accepted when the extension class of G lies in the image of
H^2(Q; Z^n) -> H^2(Q; A).  A flat certificate additionally carries a
holonomy group Phi normal in a matrix group Phi*, a 2-cocycle for the
crystallographic extension of Phi* and a coboundary witness tying it to
G's extension class; acceptance further requires the subextension over
Phi with lattice ker(alpha) to be torsion-free.

Verification produces an ordered checklist so a rejection pinpoints the
failing condition; structural problems raise CertificateError instead
(malformed input, not a mathematical verdict).
"""

from dataclasses import dataclass, field
from itertools import chain
from math import prod

from .groups import (
    DEFAULT_SUBGROUP_ORDER_BOUND,
    GroupError,
    PermGroup,
    Permutation,
    TableGroup,
    find_isomorphism,
    group_from_text,
    group_to_text,
    is_normal,
    iter_isomorphisms,
    largest_abelian_normal_subgroup,
    prime_order_class_reps,
    quotient_group,
    subgroup_closure,
)
from .zlinalg import (
    AbHom,
    FinAbGroup,
    IntMatrix,
    ZLinAlgError,
    solve_modulo,
)
from .cohomology import (
    Cocycle2,
    CohomologyError,
    ZQModule,
    extension_class,
    h2,
    induced_h2,
    is_equivariant,
    is_in_image,
    _power_terms,
)


class CertificateError(Exception):
    """Structural problem with a certificate (malformed, not rejected)."""


# ---------------------------------------------------------------------------
# crystallographic element arithmetic

@dataclass(frozen=True)
class CrystalElement:
    """Element (v, phi) of the crystallographic extension determined by a
    lattice module and a 2-cocycle: v is the translation part, phi the
    rotation part."""

    v: tuple
    phi: object
    ambient: tuple  # (ZQModule, Cocycle2)

    def __post_init__(self):
        module, _ = self.ambient
        if len(self.v) != module.rank:
            raise CertificateError("translation part has wrong length")


def crystal_multiply(a, b):
    if a.ambient is not b.ambient and a.ambient != b.ambient:
        raise CertificateError("ambient mismatch in crystal multiplication")
    module, cocycle = a.ambient
    grp = module.group
    v = tuple(
        x + y + z
        for x, y, z in zip(
            a.v, module.act_matrix(a.phi).apply(b.v), cocycle.value(a.phi, b.phi)
        )
    )
    return CrystalElement(v, grp.multiply(a.phi, b.phi), a.ambient)


def crystal_identity(ambient):
    module, _ = ambient
    return CrystalElement(module.zero(), module.group.identity(), ambient)


def crystal_power(a, k):
    out = crystal_identity(a.ambient)
    for _ in range(k):
        out = crystal_multiply(out, a)
    return out


def crystal_is_identity(a):
    module, _ = a.ambient
    return a.phi == module.group.identity() and not any(a.v)


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    """An ordered checklist, built by `record`, and its witnesses; the
    certificate is accepted when every recorded check passed."""

    checklist: list = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)

    @property
    def verdict(self):
        return all(c.passed for c in self.checklist)

    def record(self, name, passed, detail=""):
        """Append a check and return whether it passed."""
        self.checklist.append(CheckResult(name, bool(passed), detail))
        return bool(passed)

    def failed_check(self):
        for c in self.checklist:
            if not c.passed:
                return c.name
        return None

    def to_dict(self):
        return {
            "verdict": "accepted" if self.verdict else "rejected",
            "checklist": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checklist
            ],
            "witnesses": {k: _jsonable(v) for k, v in self.witnesses.items()},
        }


def _jsonable(v):
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    if isinstance(v, list):
        return [_jsonable(x) for x in v]
    if isinstance(v, Permutation):
        return list(v.images)
    if isinstance(v, IntMatrix):
        return [list(r) for r in v.data]
    return v


# ---------------------------------------------------------------------------
# certificates

def _check_matrix(obj, rows, cols, what):
    if not isinstance(obj, IntMatrix):
        raise CertificateError("%s must be an integer matrix" % what)
    if obj.rows != rows or obj.cols != cols:
        raise CertificateError(
            "%s must be %dx%d, got %dx%d" % (what, rows, cols, obj.rows, obj.cols)
        )


class TorusCertificate:
    """Data of the torus action criterion for G acting on T^n.

    a_generators must present A as a direct sum: A is the inner direct
    product of the cyclic groups they generate, with orders forming a
    divisibility chain; coordinates of A refer to this basis.
    """

    kind = "torus"

    def __init__(self, group, a_generators, n, rho, alpha, q=None):
        self.group = group
        self.a_generators = list(a_generators)
        self.n = int(n)
        self.rho = list(rho)
        self.alpha = alpha
        self.q = q
        if self.n < 0:
            raise CertificateError("dimension must be non-negative")
        for m in self.rho:
            _check_matrix(m, self.n, self.n, "rho matrix")
            if not m.is_unimodular():
                raise CertificateError("rho matrix is not unimodular")
        if not self.a_generators:
            # trivial A: normalize alpha to the empty map out of Z^n
            if alpha.rows != 0:
                raise CertificateError("alpha must have no rows for trivial A")
            self.alpha = IntMatrix.zero(0, self.n)
        else:
            _check_matrix(alpha, len(self.a_generators), self.n, "alpha")

    def to_dict(self):
        d = {
            "kind": self.kind,
            "n": self.n,
            "group": group_to_text(self.group),
            "A_generators": [_encode_element(x) for x in self.a_generators],
            "rho": [_jsonable(m) for m in self.rho],
            "alpha": _jsonable(self.alpha),
        }
        if self.q is not None:
            d["Q"] = group_to_text(self.q)
        return d

    def __eq__(self, other):
        return isinstance(other, TorusCertificate) and self.to_dict() == other.to_dict()


class FlatCertificate(TorusCertificate):
    """Data of the flat-manifold action criterion.

    On top of the torus fields (which describe the finite side G, A, Q
    and alpha), carries the holonomy group phi inside phi_star, the
    integral representation rho of phi_star, the 2-cocycle of the
    crystallographic extension of phi_star, and the coboundary witness
    relating its alpha-pushforward to the extension class of G.
    """

    kind = "flat"

    def __init__(self, group, a_generators, n, rho, alpha,
                 phi, phi_star, cocycle, coboundary_witness, q=None):
        self.phi_star = phi_star
        self.phi = list(phi)
        self.cocycle = dict(cocycle)              # (g, h) -> vector in Z^n
        self.coboundary_witness = dict(coboundary_witness)  # g -> A coords
        super().__init__(group, a_generators, n, rho, alpha, q=q)
        for x in self.phi:
            if not phi_star.contains(x):
                raise CertificateError("phi element outside phi_star")
        k = len(self.a_generators)
        for (g, h), v in self.cocycle.items():
            if len(v) != self.n:
                raise CertificateError("cocycle value has wrong length")
            if not (phi_star.contains(g) and phi_star.contains(h)):
                raise CertificateError("cocycle indexed by foreign elements")
        for g, v in self.coboundary_witness.items():
            if len(v) != k:
                raise CertificateError("witness value has wrong length")
            if not phi_star.contains(g):
                raise CertificateError("witness indexed by foreign element")

    def to_dict(self):
        d = super().to_dict()
        d["phi"] = [_encode_element(x) for x in self.phi]
        d["phi_star"] = group_to_text(self.phi_star)
        els = self.phi_star.elements()
        order = {x: i for i, x in enumerate(els)}
        d["cocycle"] = [
            [_encode_element(g), _encode_element(h), list(v)]
            for (g, h), v in sorted(
                self.cocycle.items(), key=lambda kv: (order[kv[0][0]], order[kv[0][1]])
            )
        ]
        d["coboundary_witness"] = [
            [_encode_element(g), list(v)]
            for g, v in sorted(self.coboundary_witness.items(), key=lambda kv: order[kv[0]])
        ]
        return d


def _encode_element(x):
    return list(x.images) if isinstance(x, Permutation) else int(x)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _decode_ints(obj, what):
    """A JSON list of integers as a tuple.  Anything else, a float, a bool
    or a numeric string among the entries included, is malformed."""
    if not isinstance(obj, list) or not all(_is_int(x) for x in obj):
        raise CertificateError("%s: expected a list of integers" % what)
    return tuple(obj)


def _decode_element(group, obj, what):
    if isinstance(group, PermGroup):
        images = _decode_ints(obj, what)
        try:
            return Permutation(images)
        except (GroupError, ValueError, TypeError):
            raise CertificateError("%s: not a valid permutation" % what)
    if not _is_int(obj):
        raise CertificateError("%s: expected an element index" % what)
    return obj


def _decode_matrix(obj, what):
    if not isinstance(obj, list):
        raise CertificateError("%s: expected a list of rows" % what)
    rows = [_decode_ints(r, "%s[%d]" % (what, i)) for i, r in enumerate(obj)]
    try:
        return IntMatrix.from_rows(rows)
    except ZLinAlgError:
        raise CertificateError("%s: not a valid integer matrix" % what)


_TORUS_FIELDS = {"kind", "n", "group", "A_generators", "Q", "rho", "alpha"}
_FLAT_FIELDS = _TORUS_FIELDS | {
    "phi", "phi_star", "cocycle", "coboundary_witness"
}


def certificate_from_dict(d):
    """Parse a certificate from its JSON dictionary; unknown fields and
    structural problems raise CertificateError."""
    if not isinstance(d, dict):
        raise CertificateError("certificate must be a JSON object")
    kind = d.get("kind")
    if kind not in ("torus", "flat"):
        raise CertificateError("kind must be 'torus' or 'flat'")
    allowed = _TORUS_FIELDS if kind == "torus" else _FLAT_FIELDS
    unknown = set(d) - allowed
    if unknown:
        raise CertificateError("unknown fields: %s" % ", ".join(sorted(unknown)))
    required = (allowed - {"Q"})
    missing = required - set(d)
    if missing:
        raise CertificateError("missing fields: %s" % ", ".join(sorted(missing)))

    try:
        group = group_from_text(d["group"])
    except (GroupError, ValueError, TypeError, IndexError) as exc:
        raise CertificateError("group: %s" % exc)
    if not _is_int(d["n"]):
        raise CertificateError("n must be an integer")
    n = d["n"]
    q = None
    if "Q" in d:
        try:
            q = group_from_text(d["Q"])
        except (GroupError, ValueError, TypeError, IndexError) as exc:
            raise CertificateError("Q: %s" % exc)
    if not isinstance(d["A_generators"], list):
        raise CertificateError("A_generators must be a list")
    a_gens = [
        _decode_element(group, o, "A_generators[%d]" % i)
        for i, o in enumerate(d["A_generators"])
    ]
    for i, x in enumerate(a_gens):
        if not group.contains(x):
            raise CertificateError("A_generators[%d] is not in the group" % i)
    if not isinstance(d["rho"], list):
        raise CertificateError("rho must be a list of matrices")
    rho = [_decode_matrix(m, "rho[%d]" % i) for i, m in enumerate(d["rho"])]
    alpha = _decode_matrix(d["alpha"], "alpha")

    if kind == "torus":
        return TorusCertificate(group, a_gens, n, rho, alpha, q=q)

    try:
        phi_star = group_from_text(d["phi_star"])
    except (GroupError, ValueError, TypeError, IndexError) as exc:
        raise CertificateError("phi_star: %s" % exc)
    if not isinstance(d["phi"], list):
        raise CertificateError("phi must be a list of elements")
    phi = [
        _decode_element(phi_star, o, "phi[%d]" % i) for i, o in enumerate(d["phi"])
    ]
    if not isinstance(d["cocycle"], list):
        raise CertificateError("cocycle must be a list of entries")
    cocycle = {}
    for i, entry in enumerate(d["cocycle"]):
        if not isinstance(entry, list) or len(entry) != 3:
            raise CertificateError("cocycle[%d]: expected [g, h, value]" % i)
        g = _decode_element(phi_star, entry[0], "cocycle[%d].g" % i)
        h = _decode_element(phi_star, entry[1], "cocycle[%d].h" % i)
        cocycle[(g, h)] = _decode_ints(entry[2], "cocycle[%d].value" % i)
    if not isinstance(d["coboundary_witness"], list):
        raise CertificateError("coboundary_witness must be a list of entries")
    witness = {}
    for i, entry in enumerate(d["coboundary_witness"]):
        if not isinstance(entry, list) or len(entry) != 2:
            raise CertificateError(
                "coboundary_witness[%d]: expected [g, value]" % i
            )
        g = _decode_element(phi_star, entry[0], "coboundary_witness[%d].g" % i)
        witness[g] = _decode_ints(entry[1], "coboundary_witness[%d].value" % i)
    return FlatCertificate(group, a_gens, n, rho, alpha, phi, phi_star,
                           cocycle, witness, q=q)


# ---------------------------------------------------------------------------
# the A-presentation behind a certificate

def abelian_identification(group, a_generators):
    """(elements of A, FinAbGroup, element -> coordinates dict) for a
    subgroup presented as an inner direct sum by a_generators.

    Raises CertificateError when the generators do not exhibit a direct
    sum with invariant-factor orders."""
    a_els = subgroup_closure(group, a_generators)
    orders = [group.element_order(x) for x in a_generators]
    for o in orders:
        if o < 2:
            raise CertificateError("identity listed among A generators")
    for a, b in zip(orders, orders[1:]):
        if b % a != 0:
            raise CertificateError(
                "A generator orders must form a divisibility chain"
            )
    if prod(orders) != len(a_els):
        raise CertificateError(
            "A generators do not present the subgroup as a direct sum"
        )
    a_group = FinAbGroup(tuple(orders))
    ident = {}
    for coords in a_group.elements():
        x = group.identity()
        for c, gen in zip(coords, a_generators):
            p = group.identity()
            for _ in range(c):
                p = group.multiply(p, gen)
            x = group.multiply(x, p)
        if x in ident:
            raise CertificateError(
                "A generators do not present the subgroup as a direct sum"
            )
        ident[x] = coords
    return a_els, a_group, ident


# ---------------------------------------------------------------------------
# verification

def _check_rho(report, cert, group, what):
    """The lattice module of rho over `group` (whose generators are the
    `what` generators), or None after recording why it is not a faithful
    representation."""
    if len(cert.rho) != len(group.generators()):
        raise CertificateError(
            "rho needs %d matrices (one per %s generator), got %d"
            % (len(group.generators()), what, len(cert.rho))
        )
    try:
        lat_mod = ZQModule.lattice(group, cert.rho, rank=cert.n)
    except CohomologyError as exc:
        report.record("rho-representation", False, str(exc))
        return None
    report.record("rho-representation", True)
    faithful = lat_mod.is_faithful()
    if not report.record("rho-faithful", faithful,
                         "" if faithful else "kernel is nontrivial"):
        return None
    return lat_mod


def _check_alpha_surjective(report, cert, a_group):
    """alpha as a homomorphism Z^n -> A, or None after recording that it
    is not onto."""
    try:
        alpha_hom = AbHom(cert.n, a_group, cert.alpha)
    except ZLinAlgError as exc:
        raise CertificateError("alpha: %s" % exc)
    if not report.record("alpha-surjective", alpha_hom.is_surjective(),
                         "image must be all of A"):
        return None
    return alpha_hom


def verify_torus_certificate(cert):
    """Ordered checklist verification of a torus certificate."""
    report = VerificationReport()
    a_els, a_group, ident = abelian_identification(cert.group, cert.a_generators)

    # 1. exactness of 1 -> A -> G -> Q -> 1
    try:
        ext = extension_class(cert.group, a_els, ident, a_group)
    except CohomologyError as exc:
        report.record("extension-exact", False, str(exc))
        return report
    detail = "A of order %d, Q of order %d" % (a_group.order, ext.quotient.order())
    if cert.q is not None and find_isomorphism(ext.quotient, cert.q) is None:
        report.record("extension-exact", False,
                      "computed quotient is not isomorphic to the supplied Q")
        return report
    report.record("extension-exact", True, detail)

    # 2. rho is a faithful integral representation of Q
    lat_mod = _check_rho(report, cert, ext.quotient, "quotient")
    if lat_mod is None:
        return report

    # 3. alpha surjective
    alpha_hom = _check_alpha_surjective(report, cert, a_group)
    if alpha_hom is None:
        return report

    # 4. alpha equivariant for the conjugation action of Q on A; both
    #    sides are homomorphisms of Q, so the generators decide it
    pairs = [(qe, qe) for qe in ext.quotient.generators()]
    if not report.record(
        "alpha-equivariant",
        is_equivariant(cert.alpha, lat_mod, ext.module, pairs),
        "alpha(g.x) must equal g.alpha(x)",
    ):
        return report

    # 5. the extension class lies in the image of H^2(Q;Z^n) -> H^2(Q;A)
    h_lat = h2(lat_mod)
    h_fin = h2(ext.module)
    induced = induced_h2(alpha_hom, h_lat, h_fin)
    target = h_fin.class_of(ext.cocycle)
    pre = is_in_image(target, induced)
    report.witnesses["extension_class"] = target
    report.witnesses["h2_lattice"] = h_lat.group.invariant_factors
    report.witnesses["h2_finite"] = h_fin.group.invariant_factors
    if pre is None:
        report.record("class-in-image", False,
                      "extension class %s has no lattice preimage" % (target,))
        return report
    report.witnesses["h2_preimage"] = pre
    report.record("class-in-image", True, "preimage class %s" % (pre,))
    return report


def verify_flat_certificate(cert):
    """Ordered checklist verification of a flat-manifold certificate.

    Only `alpha-equivariant` and `coboundary-witness` read the
    identification of phi_star/phi with G/A.  Each of them takes the first
    isomorphism that passes it and every check before it, so the report is
    that of the first isomorphism under which the certificate gets
    furthest."""
    report = VerificationReport()
    a_els, a_group, ident = abelian_identification(cert.group, cert.a_generators)

    # 1. phi normal in phi_star (FlatCertificate checked that it lies there)
    phi_els = subgroup_closure(cert.phi_star, cert.phi)
    normal = is_normal(cert.phi_star, cert.phi)
    if not report.record("phi-normal", normal, "phi must be normal in phi_star"):
        return report

    # 2. rho faithful on phi_star
    star_mod = _check_rho(report, cert, cert.phi_star, "phi_star")
    if star_mod is None:
        return report

    # 3. Q = phi_star/phi matches G/A
    q_star, star_proj, _ = quotient_group(cert.phi_star, phi_els)
    try:
        ext = extension_class(cert.group, a_els, ident, a_group)
    except CohomologyError as exc:
        report.record("quotient-match", False, str(exc))
        return report
    if cert.q is not None and find_isomorphism(q_star, cert.q) is None:
        report.record("quotient-match", False,
                      "phi_star/phi is not isomorphic to the supplied Q")
        return report
    isos = iter_isomorphisms(q_star, ext.quotient)
    iso = next(isos, None)
    if iso is None:
        report.record("quotient-match", False,
                      "phi_star/phi (order %d) is not isomorphic to G/A (order %d)"
                      % (q_star.order(), ext.quotient.order()))
        return report
    report.record("quotient-match", True,
                  "quotients of order %d identified" % q_star.order())

    # 4. alpha surjective and (phi_star, Q)-equivariant, where phi_star
    #    maps onto G/A by bar(g) = iso(star_proj(g)); both sides are
    #    homomorphisms of phi_star, so its generators decide it
    alpha_hom = _check_alpha_surjective(report, cert, a_group)
    if alpha_hom is None:
        return report
    star_gens = cert.phi_star.generators()
    equivariant = (
        f for f in chain([iso], isos)
        if is_equivariant(cert.alpha, star_mod, ext.module,
                          [(g, f(star_proj(g))) for g in star_gens]))
    iso = next(equivariant, None)
    if not report.record("alpha-equivariant", iso is not None,
                         "alpha(g.x) must equal bar(g).alpha(x)"):
        return report

    # 5. the supplied c* is a cocycle and the witness b satisfies
    #    alpha_*(c*) - bar^*(c_G) = d^1 b over phi_star acting on A through bar
    cstar = Cocycle2(star_mod, cert.cocycle)
    if not report.record("cocycle-valid", cstar.is_cocycle(),
                         "c* fails the cocycle identity"):
        return report
    star_els = cert.phi_star.elements()

    def witness_ok(f):
        bar = {g: f(star_proj(g)) for g in star_els}
        module = ZQModule.finite(
            cert.phi_star, a_group,
            [ext.module.act_matrix(bar[g]) for g in star_gens])
        difference = Cocycle2(module, {
            (g, h): a_group.sub(alpha_hom.apply(cstar.value(g, h)),
                                ext.cocycle.value(bar[g], bar[h]))
            for g in star_els for h in star_els})
        defect = difference.sub(Cocycle2.coboundary(module, cert.coboundary_witness))
        return not any(map(any, defect.values.values()))

    if not report.record("coboundary-witness",
                         any(witness_ok(f) for f in chain([iso], equivariant)),
                         "alpha-pushforward of c* must differ from the extension "
                         "class of G by the coboundary of b"):
        return report

    # 6. N = ker alpha is a full sublattice of index |A|: alpha maps Z^n
    #    onto A, so Z^n/N is A
    report.record("kernel-lattice", True,
                  "ker alpha must have full rank and index |A| (got index %s)"
                  % (a_group.order,))
    report.witnesses["kernel_index"] = a_group.order

    # 7. phi acts effectively on N: rho is faithful on phi_star, which
    #    contains phi, and N has finite index in Z^n
    report.record("phi-effective", True, "holonomy must act faithfully on ker alpha")

    # 8. the subextension over phi with lattice N is torsion-free.  Shifting
    #    by a section s with alpha(s(x)) = -b(x) identifies it with the
    #    elements (v, x) of the extension along c* with alpha(v) = -b(x), so
    #    an element of prime order p over x is an integer v with
    #    N_x v = -w_x and alpha(v) = -b(x) modulo A: (v, x)^p = 1.
    h_phi = TableGroup.from_function(phi_els, cert.phi_star.multiply,
                                     cert.phi_star.identity())
    moduli = (0,) * cert.n + a_group.invariant_factors
    for x, p in prime_order_class_reps(h_phi):
        phi_el = phi_els[x]
        norm, w = _power_terms(star_mod, cstar, phi_el, p)
        b = cert.coboundary_witness.get(phi_el, a_group.zero())
        v = solve_modulo(IntMatrix.from_rows(norm.data + cert.alpha.data, cert.n),
                         moduli, tuple(-t for t in w + b))
        if v is not None:
            report.witnesses["torsion_element"] = {
                "translation": v, "rotation": _encode_element(phi_el)}
            report.record("torsion-free", False, "kernel of the induced map has torsion")
            return report
    report.record("torsion-free", True)
    return report


# ---------------------------------------------------------------------------
# Jordan witness

@dataclass(frozen=True)
class JordanQuery:
    n: int  # the dimension of the manifold; `jordan_witness` does not read it
    bound: int
    group: object

    def __post_init__(self):
        if self.bound < 1:
            raise CertificateError("bound must be at least 1")


def jordan_witness(query, order_bound=DEFAULT_SUBGROUP_ORDER_BOUND):
    """The abelian normal subgroup of minimal index, or None when that
    index exceeds the query bound.  Returns (subgroup elements, index)."""
    best = largest_abelian_normal_subgroup(query.group, order_bound=order_bound)
    index = query.group.order() // len(best)
    if index > query.bound:
        return None
    return best, index


# ---------------------------------------------------------------------------
# the worked 2-torus example

def build_a4_certificate():
    """Torus certificate for the alternating group on four letters acting
    on T^2: A = the Klein four-group of double transpositions, Q cyclic
    of order 3 acting through a matrix of order 3, alpha = reduction
    modulo 2."""
    g = PermGroup.alternating(4)
    gen1 = Permutation.from_cycles(4, [(0, 1), (2, 3)])
    gen2 = Permutation.from_cycles(4, [(0, 2), (1, 3)])
    a_gens = [gen1, gen2]
    a_els, a_group, ident = abelian_identification(g, a_gens)
    ext = extension_class(g, a_els, ident, a_group)
    (qg,) = ext.quotient.generators()
    action = ext.module.act_matrix(qg)
    rho_order3 = IntMatrix.from_rows([[0, -1], [1, -1]])
    if action.data == ((0, 1), (1, 1)):
        rho = [rho_order3]
    else:
        # the quotient generator acts by the square; use rho^2 = rho^{-1}
        rho = [rho_order3 * rho_order3]
    alpha = IntMatrix.identity(2)
    return TorusCertificate(g, a_gens, 2, rho, alpha)
