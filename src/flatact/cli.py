"""Command-line interface: integer normal forms, cohomology, certificate
verification, Jordan witnesses, and the screening chain.

Exit codes: 0 = accepted / success, 1 = certificate rejected or a
definitive negative search verdict, 2 = malformed input, 3 = a resource
bound (cosets, nodes, group order, coefficient rank) was exceeded: any
flatact.BoundExceeded.
"""

import argparse
import json
import sys

from flatact.zlinalg import (IntMatrix, ZLinAlgError, smith_normal_form)
from flatact import BoundExceeded
from flatact.groups import GroupError, PermGroup, group_from_text
from flatact import cohomology
from flatact.cohomology import CohomologyError, ZQModule
from flatact.certificates import (CertificateError, FlatCertificate,
                                  JordanQuery, TorusCertificate,
                                  certificate_from_dict, jordan_witness,
                                  verify_flat_certificate,
                                  verify_torus_certificate)
from flatact.fpgroups import (DEFAULT_COSET_LIMIT, FpGroup, PresentationError,
                              low_index_subgroups, todd_coxeter)
from flatact import screening
from flatact.screening import (CatalogError, ImfCatalog, a9_chain,
                               epimorphism_search, screen_dimensions)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_MALFORMED = 2
EXIT_BOUND = 3

_MALFORMED = (ZLinAlgError, GroupError, CohomologyError, CertificateError,
              PresentationError, CatalogError, ValueError,
              json.JSONDecodeError, OSError)
_BOUND = BoundExceeded


class _Malformed(Exception):
    pass


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise _Malformed("%s: %s" % (path, exc))


def _emit(args, text_lines, payload):
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for ln in text_lines:
            print(ln)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_snf(args):
    m = IntMatrix.from_text(_read(args.matrix))
    snf = smith_normal_form(m)
    d, u, v = snf.d, snf.u, snf.v
    diag = list(snf.diagonal)
    lines = ["diagonal: " + " ".join(str(x) for x in diag)]
    if args.transforms:
        lines += ["d:", d.to_text().rstrip(), "u:", u.to_text().rstrip(),
                  "v:", v.to_text().rstrip()]
    payload = {"diagonal": diag}
    if args.transforms:
        payload.update({"d": [list(r) for r in d.data],
                        "u": [list(r) for r in u.data],
                        "v": [list(r) for r in v.data]})
    _emit(args, lines, payload)
    return EXIT_OK


def _parse_module(text, group, path):
    tokens = text.split()
    if not tokens:
        raise _Malformed("%s: empty module file" % path)
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(tokens):
            raise _Malformed("%s: truncated module file" % path)
        out = tokens[pos:pos + n]
        pos += n
        return out

    kind = take(1)[0]
    if kind == "lattice":
        rank = int(take(1)[0])
        coeff = None
    elif kind == "finite":
        # the invariant factors occupy the rest of the first line; the
        # matrix blocks start on the next line
        first_line = text.splitlines()[0].split()
        factors = [int(t) for t in first_line[1:]]
        pos = len(first_line)
        from flatact.zlinalg import FinAbGroup
        coeff = FinAbGroup.of(*factors)
        rank = len(factors)
    else:
        raise _Malformed("%s: module file must start with 'lattice' or 'finite'"
                         % path)
    gens = group.generators()
    mats = []
    for _ in gens:
        rows, cols = (int(t) for t in take(2))
        body = take(rows * cols)
        mats.append(IntMatrix.from_rows(
            [[int(body[r * cols + c]) for c in range(cols)]
             for r in range(rows)]))
    if pos != len(tokens):
        raise _Malformed("%s: trailing data in module file" % path)
    if kind == "lattice":
        return ZQModule.lattice(group, mats, rank=rank)
    return ZQModule.finite(group, coeff, mats)


def _cmd_h2(args):
    group = group_from_text(_read(args.group))
    module = _parse_module(_read(args.module), group, args.module)
    fn = cohomology.h2 if args.degree == 2 else cohomology.h1
    coh = fn(module, group_bound=args.group_order_limit,
             rank_bound=args.rank_limit)
    factors = list(coh.group.invariant_factors)
    lines = ["H^%d invariant factors: %s"
             % (args.degree, " ".join(str(f) for f in factors) or "(trivial)")]
    payload = {"degree": args.degree, "invariant_factors": factors}
    if args.class_of:
        if args.degree != 2:
            raise _Malformed("--class-of requires degree 2")
        coc = cohomology.cocycle_from_text(_read(args.class_of), module)
        coords = coh.class_of(coc)
        lines.append("class coordinates: %s"
                     % (" ".join(str(c) for c in coords) or "()"))
        lines.append("zero class: %s" % ("yes" if not any(coords) else "no"))
        payload["class_coordinates"] = list(coords)
        payload["zero_class"] = not any(coords)
    _emit(args, lines, payload)
    return EXIT_OK


def _load_certificate(path):
    try:
        data = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise _Malformed("%s: invalid JSON (%s)" % (path, exc))
    try:
        return certificate_from_dict(data)
    except CertificateError as exc:
        raise _Malformed("%s: %s" % (path, exc))


def _report_lines(report):
    lines = []
    for c in report.checklist:
        mark = "PASS" if c.passed else "FAIL"
        detail = (" (%s)" % c.detail) if c.detail and not c.passed else ""
        lines.append("%s %s%s" % (mark, c.name, detail))
    lines.append("verdict: %s" % ("accepted" if report.verdict else "rejected"))
    return lines


def _cmd_verify(args, kind):
    cert = _load_certificate(args.certificate)
    if kind == "torus":
        if not isinstance(cert, TorusCertificate) or isinstance(cert, FlatCertificate):
            raise _Malformed("%s: not a torus certificate" % args.certificate)
        report = verify_torus_certificate(cert)
    else:
        if not isinstance(cert, FlatCertificate):
            raise _Malformed("%s: not a flat certificate" % args.certificate)
        report = verify_flat_certificate(cert)
    _emit(args, _report_lines(report), report.to_dict())
    return EXIT_OK if report.verdict else EXIT_NEGATIVE


def _cmd_jordan(args):
    group = group_from_text(_read(args.group))
    query = JordanQuery(args.n, args.bound, group)
    result = jordan_witness(query, order_bound=args.group_order_limit)
    if result is None:
        _emit(args, ["no abelian normal subgroup of index <= %d" % args.bound],
              {"witness": None, "bound": args.bound})
        return EXIT_NEGATIVE
    elements, index = result
    lines = ["witness: abelian normal subgroup of order %d, index %d"
             % (len(elements), index)]
    _emit(args, lines,
          {"witness": {"order": len(elements), "index": index},
           "bound": args.bound})
    return EXIT_OK


def _parse_range(text):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise _Malformed("range must look like 3..24")
    if lo > hi:
        raise _Malformed("empty range %s" % text)
    return range(lo, hi + 1)


def _gap_style(values):
    return "[ " + ", ".join(str(v) for v in values) + " ]"


def _cmd_screen(args):
    catalog = ImfCatalog.load(path=args.catalog)
    dims = _parse_range(args.range)
    hits = screen_dimensions(catalog, dims=dims)
    lines = []
    payload = {"hits": [], "residues": {}}
    for h in hits:
        lines.append("hit: k=%d partition=%s orders=%s target=%d"
                     % (h.dimension, list(h.partition), list(h.orders),
                        h.target_order))
        payload["hits"].append({
            "dimension": h.dimension, "partition": list(h.partition),
            "orders": list(h.orders), "target_order": h.target_order})
    for k, modulus in ((7, screening.E7_WEYL_ORDER),
                       (8, screening.E8_WEYL_ORDER)):
        if k in dims:
            res = [o % modulus for o in catalog.orders(k)]
            lines.append("k=%d residues mod %d: %s" % (k, modulus, _gap_style(res)))
            payload["residues"][str(k)] = res
    if not hits:
        lines.append("no hits")
    _emit(args, lines, payload)
    return EXIT_OK if hits else EXIT_NEGATIVE


def _cmd_low_index(args):
    g = FpGroup.from_text(_read(args.presentation))
    classes = low_index_subgroups(g, args.max_index, node_limit=args.node_limit)
    lines = ["classes: %d" % len(classes)]
    payload = {"classes": []}
    for ct, gens in classes:
        words = [list(w) for w in gens]
        lines.append("index %d, generators: %s" % (ct.index, words))
        payload["classes"].append({
            "index": ct.index,
            "table": ct.table.tolist(),
            "generators": words,
        })
    _emit(args, lines, payload)
    return EXIT_OK


def _load_epi_source(path):
    text = _read(path)
    head = text.split(None, 1)
    if head and head[0] == "gens":
        return FpGroup.from_text(text)
    group = group_from_text(text)
    if not isinstance(group, PermGroup):
        raise _Malformed("%s: concrete epimorphism source must be a "
                         "permutation group" % path)
    return group


def _cmd_epi_search(args):
    source = _load_epi_source(args.source)
    target = group_from_text(_read(args.target))
    if not isinstance(target, PermGroup):
        raise _Malformed("%s: target must be a permutation group" % args.target)
    result = epimorphism_search(source, target, node_limit=args.node_limit,
                                seed=args.seed)
    lines = ["epimorphisms found: %d (nodes explored: %d)"
             % (len(result.epimorphisms), result.nodes)]
    images = []
    for tup in result.epimorphisms:
        images.append([list(t.images) for t in tup])
        lines.append("images: %s" % images[-1])
    _emit(args, lines, {"epimorphisms": images, "nodes": result.nodes})
    return EXIT_OK if result.found else EXIT_NEGATIVE


def _cmd_a9_chain(args):
    catalog = ImfCatalog.load(path=args.catalog)
    report = a9_chain(coset_limit=args.coset_limit, node_limit=args.node_limit,
                      catalog=catalog)
    lines = [
        "screening hits: %d" % len(report["screening_hits"]),
        "k=7 survivor order: %d" % report["k7_survivor_order"],
        "verified group order: %d" % report["e7_weyl_order_verified"],
        "low-index classes (index <= 16): %d" % report["low_index_classes"],
        "classes with index in {1,2,4,8,16}: %d" % report["filtered_classes"],
    ]
    for s in report["epimorphism_searches"]:
        lines.append("index %d (order %d): %d epimorphisms onto A9"
                     % (s["index"], s["subgroup_order"], s["epimorphisms"]))
    lines.append("verdict: %s" % report["verdict"])
    _emit(args, lines, report)
    return EXIT_OK if report["no_a9_action_in_dimension_7"] else EXIT_NEGATIVE


def _cmd_coset(args):
    g = FpGroup.from_text(_read(args.presentation))
    words = []
    for w in args.subgroup or []:
        try:
            words.append(tuple(int(t) for t in w.split(",")))
        except ValueError:
            raise _Malformed("subgroup word %r must be comma-separated integers" % w)
    table = todd_coxeter(g, words, coset_limit=args.coset_limit)
    _emit(args, ["cosets: %d" % table.index],
          {"cosets": table.index, "table": table.table.tolist()})
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="flatact",
        description="Decide and certify finite group actions on tori and "
                    "closed flat manifolds; reproduce the dimension-7 "
                    "alternating-group screening chain.")
    sub = p.add_subparsers(dest="command", required=True)

    def fmt(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    sp.add_argument("matrix")
    sp.add_argument("--transforms", action="store_true")
    fmt(sp)
    sp.set_defaults(fn=_cmd_snf)

    sp = sub.add_parser("h2", help="cohomology of a group module")
    sp.add_argument("group")
    sp.add_argument("module")
    sp.add_argument("--degree", type=int, choices=(1, 2), default=2)
    sp.add_argument("--class-of", metavar="COCYCLE")
    sp.add_argument("--group-order-limit", type=int,
                    default=cohomology.DEFAULT_GROUP_BOUND)
    sp.add_argument("--rank-limit", type=int,
                    default=cohomology.DEFAULT_RANK_BOUND)
    fmt(sp)
    sp.set_defaults(fn=_cmd_h2)

    sp = sub.add_parser("verify-torus", help="verify a torus action certificate")
    sp.add_argument("certificate")
    fmt(sp)
    sp.set_defaults(fn=lambda a: _cmd_verify(a, "torus"))

    sp = sub.add_parser("verify-flat", help="verify a flat-manifold certificate")
    sp.add_argument("certificate")
    fmt(sp)
    sp.set_defaults(fn=lambda a: _cmd_verify(a, "flat"))

    sp = sub.add_parser("jordan", help="abelian normal subgroup witness")
    sp.add_argument("group")
    sp.add_argument("--bound", type=int, required=True)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--group-order-limit", type=int, default=20000)
    fmt(sp)
    sp.set_defaults(fn=_cmd_jordan)

    sp = sub.add_parser("screen", help="partition-wise order screening")
    sp.add_argument("--range", default="3..24")
    sp.add_argument("--catalog")
    fmt(sp)
    sp.set_defaults(fn=_cmd_screen)

    sp = sub.add_parser("low-index", help="low-index subgroup classes")
    sp.add_argument("presentation")
    sp.add_argument("--max-index", type=int, required=True)
    sp.add_argument("--node-limit", type=int, default=10 ** 7)
    fmt(sp)
    sp.set_defaults(fn=_cmd_low_index)

    sp = sub.add_parser("epi-search", help="exhaustive epimorphism search")
    sp.add_argument("source", help="presentation file or permutation group file")
    sp.add_argument("target", help="permutation group file")
    sp.add_argument("--node-limit", type=int, default=10 ** 7)
    sp.add_argument("--seed", type=int, default=0)
    fmt(sp)
    sp.set_defaults(fn=_cmd_epi_search)

    sp = sub.add_parser("a9-chain", help="end-to-end dimension-7 chain")
    sp.add_argument("--coset-limit", type=int, default=DEFAULT_COSET_LIMIT)
    sp.add_argument("--node-limit", type=int, default=10 ** 7)
    sp.add_argument("--catalog")
    fmt(sp)
    sp.set_defaults(fn=_cmd_a9_chain)

    sp = sub.add_parser("coset", help="Todd-Coxeter coset enumeration")
    sp.add_argument("presentation")
    sp.add_argument("--subgroup", action="append", metavar="WORD",
                    help="subgroup generator as comma-separated signed "
                         "integers; repeatable")
    sp.add_argument("--coset-limit", type=int, default=DEFAULT_COSET_LIMIT)
    fmt(sp)
    sp.set_defaults(fn=_cmd_coset)

    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _BOUND as exc:
        print("resource bound exceeded: %s" % exc, file=sys.stderr)
        return EXIT_BOUND
    except _Malformed as exc:
        print("malformed input: %s" % exc, file=sys.stderr)
        return EXIT_MALFORMED
    except _MALFORMED as exc:
        print("malformed input: %s" % exc, file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
