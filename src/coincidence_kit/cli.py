"""Command-line front end.

Reads one JSON problem document, dispatches to the matching engine, and
emits a deterministic report.  Problem kinds:

- ``snf``            {"kind": "snf", "matrix": [[...], ...]}
- ``abelian-pair``   {"kind": "abelian-pair", "maps": [M1, M2]}
- ``abelian-multi``  {"kind": "abelian-multi", "maps": [M1, ..., Mk]}
- ``finite``         named group constructions plus map descriptions
- ``nilpotent``      two pc-presentations plus generator-image vectors

Matrices are arrays of integer arrays; integers may be written as strings
when they exceed what the author's JSON tooling handles.  Finite groups are
built from permutation generators (one-line image form), matrix generators
over a prime field, explicit multiplication tables, cyclic orders, direct
products of previously named groups, or the built-in
``binary-icosahedral`` construction.  Pc-presentations use
``{"generators": [...], "central": [...], "commutators": [[x, y, word], ...]}``
where ``[x, y, word]`` states that the commutator of noncentral generators
``x`` and ``y`` (labels or indices) equals the central word, written either
as ``{"label": exp}`` or as a plain exponent vector.  Each map is an object
keyed by domain generators whose values are codomain words in the same two
forms (unnamed generators map to the identity), or an array of exponent
vectors, one per domain generator.

Exit codes: 0 success; 1 input error; 2 oracle mismatch or internal
consistency failure; 3 unsupported reduction.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import exact_linalg
from .abelian import (
    AbelianSystem,
    divisibility_report,
    ker_psi_order,
    permute_system,
    reid_multi,
    stacked_difference,
)
from .cardinal import INFINITE, Cardinal, cardinal_product
from .errors import (
    CoincidenceError,
    ConsistencyError,
    HomomorphismError,
    ProblemError,
    SizeCapError,
    StructureError,
)
from .exact_linalg import (
    IntMatrix,
    SnfResult,
    certify_smith,
    cokernel_order,
    hermite_basis,
    smith_normal_form,
)
from .finite import (
    DEFAULT_CLOSURE_CAP,
    FiniteGroup,
    FiniteHom,
    binary_icosahedral_group,
    close_group,
    constant_hom,
    cyclic_group,
    direct_product,
    identity_hom,
    projection_hom,
    twisted_reidemeister,
)
from .nilpotent import (
    PcGroup,
    PcHom,
    central_reduction,
    combine_homs,
    delta_image_vectors,
    direct_power_pc,
    reid_nilpotent_multi,
)
from .reporting import STATUS_OK, STATUS_UNSUPPORTED

KINDS = ("snf", "abelian-pair", "abelian-multi", "finite", "nilpotent")
CLOSURE_CAP_ENV = "COINCIDENCE_KIT_MAX_CLOSURE"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MISMATCH = 2
EXIT_UNSUPPORTED = 3


# -- input parsing -----------------------------------------------------------------


def _to_int(value, where: str) -> int:
    """Integers proper, or strings of digits for values too big for the
    author's JSON tooling."""
    if isinstance(value, bool):
        raise ProblemError(f"{where}: expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        text = value.strip()
        body = text[1:] if text[:1] in "+-" else text
        if body.isdecimal():  # what int() parses; isdigit() also takes "²"
            return int(text)
    raise ProblemError(f"{where}: expected an integer, got {value!r}")


def _array(value, where: str, what: str) -> list:
    if not isinstance(value, list):
        raise ProblemError(f"{where}: expected an array of {what}")
    return value


def _to_vector(value, where: str) -> list[int]:
    items = _array(value, where, "integers")
    # an int entry is taken as it is; only another entry needs its location
    return [
        x if type(x) is int else _to_int(x, f"{where}[{i}]")
        for i, x in enumerate(items)
    ]


def _to_matrix(value, where: str) -> IntMatrix:
    """The rows of value as an IntMatrix.  Every entry and width is checked
    here, where a bad one's JSON location is known, so the matrix is built
    unchecked."""
    items = _array(value, where, "rows")
    rows = [_to_vector(row, f"{where} row {i}") for i, row in enumerate(items)]
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        want = len(rows[0])
        bad = next(i for i, r in enumerate(rows) if len(r) != want)
        raise ProblemError(
            f"{where} row {bad} has {len(rows[bad])} entries, expected {want}"
        )
    return IntMatrix._built(rows, len(rows[0]) if rows else 0)


def _require(doc: dict, field: str, where: str = "problem"):
    if field not in doc:
        raise ProblemError(f"{where}: missing required field {field!r}")
    return doc[field]


def load_problem(source: str) -> dict:
    """Parse a problem from a file path or a literal JSON string."""
    text = source
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ProblemError(f"{source} is not UTF-8: {exc}") from exc
    elif not source.lstrip().startswith("{"):
        raise ProblemError(f"no such file: {source}")
    if not text.strip():
        raise ProblemError("problem: missing required field 'kind'")
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ProblemError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemError("problem: the document must be a JSON object")
    kind = _require(doc, "kind")
    if kind not in KINDS:
        raise ProblemError(
            f"problem: unknown kind {kind!r}; expected one of {', '.join(KINDS)}"
        )
    return doc


# -- finite group/map construction --------------------------------------------------


def _closure_cap() -> int:
    raw = os.environ.get(CLOSURE_CAP_ENV)
    if raw is None:
        return DEFAULT_CLOSURE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ProblemError(
            f"environment variable {CLOSURE_CAP_ENV} must be an integer, got {raw!r}"
        ) from None
    if cap < 1:
        raise ProblemError(f"environment variable {CLOSURE_CAP_ENV} must be positive")
    return cap


def _build_finite_group(name, spec, resolved, specs, building):
    try:
        return _build_finite_group_inner(name, spec, resolved, specs, building)
    except StructureError as exc:
        # structural problems in a group description are input errors
        raise ProblemError(f"groups.{name}: {exc}") from exc


def _build_finite_group_inner(name, spec, resolved, specs, building):
    if name in resolved:
        return resolved[name]
    if name in building:
        raise ProblemError(f"groups: definition of {name!r} is circular")
    building.add(name)
    where = f"groups.{name}"
    if not isinstance(spec, dict):
        raise ProblemError(f"{where}: expected an object describing the group")
    keys = [
        k
        for k in ("builtin", "permutations", "matrices", "table", "cyclic", "product")
        if k in spec
    ]
    if len(keys) != 1:
        raise ProblemError(
            f"{where}: needs exactly one of builtin/permutations/matrices/"
            f"table/cyclic/product, got {keys or 'none'}"
        )
    kind = keys[0]
    cap = _closure_cap()
    try:
        if kind == "builtin":
            if spec["builtin"] != "binary-icosahedral":
                raise ProblemError(
                    f"{where}: unknown builtin {spec['builtin']!r}; "
                    "available: binary-icosahedral"
                )
            group = binary_icosahedral_group(cap=cap)
        elif kind == "permutations":
            perms = _array(spec["permutations"], f"{where}.permutations", "permutations")
            gens = [
                tuple(_to_vector(p, f"{where}.permutations[{i}]"))
                for i, p in enumerate(perms)
            ]
            group = close_group(gens, cap=cap)
        elif kind == "matrices":
            field = _to_int(_require(spec, "field", where), f"{where}.field")
            mats = _array(spec["matrices"], f"{where}.matrices", "matrices")
            gens = [
                tuple(_to_matrix(m, f"{where}.matrices[{i}]").iter_rows())
                for i, m in enumerate(mats)
            ]
            group = close_group(gens, field=field, cap=cap)
        elif kind == "cyclic":
            group = cyclic_group(_to_int(spec["cyclic"], f"{where}.cyclic"), cap=cap)
    except SizeCapError as exc:
        # the closure cap is the one cap a user can set; name its knob
        raise SizeCapError(f"{exc}; set {CLOSURE_CAP_ENV} to raise it") from None
    if kind == "table":
        group = FiniteGroup.from_table(_to_matrix(spec["table"], f"{where}.table").iter_rows())
    elif kind == "product":
        factors = spec["product"]
        if not isinstance(factors, list) or len(factors) < 2:
            raise ProblemError(f"{where}.product: expected at least two factor names")
        built = []
        for f in factors:
            if f not in specs:
                raise ProblemError(f"{where}.product: unknown group {f!r}")
            built.append(_build_finite_group(f, specs[f], resolved, specs, building))
        group = built[0]
        for extra in built[1:]:
            group = direct_product(group, extra)
    building.discard(name)
    resolved[name] = group
    return group


def _build_finite_maps(doc: dict):
    specs = _require(doc, "groups")
    if not isinstance(specs, dict) or not specs:
        raise ProblemError("groups: expected a non-empty object of named groups")
    resolved: dict[str, FiniteGroup] = {}
    for name, spec in specs.items():
        _build_finite_group(name, spec, resolved, specs, set())
    domain_name = _require(doc, "domain")
    codomain_name = _require(doc, "codomain")
    for ref in (domain_name, codomain_name):
        if ref not in resolved:
            raise ProblemError(f"problem: unknown group {ref!r}")
    domain = resolved[domain_name]
    codomain = resolved[codomain_name]
    specs_m = _require(doc, "maps")
    if not isinstance(specs_m, list) or len(specs_m) < 2:
        raise ProblemError("maps: expected an array of at least two map descriptions")
    homs = []
    for i, m in enumerate(specs_m):
        where = f"maps[{i}]"
        if not isinstance(m, dict):
            raise ProblemError(f"{where}: expected an object describing the map")
        try:
            if "projection" in m:
                hom = projection_hom(
                    domain, _to_int(m["projection"], f"{where}.projection")
                )
                if not hom.codomain.same_group(codomain):
                    raise ProblemError(
                        f"{where}: that projection does not land in the codomain"
                    )
            elif "constant" in m:
                hom = constant_hom(domain, codomain)
            elif "identity" in m:
                if not domain.same_group(codomain):
                    raise ProblemError(
                        f"{where}: identity needs equal domain and codomain"
                    )
                hom = identity_hom(domain)
            elif "images" in m:
                hom = FiniteHom(
                    domain, codomain, _to_vector(m["images"], f"{where}.images")
                )
            else:
                raise ProblemError(
                    f"{where}: needs one of projection/constant/identity/images"
                )
        except (StructureError, HomomorphismError) as exc:
            raise ProblemError(f"{where}: {exc}") from exc
        homs.append(hom)
    return homs


# -- pc group/map construction -------------------------------------------------------


def _pc_generator(token, noncentral: list, where: str) -> str:
    """A noncentral generator named by label or by index."""
    if isinstance(token, str):
        if token not in noncentral:
            raise ProblemError(f"{where}: unknown noncentral generator {token!r}")
        return token
    i = _to_int(token, where)
    if not 0 <= i < len(noncentral):
        raise ProblemError(
            f"{where}: index {i} out of range; noncentral generators are "
            f"0..{len(noncentral) - 1}"
        )
    return noncentral[i]


def _pc_word(value, labels, what: str, where: str) -> dict | tuple:
    """A word over the generator labels, as written: {label: exp}, or a
    plain exponent vector over labels in order, read as a tuple.  what
    names the generators in the error for a label outside labels."""
    if isinstance(value, dict):
        word = {}
        for lab, e in value.items():
            if lab not in labels:
                raise ProblemError(f"{where}: {lab!r} is not a {what} generator")
            word[lab] = _to_int(e, f"{where}.{lab}")
        return word
    vec = _to_vector(value, where)
    if len(vec) != len(labels):
        raise ProblemError(
            f"{where}: exponent vector has length {len(vec)}, expected {len(labels)}"
        )
    return tuple(vec)


def _build_pc_group(spec, where: str) -> PcGroup:
    if not isinstance(spec, dict):
        raise ProblemError(f"{where}: expected an object with a pc-presentation")
    noncentral = _require(spec, "generators", where)
    central = _require(spec, "central", where)
    if not isinstance(noncentral, list) or not isinstance(central, list):
        raise ProblemError(f"{where}: generators and central must be arrays of labels")
    noncentral = [str(x) for x in noncentral]
    central = [str(x) for x in central]
    relations = {}
    triples = _array(spec.get("commutators", []), f"{where}.commutators", "triples")
    for t, triple in enumerate(triples):
        rwhere = f"{where}.commutators[{t}]"
        if not isinstance(triple, list) or len(triple) != 3:
            raise ProblemError(
                f"{rwhere}: expected [generator, generator, central-word]"
            )
        x = _pc_generator(triple[0], noncentral, f"{rwhere}[0]")
        y = _pc_generator(triple[1], noncentral, f"{rwhere}[1]")
        key = (x, y)
        if key in relations or key[::-1] in relations:
            raise ProblemError(f"{rwhere}: repeated commutator pair {key}")
        w = _pc_word(triple[2], central, "central", f"{rwhere}[2]")
        relations[key] = w if type(w) is dict else {c: e for c, e in zip(central, w) if e}
    try:
        return PcGroup.from_presentation(noncentral, central, relations)
    except StructureError as exc:
        raise ProblemError(f"{where}: {exc}") from exc


def _same_json(a, b) -> bool:
    """Equality of two parsed JSON values that, unlike ==, tells 1, 1.0 and
    true apart, as the presentation parser does."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_json(v, b[k]) for k, v in a.items())
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b


def _build_pc_maps(doc: dict):
    """The maps of a nilpotent problem, each checked to be a homomorphism.
    A codomain spec equal to the domain's is built once: the domain object
    is the codomain too."""
    spec = _require(doc, "domain")
    domain = _build_pc_group(spec, "domain")
    codomain_spec = _require(doc, "codomain")
    if _same_json(codomain_spec, spec):
        codomain = domain
    else:
        codomain = _build_pc_group(codomain_spec, "codomain")
    specs = _require(doc, "maps")
    if not isinstance(specs, list) or len(specs) < 2:
        raise ProblemError("maps: expected an array of at least two maps")
    homs, labels = [], codomain.labels
    for i, images in enumerate(specs):
        where = f"maps[{i}]"
        if isinstance(images, dict):
            for lab in images:
                if lab not in domain.labels:
                    raise ProblemError(
                        f"{where}: {lab!r} is not a domain generator"
                    )
            words = [
                _pc_word(images.get(lab, {}), labels, "codomain", f"{where}.{lab}")
                for lab in domain.labels
            ]
        elif isinstance(images, list):
            if len(images) != domain.n:
                raise ProblemError(
                    f"{where}: got {len(images)} generator images, "
                    f"expected {domain.n}"
                )
            words = [
                _pc_word(img, labels, "codomain", f"{where} row {g}")
                for g, img in enumerate(images)
            ]
        else:
            raise ProblemError(
                f"{where}: expected an object keyed by domain generators or "
                "an array of exponent vectors"
            )
        mat = [w if type(w) is tuple else tuple(w.get(lab, 0) for lab in labels) for w in words]
        try:
            homs.append(PcHom._parsed(domain, codomain, mat))
        except HomomorphismError as exc:
            raise ProblemError(f"{where}: {exc}") from exc
    return homs


def _abelian_system(doc: dict, minimum: int, maximum: int | None) -> AbelianSystem:
    maps = _require(doc, "maps")
    if not isinstance(maps, list):
        raise ProblemError("maps: expected an array of matrices")
    if len(maps) < minimum or (maximum is not None and len(maps) > maximum):
        want = str(minimum) if maximum == minimum else f"at least {minimum}"
        raise ProblemError(f"maps: expected {want} matrices, got {len(maps)}")
    return AbelianSystem([_to_matrix(m, f"maps[{i}]") for i, m in enumerate(maps)])


# -- oracles ------------------------------------------------------------------------


def _eliminated_order(m: IntMatrix) -> Cardinal:
    """Cokernel order of m from the bare Smith loop, none of smith_normal_form's
    index route or certificate; the loop is looked up in exact_linalg at call
    time, so that a wrapper put there reaches it."""
    return SnfResult(m, exact_linalg._smith_divisors(m.to_lists())).cokernel_order()


def _nilpotent_recount(phi: PcHom, psi: PcHom) -> Cardinal:
    """Recount of the pair value by the reduction's formula: quotient classes
    (infinitely many make the value infinite) times central classes over
    |Im delta|, the central count over the coarse count modulo the lattice
    enlarged by the delta-vectors.  Each count multiplies Smith divisors
    found by elimination, the route the engine does not take; delta-vectors
    lift as in the engine, and with none lifted the coarse count is the
    central one."""
    red = central_reduction(phi, psi)
    diff_bar = red.psi_bar - red.phi_bar
    quotient = _eliminated_order(diff_bar)
    if not quotient.is_finite:
        return INFINITE
    diff_prime = red.psi_prime - red.phi_prime
    lifted = delta_image_vectors(red) if diff_bar.cols > diff_bar.rows else []
    central = coarse = _eliminated_order(diff_prime)
    if lifted:
        deltas = IntMatrix._built(lifted, diff_prime.rows).transpose()
        coarse = _eliminated_order(diff_prime.hstack(deltas))
    if not central.is_finite or central.value % coarse.value:
        raise ConsistencyError(
            "the connecting-map image does not evenly split the central classes"
        )
    im_delta = central.value // coarse.value
    return Cardinal(central.value // im_delta * quotient.value)


# -- runners ------------------------------------------------------------------------


def _base_report() -> dict:
    return {
        "value": None,
        "pairwise": [],
        "intermediates": {},
        "trace": [],
        "status": STATUS_OK,
        "oracle_status": "absent",
    }


def run_snf(doc: dict, oracle: bool, check: bool = False) -> dict:
    """smith_normal_form's divisors, proven under --oracle or check by
    certify_smith, whose Smith loop with transforms no engine route runs."""
    matrix = _to_matrix(_require(doc, "matrix"), "matrix")
    snf = smith_normal_form(matrix)
    order = snf.cokernel_order()
    out = _base_report()
    out["value"] = order.to_json()
    if oracle or check:
        proven = list(certify_smith(matrix).divisors)
        agreed = proven == list(snf.divisors)
        proof = f"unimodular s, t with s @ m @ t == d prove {proven}" if agreed else (
            f"the certificate proves {proven}, the engine gives {list(snf.divisors)}"
        )
    if check:
        return _checked(out, [("smith-certificate", agreed, proof)])
    out["intermediates"] = {
        "divisors": list(snf.divisors),
        "shape": [matrix.rows, matrix.cols],
        "cokernel_order": order.to_json(),
    }
    out["trace"] = [
        f"input shape {matrix.rows}x{matrix.cols}",
        "invariant factors: "
        + (", ".join(str(d) for d in snf.divisors) if snf.divisors else "(none)"),
        f"cokernel order: {order}",
    ]
    if oracle and not agreed:
        out["oracle_status"] = f"mismatch: {proof}"
    elif oracle:
        out["oracle_status"] = "agreed"
        out["trace"].append(
            "oracle: unimodular s, t with s @ m @ t == d prove the divisors"
        )
    return out


def run_abelian(doc: dict, oracle: bool, check: bool = False) -> dict:
    system = _abelian_system(doc, 2, 2 if doc["kind"] == "abelian-pair" else None)
    report = reid_multi(system)
    div = divisibility_report(system, report)
    out = _base_report()
    out["value"] = report.value.to_json()
    out["pairwise"] = [p.to_json() for p in report.pairwise]
    if check:
        if div.applicable:
            # the lattice index recounts the quotient.  When every block
            # spans Z^n, ker Psi is the class set and the index would
            # re-triangulate L; that is decided by the Hermite loop, not
            # read off the engine's pairwise values.
            ker = div.value if all(map(_spans, system.blocks)) else ker_psi_order(system)
            rows = [
                ("pairwise-product-divides", bool(div.pairwise_divides), div.witness),
                (
                    "quotient-equals-ker-psi",
                    div.quotient == ker,
                    f"quotient {div.quotient}, |ker Psi| {ker}",
                ),
            ]
        else:
            rows = [("pairwise-product-divides", True, div.witness)]
        rows.append(("ordering-invariance", *_ordering_row(
            system.homs,
            report.value,
            lambda sigma: cokernel_order(stacked_difference(permute_system(system, sigma))),
        )))
        return _checked(out, rows)
    out["intermediates"] = dict(report.intermediates)
    out["intermediates"]["divisibility"] = div.witness
    out["trace"] = list(report.trace) + [div.witness]
    if oracle:
        out["oracle_status"], extra = _abelian_oracle(system, report, div.leave_one_out)
        out["trace"].extend(extra)
    return out


def _spans(block: IntMatrix) -> bool:
    """Whether the columns of block span Z^rows: their canonical Hermite
    basis (hermite_basis, which the index route does not run) is the
    identity."""
    basis = hermite_basis(map(block.column, range(block.cols)), block.rows)
    return len(basis) == block.rows and all(row[i] == 1 for i, row in enumerate(basis))


def _abelian_oracle(system: AbelianSystem, report, leave_one_out) -> tuple[str, list[str]]:
    """Recount by the bare Smith loop, which runs none of the engine's index
    route or certificate: the stacked difference's divisors, which must
    equal the engine's, and the value they give, each pairwise value from
    its block phi_j - phi_1, each leave-one-out value (None when none were
    counted) from its stack, and for a finite value the engine's |ker Psi|,
    the value over the pairwise product.  check's lattice index for it runs
    the index route, so it is not run here."""
    blocks = system.blocks
    stack = IntMatrix.stack_rows(blocks)
    stacked = SnfResult(stack, exact_linalg._smith_divisors(stack.to_lists()))
    engine_divisors = system._stacked_smith().divisors
    if stacked.divisors != engine_divisors:
        return (
            f"mismatch: elimination gives invariant factors {stacked.divisors}, "
            f"the engine gives {engine_divisors}"
        ), []
    value = stacked.cokernel_order()
    # with two maps the one block is the stack
    pairwise = (value,) if system.k == 2 else tuple(map(_eliminated_order, blocks))
    recount = {"value": (value,), "pairwise values": pairwise}
    engine = {"value": (report.value,), "pairwise values": tuple(report.pairwise)}
    if leave_one_out is not None:
        stacks = (IntMatrix.stack_rows(blocks[:i] + blocks[i + 1:]) for i in range(len(blocks)))
        recount["leave-one-out values"] = tuple(map(_eliminated_order, stacks))
        engine["leave-one-out values"] = leave_one_out

    def listed(counts):
        named = [f"{name} {', '.join(map(str, c))}" for name, c in counts.items()]
        return ", ".join(named[:-1]) + " and " + named[-1]

    found = listed(recount)
    if recount != engine:
        return f"mismatch: the oracle gives {found}, the engine gives {listed(engine)}", []
    notes = [f"oracle: the other order route confirms {found}"]
    if value.is_finite:
        ker = value.divide_exact(cardinal_product(pairwise))
        if ker != report.ker_psi_order:
            return (
                f"mismatch: value over pairwise product gives |ker Psi| = {ker}, "
                f"the engine gives {report.ker_psi_order}"
            ), notes
        notes.append(f"oracle: value over pairwise product confirms |ker Psi| = {ker}")
    return "agreed", notes


def run_finite(doc: dict, oracle: bool, check: bool = False) -> dict:
    homs = _build_finite_maps(doc)
    partition = twisted_reidemeister(homs)
    pairwise = partition.pairwise()
    product = cardinal_product(pairwise)
    # for finite targets the pairwise product need not divide the value
    verdict = "divides" if product.divides(partition.value) else "does NOT divide"
    witness = f"pairwise product {product} {verdict} {partition.value}"
    out = _base_report()
    out["value"] = partition.value.to_json()
    out["pairwise"] = [p.to_json() for p in pairwise]
    if oracle or check:
        # Union-find must find the descent's smallest tuple and size for
        # every class; any one member determines its class, so that makes
        # the partitions equal.
        second = twisted_reidemeister(homs, algorithm="union-find")
        key = (partition.representatives, partition.class_sizes)
        agreed = (second.representatives, second.class_sizes) == key
    if check:
        return _checked(out, [
            ("pairwise-product-divisibility", True, witness),
            (
                "dual-algorithms-agree",
                agreed,
                f"orbit and union-find both find {partition.class_count} classes"
                if agreed
                else "the two algorithms produce different partitions",
            ),
            ("ordering-invariance", *_ordering_row(
                [h.image for h in homs],
                partition.value,
                lambda sigma: twisted_reidemeister([homs[i] for i in sigma]).value,
            )),
        ])
    histogram: dict[int, int] = {}
    for s in partition.class_sizes:
        histogram[s] = histogram.get(s, 0) + 1
    out["intermediates"] = {
        "tuple_space": partition.tuple_space,
        "class_count": partition.class_count,
        "class_size_histogram": [
            [size, count] for size, count in sorted(histogram.items())
        ],
        "pairwise": [p.to_json() for p in pairwise],
        "divisibility": witness,
    }
    out["trace"] = [
        f"{partition.arity + 1} maps; tuple space of size {partition.tuple_space}",
        f"{partition.class_count} twisted classes",
        "class sizes: "
        + ", ".join(f"{count} of size {size}" for size, count in sorted(histogram.items())),
        "pairwise values: " + ", ".join(str(p) for p in pairwise),
        witness,
    ]
    if oracle:
        if agreed:
            out["oracle_status"] = "agreed"
            out["trace"].append(
                "oracle: union-find over a generating subset reproduces the "
                "partition exactly"
            )
        else:
            out["oracle_status"] = "mismatch: the two orbit algorithms disagree"
    return out


def run_nilpotent(doc: dict, oracle: bool, check: bool = False) -> dict:
    homs = _build_pc_maps(doc)
    report = reid_nilpotent_multi(homs)
    out = _base_report()
    out["status"] = report.status
    out["value"] = None if report.value is None else report.value.to_json()
    out["pairwise"] = [p.to_json() for p in report.pairwise]
    if check:
        if report.status == STATUS_OK and report.value.is_finite:
            lhs = report.value.value * report.intermediates["im_delta"]
            rhs = (
                report.intermediates["sublattice_count"]
                * report.intermediates["quotient_count"]
            )
            law = (
                lhs == rhs,
                f"value x |Im delta| = {lhs}, sublattice x quotient counts = {rhs}",
            )
        else:
            law = (True, "skipped: no finite reduced value")
        return _checked(out, [
            ("counting-law", *law),
            ("ordering-invariance", *_ordering_row(
                [h.images for h in homs],
                report.value,
                lambda sigma: reid_nilpotent_multi([homs[i] for i in sigma]).value,
            )),
        ])
    out["intermediates"] = dict(report.intermediates)
    out["trace"] = list(report.trace)
    if oracle:
        out["oracle_status"], extra = _nilpotent_oracle(homs, report)
        out["trace"].extend(extra)
    return out


def _nilpotent_oracle(homs, report) -> tuple[str, list[str]]:
    if report.status != STATUS_OK:
        return "absent", ["oracle: skipped, the reduction is unsupported here"]
    if len(homs) == 2:
        phi, psi = homs
    else:
        power = direct_power_pc(homs[0].codomain, len(homs) - 1)
        phi = combine_homs([homs[0]] * (len(homs) - 1), power)
        psi = combine_homs(homs[1:], power)
    recount = _nilpotent_recount(phi, psi)
    if recount != report.value:
        return (
            f"mismatch: the recount gives {recount}, "
            f"the reduction gives {report.value}"
        ), []
    return "agreed", [f"oracle: the recount confirms {recount}"]


# -- the check subcommand ------------------------------------------------------------


def _ordering_row(keys, first, solve) -> tuple[bool, str]:
    """check's ordering-invariance row: whether every ordering of the maps
    gives one value, and the detail to print.

    keys[i] is map i's data, so equal maps have equal keys and reorderings
    that give the same key list give the same value.  first is the identity
    ordering's value, which the caller already has; solve(sigma) runs once
    for each other distinct key list.  A value of None marks an ordering
    that falls outside the nilpotent reduction.
    """
    keys = tuple(keys)
    if len(keys) > 4:
        return True, "skipped: more than 4 maps"
    solved = {keys: first}
    values = []
    for sigma in itertools.permutations(range(len(keys))):
        key = tuple(keys[i] for i in sigma)
        if key not in solved:
            solved[key] = solve(sigma)
        values.append(solved[key])
    if any(v is None for v in values):
        return True, "skipped: some orderings fall outside the reduction"
    distinct = {str(v) for v in values}
    if len(distinct) == 1:
        return True, f"all {len(values)} orderings agree"
    return False, f"orderings disagree: {sorted(distinct)}"


def _checked(out: dict, rows) -> dict:
    """check's report: out's value, pairwise and status with the property
    rows, each (name, passed, detail), as its intermediates and trace."""
    out["intermediates"] = {
        "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in rows]
    }
    out["trace"] = [f"{'PASS' if p else 'FAIL'} {n}: {d}" for n, p, d in rows]
    if not all(p for _, p, _ in rows):
        out["oracle_status"] = "mismatch: a property check failed"
    return out


def run_check(doc: dict) -> dict:
    """The property report: the kind's runner solves once and adds its rows."""
    kind = doc["kind"]
    if kind == "snf":
        return run_snf(doc, False, check=True)
    if kind == "finite":
        return run_finite(doc, False, check=True)
    if kind == "nilpotent":
        return run_nilpotent(doc, False, check=True)
    return run_abelian(doc, False, check=True)


# -- emission -----------------------------------------------------------------------


def _write_json(value, pad: str, out: list) -> None:
    """Append to out the text json.dumps(value, sort_keys=True, indent=2)
    prints at indentation pad, for the types a report holds: str, int, bool,
    None, lists and tuples, and dicts keyed by str.  Any other type raises
    TypeError."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        if all(type(x) is int for x in value):
            out.append(f"[\n{inner}{sep.join(map(int.__repr__, value))}\n{pad}]")
            return
        out.append("[\n" + inner)
        for n, item in enumerate(value):
            if n:
                out.append(sep)
            _write_json(item, inner, out)
        out.append(f"\n{pad}]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        out.append("{\n" + inner)
        for n, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError(f"a report has no {type(key).__name__} keys: {key!r}")
            if n:
                out.append(sep)
            out.append(_quote(key) + ": ")
            _write_json(value[key], inner, out)
        out.append(f"\n{pad}}}")
    else:
        raise TypeError(f"a report holds no {type(value).__name__}: {value!r}")


def emit(report: dict, fmt: str, trace: bool) -> str:
    """The printed report.  Structured output is exactly the bytes of
    json.dumps(report, sort_keys=True, indent=2) plus a newline, written by
    _write_json, since json's indenting encoder is its pure-Python one; the
    trace is emptied unless asked for."""
    if fmt == "structured":
        shown = dict(report)
        if not trace:
            shown["trace"] = []
        out = []
        _write_json(shown, "", out)
        out.append("\n")
        return "".join(out)
    lines = [f"status: {report['status']}"]
    value = report["value"]
    lines.append(f"value: {'none' if value is None else value}")
    if report["pairwise"]:
        lines.append("pairwise: " + ", ".join(str(p) for p in report["pairwise"]))
    if "divisibility" in report["intermediates"]:
        lines.append(report["intermediates"]["divisibility"])
    for c in report["intermediates"].get("checks", []):
        lines.append(
            f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}"
        )
    if report["oracle_status"] != "absent":
        lines.append(f"oracle: {report['oracle_status']}")
    if trace:
        lines.append("trace:")
        lines.extend(f"  {line}" for line in report["trace"])
    return "\n".join(lines) + "\n"


# -- entry point --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors, which this tool reserves for
    oracle mismatches; route usage errors to the input-error code instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then kept: parsing
    leaves it unchanged, and a process that runs main once builds it once."""
    parser = _Parser(
        prog="coincidence-kit",
        description=(
            "Exact Reidemeister coincidence counts for families of "
            "homomorphisms between free abelian, finite, and class-2 "
            "nilpotent groups."
        ),
        epilog=(
            "exit codes: 0 success; 1 input error; 2 oracle mismatch or "
            "internal consistency failure; 3 unsupported reduction. "
            f"Environment: {CLOSURE_CAP_ENV} overrides the finite closure cap."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("compute", "compute the coincidence count for a problem file"),
        ("snf", "normal form and cokernel of one integer matrix"),
        ("check", "property report: divisibility, ordering invariance, counting law"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("problem", help="path to a JSON problem file, or literal JSON")
        if name != "check":  # check runs its own cross-checks
            p.add_argument(
                "--oracle",
                action="store_true",
                help="also run the independent cross-check",
            )
        p.add_argument(
            "--trace", action="store_true", help="include the step-by-step trace"
        )
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="output format (structured = JSON)",
        )
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact values of any length parse and print
    args = _parser().parse_args(argv)
    try:
        doc = load_problem(args.problem)
        if args.command == "snf" and doc["kind"] != "snf":
            raise ProblemError(
                f"the snf subcommand needs kind 'snf', got {doc['kind']!r}"
            )
        if args.command == "check":
            report = run_check(doc)
        elif doc["kind"] == "snf":
            report = run_snf(doc, args.oracle)
        elif doc["kind"] in ("abelian-pair", "abelian-multi"):
            report = run_abelian(doc, args.oracle)
        elif doc["kind"] == "finite":
            report = run_finite(doc, args.oracle)
        else:
            report = run_nilpotent(doc, args.oracle)
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except StructureError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except CoincidenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        # a group built as a chain of products nests as deeply as the chain
        print("error: the problem nests too deeply for Python's recursion limit", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(emit(report, args.format, args.trace))
    if report["oracle_status"].startswith("mismatch"):
        return EXIT_MISMATCH
    if report["status"] == STATUS_UNSUPPORTED:
        return EXIT_UNSUPPORTED
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
