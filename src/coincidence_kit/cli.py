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
import itertools
import json
import os
import sys

from .abelian import (
    AbelianSystem,
    divisibility_report,
    ker_psi_order_bruteforce,
    permute_system,
    reid_multi,
    stacked_difference,
)
from .cardinal import Cardinal
from .errors import (
    CoincidenceError,
    ConsistencyError,
    ProblemError,
    SizeCapError,
    StructureError,
)
from .exact_linalg import (
    IntMatrix,
    cokernel_order,
    elementary_divisors_via_minors,
    enumerate_cokernel,
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
    pairwise_divisibility_report,
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

ORACLE_ENUM_CAP = 1_000_000
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
        if body.isdigit():
            return int(text)
    raise ProblemError(f"{where}: expected an integer, got {value!r}")


def _to_vector(value, where: str) -> list[int]:
    if not isinstance(value, list):
        raise ProblemError(f"{where}: expected an array of integers")
    return [_to_int(x, f"{where}[{i}]") for i, x in enumerate(value)]


def _to_matrix(value, where: str) -> list[list[int]]:
    if not isinstance(value, list):
        raise ProblemError(f"{where}: expected an array of rows")
    rows = [_to_vector(row, f"{where} row {i}") for i, row in enumerate(value)]
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        want = len(rows[0])
        bad = next(i for i, r in enumerate(rows) if len(r) != want)
        raise ProblemError(
            f"{where} row {bad} has {len(rows[bad])} entries, expected {want}"
        )
    return rows


def _require(doc: dict, field: str, where: str = "problem"):
    if field not in doc:
        raise ProblemError(f"{where}: missing required field {field!r}")
    return doc[field]


def load_problem(source: str) -> dict:
    """Parse a problem from a file path or a literal JSON string."""
    text = source
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif not source.lstrip().startswith("{"):
        raise ProblemError(f"no such file: {source}")
    if not text.strip():
        raise ProblemError("problem: missing required field 'kind'")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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
    if kind == "builtin":
        if spec["builtin"] != "binary-icosahedral":
            raise ProblemError(
                f"{where}: unknown builtin {spec['builtin']!r}; "
                "available: binary-icosahedral"
            )
        group = binary_icosahedral_group(cap=cap)
    elif kind == "permutations":
        gens = [
            tuple(_to_vector(p, f"{where}.permutations[{i}]"))
            for i, p in enumerate(spec["permutations"])
        ]
        group = close_group(gens, cap=cap)
    elif kind == "matrices":
        field = _to_int(_require(spec, "field", where), f"{where}.field")
        gens = [
            tuple(tuple(row) for row in _to_matrix(m, f"{where}.matrices[{i}]"))
            for i, m in enumerate(spec["matrices"])
        ]
        group = close_group(gens, field=field, cap=cap)
    elif kind == "table":
        group = FiniteGroup.from_table(_to_matrix(spec["table"], f"{where}.table"))
    elif kind == "cyclic":
        group = cyclic_group(_to_int(spec["cyclic"], f"{where}.cyclic"))
    else:  # product
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
    try:
        return _build_finite_maps_inner(doc)
    except StructureError as exc:
        # structural problems in a finite description are input errors
        raise ProblemError(str(exc)) from exc


def _build_finite_maps_inner(doc: dict):
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
        if "projection" in m:
            hom = projection_hom(domain, _to_int(m["projection"], f"{where}.projection"))
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


def _central_word_spec(value, central: list, where: str) -> dict:
    """A central exponent word, as {label: exp} or as a plain vector."""
    if isinstance(value, dict):
        word = {}
        for lab, e in value.items():
            if lab not in central:
                raise ProblemError(
                    f"{where}: {lab!r} is not a central generator"
                )
            word[lab] = _to_int(e, f"{where}.{lab}")
        return word
    vec = _to_vector(value, where)
    if len(vec) != len(central):
        raise ProblemError(
            f"{where}: exponent vector has length {len(vec)}, "
            f"expected {len(central)}"
        )
    return {lab: e for lab, e in zip(central, vec) if e}


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
    for t, triple in enumerate(spec.get("commutators", [])):
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
        relations[key] = _central_word_spec(triple[2], central, f"{rwhere}[2]")
    try:
        return PcGroup.from_presentation(noncentral, central, relations)
    except StructureError as exc:
        raise ProblemError(f"{where}: {exc}") from exc


def _pc_image(value, codomain: PcGroup, where: str) -> tuple[int, ...]:
    """One generator image, as {codomain-label: exp} or a plain vector."""
    if isinstance(value, dict):
        slot = {lab: l for l, lab in enumerate(codomain.labels)}
        word = [0] * codomain.n
        for lab, e in value.items():
            if lab not in slot:
                raise ProblemError(
                    f"{where}: {lab!r} is not a codomain generator"
                )
            word[slot[lab]] += _to_int(e, f"{where}.{lab}")
        return tuple(word)
    vec = _to_vector(value, where)
    if len(vec) != codomain.n:
        raise ProblemError(
            f"{where} has {len(vec)} exponents, expected {codomain.n}"
        )
    return tuple(vec)


def _build_pc_maps(doc: dict):
    domain = _build_pc_group(_require(doc, "domain"), "domain")
    codomain = _build_pc_group(_require(doc, "codomain"), "codomain")
    specs = _require(doc, "maps")
    if not isinstance(specs, list) or len(specs) < 2:
        raise ProblemError("maps: expected an array of at least two maps")
    homs = []
    for i, images in enumerate(specs):
        where = f"maps[{i}]"
        if isinstance(images, dict):
            for lab in images:
                if lab not in domain.labels:
                    raise ProblemError(
                        f"{where}: {lab!r} is not a domain generator"
                    )
            mat = [
                _pc_image(images.get(lab, {}), codomain, f"{where}.{lab}")
                for lab in domain.labels
            ]
        elif isinstance(images, list):
            if len(images) != domain.n:
                raise ProblemError(
                    f"{where}: got {len(images)} generator images, "
                    f"expected {domain.n}"
                )
            mat = [
                _pc_image(img, codomain, f"{where} row {g}")
                for g, img in enumerate(images)
            ]
        else:
            raise ProblemError(
                f"{where}: expected an object keyed by domain generators or "
                "an array of exponent vectors"
            )
        homs.append(PcHom(domain, codomain, mat))
    return homs


def _abelian_system(doc: dict, minimum: int, maximum: int | None) -> AbelianSystem:
    maps = _require(doc, "maps")
    if not isinstance(maps, list):
        raise ProblemError("maps: expected an array of matrices")
    if len(maps) < minimum or (maximum is not None and len(maps) > maximum):
        want = str(minimum) if maximum == minimum else f"at least {minimum}"
        raise ProblemError(f"maps: expected {want} matrices, got {len(maps)}")
    mats = [_to_matrix(m, f"maps[{i}]") for i, m in enumerate(maps)]
    widths = {(len(m), len(m[0]) if m else 0) for m in mats}
    if len(widths) > 1:
        raise ProblemError("maps: all matrices must share one shape")
    return AbelianSystem(mats)


# -- oracles ------------------------------------------------------------------------


def _nilpotent_recount(phi: PcHom, psi: PcHom, cap: int) -> Cardinal:
    """Enumeration recount of the pair value: list the quotient-level and
    sublattice-level classes, close the connecting-map image explicitly,
    and combine the counts."""
    red = central_reduction(phi, psi)
    quotient = enumerate_cokernel(red.psi_bar - red.phi_bar, cap=cap)
    diff_prime = red.psi_prime - red.phi_prime
    central = enumerate_cokernel(diff_prime, cap=cap)
    width = diff_prime.rows
    basis = hermite_basis(
        [diff_prime.column(j) for j in range(diff_prime.cols)], width
    )

    def reduce_vec(vec):
        v = list(vec)
        for row in basis:
            p = next(l for l, x in enumerate(row) if x)
            q = v[p] // row[p]
            if q:
                for l in range(width):
                    v[l] -= q * row[l]
        return tuple(v)

    deltas = delta_image_vectors(red)
    subgroup = {reduce_vec([0] * width)}
    frontier = list(subgroup)
    while frontier:
        nxt = []
        for g in frontier:
            for d in deltas:
                for sign in (1, -1):
                    h = reduce_vec([x + sign * y for x, y in zip(g, d)])
                    if h not in subgroup:
                        subgroup.add(h)
                        nxt.append(h)
        frontier = nxt
    if len(central) % len(subgroup):
        raise ConsistencyError(
            "the connecting-map image does not evenly split the central classes"
        )
    return Cardinal(len(central) // len(subgroup) * len(quotient))


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


def run_snf(doc: dict, oracle: bool) -> dict:
    matrix = IntMatrix(_to_matrix(_require(doc, "matrix"), "matrix"))
    snf = smith_normal_form(matrix)
    order = snf.cokernel_order()
    out = _base_report()
    out["value"] = order.to_json()
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
    if oracle:
        try:
            minors = elementary_divisors_via_minors(matrix)
        except SizeCapError as exc:
            out["trace"].append(f"oracle: skipped, {exc}")
            return out
        if minors == snf.divisors:
            out["oracle_status"] = "agreed"
            out["trace"].append("oracle: gcd-of-minors divisors agree")
        else:
            out["oracle_status"] = (
                f"mismatch: gcd-of-minors gives {list(minors)}, "
                f"reduction gives {list(snf.divisors)}"
            )
    return out


def run_abelian(doc: dict, oracle: bool, pair_only: bool) -> dict:
    system = _abelian_system(doc, 2, 2 if pair_only else None)
    report = reid_multi(system)
    div = divisibility_report(system, report)
    out = _base_report()
    out["value"] = report.value.to_json()
    out["pairwise"] = [p.to_json() for p in report.pairwise]
    out["intermediates"] = dict(report.intermediates)
    out["intermediates"]["divisibility"] = div.witness
    out["trace"] = list(report.trace) + [div.witness]
    if oracle:
        out["oracle_status"], extra = _abelian_oracle(system, report)
        out["trace"].extend(extra)
    return out


def _abelian_oracle(system: AbelianSystem, report) -> tuple[str, list[str]]:
    if not report.value.is_finite:
        return "absent", ["oracle: skipped, the value is infinite"]
    stacked = stacked_difference(system)
    try:
        classes = enumerate_cokernel(stacked, cap=ORACLE_ENUM_CAP)
        ker = ker_psi_order_bruteforce(system, classes=classes)
    except SizeCapError as exc:
        return "absent", [f"oracle: skipped, {exc}"]
    notes = []
    if Cardinal(len(classes)) != report.value:
        return (
            f"mismatch: enumeration finds {len(classes)} classes, "
            f"the divisor product gives {report.value}"
        ), notes
    notes.append(f"oracle: enumeration confirms {len(classes)} classes")
    if report.ker_psi_order is not None and ker != report.ker_psi_order:
        return (
            f"mismatch: blockwise recount of |ker Psi| gives {ker}, "
            f"the lattice index gives {report.ker_psi_order}"
        ), notes
    notes.append(f"oracle: blockwise recount confirms |ker Psi| = {ker}")
    return "agreed", notes


def run_finite(doc: dict, oracle: bool) -> dict:
    homs = _build_finite_maps(doc)
    partition = twisted_reidemeister(homs)
    div = pairwise_divisibility_report(homs, partition)
    pairwise = div.pairwise
    histogram: dict[int, int] = {}
    for s in partition.class_sizes:
        histogram[s] = histogram.get(s, 0) + 1
    out = _base_report()
    out["value"] = partition.value.to_json()
    out["pairwise"] = [p.to_json() for p in pairwise]
    out["intermediates"] = {
        "tuple_space": partition.tuple_space,
        "class_count": partition.class_count,
        "class_size_histogram": [
            [size, count] for size, count in sorted(histogram.items())
        ],
        "pairwise": [p.to_json() for p in pairwise],
        "divisibility": div.witness,
    }
    out["trace"] = [
        f"{partition.arity + 1} maps; tuple space of size {partition.tuple_space}",
        f"{partition.class_count} twisted classes",
        "class sizes: "
        + ", ".join(f"{count} of size {size}" for size, count in sorted(histogram.items())),
        "pairwise values: " + ", ".join(str(p) for p in pairwise),
        div.witness,
    ]
    if oracle:
        second = twisted_reidemeister(homs, algorithm="union-find")
        if second.class_of == partition.class_of:
            out["oracle_status"] = "agreed"
            out["trace"].append(
                "oracle: union-find over a generating subset reproduces the "
                "partition exactly"
            )
        else:
            out["oracle_status"] = "mismatch: the two orbit algorithms disagree"
    return out


def run_nilpotent(doc: dict, oracle: bool) -> dict:
    homs = _build_pc_maps(doc)
    report = reid_nilpotent_multi(homs)
    out = _base_report()
    out["status"] = report.status
    out["value"] = None if report.value is None else report.value.to_json()
    out["pairwise"] = [p.to_json() for p in report.pairwise]
    out["intermediates"] = dict(report.intermediates)
    out["trace"] = list(report.trace)
    if oracle:
        out["oracle_status"], extra = _nilpotent_oracle(homs, report)
        out["trace"].extend(extra)
    return out


def _nilpotent_oracle(homs, report) -> tuple[str, list[str]]:
    if report.status != STATUS_OK:
        return "absent", ["oracle: skipped, the reduction is unsupported here"]
    if not report.value.is_finite:
        return "absent", ["oracle: skipped, the value is infinite"]
    if len(homs) == 2:
        phi, psi = homs
    else:
        power = direct_power_pc(homs[0].codomain, len(homs) - 1)
        phi = combine_homs([homs[0]] * (len(homs) - 1), power)
        psi = combine_homs(homs[1:], power)
    try:
        recount = _nilpotent_recount(phi, psi, cap=ORACLE_ENUM_CAP)
    except SizeCapError as exc:
        return "absent", [f"oracle: skipped, {exc}"]
    if recount != report.value:
        return (
            f"mismatch: enumeration recount gives {recount}, "
            f"the reduction gives {report.value}"
        ), []
    return "agreed", [f"oracle: enumeration recount confirms {recount}"]


# -- the check subcommand ------------------------------------------------------------


def _check_orderings(values) -> tuple[bool, str]:
    distinct = {str(v) for v in values}
    ok = len(distinct) == 1
    return ok, (
        f"all {len(values)} orderings agree"
        if ok
        else f"orderings disagree: {sorted(distinct)}"
    )


def _permutations(k: int):
    return list(itertools.permutations(range(k)))


def run_check(doc: dict) -> dict:
    kind = doc["kind"]
    out = _base_report()
    checks: list[dict] = []

    def add(name: str, passed: bool, detail: str):
        checks.append({"name": name, "passed": passed, "detail": detail})

    if kind == "snf":
        matrix = IntMatrix(_to_matrix(_require(doc, "matrix"), "matrix"))
        snf = smith_normal_form(matrix)
        try:
            minors = elementary_divisors_via_minors(matrix)
        except SizeCapError as exc:
            add("divisors-vs-minors", True, f"skipped: {exc}")
        else:
            add(
                "divisors-vs-minors",
                minors == snf.divisors,
                f"reduction {list(snf.divisors)}, gcd-of-minors {list(minors)}",
            )
        out["value"] = snf.cokernel_order().to_json()
    elif kind in ("abelian-pair", "abelian-multi"):
        system = _abelian_system(doc, 2, 2 if kind == "abelian-pair" else None)
        report = reid_multi(system)
        out["value"] = report.value.to_json()
        out["pairwise"] = [p.to_json() for p in report.pairwise]
        div = divisibility_report(system, report)
        if div.applicable:
            add("pairwise-product-divides", bool(div.pairwise_divides), div.witness)
            add(
                "quotient-equals-ker-psi",
                bool(div.quotient_equals_ker_psi),
                f"quotient {div.quotient}, |ker Psi| {div.ker_psi}",
            )
        else:
            add("pairwise-product-divides", True, div.witness)
        if system.k <= 4:
            values = [
                cokernel_order(stacked_difference(permute_system(system, sigma)))
                for sigma in _permutations(system.k)
            ]
            ok, detail = _check_orderings(values)
            add("ordering-invariance", ok, detail)
        else:
            add("ordering-invariance", True, "skipped: more than 4 maps")
    elif kind == "finite":
        homs = _build_finite_maps(doc)
        partition = twisted_reidemeister(homs)
        out["value"] = partition.value.to_json()
        div = pairwise_divisibility_report(homs, partition)
        out["pairwise"] = [p.to_json() for p in div.pairwise]
        add("pairwise-product-divisibility", True, div.witness)
        second = twisted_reidemeister(homs, algorithm="union-find")
        add(
            "dual-algorithms-agree",
            second.class_of == partition.class_of,
            f"orbit and union-find both find {partition.class_count} classes"
            if second.class_of == partition.class_of
            else "the two algorithms produce different partitions",
        )
        if len(homs) <= 4:
            values = [
                twisted_reidemeister([homs[i] for i in sigma]).value
                for sigma in _permutations(len(homs))
            ]
            ok, detail = _check_orderings(values)
            add("ordering-invariance", ok, detail)
        else:
            add("ordering-invariance", True, "skipped: more than 4 maps")
    else:  # nilpotent
        homs = _build_pc_maps(doc)
        report = reid_nilpotent_multi(homs)
        out["status"] = report.status
        out["value"] = None if report.value is None else report.value.to_json()
        out["pairwise"] = [p.to_json() for p in report.pairwise]
        if report.status == STATUS_OK and report.value.is_finite:
            lhs = report.value.value * report.intermediates["im_delta"]
            rhs = (
                report.intermediates["sublattice_count"]
                * report.intermediates["quotient_count"]
            )
            add(
                "counting-law",
                lhs == rhs,
                f"value x |Im delta| = {lhs}, "
                f"sublattice x quotient counts = {rhs}",
            )
        else:
            add("counting-law", True, "skipped: no finite reduced value")
        if len(homs) <= 4:
            reordered = [
                reid_nilpotent_multi([homs[i] for i in sigma])
                for sigma in _permutations(len(homs))
            ]
            if all(r.status == STATUS_OK for r in reordered):
                ok, detail = _check_orderings([r.value for r in reordered])
                add("ordering-invariance", ok, detail)
            else:
                add(
                    "ordering-invariance",
                    True,
                    "skipped: some orderings fall outside the reduction",
                )
        else:
            add("ordering-invariance", True, "skipped: more than 4 maps")

    out["intermediates"]["checks"] = checks
    out["trace"] = [
        f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}"
        for c in checks
    ]
    if not all(c["passed"] for c in checks):
        out["oracle_status"] = "mismatch: a property check failed"
    return out


# -- emission -----------------------------------------------------------------------


def emit(report: dict, fmt: str, trace: bool) -> str:
    if fmt == "structured":
        shown = dict(report)
        if not trace:
            shown["trace"] = []
        return json.dumps(shown, sort_keys=True, indent=2) + "\n"
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


def _parser() -> argparse.ArgumentParser:
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
        p.add_argument(
            "--oracle",
            action="store_true",
            help="also run the independent brute-force cross-check",
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
        elif doc["kind"] == "abelian-pair":
            report = run_abelian(doc, args.oracle, pair_only=True)
        elif doc["kind"] == "abelian-multi":
            report = run_abelian(doc, args.oracle, pair_only=False)
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
    sys.stdout.write(emit(report, args.format, args.trace))
    if report["oracle_status"].startswith("mismatch"):
        return EXIT_MISMATCH
    if report["status"] == STATUS_UNSUPPORTED:
        return EXIT_UNSUPPORTED
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
