"""Plain-text input files: algebras, transfer data and scan families.

One format, three document kinds.  Lines are `key = value` pairs or
shaped stanzas inside `[section]` headers; `#` starts a comment and
blank lines separate nothing.  A file without any section header is
read as a single [algebra] section.  Unknown keys are rejected with
their line number, as are malformed values.

Algebra sections come in two presentations.  Free: `cap = N`,
`gen name : degree` and `d name = polynomial` lines.  Table:
`basis degree : name ...`, `mul a * b = combination` and
`diff name = combination` lines, where a combination is a rational
linear combination of basis names (or 0).  Missing products and
differentials are zero.

A transfer-datum document has [ambient] and [fixed-base] algebra
sections plus a [datum] section carrying `m`, `chi`, the extension cap
of the fixed model and per-degree `restrict[n]` / `push[n]` matrices
with rational entries, rows separated by `;`.  Degrees whose matrices
are omitted get zero matrices of the forced shape, which is only
correct when one side is zero-dimensional; the datum validator flags
everything else.  A `restrict[n]` above the cap the two models share,
or a `push[n]` above the top degree of the fixed cohomology, is refused
at its line before any matrix is built.  Once its shape is checked,
each matrix is read into sparse columns: the restriction's into an
`AlgebraMorphism`, the pushforward's into the datum's stored
`InducedMap`.

A family document is a sequence of [config] sections, each naming a
model (or a datum), a triple, Euler data and an optional expected
outcome; `scan` runs them all.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, TypeVar

from .cdga import (
    CochainAlgebra,
    AlgebraMorphism,
    build_free_cdga,
    build_table_algebra,
    parse_polynomial,
    tensor_polynomial_generator,
)
from .cohomology import CohomologyRing, InducedMap
from .errors import (
    AlgebraError,
    AlgebraValidationError,
    DegreeCapError,
    DifferentialSquareError,
    ParseError,
)
from .linalg import Scalar, SparseVector, _q, columns_of_rows
from .transfer import (
    EulerData,
    HamiltonianTransferDatum,
    ScanConfig,
    WeightedLineBundle,
    # re-exported: perfbench/spans.py wraps it under this module's name
    tautological_from_parts,  # noqa: F401
)

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_GEN_RE = re.compile(rf"^gen\s+({_NAME})\s*:\s*(-?\d+)$")
_D_RE = re.compile(rf"^d\s+({_NAME})\s*=\s*(.+)$")
_BASIS_RE = re.compile(r"^basis\s+(\d+)\s*:\s*(.*)$")
_MUL_RE = re.compile(rf"^mul\s+({_NAME})\s*\*\s*({_NAME})\s*=\s*(.+)$")
_DIFF_RE = re.compile(rf"^diff\s+({_NAME})\s*=\s*(.+)$")
_BUNDLE_RE = re.compile(r"^bundle\s+(?:c1\s*=\s*(.*?)\s+)?weight\s*=\s*(-?\d+)$")
_MATRIX_RE = re.compile(r"^(restrict|push)\[(\d+)\]\s*=\s*(.*)$")
_KV_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_-]*)\s*=\s*(.*)$")
_SECTION_RE = re.compile(r"^\[([a-z-]+)\]$")


@dataclass
class _Section:
    name: str
    line: int
    rows: list[tuple[int, str]] = field(default_factory=list)


def _split_sections(text: str) -> list[_Section]:
    sections: list[_Section] = []
    current = _Section("", 0)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        mo = _SECTION_RE.match(line)
        if mo:
            if current.rows or current.name:
                sections.append(current)
            current = _Section(mo.group(1), lineno)
            continue
        if line.startswith("["):
            raise ParseError(f"malformed section header {line!r}", line=lineno)
        current.rows.append((lineno, line))
    if current.rows or current.name:
        sections.append(current)
    return sections


def _parse_fraction(text: str, lineno: int) -> Scalar:
    try:
        return _q(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational number: {text!r}", line=lineno)


def _parse_int(key: str, value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{key} must be an integer, got {value!r}", line=lineno)


def _parse_combination(
    value: str, names: dict[str, tuple[int, int]], degree: int, lineno: int
) -> list[tuple[int, Scalar]]:
    """A linear combination of degree-`degree` basis names, e.g. "2*eN - eS"."""
    try:
        terms = parse_polynomial(value)
    except (ParseError, AlgebraError) as exc:
        raise ParseError(str(exc), line=lineno)
    out: dict[int, Scalar] = {}
    for coeff, factors in terms:
        if len(factors) != 1:
            raise ParseError(
                "table entries are linear combinations of basis names, "
                f"got the term {'*'.join(factors) or repr(str(coeff))}",
                line=lineno,
            )
        name = factors[0]
        if name not in names:
            raise ParseError(f"unknown basis name {name!r}", line=lineno)
        ndeg, idx = names[name]
        if ndeg != degree:
            raise ParseError(
                f"{name!r} has degree {ndeg}, expected {degree}", line=lineno
            )
        out[idx] = out.get(idx, 0) + coeff
    return sorted(out.items())


def parse_algebra_section(section: _Section) -> CochainAlgebra:
    cap: Optional[int] = None
    gens: list[tuple[str, int]] = []
    gen_diffs: dict[str, str] = {}
    # Line of each gen row (by position) and d row (by name).
    row_lines: dict[tuple[str, object], int] = {}
    basis: dict[int, list[str]] = {}
    mul_rows: list[tuple[int, str, str, str]] = []
    diff_rows: list[tuple[int, str, str]] = []

    for lineno, line in section.rows:
        mo = _GEN_RE.match(line)
        if mo:
            row_lines[("gen", len(gens))] = lineno
            gens.append((mo.group(1), int(mo.group(2))))
            continue
        mo = _D_RE.match(line)
        if mo:
            if mo.group(1) in gen_diffs:
                raise ParseError(
                    f"second differential for {mo.group(1)!r}", line=lineno
                )
            gen_diffs[mo.group(1)] = mo.group(2)
            row_lines[("d", mo.group(1))] = lineno
            continue
        mo = _BASIS_RE.match(line)
        if mo:
            deg = int(mo.group(1))
            if deg in basis:
                raise ParseError(f"second basis stanza for degree {deg}", line=lineno)
            basis[deg] = mo.group(2).split()
            continue
        mo = _MUL_RE.match(line)
        if mo:
            mul_rows.append((lineno, mo.group(1), mo.group(2), mo.group(3)))
            continue
        mo = _DIFF_RE.match(line)
        if mo:
            diff_rows.append((lineno, mo.group(1), mo.group(2)))
            continue
        mo = _KV_RE.match(line)
        if mo and mo.group(1) == "cap":
            if cap is not None:
                raise ParseError("cap given twice", line=lineno)
            cap = _parse_int("cap", mo.group(2), lineno)
            cap_line = lineno
            continue
        raise ParseError(f"unrecognized algebra line {line!r}", line=lineno)

    free = bool(gens or gen_diffs)
    tabular = bool(basis or mul_rows or diff_rows)
    first = section.rows[0][0] if section.rows else section.line
    if free and tabular:
        raise ParseError(
            "mixing gen/d lines with basis/mul/diff lines in one algebra",
            line=first,
        )
    if free:
        if cap is None:
            raise ParseError("a free presentation needs a cap", line=first)
        try:
            return build_free_cdga(gens, gen_diffs, cap)
        except (AlgebraError, ParseError) as exc:
            line = row_lines.get(getattr(exc, "presentation_row", None), first)
            if isinstance(exc, DifferentialSquareError):
                # Parsed but invalid, like a table that fails its axiom scan.
                raise AlgebraValidationError(f"line {line}: {exc}") from None
            raise ParseError(str(exc), line=line) from None
    if not tabular:
        raise ParseError("empty algebra section", line=first)

    top = max(basis) if basis else 0
    if cap is not None:
        if cap < top:
            raise ParseError(
                f"cap {cap} is below the top basis degree {top}", line=cap_line
            )
        top = cap
    dims = [len(basis.get(n, [])) for n in range(top + 1)]
    names_per_degree = [basis.get(n, []) for n in range(top + 1)]
    names: dict[str, tuple[int, int]] = {}
    for n, ns in enumerate(names_per_degree):
        for i, nm in enumerate(ns):
            if nm in names:
                raise ParseError(f"basis name {nm!r} repeats", line=first)
            names[nm] = (n, i)

    products: dict[tuple[int, int, int, int], list[tuple[int, Scalar]]] = {}
    for lineno, a, b, value in mul_rows:
        if a not in names or b not in names:
            missing = a if a not in names else b
            raise ParseError(f"unknown basis name {missing!r}", line=lineno)
        (n1, i1), (n2, i2) = names[a], names[b]
        if n1 + n2 > top:
            raise ParseError(
                f"product {a}*{b} lands in degree {n1 + n2}, above cap {top}",
                line=lineno,
            )
        key = (n1, i1, n2, i2)
        if key in products:
            raise ParseError(f"product {a}*{b} given twice", line=lineno)
        products[key] = _parse_combination(value, names, n1 + n2, lineno)

    differentials: dict[tuple[int, int], list[tuple[int, Scalar]]] = {}
    for lineno, a, value in diff_rows:
        if a not in names:
            raise ParseError(f"unknown basis name {a!r}", line=lineno)
        n, i = names[a]
        if n + 1 > top:
            raise ParseError(
                f"diff {a} lands in degree {n + 1}, above cap {top}", line=lineno
            )
        if (n, i) in differentials:
            raise ParseError(f"diff {a} given twice", line=lineno)
        differentials[(n, i)] = _parse_combination(value, names, n + 1, lineno)

    try:
        return build_table_algebra(dims, products, differentials, names_per_degree)
    except AlgebraValidationError as exc:
        raise AlgebraValidationError(f"line {first}: {exc}") from None


def _parse_bundle(line: str, lineno: Optional[int]) -> WeightedLineBundle:
    mo = _BUNDLE_RE.match(line)
    if not mo:
        raise ParseError(
            "bundle lines read `bundle c1 = <polynomial> weight = <integer>` "
            "(the c1 part may be omitted)",
            line=lineno,
        )
    c1 = mo.group(1)
    weight = int(mo.group(2))
    return WeightedLineBundle(c1 if c1 else None, weight)


def parse_bundle_line(line: str, lineno: Optional[int] = None) -> WeightedLineBundle:
    """One bundle line; errors carry ``line N:`` only when ``lineno`` is given."""
    return _parse_bundle(line.split("#", 1)[0].strip(), lineno)


@dataclass
class AlgebraDocument:
    """A parsed algebra file: its one algebra."""

    algebra: CochainAlgebra


def parse_algebra_document(text: str) -> AlgebraDocument:
    sections = _split_sections(text)
    if not sections:
        raise ParseError("empty algebra file", line=1)
    algebra: Optional[CochainAlgebra] = None
    for section in sections:
        if section.name not in ("", "algebra"):
            raise ParseError(
                f"unexpected section [{section.name}] in an algebra file",
                line=section.line,
            )
        if algebra is not None:
            raise ParseError("two algebra sections", line=section.line)
        algebra = parse_algebra_section(section)
    return AlgebraDocument(algebra=algebra)


def parse_algebra_section_of(text: str, name: str) -> CochainAlgebra:
    """The algebra in the [name] section of a document, e.g. a datum's [ambient]."""
    return parse_algebra_section({s.name: s for s in _split_sections(text)}[name])


def load_algebra_document(path: str) -> AlgebraDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_document(fh.read())


# ---------------------------------------------------------------------------
# transfer-datum documents
# ---------------------------------------------------------------------------


def _parse_matrix_rows(value: str, lineno: int) -> list[list[Scalar]]:
    rows = []
    for chunk in value.split(";"):
        entries = chunk.split()
        if not entries:
            raise ParseError("empty matrix row", line=lineno)
        rows.append([_parse_fraction(e, lineno) for e in entries])
    if len({len(r) for r in rows}) != 1:
        raise ParseError("matrix rows have different lengths", line=lineno)
    return rows


def _matrix_columns(
    kind: str,
    given: dict[int, tuple[int, list[list[Scalar]]]],
    n: int,
    want_rows: int,
    want_cols: int,
) -> list[SparseVector]:
    """The sparse columns of ``kind[n]``, zero when the line is omitted;
    ParseError at its line unless it is want_rows x want_cols."""
    if n not in given:
        return [{} for _ in range(want_cols)]
    lineno, rows = given[n]
    if (len(rows), len(rows[0])) != (want_rows, want_cols):
        raise ParseError(
            f"{kind}[{n}] must be {want_rows}x{want_cols}, "
            f"got {len(rows)}x{len(rows[0])}",
            line=lineno,
        )
    return columns_of_rows(rows, want_cols)


def parse_datum_document(text: str, name: str = "file") -> HamiltonianTransferDatum:
    sections = {s.name: s for s in _split_sections(text)}
    for required in ("ambient", "fixed-base", "datum"):
        if required not in sections:
            raise ParseError(f"a transfer datum needs a [{required}] section", line=1)
    extra = set(sections) - {"ambient", "fixed-base", "datum"}
    if extra:
        bad = sorted(extra)[0]
        raise ParseError(
            f"unexpected section [{bad}] in a transfer datum",
            line=sections[bad].line,
        )

    ambient = parse_algebra_section(sections["ambient"])
    fixed_base = parse_algebra_section(sections["fixed-base"])

    m: Optional[int] = None
    chi: Optional[str] = None
    ext_cap: Optional[int] = None
    ext_cap_line = 0
    datum_name = name
    restrict_given: dict[int, tuple[int, list[list[Scalar]]]] = {}
    push_given: dict[int, tuple[int, list[list[Scalar]]]] = {}
    seen: set[str] = set()

    for lineno, line in sections["datum"].rows:
        mo = _MATRIX_RE.match(line)
        if mo:
            kind, deg = mo.group(1), int(mo.group(2))
            store = restrict_given if kind == "restrict" else push_given
            if deg in store:
                raise ParseError(f"{kind}[{deg}] given twice", line=lineno)
            store[deg] = (lineno, _parse_matrix_rows(mo.group(3), lineno))
            continue
        mo = _KV_RE.match(line)
        if not mo:
            raise ParseError(f"unrecognized datum line {line!r}", line=lineno)
        key, value = mo.group(1), mo.group(2)
        if key in seen:
            raise ParseError(f"{key} given twice", line=lineno)
        seen.add(key)
        if key == "m":
            m = _parse_int(key, value, lineno)
            if m < 1:
                raise ValueError(f"line {lineno}: m must be at least 1, got {m}")
        elif key == "chi":
            chi = value
        elif key == "fixed-cap":
            ext_cap, ext_cap_line = _parse_int(key, value, lineno), lineno
        elif key == "name":
            datum_name = value
        else:
            raise ParseError(f"unrecognized datum key {key!r}", line=lineno)

    first = sections["datum"].line
    if m is None:
        raise ParseError("the datum needs m (half the degree shift)", line=first)
    if chi is None:
        raise ParseError("the datum needs chi (the Euler class)", line=first)
    if ext_cap is None:
        raise ParseError(
            "the datum needs fixed-cap (the extension cap of the fixed model)",
            line=first,
        )

    try:
        fixed = tensor_polynomial_generator(fixed_base, cap=ext_cap)
    except DegreeCapError as exc:
        raise ParseError(str(exc), line=ext_cap_line)
    except AlgebraError as exc:
        raise ParseError(str(exc), line=first)

    shared = min(ambient.cap, fixed.cap)
    for deg, (lineno, _) in sorted(restrict_given.items()):
        if deg > shared:
            raise ParseError(
                f"restrict[{deg}] is beyond the shared cap {shared}", line=lineno
            )
    fixed_top = fixed.cap - 1  # the top degree of its cohomology
    for deg, (lineno, _) in sorted(push_given.items()):
        if deg > fixed_top:
            raise ParseError(
                f"push[{deg}] is beyond the top degree {fixed_top} of the "
                "fixed cohomology",
                line=lineno,
            )
    restrict = [
        _matrix_columns("restrict", restrict_given, n, fixed.dim(n), ambient.dim(n))
        for n in range(shared + 1)
    ]
    fixed_ring = CohomologyRing(fixed)
    ambient_ring = CohomologyRing(ambient)
    push = []
    for n in range(max(push_given, default=-1) + 1):
        want_cols = fixed_ring.class_dim(n)
        target = n + 2 * m
        want_rows = ambient_ring.class_dim(target) if target <= ambient_ring.top else 0
        push.append(_matrix_columns("push", push_given, n, want_rows, want_cols))

    return HamiltonianTransferDatum(
        name=datum_name,
        restrict_map=InducedMap(
            AlgebraMorphism(ambient, fixed, restrict), ambient_ring, fixed_ring
        ),
        push_map=InducedMap.stored(fixed_ring, ambient_ring, 2 * m, push),
        euler=EulerData.of(chi=chi, m=m),
    )


def load_datum(path: str) -> HamiltonianTransferDatum:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_datum_document(
            fh.read(), name=os.path.splitext(os.path.basename(path))[0]
        )


# ---------------------------------------------------------------------------
# model and datum specs
# ---------------------------------------------------------------------------


_T = TypeVar("_T")


def resolve_spec(
    spec: str,
    base_dir: str,
    kind: str,
    builtin: Callable[[str], _T],
    load: Callable[[str], _T],
) -> _T:
    """What a `builtin:<name>` spec, a file path or a bare builtin name
    names; ``kind`` ("model", "datum" or "family") words the errors.

    A path is read relative to ``base_dir``, a name that is no path is
    tried as a builtin, and ``builtin`` raises KeyError for an unknown
    name.  An empty spec, an unknown name or a directory is a ParseError.
    """
    spec = spec.strip()
    if not spec:
        raise ParseError(f"empty {kind} spec")
    if spec.startswith("builtin:"):
        try:
            return builtin(spec[len("builtin:") :])
        except KeyError as exc:
            raise ParseError(str(exc.args[0]))
    path = spec if os.path.isabs(spec) else os.path.join(base_dir, spec)
    if not os.path.exists(path):
        try:
            return builtin(spec)
        except KeyError:
            raise ParseError(f"no such {kind} file or builtin: {spec!r}")
    if os.path.isdir(path):
        raise ParseError(f"{kind} spec {spec!r} is a directory")
    return load(path)


def resolve_model_spec(spec: str, base_dir: str = ".") -> CochainAlgebra:
    """A model named `builtin:<name>` or given as a file path."""
    # models reads its builtins through this module: import it on use
    from .models import builtin_model

    return resolve_spec(
        spec,
        base_dir,
        "model",
        builtin_model,
        lambda path: load_algebra_document(path).algebra,
    )


def resolve_datum_spec(spec: str, base_dir: str = ".") -> HamiltonianTransferDatum:
    """A transfer datum named `builtin:<name>` or given as a file path."""
    from .models import builtin_datum

    return resolve_spec(spec, base_dir, "datum", builtin_datum, load_datum)


# ---------------------------------------------------------------------------
# family documents
# ---------------------------------------------------------------------------


def _parse_config(
    section: _Section,
    model_of: Callable[[str], CochainAlgebra],
    datum_of: Callable[[str], HamiltonianTransferDatum],
    eulers: dict[tuple, EulerData],
    position: int,
) -> ScanConfig:
    name = f"config-{position}"
    model_spec: Optional[str] = None
    datum_spec: Optional[str] = None
    triple: Optional[tuple[str, str, str]] = None
    bundles: list[WeightedLineBundle] = []
    chi: Optional[str] = None
    m: Optional[int] = None
    min_cap: Optional[int] = None
    expect: Optional[str] = None
    seen: set[str] = set()

    for lineno, line in section.rows:
        if line.startswith("bundle"):
            bundles.append(_parse_bundle(line, lineno))
            continue
        mo = _KV_RE.match(line)
        if not mo:
            raise ParseError(f"unrecognized config line {line!r}", line=lineno)
        key, value = mo.group(1), mo.group(2)
        if key in seen:
            raise ParseError(f"{key} given twice", line=lineno)
        seen.add(key)
        if key == "name" and not value:
            raise ParseError("a config name cannot be empty", line=lineno)
        elif key == "name":
            name = value
        elif key in ("model", "datum") and not value:
            raise ParseError(f"{key} needs a builtin name or a file path", line=lineno)
        elif key == "model":
            model_spec = value
        elif key == "datum":
            datum_spec = value
        elif key == "triple":
            parts = [p.strip() for p in value.split("|")]
            if len(parts) != 3 or not all(parts):
                raise ParseError(
                    "triple reads `triple = u | v | w`", line=lineno
                )
            triple = (parts[0], parts[1], parts[2])
        elif key == "chi":
            chi = value
        elif key == "m":
            m = _parse_int(key, value, lineno)
            if m < 1:
                raise ValueError(f"line {lineno}: m must be at least 1, got {m}")
        elif key == "min-cap":
            min_cap = _parse_int(key, value, lineno)
            if min_cap < 0:
                raise ValueError(
                    f"line {lineno}: min-cap must be nonnegative, got {min_cap}"
                )
        elif key == "expect":
            expect = value
        else:
            raise ParseError(f"unrecognized config key {key!r}", line=lineno)

    first = section.line
    if triple is None:
        raise ParseError("a config needs a triple", line=first)

    tautological = datum_spec is not None and datum_spec.strip() == "tautological"
    if datum_spec is not None and not tautological:
        if model_spec or bundles or chi or m is not None:
            raise ParseError(
                "a stored datum carries its own model and Euler data; drop "
                "the model/chi/m/bundle keys",
                line=first,
            )
        return ScanConfig(
            name=name, base=None, u=triple[0], v=triple[1], w=triple[2],
            datum=datum_of(datum_spec), min_cap=min_cap, expect=expect,
        )
    if model_spec is None:
        if tautological:
            raise ParseError(
                "the tautological datum needs a model to sit over", line=first
            )
        raise ParseError("a config needs a model or a datum", line=first)
    euler = EulerData.of(bundles, chi, m, line=first)
    euler = eulers.setdefault((euler.bundles, euler.polynomial, euler.m), euler)
    return ScanConfig(
        name=name, base=model_of(model_spec), u=triple[0], v=triple[1],
        w=triple[2], euler=euler, tautological=tautological, min_cap=min_cap,
        expect=expect,
    )


def parse_family_document(text: str, base_dir: str = ".") -> list[ScanConfig]:
    """The configs of a family document, in order.

    Each distinct model or datum spec is resolved once, so configs that
    name the same spec, or equal Euler data, share one object.  A
    tautological datum is built by the scan, in its config's row.
    """
    sections = _split_sections(text)
    model_of = functools.cache(lambda spec: resolve_model_spec(spec, base_dir))
    datum_of = functools.cache(lambda spec: resolve_datum_spec(spec, base_dir))
    eulers: dict[tuple, EulerData] = {}
    configs: list[ScanConfig] = []
    for section in sections:
        if section.name == "config":
            configs.append(
                _parse_config(section, model_of, datum_of, eulers, len(configs) + 1)
            )
        elif section.name == "family":
            for lineno, line in section.rows:
                mo = _KV_RE.match(line)
                if not mo or mo.group(1) != "name":
                    raise ParseError(
                        f"unrecognized family line {line!r}", line=lineno
                    )
        else:
            raise ParseError(
                f"unexpected section [{section.name or 'none'}] in a family file",
                line=section.line or 1,
            )
    if not configs:
        raise ParseError("a family file needs at least one [config]", line=1)
    return configs


def load_family(path: str) -> list[ScanConfig]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_family_document(
            fh.read(), base_dir=os.path.dirname(path) or "."
        )
