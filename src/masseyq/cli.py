"""Command-line front end.

Seven subcommands: `cohomology` (Betti numbers and class bases),
`massey` (one triple product), `euler` (an equivariant Euler class),
`lemma32` (the Euler-scaled non-vanishing check with its full witness
chain), `transfer` (validate a pushforward datum and run the
localization argument), `theorem11` (the whole pipeline) and `scan`
(a family of configurations in one run).

Models and data are file paths or `builtin:<name>` specs.  Output is
`--format human` (the default) or `--format structured`, a JSON
document with exact rationals rendered as strings; both are assembled
from the same payload, and identical inputs give byte-identical output.

A failed request reports the status and exit code that the outcome
table in ``report`` gives its exception; README lists every exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from typing import Optional, Sequence

from .cdga import CochainAlgebra, recap
from .cohomology import CohomologyRing, MasseyResult, triple_massey
from .errors import DegreeCapError, ParseError
from .fileformat import (
    load_family,
    parse_bundle_line,
    resolve_datum_spec,
    resolve_model_spec,
    resolve_spec,
)
from .models import builtin_family
from .report import (
    EXIT_CAP,
    EXIT_FINDINGS,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PREMISE,
    EXIT_UNDEFINED,
    EXIT_VANISHES,
    Report,
    STATUS_CAP,
    STATUS_INVALID,
    STATUS_OK,
    STATUS_PREMISE,
    format_table,
    outcome,
)
from .transfer import (
    EulerData,
    EulerScaledReport,
    GysinReport,
    build_setup,
    check_euler_scaled_massey,
    check_gysin_transfer,
    class_h_components,
    required_cap,
    run_transfer_pipeline,
    scan_families,
)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _resolve_model(spec: str, cap: Optional[int]) -> CochainAlgebra:
    model = resolve_model_spec(spec, os.getcwd())
    if cap is not None and cap != model.cap:
        model = recap(model, cap)
    return model


_FLAG_WORDS = (
    "give --bundle flags or --chi with --m, not both",
    "Euler data is required: --bundle flags, or --chi with --m",
)


def _euler_data(args) -> EulerData:
    """The Euler data of the --bundle, --chi and --m flags."""
    bundles = []
    for spec in args.bundle or []:
        text = spec.strip()
        if not text.startswith("bundle"):
            text = "bundle " + text
        bundles.append(parse_bundle_line(text))
    return EulerData.of(bundles, args.chi, args.m, words=_FLAG_WORDS)


# ---------------------------------------------------------------------------
# payload builders
# ---------------------------------------------------------------------------


def _massey_payload(res: MasseyResult) -> dict:
    payload: dict = {
        "defined": res.defined,
        "degree": res.degree,
        "classes": [str(c) for c in res.inputs],
    }
    if not res.defined:
        payload["obstruction"] = res.reason
        if res.left_product is not None:
            payload["left-product"] = str(res.left_product)
        if res.right_product is not None:
            payload["right-product"] = str(res.right_product)
        return payload
    payload.update(
        {
            "representative": str(res.rep_class),
            "representative-cochain": str(res.representative),
            "x-witness": str(res.x_witness),
            "y-witness": str(res.y_witness),
            "indeterminacy-dimension": res.indeterminacy.dim,
            "vanishes": res.vanishes,
            "in-ideal": res.in_ideal,
            "verdict": "vanishes" if res.vanishes else "non-vanishing",
        }
    )
    return payload


# Some keys below are always true: each names a check that raises
# ConsistencyError when it fails, so no report reaches a payload then.
# check_euler_scaled_massey raises for embedded-image-contained, each
# scaling-chain step and witness-in-scaled-product; check_gysin_transfer
# for containment-holds and both *-restriction-zero-implies-zero keys.


def _euler_scaled_payload(rep: EulerScaledReport) -> dict:
    h_table = class_h_components(rep.witness)
    payload: dict = {
        "verdict": rep.verdict,
        "degrees": list(rep.degrees),
        "extension-cap": rep.ext_cap,
        "m": rep.chi.m,
        "chi": str(rep.chi.cls),
        "chi-cochain": str(rep.chi.element),
        "zero-divisor-ok": rep.zero_divisor.ok,
        "zero-divisor-degrees-checked": len(rep.zero_divisor.degrees_checked),
        "base-product": _massey_payload(rep.base_result),
        "embedded-product": _massey_payload(rep.embedded_result),
        # the two routes agree, or check_euler_scaled_massey raises
        "embedded-nonvanishing-direct": rep.embedded_nonvanishing,
        "embedded-nonvanishing-via-base": rep.embedded_nonvanishing,
        "embedded-image-contained": True,
        "scaling-chain": [{"scaled-slots": i, "holds": True} for i in (1, 2, 3)],
        "scaled-product": _massey_payload(rep.scaled_result),
        "witness": str(rep.witness),
        "witness-h-coefficients": {
            str(j): str(cls) for j, cls in sorted(h_table.items())
        },
        "witness-in-scaled-product": True,
        "witness-in-ideal": not rep.machinery.fired,
        "machinery-fired": rep.machinery.fired,
    }
    if rep.chi.weights is not None:
        payload["weights"] = list(rep.chi.weights)
    if not rep.machinery.fired:
        payload["ideal-solution"] = {
            "a": str(rep.machinery.solution_a),
            "b": str(rep.machinery.solution_b),
        }
    return payload


def _gysin_payload(rep: GysinReport) -> dict:
    return {
        "verdict": rep.status,
        "fixed-product": _massey_payload(rep.fixed_result),
        "ambient-product": _massey_payload(rep.ambient_result),
        "containment-holds": True,
        "uv-restriction-zero-implies-zero": True,
        "vw-restriction-zero-implies-zero": True,
    }


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_cohomology(args) -> Report:
    if args.max_degree is not None and args.max_degree < 0:
        raise ValueError("--max-degree must be nonnegative")
    model = _resolve_model(args.model, args.cap)
    ring = CohomologyRing(model)
    top = ring.top
    max_degree = args.max_degree if args.max_degree is not None else top
    if max_degree > top:
        raise DegreeCapError(
            f"cohomology in degree {max_degree} needs cap at least "
            f"{max_degree + 1}, have {model.cap}",
            required_cap=max_degree + 1,
        )
    degrees = list(range(max_degree + 1))
    payload = {
        "model": args.model,
        "cap": model.cap,
        "max-degree": max_degree,
        "cochain-dimensions": [model.dim(n) for n in degrees],
        "betti": [ring.class_dim(n) for n in degrees],
        "classes": {
            str(n): [str(c) for c in ring.basis_classes(n)] for n in degrees
        },
    }
    return Report("cohomology", STATUS_OK, EXIT_OK, payload)


def _cmd_massey(args) -> Report:
    model = _resolve_model(args.model, args.cap)
    ring = CohomologyRing(model)
    classes = []
    for poly in (args.u, args.v, args.w):
        el = model.from_polynomial(poly)
        boundary = el.d()
        if not boundary.is_zero():
            # Not a class at all, so no triple product exists; this is
            # an undefined verdict, not a malformed input.
            return Report(
                "massey",
                STATUS_OK,
                EXIT_UNDEFINED,
                {
                    "model": args.model,
                    "inputs": [args.u, args.v, args.w],
                    "classes": [args.u, args.v, args.w],
                    "defined": False,
                    "obstruction": (
                        f"{poly} is not a cocycle (d gives {boundary})"
                    ),
                },
            )
        classes.append(ring.project(el))
    res = triple_massey(classes[0], classes[1], classes[2])
    payload = {"model": args.model, "inputs": [args.u, args.v, args.w]}
    payload.update(_massey_payload(res))
    if not res.defined:
        exit_code = EXIT_UNDEFINED
    elif res.vanishes:
        exit_code = EXIT_VANISHES
    else:
        exit_code = EXIT_OK
    return Report("massey", STATUS_OK, exit_code, payload)


def _cmd_euler(args) -> Report:
    model = _resolve_model(args.model, None)
    euler = _euler_data(args)
    cap = max(model.cap, 2 * euler.m + 1, args.cap or 0)
    chi = euler.build(build_setup(model, cap))
    h_table = class_h_components(chi.cls)
    payload = {
        "model": args.model,
        "m": chi.m,
        "degree": 2 * chi.m,
        "extension-cap": cap,
        "chi": str(chi.cls),
        "chi-cochain": str(chi.element),
        "top-coefficient": str(chi.top_coefficient),
        "h-components": {str(j): str(cls) for j, cls in sorted(h_table.items())},
    }
    if chi.weights is not None:
        payload["weights"] = list(chi.weights)
    return Report("euler", STATUS_OK, EXIT_OK, payload)


def _cmd_lemma32(args) -> Report:
    model = _resolve_model(args.model, None)
    euler = _euler_data(args)
    required = required_cap(model, args.u, args.v, args.w, euler.m)
    if args.cap is not None and args.cap < required:
        message = (
            f"this triple with m = {euler.m} needs cap {required}, "
            f"got --cap {args.cap}"
        )
        return Report(
            "lemma32",
            STATUS_CAP,
            EXIT_CAP,
            {
                "model": args.model,
                "inputs": [args.u, args.v, args.w],
                "error": message,
                "required-cap": required,
                "given-cap": args.cap,
            },
        )
    rep = check_euler_scaled_massey(
        model, args.u, args.v, args.w, euler, min_cap=args.cap
    )
    payload = {
        "model": args.model,
        "inputs": [args.u, args.v, args.w],
        "required-cap": required,
    }
    payload.update(_euler_scaled_payload(rep))
    exit_code = EXIT_OK if rep.verdict == "non-vanishing" else EXIT_VANISHES
    return Report("lemma32", STATUS_OK, exit_code, payload)


def _cmd_transfer(args) -> Report:
    datum = resolve_datum_spec(args.datum, os.getcwd())
    if datum.findings:
        return Report(
            "transfer",
            STATUS_INVALID,
            EXIT_INVALID,
            {
                "datum": args.datum,
                "inputs": [args.u, args.v, args.w],
                "findings": list(datum.findings),
            },
        )
    gys = check_gysin_transfer(datum, args.u, args.v, args.w)
    payload = {
        "datum": args.datum,
        "inputs": [args.u, args.v, args.w],
        "findings": [],
    }
    payload.update(_gysin_payload(gys))
    if gys.status == "non-vanishing":
        return Report("transfer", STATUS_OK, EXIT_OK, payload)
    return Report("transfer", STATUS_OK, EXIT_PREMISE, payload)


def _cmd_theorem11(args) -> Report:
    model = euler = datum = None
    if args.datum is not None:
        if len(args.args) != 3:
            raise ParseError(
                "with --datum, theorem11 takes exactly three classes: U V W"
            )
        u, v, w = args.args
        if args.bundle or args.chi or args.m is not None:
            raise ParseError(
                "a stored datum carries its own Euler data; drop "
                "--bundle/--chi/--m"
            )
        datum = resolve_datum_spec(args.datum, os.getcwd())
        source = args.datum
    else:
        if len(args.args) != 4:
            raise ParseError(
                "theorem11 takes MODEL U V W (or U V W with --datum)"
            )
        model_spec, u, v, w = args.args
        model = _resolve_model(model_spec, None)
        euler = _euler_data(args)
        source = f"tautological over {model_spec}"
    rep = run_transfer_pipeline(
        model, u, v, w, euler=euler, datum=datum, tautological=datum is None,
        min_cap=args.cap,
    )
    payload: dict = {
        "datum": source,
        "inputs": [u, v, w],
        "pipeline-status": rep.status,
        "verdict": rep.verdict,
    }
    if rep.datum_findings:
        payload["findings"] = rep.datum_findings
    if rep.premise_error is not None:
        payload["premise-error"] = rep.premise_error
    if rep.euler is not None:
        payload["euler"] = _euler_scaled_payload(rep.euler)
    if rep.gysin is not None:
        payload["gysin"] = _gysin_payload(rep.gysin)
    if rep.gysin_error is not None:
        payload["gysin-error"] = rep.gysin_error

    if rep.status == "invalid-datum":
        return Report("theorem11", STATUS_INVALID, EXIT_INVALID, payload)
    if rep.verdict == "non-vanishing":
        return Report("theorem11", STATUS_OK, EXIT_OK, payload)
    if rep.verdict == "vanishes":
        return Report("theorem11", STATUS_OK, EXIT_VANISHES, payload)
    status = STATUS_PREMISE if rep.status == "premise-failed" else STATUS_OK
    return Report("theorem11", status, EXIT_PREMISE, payload)


def _cmd_scan(args) -> Report:
    configs = resolve_spec(
        args.family, os.getcwd(), "family", builtin_family, load_family
    )
    report = scan_families(configs, budget=args.budget)
    payload = {
        "family": args.family,
        "total": report.total,
        "completed": report.completed,
        "exhausted": report.exhausted,
        "rows": [dataclasses.asdict(row) for row in report.rows],
        "findings": list(report.findings),
    }
    exit_code = EXIT_FINDINGS if report.findings else EXIT_OK
    return Report("scan", STATUS_OK, exit_code, payload)


# ---------------------------------------------------------------------------
# human rendering
# ---------------------------------------------------------------------------


def _render_massey_block(block: dict, indent: str = "  ") -> list[str]:
    lines = []
    lines.append(indent + "classes: " + ", ".join(block["classes"]))
    if not block["defined"]:
        lines.append(indent + "undefined: " + str(block.get("obstruction")))
        for key in ("left-product", "right-product"):
            if key in block:
                lines.append(indent + f"{key.replace('-', ' ')}: {block[key]}")
        return lines
    lines.append(
        indent
        + f"representative {block['representative']} in degree {block['degree']}"
        + f" (cochain {block['representative-cochain']})"
    )
    lines.append(
        indent
        + f"indeterminacy dimension {block['indeterminacy-dimension']}; "
        + f"vanishes: {_yesno(block['vanishes'])}; "
        + f"in ideal: {_yesno(block['in-ideal'])}"
    )
    return lines


def _render_witness_chain(payload: dict) -> list[str]:
    scaled = payload["scaled-product"]
    lines = ["witness chain:"]
    lines.append(f"  chi = {payload['chi']}  (cochain {payload['chi-cochain']})")
    if "weights" in payload:
        lines.append(
            "  weights: " + " ".join(str(wt) for wt in payload["weights"])
        )
    lines.append(f"  x cochain: {scaled['x-witness']}")
    lines.append(f"  y cochain: {scaled['y-witness']}")
    lines.append(f"  chi^3 x = {payload['witness']}")
    lines.append("  h-coefficients of chi^3 x:")
    for j, cls in sorted(
        payload["witness-h-coefficients"].items(), key=lambda kv: int(kv[0])
    ):
        lines.append(f"    h^{j} : {cls}")
    return lines


def _render_euler_scaled(payload: dict) -> list[str]:
    lines = []
    degrees = " ".join(str(d) for d in payload["degrees"])
    lines.append(
        f"input degrees {degrees}; m = {payload['m']}; "
        f"extension cap {payload['extension-cap']}"
    )
    lines.append(
        "zero-divisor check: "
        + ("ok" if payload["zero-divisor-ok"] else "FAILED")
        + f" ({payload['zero-divisor-degrees-checked']} degrees)"
    )
    lines.append("base product:")
    lines.extend(_render_massey_block(payload["base-product"]))
    lines.append("embedded product:")
    lines.extend(_render_massey_block(payload["embedded-product"]))
    lines.append(
        "  non-vanishing directly: "
        + _yesno(payload["embedded-nonvanishing-direct"])
        + "; via the base: "
        + _yesno(payload["embedded-nonvanishing-via-base"])
        + "; embedded image contained: "
        + _yesno(payload["embedded-image-contained"])
    )
    lines.append("scaling chain:")
    for step in payload["scaling-chain"]:
        lines.append(
            f"  chi into {step['scaled-slots']} slot(s): "
            + ("contained" if step["holds"] else "NOT CONTAINED")
        )
    lines.append("fully scaled product:")
    lines.extend(_render_massey_block(payload["scaled-product"]))
    lines.extend(_render_witness_chain(payload))
    lines.append(
        "witness in scaled product: "
        + _yesno(payload["witness-in-scaled-product"])
        + "; witness in scaled ideal: "
        + _yesno(payload["witness-in-ideal"])
        + "; machinery fired: "
        + _yesno(payload["machinery-fired"])
    )
    if "ideal-solution" in payload:
        sol = payload["ideal-solution"]
        lines.append(f"  ideal solution a = {sol['a']}, b = {sol['b']}")
    return lines


def _render_gysin(payload: dict) -> list[str]:
    lines = []
    lines.append("fixed-points product:")
    lines.extend(_render_massey_block(payload["fixed-product"]))
    lines.append("ambient product:")
    lines.extend(_render_massey_block(payload["ambient-product"]))
    lines.append(
        "pushforward containment: "
        + _yesno(payload["containment-holds"])
        + "; restriction-zero checks: "
        + _yesno(
            payload["uv-restriction-zero-implies-zero"]
            and payload["vw-restriction-zero-implies-zero"]
        )
    )
    return lines


def _render_human(report: Report) -> str:
    payload = report.payload
    lines: list[str] = [f"{report.command}: {report.status}"]
    if "error" in payload:
        lines.append(f"error: {payload['error']}")
        for key in ("required-cap", "given-cap"):
            if key in payload:
                lines.append(f"{key.replace('-', ' ')}: {payload[key]}")
        return "\n".join(lines) + "\n"

    if report.command == "cohomology":
        lines.append(f"model: {payload['model']} (cap {payload['cap']})")
        rows = []
        for n in range(payload["max-degree"] + 1):
            basis = payload["classes"][str(n)]
            rows.append(
                [
                    str(n),
                    str(payload["cochain-dimensions"][n]),
                    str(payload["betti"][n]),
                    ", ".join(basis) if basis else "-",
                ]
            )
        lines.append(
            format_table(rows, header=["degree", "cochains", "betti", "classes"])
        )
    elif report.command == "massey":
        verdict = payload.get("verdict", "undefined")
        lines[0] = f"massey: {verdict}"
        lines.append(f"model: {payload['model']}")
        lines.extend(_render_massey_block(payload, indent=""))
        if "x-witness" in payload:
            lines.append(f"x cochain: {payload['x-witness']}")
            lines.append(f"y cochain: {payload['y-witness']}")
    elif report.command == "euler":
        lines.append(f"model: {payload['model']}")
        lines.append(
            f"chi = {payload['chi']} in degree {payload['degree']}"
            f" (cochain {payload['chi-cochain']})"
        )
        if "weights" in payload:
            lines.append(
                "weights: " + " ".join(str(wt) for wt in payload["weights"])
            )
        lines.append(f"top coefficient: {payload['top-coefficient']}")
        lines.append("h-components:")
        for j, cls in sorted(
            payload["h-components"].items(), key=lambda kv: int(kv[0])
        ):
            lines.append(f"  h^{j} : {cls}")
    elif report.command == "lemma32":
        lines[0] = f"lemma32: {payload['verdict']}"
        lines.append(
            f"model: {payload['model']}; triple: "
            + ", ".join(payload["inputs"])
        )
        lines.extend(_render_euler_scaled(payload))
    elif report.command == "transfer":
        lines[0] = f"transfer: {payload.get('verdict', report.status)}"
        lines.append(f"datum: {payload['datum']}")
        if payload.get("findings"):
            lines.append("findings:")
            for finding in payload["findings"]:
                lines.append(f"  - {finding}")
        else:
            lines.extend(_render_gysin(payload))
    elif report.command == "theorem11":
        lines[0] = f"theorem11: {payload['verdict']}"
        lines.append(f"datum: {payload['datum']}")
        lines.append(
            "pipeline status: "
            + payload["pipeline-status"]
            + "; triple: "
            + ", ".join(payload["inputs"])
        )
        if payload.get("findings"):
            lines.append("datum findings:")
            for finding in payload["findings"]:
                lines.append(f"  - {finding}")
        if "premise-error" in payload:
            lines.append(f"premise failure: {payload['premise-error']}")
        if "euler" in payload:
            lines.append("Euler-scaled check:")
            lines.extend("  " + ln for ln in _render_euler_scaled(payload["euler"]))
        if "gysin-error" in payload:
            lines.append(f"transfer failure: {payload['gysin-error']}")
        if "gysin" in payload:
            lines.append("localization transfer:")
            lines.extend("  " + ln for ln in _render_gysin(payload["gysin"]))
    elif report.command == "scan":
        lines[0] = (
            f"scan: {payload['completed']} of {payload['total']} configurations, "
            + f"{len(payload['findings'])} finding(s)"
        )
        rows = [
            [row["name"], row["status"], row["verdict"], row["note"] or "-"]
            for row in payload["rows"]
        ]
        lines.append(
            format_table(rows, header=["name", "status", "verdict", "note"])
        )
        if payload["exhausted"]:
            lines.append(
                f"budget exhausted after {payload['completed']} of "
                f"{payload['total']}"
            )
        for finding in payload["findings"]:
            lines.append(f"finding: {finding}")
    return "\n".join(lines) + "\n"


def _emit(report: Report, fmt: str) -> None:
    if fmt == "structured":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(_render_human(report))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_format(sub) -> None:
    sub.add_argument(
        "--format",
        choices=("human", "structured"),
        default="human",
        help="human text or machine-readable JSON",
    )


def _add_euler_flags(sub) -> None:
    sub.add_argument(
        "--bundle",
        action="append",
        metavar="SPEC",
        help="a weighted line bundle, e.g. 'c1 = x*z weight = 2' "
        "or 'weight = 1'; repeatable",
    )
    sub.add_argument("--chi", help="the Euler class as a polynomial")
    sub.add_argument("--m", type=int, help="half the degree of chi")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused after.

    ``parse_args`` leaves a parser unchanged, so one serves every call.
    """
    parser = argparse.ArgumentParser(
        prog="masseyq",
        description="Triple products, Euler scaling and fixed-point "
        "transfer over exact rationals.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("cohomology", help="Betti numbers and class bases")
    p.add_argument("model", help="model file or builtin:<name>")
    p.add_argument("--max-degree", type=int, help="report through this degree")
    p.add_argument("--cap", type=int, help="re-cap a free model")
    _add_format(p)
    p.set_defaults(handler=_cmd_cohomology)

    p = subs.add_parser("massey", help="one triple product")
    p.add_argument("model")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("w")
    p.add_argument("--cap", type=int, help="re-cap a free model")
    _add_format(p)
    p.set_defaults(handler=_cmd_massey)

    p = subs.add_parser("euler", help="an equivariant Euler class")
    p.add_argument("model")
    p.add_argument("--cap", type=int, help="extension cap floor")
    _add_euler_flags(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_euler)

    p = subs.add_parser(
        "lemma32",
        help="verify a non-vanishing product survives Euler scaling",
    )
    p.add_argument("model")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("w")
    p.add_argument(
        "--cap",
        type=int,
        help="extension cap; below the required cap this errors out",
    )
    _add_euler_flags(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_lemma32)

    p = subs.add_parser(
        "transfer", help="validate a pushforward datum and transfer a product"
    )
    p.add_argument("datum", help="datum file or builtin:<name>")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("w")
    _add_format(p)
    p.set_defaults(handler=_cmd_transfer)

    p = subs.add_parser(
        "theorem11",
        help="the full pipeline: premises, Euler scaling and transfer",
    )
    p.add_argument(
        "args",
        nargs="+",
        metavar="ARG",
        help="MODEL U V W, or U V W together with --datum",
    )
    p.add_argument("--datum", help="datum file or builtin:<name>")
    p.add_argument("--cap", type=int, help="extension cap floor")
    _add_euler_flags(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_theorem11)

    p = subs.add_parser("scan", help="run a family of configurations")
    p.add_argument("family", help="family file or builtin:<name>")
    p.add_argument(
        "--budget", type=int, help="run at most this many configurations"
    )
    _add_format(p)
    p.set_defaults(handler=_cmd_scan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_PARSE

    command = args.command
    try:
        if getattr(args, "cap", None) is not None and args.cap < 0:
            raise ValueError("--cap must be nonnegative")
        report = args.handler(args)
    except Exception as exc:
        known = outcome(exc)
        if known is None:
            raise
        report = Report(command, *known)
    _emit(report, args.format)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
