"""Command-line front end.

Subcommands: hf, ann, wlp, slp, bounds, classify, catalog, family, gin2,
perazzo, snake.  Each declares only the flags it reads, so a flag it would
ignore is a usage error.  Randomized commands require an explicit --seed;
there is no silent time-based seeding.  Reports go to stdout as text or,
with --json, as a versioned JSON document; diagnostics go to stderr.

Exit codes: 0 success, 2 input error, 3 hypothesis violation, 4 internal
inconsistency.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
from functools import cache

from . import __version__
from .bounds import binom_expansion, gotzmann_values, green_bound, is_o_sequence, macaulay_bound
from .catalog import (
    CATALOG_LABELS,
    EXPECTED_WEB_HF,
    GENERIC_GIN2,
    SPECIAL_GIN2,
    OrbitLabel,
    QuadricWeb,
    classify_web_report,
    gin2,
    inverse_system_sample,
    orbit_representative,
    perazzo_dual_form,
    quadric_ideal_hf,
)
from .duality import DualForm, ann_degree, hilbert_function
from .errors import HypothesisViolationError, InternalInconsistencyError
from .fields import QQ, PrimeField, field_from_description
from .grammar import ParseError, format_poly, parse_poly
from .lefschetz import SlpReport, Verdict, WlpReport, slp_check, snake_consistency, wlp_check
from .poly import Poly, random_linear_form

SCHEMA_VERSION = 2

_TEXT_ELISION = 12  # max items listed in text mode; JSON is always complete


class _InputError(Exception):
    pass


_FLAGS = {
    "field": dict(default="fp", metavar="q|fp[:PRIME]",
                  help="coefficient field (default: fp, the prime 2^61-1)"),
    "seed": dict(type=int, help="RNG seed (required)"),
    "trials": dict(type=int, default=5, help="randomized trials (default 5)"),
    "n": dict(type=int, help="ambient variable count (default: largest index used)"),
    "input": dict(metavar="PATH", help="read the polynomial/web text from a file"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Declare the named flags of `_FLAGS`, and --json, on one subcommand."""
    for name in names:
        parser.add_argument(f"--{name}", **_FLAGS[name])
    parser.add_argument("--json", action="store_true", help="emit a JSON report")


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apolar",
        description="exact Macaulay-duality computations for artinian Gorenstein algebras",
    )
    parser.add_argument("--version", action="version", version=f"apolar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("hf", help="Hilbert function of the algebra of a dual form")
    sp.add_argument("form", nargs="?", help="dual form in the polynomial grammar")
    _add_flags(sp, "field", "n", "input")

    sp = sub.add_parser("ann", help="basis of one graded piece of the annihilator")
    sp.add_argument("form", nargs="?")
    sp.add_argument("degree", type=int, help="graded piece to compute")
    _add_flags(sp, "field", "n", "input")

    for name, blurb in (("wlp", "weak Lefschetz check"), ("slp", "strong Lefschetz check")):
        sp = sub.add_parser(name, help=blurb)
        sp.add_argument("form", nargs="?")
        _add_flags(sp, "field", "seed", "trials", "n", "input")

    sp = sub.add_parser("bounds", help="binomial expansions and growth bounds")
    sp.add_argument("query", choices=["macaulay", "green", "gotzmann", "expansion", "osequence"])
    sp.add_argument("args", nargs="+", help="integers, or a comma-separated h-vector")
    _add_flags(sp)

    sp = sub.add_parser("classify", help="orbit label of a web of four quadrics")
    sp.add_argument("web", nargs="?", help="four comma-separated quadrics")
    _add_flags(sp, "field", "input")

    sp = sub.add_parser("catalog", help="catalog orbit representative with verified data")
    sp.add_argument("label", nargs="?", help="orbit label; omit to list all")
    _add_flags(sp)

    sp = sub.add_parser("family", help="sample an inverse-system dual form for a catalog web")
    sp.add_argument("label")
    sp.add_argument("degree", type=int)
    _add_flags(sp, "field", "seed", "trials")

    sp = sub.add_parser("gin2", help="degree-2 lex generic initial monomials of a web")
    sp.add_argument("web", nargs="?")
    _add_flags(sp, "field", "input")

    sp = sub.add_parser("perazzo", help="sharpness example of a given socle degree")
    sp.add_argument("d", type=int)
    sp.add_argument("--seed", type=int, help="RNG seed of an optional WLP check over --field")
    _add_flags(sp, "field", "trials")
    sp.set_defaults(field=None, trials=None)  # unset unless given, so that a stray one shows

    sp = sub.add_parser("snake", help="snake-lemma rank ledger for B, A, C")
    sp.add_argument("form", nargs="?")
    sp.add_argument("--g", default=None, metavar="FORM",
                    help="the form cutting B and C (default: a random linear form)")
    _add_flags(sp, "field", "seed", "n", "input")

    return parser


def _read_text(args, positional: str | None) -> str:
    if args.input is None:
        if positional is None:
            raise _InputError("missing input: pass it as an argument or with --input PATH")
        return positional
    if positional is not None:
        raise _InputError("pass the input either as an argument or with --input, not both")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError as exc:
        raise _InputError(f"cannot read --input {args.input}: {exc.strerror}") from None


def _infer_n(text: str) -> int:
    indices = [int(m) for m in re.findall(r"[Xx](\d+)", text)]
    if not indices:
        raise _InputError("no variables found in the input")
    return max(indices)


def _get_field(args):
    try:
        return field_from_description(args.field)
    except ValueError as exc:
        raise _InputError(str(exc)) from None


def _need_seed(args) -> int:
    if args.seed is None:
        raise _InputError("this command is randomized: pass --seed INT")
    return args.seed


def _need_prime(field, command: str) -> PrimeField:
    if not isinstance(field, PrimeField):
        raise _InputError(
            f"{command} runs over a prime field: use --field fp[:PRIME] rather than q"
        )
    return field


def _parse_form(args, field) -> DualForm:
    text = _read_text(args, args.form)
    n = args.n if args.n is not None else _infer_n(text)
    poly = parse_poly(text, n, field)
    if poly.is_zero():
        raise _InputError("the zero polynomial is not a dual form")
    if not poly.is_homogeneous():
        raise _InputError("dual form must be homogeneous")
    return DualForm(poly)


def _parse_web(args, field) -> QuadricWeb:
    text = _read_text(args, args.web)
    pieces = [t.strip() for t in text.split(",") if t.strip()]
    if len(pieces) != 4:
        raise _InputError(f"expected four comma-separated quadrics, got {len(pieces)}")
    quadrics = [parse_poly(t, 4, field) for t in pieces]
    try:
        return QuadricWeb(quadrics)
    except ValueError as exc:
        raise _InputError(str(exc)) from None


def _mono_text(exp) -> str:
    return format_poly(Poly.monomial(len(exp), QQ, exp), var="x")


_GIN2_SETS = {GENERIC_GIN2: "generic", SPECIAL_GIN2: "special"}


def _wlp_lines(report: WlpReport | SlpReport) -> list[str]:
    lines = []
    if report.verdict is Verdict.HOLDS:
        lines.append(f"verdict: Holds (certificate: trial {report.certificate_trial}, "
                     f"form {report.certificate_form})")
    elif isinstance(report, WlpReport):
        shown = sorted(set(report.failing_degrees) | set(report.dual_failing_degrees))
        lines.append(f"verdict: FailsAtDegrees({shown})")
    else:
        pairs = ", ".join(f"(i={i}, k={k})" for i, k in report.failing_pairs)
        lines.append(f"verdict: Fails at maps {pairs}")
    for r in report.records:
        flag = "maximal" if r.maximal else "DEFICIENT"
        lines.append(f"  map {r.i} -> {r.i + r.k}: rank {r.achieved}/{r.expected} {flag}")
    lines.append(f"trials used: {report.trials_used}, seed: {report.seed}, field: {report.field_description}")
    return lines


# -- command bodies -----------------------------------------------------------


def _cmd_hf(args):
    field = _get_field(args)
    form = _parse_form(args, field)
    h = hilbert_function(form)
    result = {
        "form": format_poly(form.poly),
        "n": form.n,
        "h": list(h),
        "socle_degree": h.socle_degree,
        "sperner": h.sperner,
        "symmetric": h.is_symmetric(),
    }
    text = [
        f"h-vector: {tuple(h)}",
        f"socle degree: {h.socle_degree}",
        f"sperner number: {h.sperner}",
        f"symmetric: {'yes' if h.is_symmetric() else 'no'}",
    ]
    return result, text


def _cmd_ann(args):
    field = _get_field(args)
    form = _parse_form(args, field)
    if args.degree < 0:
        raise _InputError("degree must be non-negative")
    basis = ann_degree(form, args.degree)
    texts = [format_poly(p, var="x") for p in basis]
    result = {"degree": args.degree, "dimension": len(basis), "basis": texts}
    text = [f"dim [Ann]_{args.degree} = {len(basis)}"]
    for t in texts[:_TEXT_ELISION]:
        text.append(f"  {t}")
    if len(texts) > _TEXT_ELISION:
        text.append(f"  ... ({len(texts) - _TEXT_ELISION} more; see --json)")
    return result, text


def _cmd_lefschetz(args, which: str):
    field = _need_prime(_get_field(args), which)
    seed = _need_seed(args)
    if args.trials < 1:
        raise _InputError("--trials must be at least 1")
    form = _parse_form(args, field)
    check = wlp_check if which == "wlp" else slp_check
    report = check(form, trials=args.trials, seed=seed)
    return report.to_dict(), _wlp_lines(report)


def _cmd_bounds(args):
    q = args.query
    if q == "osequence":
        try:
            entries = [int(x) for x in ",".join(args.args).split(",") if x.strip()]
        except ValueError:
            raise _InputError("osequence expects a comma-separated list of integers") from None
        ok, idx = is_o_sequence(entries)
        result = {"query": q, "h": entries, "valid": ok, "first_violation": idx}
        text = [f"osequence {tuple(entries)}: {'valid' if ok else f'violates growth at index {idx}'}"]
        return result, text
    try:
        ints = [int(x) for x in args.args]
    except ValueError:
        raise _InputError(f"{q} expects integer arguments") from None
    if q == "expansion":
        if len(ints) != 2:
            raise _InputError("expansion expects: N I")
        n, i = ints
        e = binom_expansion(n, i)
        parts = [[top, bot] for top, bot in e.parts]
        result = {"query": q, "n": n, "i": i, "parts": parts}
        text = [f"{n} = " + " + ".join(f"C({top},{bot})" for top, bot in e.parts)]
        return result, text
    if q in ("macaulay", "green"):
        if len(ints) != 2:
            raise _InputError(f"{q} expects: N I")
        n, i = ints
        if n < 0 or i < 1:
            raise _InputError("need N >= 0 and I >= 1")
        value = macaulay_bound(n, i) if q == "macaulay" else green_bound(n, i)
        result = {"query": q, "n": n, "i": i, "value": value}
        return result, [f"{q}({n}, {i}) = {value}"]
    if len(ints) != 3:
        raise _InputError("gotzmann expects: N D S")
    n, d, s = ints
    if n < 0 or d < 1 or s < 1:
        raise _InputError("need N >= 0, D >= 1 and S >= 1")
    value = gotzmann_values(n, d, s)
    return {"query": q, "n": n, "d": d, "s": s, "value": value}, [f"gotzmann({n}, {d}, {s}) = {value}"]


def _cmd_classify(args):
    field = _need_prime(_get_field(args), "classify")
    web = _parse_web(args, field)
    label, evidence = classify_web_report(web)
    result = {"label": label.value, "evidence": evidence}
    text = [f"orbit label: {label.value}"]
    text.append(f"  web ideal hf (0..5): {tuple(evidence['web_hf'])}")
    text.append(f"  common kernel dimension: {evidence['common_kernel_dim']}")
    if evidence["pencil_det_signature"] is not None:
        text.append(f"  pencil determinant signature: {evidence['pencil_det_signature']}")
    if evidence["dual_pencil_det_signature"] is not None:
        text.append(f"  dual pencil determinant signature: {evidence['dual_pencil_det_signature']}")
    if evidence["rank_one_points"] is not None:
        text.append(f"  rank-one points of the dual pencil: {evidence['rank_one_points']}")
    return result, text


def _cmd_catalog(args):
    if args.label is None:
        labels = [l.value for l in CATALOG_LABELS]
        return {"labels": labels}, ["catalog labels: " + ", ".join(labels)]
    label = OrbitLabel.from_text(args.label)
    if label is OrbitLabel.UNKNOWN:
        raise _InputError("no catalog entry for the Unknown label")
    web = orbit_representative(label, QQ)
    hf = quadric_ideal_hf(web, 5)
    if hf != EXPECTED_WEB_HF[label]:
        raise InternalInconsistencyError(
            f"catalog entry {label.value} has hf {hf}, expected {EXPECTED_WEB_HF[label]}"
        )
    gens = [format_poly(q, var="x") for q in web.quadrics]
    result = {"label": label.value, "generators": gens, "web_hf": list(hf)}
    text = [f"label: {label.value}",
            "generators: " + ", ".join(gens),
            f"web ideal hf (0..5): {hf} (verified)"]
    return result, text


def _cmd_family(args):
    field = _need_prime(_get_field(args), "family")
    seed = _need_seed(args)
    label = OrbitLabel.from_text(args.label)
    if label is OrbitLabel.UNKNOWN:
        raise _InputError("no catalog entry for the Unknown label")
    if args.degree < 2:
        raise _InputError("degree must be at least 2")
    web = orbit_representative(label, field)
    form = inverse_system_sample(web, args.degree, seed=seed)
    h = hilbert_function(form)
    report = wlp_check(form, trials=args.trials, seed=seed + 1)
    result = {
        "label": label.value,
        "degree": args.degree,
        "form": format_poly(form.poly),
        "h": list(h),
        "wlp": report.to_dict(),
    }
    text = [f"sampled dual form: {format_poly(form.poly)}",
            f"h-vector: {tuple(h)}"] + _wlp_lines(report)
    return result, text


def _cmd_gin2(args):
    field = _need_prime(_get_field(args), "gin2")
    web = _parse_web(args, field)
    pivots = gin2(web)
    names = [_mono_text(e) for e in pivots]
    kind = _GIN2_SETS[pivots]
    result = {"pivots": names, "set": kind}
    return result, [f"gin2 pivots: {{{', '.join(names)}}} ({kind} set)"]


def _cmd_perazzo(args):
    if args.d < 3:
        raise _InputError("the construction needs socle degree d >= 3")
    stray = [f"--{key}" for key in ("field", "trials") if getattr(args, key) is not None]
    if stray and args.seed is None:
        raise _InputError(f"{', '.join(stray)} only set the WLP check: pass --seed INT to run it")
    for key in ("field", "trials"):
        if getattr(args, key) is None:
            setattr(args, key, _FLAGS[key]["default"])
    field = _get_field(args)
    form = perazzo_dual_form(args.d, field=QQ)
    h = hilbert_function(form)
    result = {
        "d": args.d,
        "n": form.n,
        "form": format_poly(form.poly),
        "h": list(h),
        "sperner": h.sperner,
    }
    text = [f"dual form: {format_poly(form.poly)}",
            f"h-vector: {tuple(h)} (sperner {h.sperner} = socle degree + 2)"]
    if args.seed is not None:
        prime_field = _need_prime(field, "perazzo --seed")
        modular = DualForm(form.poly.map_to_field(prime_field))
        report = wlp_check(modular, trials=args.trials, seed=args.seed)
        result["wlp"] = report.to_dict()
        text += _wlp_lines(report)
    return result, text


def _cmd_snake(args):
    field = _need_prime(_get_field(args), "snake")
    seed = _need_seed(args)
    form = _parse_form(args, field)
    rng = random.Random(seed)
    ell = random_linear_form(form.n, field, rng)
    if args.g is not None:
        g = parse_poly(args.g, form.n, field)
        if g.is_zero() or not g.is_homogeneous():
            raise _InputError("--g must be a nonzero homogeneous form")
    else:
        g = random_linear_form(form.n, field, rng)
    ledger = snake_consistency(form, g, ell)
    result = {
        "g": format_poly(g, var="x"),
        "ell": format_poly(ell, var="x"),
        "ledger": ledger.to_dict(),
    }
    text = [f"g = {format_poly(g, var='x')}",
            f"ell = {format_poly(ell, var='x')}",
            f"consistent: {'yes' if ledger.consistent else 'NO'}"]
    for r in ledger.records[:_TEXT_ELISION]:
        text.append(
            f"  i={r.i}: B {r.dims_b[0]}->{r.dims_b[1]} rank {r.rank_b} | "
            f"A {r.dims_a[0]}->{r.dims_a[1]} rank {r.rank_a} | "
            f"C {r.dims_c[0]}->{r.dims_c[1]} rank {r.rank_c}"
        )
    if len(ledger.records) > _TEXT_ELISION:
        text.append(f"  ... ({len(ledger.records) - _TEXT_ELISION} more; see --json)")
    return result, text


_BODIES = {
    "hf": _cmd_hf,
    "ann": _cmd_ann,
    "wlp": lambda a: _cmd_lefschetz(a, "wlp"),
    "slp": lambda a: _cmd_lefschetz(a, "slp"),
    "bounds": _cmd_bounds,
    "classify": _cmd_classify,
    "catalog": _cmd_catalog,
    "family": _cmd_family,
    "gin2": _cmd_gin2,
    "perazzo": _cmd_perazzo,
    "snake": _cmd_snake,
}


def _config_echo(args) -> dict:
    return {key: getattr(args, key) for key in ("field", "seed", "trials", "n") if hasattr(args, key)}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        result, text = _BODIES[args.command](args)
    except (_InputError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4
    if args.json:
        report = {
            "schema_version": SCHEMA_VERSION,
            "tool": "apolar",
            "version": __version__,
            "command": args.command,
            "config": _config_echo(args),
            "result": result,
            "wall_time_ms": round((time.monotonic() - started) * 1000, 3),
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in text:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
