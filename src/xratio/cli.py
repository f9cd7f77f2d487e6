"""Command line entry point: `replay`.

Subcommands:
    run             execute the claim checklist and emit a report
    check-identity  compare two expressions in the point/derived scope
    subgroups       census of the 30 subgroups of the symmetric group on 4 letters
    conic           decide / search / parametrize the presentation conics
    stabilizer      upper-triangular stabilizer of a 4-point subset of P^1

Exit codes: 0 success, 1 when a FAIL verdict is present (or an identity does
not hold), 2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import conic, tables
from .checks import CHECK_IDS, run_checklist
from .exprparse import parse_expression
from .fields import XratioError, field_by_name
from .perms import (has_fixed_point, klein_part, splits,
                    subgroup_conjugacy_classes, subgroup_str, subgroups)
from .projline import ProjPoint1, borel_stabilizer
from .ratfunc import rf_eq
from .report import DEFAULT_FIELDS, RunConfig


def _split_csv(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def _cmd_run(args) -> int:
    fields = DEFAULT_FIELDS if args.fields is None else tuple(_split_csv(args.fields))
    config = RunConfig(seed=args.seed, fields=fields,
                       degree_bound=args.degree_bound, samples=args.samples)
    only = None if args.checks is None else _split_csv(args.checks)
    report = run_checklist(config, only=only)
    doc = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(doc)
        except OSError as exc:
            raise XratioError(f"--out: cannot write {args.out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(doc)
    return report.exit_code


def _cmd_check_identity(args) -> int:
    field = field_by_name(args.field)
    lhs = tables.in_derived(args.lhs, field)
    rhs = tables.in_derived(args.rhs, field)
    equal = rf_eq(lhs, rhs)
    word = "EQUAL" if equal else "NOT EQUAL"
    print(f"{word} over {field.name}: {args.lhs}  vs  {args.rhs}")
    if not equal:  # str() shows the display normalization
        print(f"  lhs = {lhs}\n  rhs = {rhs}")
    return 0 if equal else 1


def _cmd_subgroups(_args) -> int:
    subs = subgroups()
    classes = subgroup_conjugacy_classes()
    for k, s in enumerate(subs, start=1):
        did, _comp = splits(s)
        print(f"#{k:<3} order {len(s):<3} klein-part {len(klein_part(s))}  "
              f"splits {'yes' if did else 'NO '}  "
              f"fixed-point {'yes' if has_fixed_point(s) else 'no '}  "
              f"{subgroup_str(s)}")
    print(f"{len(subs)} subgroups, {len(classes)} conjugacy classes")
    return 0


def _cmd_conic(args) -> int:
    for option, action in (("degree_bound", "search"), ("point", "parametrize")):
        if getattr(args, option) is not None and args.action != action:
            raise XratioError(f"--{option.replace('_', '-')} applies to 'conic {action}' "
                              f"only, not to 'conic {args.action}'")
    field = field_by_name(args.field)
    if args.action == "decide":
        print(conic.decide_isotropy(field).render())
        return 0
    if args.action == "search":
        bound = 2 if args.degree_bound is None else args.degree_bound
        form = conic.criterion_form(field)
        point = conic.bounded_point_search(form, bound)
        print(f"form {form} over {field.name}(x)")
        if point is None:
            print(f"no zero with coordinates of degree <= {bound} (exhaustive)")
        else:
            print(f"first zero: {point}")
        return 0
    # parametrize
    if args.point:
        form = conic.criterion_form(field)
        coords = [parse_expression(t, form.ring)
                  for t in _split_csv(args.point)]
        base = conic.ProjPoint2(form.ring, coords)
    else:
        known = conic.known_point(field)
        if known is None:
            raise XratioError(
                f"{field.name} has no square root of -1, so the standard "
                "conic has no default point; pass --point Y,Z,W")
        form, base = known
    pm = conic.parametrize(form, base)
    print(f"form {form} over {field.name}(x)")
    print(f"base point {base}")
    print(pm.describe())
    return 0


def _cmd_stabilizer(args) -> int:
    field = field_by_name(args.field)
    pts = []
    for token in _split_csv(args.points):
        if token in ("inf", "oo", "infinity"):
            pts.append(ProjPoint1.infinity(field))
            continue
        try:
            value = int(token)
        except ValueError:
            raise XratioError(f"--points: {token!r} is not an integer or 'inf'") from None
        pts.append(ProjPoint1.affine(field, field.from_int(value)))
    stab = borel_stabilizer(pts, field)
    print(f"points {{{', '.join(str(p) for p in pts)}}} over {field.name}")
    for m in stab:
        print(f"  {m}")
    print(f"stabilizer order {len(stab)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `replay` parser, built once (each parse starts from fresh defaults);
    ``commands`` maps each command name to its own parser.  No option may be
    abbreviated, as `_join_values` matches option names exactly."""
    parser = argparse.ArgumentParser(
        prog="replay", allow_abbrev=False,
        description="re-verify the cross-ratio rationality computations")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p_run = add_parser("run", help="execute the claim checklist")
    p_run.add_argument("--checks", default=None,
                       help="comma-separated check ids (default: all); "
                            "known ids: " + ",".join(CHECK_IDS))
    p_run.add_argument("--fields", default=None,
                       help="comma-separated field names "
                            f"(default: {','.join(DEFAULT_FIELDS)})")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--degree-bound", type=int, default=2,
                       help="polynomial degree bound for the conic point search")
    p_run.add_argument("--samples", type=int, default=100,
                       help="sample count for the randomized evidence checks")
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.add_argument("--out", default=None, help="write the report to a file")
    p_run.set_defaults(func=_cmd_run)

    p_id = add_parser("check-identity",
                      help="compare two expressions in x1..x4 and the "
                           "derived quantities")
    p_id.add_argument("--field", default="Q")
    p_id.add_argument("--lhs", required=True)
    p_id.add_argument("--rhs", required=True)
    p_id.set_defaults(func=_cmd_check_identity)

    p_sub = add_parser("subgroups", help="subgroup census with split and "
                                         "fixed-point columns")
    p_sub.set_defaults(func=_cmd_subgroups)

    p_con = add_parser("conic", help="decide, search, or parametrize the "
                                     "presentation conics")
    p_con.add_argument("action", choices=("decide", "search", "parametrize"))
    p_con.add_argument("--field", default="Q")
    p_con.add_argument("--degree-bound", type=int, default=None,
                       help="polynomial degree bound, 'search' only (default 2)")
    p_con.add_argument("--point", default=None,
                       help="Y,Z,W coordinates (expressions in x), 'parametrize' only")
    p_con.set_defaults(func=_cmd_conic)

    p_st = add_parser("stabilizer",
                      help="upper-triangular stabilizer of a point list")
    p_st.add_argument("--field", required=True)
    p_st.add_argument("--points", required=True,
                      help="comma-separated values, integers or 'inf'")
    p_st.set_defaults(func=_cmd_stabilizer)
    parser.commands = sub.choices
    return parser


# options joined to their next token (`--lhs -x1` becomes `--lhs=-x1`), so a
# value may start with "-", which argparse would read as an option; no value
# starts with "--", so such a next token is an option and the value is missing
_VALUE_OPTIONS = ("--lhs", "--rhs", "--point", "--points")


def _join_values(argv) -> list:
    out = []
    for token in argv:
        if out and out[-1] in _VALUE_OPTIONS and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = _join_values(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # a known command parses in its own parser alone; no arguments, -h or an
    # unknown command in the top-level parser
    command = parser.commands.get(argv[0]) if argv else None
    args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
    try:
        return args.func(args)
    except (XratioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
