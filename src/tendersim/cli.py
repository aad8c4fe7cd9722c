"""Command line front end: run scenarios, compare schemes, audit exports."""

from __future__ import annotations

import argparse
import sys

from . import audit
from .encoding import write_canonical_json
from .errors import NoSuchContract, TenderSimError
from .scenario import compare_schemes, run_scenario


def _cmd_run(args) -> int:
    outcome = run_scenario(args.scenario, out_dir=args.out)
    for line in outcome.summary_lines:
        print(line)
    return outcome.exit_code


def _cmd_compare(args) -> int:
    table, _ = compare_schemes(args.scenarios)
    print(table, end="")
    return 0


def _cmd_audit(args) -> int:
    wanted = None if args.tender is None else audit.parse_address(args.tender)
    with open(args.chain_export, "rb") as file:
        replay = audit.replay_chain(audit.parse_export(file))
    tenders = list(replay.tenders) if wanted is None else [wanted]
    if not tenders:
        raise NoSuchContract("no tender deployment found in the export")
    worst = 0
    reports = []
    for addr in tenders:
        report = audit.replay_and_audit(replay, addr)
        reports.append(report)
        print(report.one_line())
        if not report.ok():
            worst = 1
    if args.out:
        write_canonical_json(args.out, [r.to_dict() for r in reports])
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tendersim",
        description="Deterministic sealed-bid tendering simulator with a citizen auditor.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file and write its reports")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--out", default=None, help="directory for report files")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="run scenarios and tabulate scheme differences")
    cmp_p.add_argument("scenarios", nargs="+", help="two or more scenario files")
    cmp_p.set_defaults(func=_cmd_compare)

    audit_p = sub.add_parser("audit", help="audit a chain export as a citizen would")
    audit_p.add_argument("chain_export", help="path to a chain export JSON file")
    audit_p.add_argument("--tender", default=None,
                         help="tender address (defaults to every tender deployed on the chain)")
    audit_p.add_argument("--out", default=None, help="file for the full audit report")
    audit_p.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TenderSimError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing or unreadable file, a directory
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
