"""Command-line entry point.

Subcommands: coeff, cert42, audit42, cert84, paramsys, psd, sdp-export,
sdp-verify, reproduce, verify-all.  ``reproduce`` and ``verify-all`` print
what ``checks`` computes (its REPRODUCIBLES table and run_all).  Every
command is deterministic for a given invocation and uses exit codes as
the machine contract: 0 on success/verified, 1 on a failed verification,
2 on bad usage or unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cert42, cert84, checks, necklace, psdcert, sdpio
from .necklace import BudgetExceeded, TraceProblem
from .poly import mono_str, read_number


def _write_out(path, payload: dict) -> None:
    text = json.dumps(payload, indent=1, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)


def _read_json(path: str):
    """Parse one JSON input file; a decode error, or nesting too deep to
    parse, is a ValueError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (RecursionError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def cmd_coeff(args) -> int:
    problem = TraceProblem(args.m, args.r, args.n, diagonal_a=args.diagonal_a)
    if args.oracle == "necklace":
        p = necklace.trace_coeff_necklace(problem, budget=args.budget)
    else:
        p = necklace.trace_coeff_matrix(problem, budget=args.budget)
    payload = {"m": args.m, "r": args.r, "n": args.n,
               "diagonal_a": args.diagonal_a, "oracle": args.oracle,
               "terms": p.to_jsonable()}
    _write_out(args.out, payload)
    return 0


def _check_entries(count: int, budget: int) -> None:
    """Refuse a certificate of more than ``budget`` entries before any of
    it is built."""
    if count > budget:
        raise BudgetExceeded(count, budget, "certificate", "entries")


def cmd_cert42(args) -> int:
    _check_entries(cert42.entry_count(args.n), args.budget)
    cert = cert42.build_certificate42(args.n)
    payload = {
        "n": args.n,
        "q1": cert.q1.to_jsonable(),
        "q2": cert.q2.to_jsonable(),
        "z1": [mono_str(m) for m in cert.z1],
        "z2": {f"{i},{j}": [mono_str(m) for m in vec]
               for (i, j), vec in sorted(cert.z2_family.items())},
        "entry_sum": str(cert.entry_sum()),
    }
    _write_out(args.emit, payload)
    return 0


def cmd_audit42(args) -> int:
    report = cert42.accounting_audit(args.n, budget=args.budget)
    if args.json:
        print(json.dumps({
            "n": report.n, "ok": report.ok,
            "total_expected": report.total_expected,
            "total_assigned": report.total_assigned,
            "mismatches": [[repr(c), str(e), a]
                           for c, e, a in report.mismatches],
        }, indent=1, sort_keys=True))
    else:
        print(report.summary())
        for cell, expected, actual in report.mismatches[:20]:
            print(f"  mismatch {cell}: entry {expected}, counted {actual}")
    return 0 if report.ok else 1


def cmd_cert84(args) -> int:
    _check_entries(cert84.entry_count(args.n), args.budget)
    if args.params == "published":
        params = None
    elif args.params == "symbolic":
        params = cert84.SYMBOLIC
    else:
        raw = _read_json(args.params)
        if not isinstance(raw, dict):
            raise ValueError(f"{args.params}: expected a JSON object of "
                             f"x values")
        index = {f"x{k}": k for k in range(1, cert84.PARAM_COUNT + 1)}
        for key in raw:
            if key not in index:
                raise ValueError(f"{args.params}: {key!r} is not one of "
                                 f"x1..x{cert84.PARAM_COUNT}")
        params = {index[k]: read_number(v, f"{args.params}: {k}")
                  for k, v in raw.items()}
    cert = cert84.build_certificate84(args.n, params=params)
    payload = {
        "n": args.n,
        "rows": [[str(x) for x in row] for row in cert.q3],
        "z3_blocks_sizes": list(cert84.z3_block_sizes(args.n)) if args.n >= 2 else [],
        "entry_sum": str(cert.entry_sum()),
    }
    _write_out(args.emit, payload)
    return 0


def cmd_paramsys(args) -> int:
    try:
        system = cert84.derive_param_system(args.n, budget=args.budget)
    except cert84.InconsistentSystem as exc:
        print(exc)
        return 1
    if args.emit or args.json:
        _write_out(args.emit, system.to_jsonable())
    else:
        print(system)
        print(f"rank {system.rank} over {cert84.PARAM_COUNT} parameters")
    return 0


def cmd_psd(args) -> int:
    mat = psdcert.RationalMatrix.from_jsonable(_read_json(args.infile))
    if args.method in ("auto", "ldlt"):
        cert = psdcert.verify_ldlt(mat)
    elif args.method == "charpoly":
        cert = psdcert.verify_charpoly_signs(mat)
    elif args.method == "schur":
        if args.split is None:
            raise ValueError("--split is required for the schur method")
        cert = psdcert.verify_schur(mat, args.split)
    else:
        if not args.factor:
            raise ValueError("--factor is required for the gram method")
        u = psdcert.RationalMatrix.from_jsonable(_read_json(args.factor))
        cert = psdcert.verify_gram_factor(mat, u,
                                          read_number(args.scale, "--scale"))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(cert.to_jsonable(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    verdict = "PSD" if cert.psd else "NOT PSD"
    extra = f", nullity {cert.nullity}" if cert.nullity is not None else ""
    print(f"{verdict} via {cert.method}{extra}")
    return 0 if cert.psd else 1


def cmd_sdp_export(args) -> int:
    problem = TraceProblem(args.m, args.r, args.n, diagonal_a=args.diagonal_a)
    necklace.check_budget(problem, args.budget)  # before any basis is built
    if args.basis == "auto":
        basis = sdpio.auto_basis(problem)
    elif (args.m, args.r) == (4, 2):
        basis = sdpio.certificate_basis_42(args.n)
    elif (args.m, args.r) == (8, 4) and args.diagonal_a:
        basis = sdpio.certificate_basis_84(args.n)
    else:
        raise ValueError("--basis certificate is only available for (4,2) "
                         "and diagonal-A (8,4)")
    prob = sdpio.build_sdp(problem, basis, budget=args.budget)
    sdpio.export_sdpa(prob, args.out)
    print(f"wrote {args.out}: {len(prob.constraints)} constraints, "
          f"blocks {list(prob.blocks)}")
    return 0


def cmd_sdp_verify(args) -> int:
    prob = sdpio.import_sdpa(args.prob)
    report = sdpio.rationalize_and_verify(prob, _read_json(args.solution),
                                          denominator_bound=args.den_bound)
    if report.accepted:
        print("accepted: constraints hold exactly and every block is PSD")
        return 0
    print(f"rejected: {report.reason}")
    for label, cert in report.psd_certs.items():
        if "violating_e" in cert.witness:
            print(f"  block {label}: e_{cert.witness['violating_k']} = "
                  f"{cert.witness['violating_e']} < 0")
    for name, got, want in report.violations[:10]:
        print(f"  {name}: got {got}, want {want}")
    return 1


def cmd_reproduce(args) -> int:
    table = checks.REPRODUCIBLES
    names = list(table) if args.object == "all" else [args.object]
    unknown = [n for n in names if n not in table]
    if unknown:
        raise ValueError(
            f"unknown object {unknown[0]!r}; known: {', '.join(table)}")
    results = []
    for name in names:
        try:
            detail = table[name]()
            results.append({"object": name, "ok": True, "detail": detail})
        except checks.GoldenMismatch as exc:
            results.append({"object": name, "ok": False, "detail": str(exc)})
    if args.json:
        print(json.dumps(results, indent=1, sort_keys=True))
    else:
        for res in results:
            print(f"{'OK  ' if res['ok'] else 'FAIL'} {res['object']}: "
                  f"{res['detail']}")
    return 0 if all(res["ok"] for res in results) else 1


def cmd_verify_all(args) -> int:
    results = checks.run_all()
    if args.json:
        print(json.dumps(
            [{"name": r.name, "ok": r.ok, "detail": r.detail, "notes": r.notes}
             for r in results], indent=1, sort_keys=True))
    else:
        for r in results:
            print(r.line())
    failed = [r for r in results if not r.ok]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracesos",
        description="Exact certificates for trace-power coefficients")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p, unit="enumeration visits"):
        p.add_argument("--budget", type=int, default=necklace.DEFAULT_BUDGET,
                       help=f"max {unit} (default 1e8)")

    p = sub.add_parser("coeff", help="compute one coefficient polynomial")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--diagonal-a", action="store_true")
    p.add_argument("--oracle", choices=("necklace", "matrix"),
                   default="necklace")
    p.add_argument("--out", help="write JSON here instead of stdout")
    add_budget(p)
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("cert42", help="build the degree-4 certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit", help="write matrices and vectors to this file")
    add_budget(p, "certificate entries")
    p.set_defaults(func=cmd_cert42)

    p = sub.add_parser("audit42", help="replay the necklace accounting")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    add_budget(p)
    p.set_defaults(func=cmd_audit42)

    p = sub.add_parser(
        "cert84", help="build the degree-8 diagonal-A certificate",
        description="General symmetric A is out of scope for the degree-8 "
        "certificate; diagonalize A by an orthogonal change of basis first "
        "(the coefficient polynomial is basis-invariant).")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--params", default="published",
                   help="'published', 'symbolic', or a JSON file of x values")
    p.add_argument("--emit", help="write the Q3 matrix to this file")
    add_budget(p, "certificate entries")
    p.set_defaults(func=cmd_cert84)

    p = sub.add_parser("paramsys", help="re-derive the parameter constraints")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--emit", help="write the system to this file")
    p.add_argument("--json", action="store_true")
    add_budget(p)
    p.set_defaults(func=cmd_paramsys)

    p = sub.add_parser("psd", help="certify positive semidefiniteness")
    p.add_argument("--in", dest="infile", required=True,
                   help="matrix JSON ({'rows': [[...]]})")
    p.add_argument("--method", default="auto",
                   choices=("auto", "charpoly", "ldlt", "schur", "gram"))
    p.add_argument("--split", type=int, help="leading block size for schur")
    p.add_argument("--factor", help="factor matrix JSON for gram")
    p.add_argument("--scale", default="1", help="scale for gram")
    p.add_argument("--out", help="write the certificate JSON here")
    p.set_defaults(func=cmd_psd)

    p = sub.add_parser("sdp-export", help="write a coefficient-matching SDP")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--diagonal-a", action="store_true")
    p.add_argument("--basis", choices=("auto", "certificate"), default="auto")
    p.add_argument("--out", required=True)
    add_budget(p)
    p.set_defaults(func=cmd_sdp_export)

    p = sub.add_parser("sdp-verify", help="rationalize and verify a solution")
    p.add_argument("--prob", required=True)
    p.add_argument("--solution", required=True,
                   help="JSON {block label: row-major entries}")
    p.add_argument("--den-bound", type=int, default=10**4)
    p.set_defaults(func=cmd_sdp_verify)

    p = sub.add_parser("reproduce", help="regenerate a published object "
                       "and diff against the bundled transcription")
    p.add_argument("object", help="object id, or 'all'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("verify-all", help="run the full verification suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceeded, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
