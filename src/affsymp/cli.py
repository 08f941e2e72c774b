"""Command-line entry point.

Subcommands: ``algebra info``, ``homology``, ``invariants``, ``verify`` and
``cache``.  Exit codes: 0 all requested checks passed, 1 a verification
failed, 2 usage or domain error or a file that cannot be written or removed
(say, a directory in place of a cache record), 3 resource-guard abort, 141
(128 + SIGPIPE) the reader of standard output went away before the output
was written.

The cache directory and memory cap come from ``--cache-dir`` /
``--memory-cap``, falling back to the environment variables
``AFFSYMP_CACHE_DIR`` / ``AFFSYMP_MEMORY_CAP``.  ``verify`` and
``homology`` make the cache directory; ``cache info`` and ``cache clear``
need it to exist and to hold one of its record folders (``diff/``,
``kernel/``, ``rank/``), so a mistyped path, even one of another
directory, exits 2 and touches nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .cache import CACHE_FOLDERS, DiffCache
from .errors import AffsympError, DomainError, ResourceLimitError
from .homology import homology_report
from .theorems import CLAIM_IDS, VerificationContext, run_all, run_claim

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_BROKEN_PIPE = 141


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affsymp",
        description=(
            "Exact-arithmetic homology engine for the affine symplectic "
            "Lie algebra and its subalgebras."
        ),
    )
    parser.add_argument("--version", action="version", version=f"affsymp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--cache-dir", default=None, help="differential cache directory")
        p.add_argument(
            "--memory-cap", type=int, default=None,
            help="abort when a matrix would exceed this many nonzero entries",
        )

    p_alg = sub.add_parser("algebra", help="inspect the built algebras")
    alg_sub = p_alg.add_subparsers(dest="algebra_command", required=True)
    p_info = alg_sub.add_parser("info", help="dimensions, labels, structure constants")
    p_info.add_argument("--family", required=True)
    p_info.add_argument("--n", type=int, required=True)
    common(p_info)

    p_hom = sub.add_parser("homology", help="Betti numbers of one complex")
    p_hom.add_argument("--family", required=True)
    p_hom.add_argument("--n", type=int, required=True)
    p_hom.add_argument(
        "--theory", required=True,
        help="lie | leibniz | adjoint | coeff:<trivial|adjoint|I^k> | rel | cr",
    )
    p_hom.add_argument("--max-degree", type=int, required=True)
    p_hom.add_argument("--emit-cycles", action="store_true")
    common(p_hom)

    p_inv = sub.add_parser("invariants", help="invariant dimension tables")
    p_inv.add_argument("--n", type=int, required=True)
    p_inv.add_argument("--k-max", type=int, required=True)
    common(p_inv)

    p_ver = sub.add_parser("verify", help="run one claim or the full suite")
    p_ver.add_argument(
        "claim", help="claim id (" + ", ".join(CLAIM_IDS) + ") or 'all'"
    )
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--cap", type=int, default=None)
    common(p_ver)

    p_cache = sub.add_parser("cache", help="manage the differential cache")
    p_cache.add_argument("cache_command", choices=("info", "clear"))
    p_cache.add_argument("--cache-dir", default=None)
    return parser


def _resolve_cache(args, create: bool = True) -> DiffCache | None:
    """The cache the flag or the environment names; without ``create`` it
    must be a directory already that holds a record folder, and nothing is
    made."""
    path = args.cache_dir or os.environ.get("AFFSYMP_CACHE_DIR")
    if not path:
        return None
    if not create and not any(os.path.isdir(os.path.join(path, sub)) for sub in CACHE_FOLDERS):
        raise DomainError(f"no cache directory at {path!r}")
    try:
        return DiffCache(path, create)
    except OSError as exc:
        raise DomainError(f"cannot use {path!r} as the cache directory: {exc.strerror}") from exc


def _resolve_cap(args) -> int | None:
    flag = getattr(args, "memory_cap", None)
    if flag is not None:
        if flag <= 0:
            raise DomainError(f"--memory-cap must be a positive integer, not {flag}")
        return flag
    env = os.environ.get("AFFSYMP_MEMORY_CAP")
    if not env:
        return None
    if not env.isdecimal() or int(env) == 0:
        raise DomainError(f"AFFSYMP_MEMORY_CAP must be a positive integer, not {env!r}")
    return int(env)


def _cmd_algebra_info(args) -> int:
    _resolve_cap(args)  # checked as elsewhere; the algebras build under the default cap
    ctx = VerificationContext()
    algebra = ctx.algebra(args.family, args.n)
    split = ctx.g(args.n)[1] if args.family == "g" else None
    payload = {
        "report": "algebra",
        "family": args.family,
        "n": args.n,
        "validation_passed": algebra.validate().passed,
        **algebra.to_json_dict(),
    }
    if split is not None:
        payload["ideal_indices"] = list(split.ideal_indices)
        payload["quotient_indices"] = list(split.quotient_indices)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        print("i,j,k,coefficient")
        for i, j, k, v in payload["brackets"]:
            print(f"{i},{j},{k},{v}")
    else:
        print(f"family {args.family}, n={args.n}: dimension {algebra.dim}")
        print(f"nonzero bracket coefficients: {len(payload['brackets'])}")
        print(f"validation: {'pass' if payload['validation_passed'] else 'FAIL'}")
        for i, label in enumerate(algebra.labels):
            print(f"  e{i} = {label}")
    return EXIT_OK


def _cmd_homology(args) -> int:
    cache = _resolve_cache(args)
    entry_cap = _resolve_cap(args)
    if args.max_degree < 0:
        raise DomainError("max degree must be >= 0")
    ctx = VerificationContext(cache=cache, entry_cap=entry_cap)
    # one degree above keeps every reported row exact
    complex_ = ctx.complex(args.theory, args.family, args.n, args.max_degree + 1)
    report = homology_report(complex_, args.max_degree, emit_cycles=args.emit_cycles)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        print(report.to_csv(), end="")
    else:
        print(report.to_text())
    return EXIT_OK


def _cmd_invariants(args) -> int:
    entry_cap = _resolve_cap(args)
    table = VerificationContext(entry_cap=entry_cap).invariant_table(args.n, args.k_max)
    if args.format == "json":
        print(table.to_json())
    elif args.format == "csv":
        print(table.to_csv(), end="")
    else:
        print(table.to_text())
    return EXIT_OK if table.passed else EXIT_VERIFICATION_FAILED


def _cmd_verify(args) -> int:
    cache = _resolve_cache(args)
    entry_cap = _resolve_cap(args)
    ctx = VerificationContext(cache=cache, entry_cap=entry_cap)
    if args.claim == "all":
        if args.cap is not None:
            raise DomainError("--cap applies to a single claim, not to 'all'")
        reports = run_all(ctx, args.n)
        if not reports:
            raise DomainError(f"no claims configured for n={args.n}")
    elif args.claim in CLAIM_IDS:
        reports = [run_claim(ctx, args.claim, args.n, args.cap)]
    else:
        raise DomainError(
            f"unknown claim {args.claim!r}; choose from {', '.join(CLAIM_IDS)} or all"
        )
    passed = all(r.passed for r in reports)
    if args.format == "json":
        if args.claim == "all":
            payload = {
                "report": "verification-suite",
                "n": args.n,
                "passed": passed,
                "reports": [r.to_json_dict() for r in reports],
            }
        else:
            payload = reports[0].to_json_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        print("claim,part,degree,expected,computed,passed")
        for r in reports:
            for row in r.rows:
                deg = "" if row.degree is None else row.degree
                print(
                    f"{r.claim_id},{row.part},{deg},{row.expected},"
                    f"{row.computed},{str(row.passed).lower()}"
                )
    else:
        for r in reports:
            print(r.to_text())
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILED


def _cmd_cache(args) -> int:
    cache = _resolve_cache(args, create=False)
    if cache is None:
        raise DomainError("no cache directory given (flag --cache-dir or AFFSYMP_CACHE_DIR)")
    if args.cache_command == "info":
        print(json.dumps(cache.stats(), indent=2, sort_keys=True))
    else:
        removed = cache.clear()
        print(f"removed {removed} cached artifacts from {cache.path}")
    return EXIT_OK


def _run(args) -> int:
    if args.command == "algebra":
        return _cmd_algebra_info(args)
    if args.command == "homology":
        return _cmd_homology(args)
    if args.command == "invariants":
        return _cmd_invariants(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "cache":
        return _cmd_cache(args)
    raise DomainError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # nothing reads standard output any more: point it at devnull, so
        # the interpreter's last flush cannot fail again (the recipe of the
        # Python ``signal`` documentation)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        # os.replace names the temporary file first and the record second
        path = exc.filename2 or exc.filename
        print(f"error: {path}: {exc.strerror}" if path else f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AffsympError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
