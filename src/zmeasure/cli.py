"""Command-line interface.

Subcommands: measure, kernel, verify, sample, plus the meixner and scaling
shortcuts.  Exit status is 0 on success or all checks passing, 1 when a
verification suite fails, 2 on usage or parameter errors.  Numeric output is
JSON or CSV; floats are printed in shortest round-trip form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .kernels import kernel_block_matrix, meixner_kernel_matrix
from .measures import (
    ADMISSIBILITY_CONDITIONS,
    AdmissibilityError,
    GrandParams,
    ZParams,
    z_measure_table,
)
from .partitions import PartitionCapError
from .sampling import sample_batch
from .specfun import ConvergenceError, DomainError, PoleError, RealizationError
from .verification import SUITE_NAMES, run_suite, scaling_limit_check

OUT_DIR_ENV = "ZMEASURE_OUT_DIR"

_BLOCK_ALIASES = {
    "pp": "++",
    "pm": "+-",
    "mp": "-+",
    "mm": "--",
    "++": "++",
    "+-": "+-",
    "-+": "-+",
    "--": "--",
}


def _parse_complex(text: str) -> complex:
    """Parse 'a', 'a+bi' or 'a+bj' (locale-independent)."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc


def _parse_block(text: str) -> str:
    try:
        return _BLOCK_ALIASES[text.strip()]
    except KeyError as exc:
        raise argparse.ArgumentTypeError(
            f"block must be one of ++, +-, -+, -- (or pp, pm, mp, mm), got {text!r}"
        ) from exc


def _parse_xi_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse xi list {text!r}") from exc
    if not values or not all(0.0 < x < 1.0 for x in values):
        raise argparse.ArgumentTypeError("xi values must lie in (0, 1)")
    return values


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _emit(text: str, out: str | None) -> None:
    path = _resolve_out(out)
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _matrix_csv(entries: np.ndarray) -> str:
    size = entries.shape[0]
    lines = ["k\\l," + ",".join(str(l) for l in range(entries.shape[1]))]
    for k in range(size):
        lines.append(str(k) + "," + ",".join(repr(float(v)) for v in entries[k]))
    return "\n".join(lines)


def _zparams(args: argparse.Namespace) -> ZParams:
    return ZParams(args.z, args.zp)


def _add_param_options(parser: argparse.ArgumentParser, with_xi: bool = True) -> None:
    parser.add_argument("--z", type=_parse_complex, default=complex(0.5),
                        help="first parameter z (real or 'a+bi'); default 0.5")
    parser.add_argument("--zp", type=_parse_complex, default=complex(1.0 / 3.0),
                        help="second parameter z' (conjugate of z, or real in the same unit interval); default 1/3")
    if with_xi:
        parser.add_argument("--xi", type=float, default=0.2,
                            help="mixing parameter in (0, 1); default 0.2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zmeasure",
        description="z-measures on partitions, their lattice point process, and the "
        "hypergeometric correlation kernel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser(
        "measure",
        help="per-diagram probabilities of the n-box measure",
        description="Emits one JSON row {parts, frobenius, value} per diagram of n boxes. "
        "The measure is t^d/(t)_n * prod_i (1+z)_p (1+z')_p (1-z)_q (1-z')_q * dim^2/n! "
        "with t = z z' and (p|q) the Frobenius coordinates.",
    )
    p_measure.add_argument("--n", type=int, required=True, help="number of boxes")
    _add_param_options(p_measure, with_xi=False)
    p_measure.add_argument("--out", help="output file (JSON lines); default stdout")
    p_measure.set_defaults(func=cmd_measure)

    p_kernel = sub.add_parser(
        "kernel",
        help="truncated correlation-kernel block",
        description="Emits one block of the correlation kernel K = L(1+L)^(-1), whose "
        "entries are built from Gauss 2F1 values at the argument xi/(xi-1). Blocks: "
        "same-sign blocks (P(k)Q(l)-Q(k)P(l))/(k-l), mixed blocks "
        "+-(P(k)P(l)+Q(k)Q(l))/(k+l+1). Use --block=-- (equals form) for the minus-minus block.",
    )
    _add_param_options(p_kernel)
    p_kernel.add_argument("--block", type=_parse_block, default="++",
                          help="one of ++, +-, -+, -- (aliases pp, pm, mp, mm)")
    p_kernel.add_argument("--trunc", type=int, default=5, help="matrix truncation; default 5")
    p_kernel.add_argument("--format", choices=("csv", "json"), default="csv")
    p_kernel.add_argument("--out", help="output file; default stdout")
    p_kernel.set_defaults(func=cmd_kernel)

    p_verify = sub.add_parser(
        "verify",
        help="run a verification suite",
        description="Runs one of the built-in check suites: measure normalization and "
        "spot values, kernel-vs-brute-force oracle, the determinant identity "
        "det(1+L) = (1-xi)^(-t), hypergeometric identity grids, the Meixner "
        "degeneration, and the Whittaker scaling limit. Exit status 1 if any case fails.",
    )
    p_verify.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    _add_param_options(p_verify)
    p_verify.add_argument("--default-params", action="store_true",
                          help="ignore --z/--zp/--xi and use each suite's built-in parameter sets")
    p_verify.add_argument("--out", help="write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    p_sample = sub.add_parser(
        "sample",
        help="draw diagrams from the grand ensemble",
        description="Seeded exact sampling: the diagram size is drawn from the "
        "negative-binomial weight (1-xi)^t (t)_n/n! xi^n, then the diagram from the "
        "n-box measure by inverse CDF over the enumeration. All draws come from one "
        "NumPy PCG64 stream spawned from the seed, so the same seed and parameters "
        "give the same draws. Emits JSON lines: one metadata row, then one row per draw.",
    )
    _add_param_options(p_sample)
    p_sample.add_argument("--seed", type=int, required=True, help="seed of the random stream")
    p_sample.add_argument("--count", type=int, required=True, help="number of draws")
    p_sample.add_argument("--n-cap", type=int, default=30,
                          help="largest size sampled exactly; default 30")
    p_sample.add_argument("--out", help="output file (JSON lines); default stdout")
    p_sample.set_defaults(func=cmd_sample)

    p_meixner = sub.add_parser(
        "meixner",
        help="truncated Meixner projection kernel",
        description="Emits the rank-N Christoffel-Darboux projection kernel for Meixner "
        "polynomials with weight (alpha+1)_k xi^k / k!, as a dense matrix. The '++' "
        "kernel block at z = N + alpha, z' = N equals this kernel shifted by N.",
    )
    p_meixner.add_argument("--rank", type=int, default=3, help="projection rank N; default 3")
    p_meixner.add_argument("--alpha", type=float, default=0.5, help="weight parameter > -1")
    p_meixner.add_argument("--xi", type=float, default=0.4)
    p_meixner.add_argument("--trunc", type=int, default=10)
    p_meixner.add_argument("--format", choices=("csv", "json"), default="csv")
    p_meixner.add_argument("--out", help="output file; default stdout")
    p_meixner.set_defaults(func=cmd_meixner)

    p_scaling = sub.add_parser(
        "scaling",
        help="scaling-limit convergence table",
        description="Compares the rescaled lattice kernel (1-xi)^(-1) K([u/(1-xi)], "
        "[v/(1-xi)]) against the Whittaker kernel as xi increases toward 1, for all "
        "four blocks; the error must decrease strictly along the xi list.",
    )
    p_scaling.add_argument("--z", type=_parse_complex, default=complex(0.5))
    p_scaling.add_argument("--zp", type=_parse_complex, default=complex(1.0 / 3.0))
    p_scaling.add_argument("--u", type=float, default=1.0)
    p_scaling.add_argument("--v", type=float, default=2.0)
    p_scaling.add_argument("--xi-list", type=_parse_xi_list, default=(0.9, 0.99, 0.999))
    p_scaling.add_argument("--out", help="write the JSON report here")
    p_scaling.set_defaults(func=cmd_scaling)

    return parser


def cmd_measure(args: argparse.Namespace) -> int:
    rows = []
    for lam, value in z_measure_table(args.n, _zparams(args)):
        p, q = lam.frobenius
        rows.append(json.dumps({"parts": lam.to_json(), "frobenius": [list(p), list(q)], "value": value}))
    _emit("\n".join(rows) if rows else "", args.out)
    return 0


def cmd_kernel(args: argparse.Namespace) -> int:
    zp = _zparams(args)
    block = kernel_block_matrix(GrandParams(zp, args.xi), args.block, args.trunc)
    if args.format == "json":
        _emit(json.dumps(block.to_json()), args.out)
    else:
        _emit(_matrix_csv(block.entries), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.default_params:
        reports = run_suite(args.suite)
    else:
        reports = run_suite(args.suite, _zparams(args), args.xi)
    payload = [r.to_dict() for r in reports]
    if args.out:
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        sys.stderr.write(
            f"suite {r.suite}: {status} ({len(r.cases)} cases, {r.runtime_seconds:.2f} s)\n"
        )
        for c in r.failures():
            sys.stderr.write(f"  FAIL {c.label}: lhs={c.lhs!r} rhs={c.rhs!r} tol={c.tol!r}\n")
    return 0 if all(r.passed for r in reports) else 1


def cmd_sample(args: argparse.Namespace) -> int:
    gp = GrandParams(_zparams(args), args.xi)
    batch = sample_batch(gp, args.count, args.seed, n_cap=args.n_cap)
    lines = [json.dumps(batch.meta())]
    for i, lam in enumerate(batch.draws):
        lines.append(json.dumps({"draw": i, "n": lam.n, "parts": lam.to_json()}))
    _emit("\n".join(lines), args.out)
    return 0


def cmd_meixner(args: argparse.Namespace) -> int:
    if args.rank < 1:
        raise DomainError("rank must be positive")
    if args.alpha <= -1.0:
        raise DomainError("alpha must exceed -1")
    mat = meixner_kernel_matrix(args.rank, args.alpha, args.xi, args.trunc)
    if args.format == "json":
        payload = {
            "schema": "zmeasure.kernel/1",
            "block": "meixner",
            "trunc": args.trunc,
            "rank": args.rank,
            "alpha": args.alpha,
            "xi": args.xi,
            "entries": mat.tolist(),
        }
        _emit(json.dumps(payload), args.out)
    else:
        _emit(_matrix_csv(mat), args.out)
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    report = scaling_limit_check(ZParams(args.z, args.zp), args.u, args.v, args.xi_list)
    payload = [report.to_dict()]
    if args.out:
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    status = "PASS" if report.passed else "FAIL"
    sys.stderr.write(f"suite scaling: {status} ({len(report.cases)} cases)\n")
    return 0 if report.passed else 1


def _preprocess_argv(argv: list[str]) -> list[str]:
    """Rewrite block symbols to safe aliases (argparse drops a literal '--' value)."""
    symbol_alias = {"++": "pp", "+-": "pm", "-+": "mp", "--": "mm"}
    out = []
    expect_block_value = False
    for token in argv:
        if expect_block_value:
            out.append(symbol_alias.get(token, token))
            expect_block_value = False
        elif token == "--block":
            out.append(token)
            expect_block_value = True
        elif token.startswith("--block="):
            value = token[len("--block="):]
            out.append("--block=" + symbol_alias.get(value, value))
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_preprocess_argv(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except AdmissibilityError as exc:
        sys.stderr.write(f"parameter error: {exc}\n{ADMISSIBILITY_CONDITIONS}\n")
        return 2
    except (DomainError, PoleError, PartitionCapError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ConvergenceError, RealizationError) as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
