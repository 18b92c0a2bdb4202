"""Batch command-line front end.

Commands
--------
demo-disk           sweep chord integrals of the disk density over a
                    (theta, p) grid and compare the induced moments
verify-identities   run the exact-arithmetic identity suite
range-check         test the moments of a body file for range membership
                    (rho and the densities are sampled once for all
                    orders, and moments.csv reuses those moments)
reconstruct         recover rho^2 from a body file and certify the ellipse
perturbation-study  sweep perturbation sizes and tabulate the separation
                    between recurrence residuals and membership failure

Exit codes: 0 success / certified, 1 a check or certification failed,
2 degeneracy or quadrature failure, 64 configuration or input errors.
Outputs are deterministic: fixed key order, no timestamps (run metadata
goes to a ``run_meta.json`` sidecar).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import hankel_certificate, identity_suite
from .bodies import load_tangential
from .circle import theta_grid
from .errors import DegeneratePointError, NotInModelError, ReconstructionFailedError
from .moments import even_moments
from .radon import disk_sinogram, mollified_moment, second_p_derivative_moments
from .rangetest import membership_battery
from .reconstruct import reconstruct, synthesize_moments

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DEGENERATE = 2
EXIT_CONFIG = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 64
        raise _UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def _column(values) -> list:
    """CSV text of one column, as :func:`_fmt` gives it value by value."""
    if isinstance(values, np.ndarray) and values.dtype == float:
        return [format(x, ".17g") for x in values.tolist()]
    return [_fmt(x) for x in values]


def _write_csv(path: Path, header, blocks) -> None:
    """Write the rows of each block in turn; a block is a tuple of columns of CSV text."""
    lines = [",".join(header)]
    for columns in blocks:
        lines.extend(map(",".join, zip(*columns)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _out_dir(args) -> Path | None:
    if args.out is None:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_meta(out: Path | None, argv) -> None:
    if out is not None:
        _write_json(out / "run_meta.json", {"argv": list(argv), "version": __version__})


def _validate_grid(n: int, max_half_order: int) -> None:
    if n < 4 or (n & (n - 1)) != 0:
        raise _UsageError(f"--grid must be a power of two >= 4, got {n}")
    if n < 4 * max_half_order + 4:
        raise _UsageError(
            f"--grid {n} is too small for K={max_half_order}; need >= {4 * max_half_order + 4}"
        )


def _parse_window(text):
    if text is None:
        return None
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise _UsageError(f"--window must look like LO:HI, got {text!r}") from exc
    return (lo, hi)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_demo_disk(args, argv) -> int:
    _validate_grid(args.grid, args.K)
    out = _out_dir(args)
    thetas = theta_grid(args.grid)
    ps = (np.arange(101) - 50) / 32.0  # dyadic spacing so |p| = 1 appears exactly
    values = disk_sinogram(thetas, ps, nodes=32)

    tangent = np.abs(ps) == 1.0
    if tangent.any():
        print(
            f"warning: skipped {int(tangent.sum())} tangent line offsets |p| = 1",
            file=sys.stderr,
        )
    inner = np.abs(ps) <= 0.99
    outer = np.abs(ps) >= 1.01
    max_dev_inner = float(np.max(np.abs(values[:, inner] - 1.0)))
    max_dev_outer = float(np.max(np.abs(values[:, outer])))
    checks_ok = max_dev_inner <= args.tol and max_dev_outer == 0.0

    moment_rows = []
    moments_ok = True
    for k in range(0, 2 * args.K + 1, 2):
        exact = 2 * k
        via_module = second_p_derivative_moments(k)
        mollified = mollified_moment(k, 0.05)
        moments_ok = moments_ok and via_module == exact
        moment_rows.append((k, exact, int(via_module), mollified, abs(mollified - exact)))

    if out is not None:
        p_text = _column(ps[~tangent])
        rows = zip(_column(thetas), values[:, ~tangent])
        blocks = (([t] * len(p_text), p_text, _column(v)) for t, v in rows)
        _write_csv(out / "sinogram.csv", ("theta", "p", "value"), blocks)
        _write_csv(
            out / "moment_check.csv",
            ("k", "exact", "distributional", "mollified", "mollified_error"),
            [[_column(col) for col in zip(*moment_rows)]],
        )
        _write_json(
            out / "summary.json",
            {
                "grid": args.grid,
                "lines": len(ps),
                "max_deviation_inside": max_dev_inner,
                "max_deviation_outside": max_dev_outer,
                "tolerance": args.tol,
                "checks_passed": bool(checks_ok and moments_ok),
            },
        )
        _write_meta(out, argv)

    print(f"chord integrals: max |R f0 - 1| = {max_dev_inner:.3e} on |p| <= 0.99")
    print(f"chord integrals: max |R f0| = {max_dev_outer:.3e} on |p| >= 1.01")
    print(f"moments: distributional values {'match' if moments_ok else 'MISMATCH'} 2k")
    if checks_ok and moments_ok:
        print("demo-disk: PASS")
        return EXIT_OK
    print("demo-disk: FAIL")
    return EXIT_DEGENERATE


def cmd_verify_identities(args, argv) -> int:
    out = _out_dir(args)
    results = identity_suite(m_max=args.m)
    width = max(len(name) for name, _, _ in results)
    all_ok = True
    for name, ok, detail in results:
        all_ok = all_ok and ok
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    if out is not None:
        from .radon import tangential_disk_data

        payload = {
            "m_max": args.m,
            "results": [
                {"name": name, "passed": ok, "detail": detail} for name, ok, detail in results
            ],
            "disk_certificate": hankel_certificate(tangential_disk_data(), n=16).to_dict(),
        }
        _write_json(out / "identities.json", payload)
        _write_meta(out, argv)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_range_check(args, argv) -> int:
    _validate_grid(args.grid, args.K)
    out = _out_dir(args)
    data = load_tangential(_body_path(args))
    _check_exact_mode(args, data)
    n = data.rho.grid_size or args.grid
    if data.rho.grid_size is not None and n < 8 * args.K + 4:
        # a sampled rho gives p_{2K} no trig form, so it is tested on its samples
        raise _UsageError(
            f"the body's grid of {n} samples is too small for --K {args.K}: "
            f"degree {2 * args.K} needs >= {8 * args.K + 4}"
        )
    # one sampling of rho and the densities serves the battery and moments.csv
    orders = range(0, 2 * args.K + 1, 2)
    moments = even_moments(data, orders, n)
    reports = membership_battery(moments, args.tol)
    all_pass = all(r.verdict for r in reports)
    for r in reports:
        print(
            f"degree {r.degree:>3}: {'pass' if r.verdict else 'FAIL'} "
            f"(forbidden energy {r.forbidden_energy:.3e})"
        )
    if out is not None:
        _write_json(out / "range_reports.json", [r.to_dict() for r in reports])
        thetas = _column(theta_grid(n))
        blocks = (([str(k)] * n, thetas, _column(p.as_float())) for k, p in zip(orders, moments))
        _write_csv(out / "moments.csv", ("k", "theta", "value"), blocks)
        _write_meta(out, argv)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_reconstruct(args, argv) -> int:
    _validate_grid(args.grid, args.K)
    out = _out_dir(args)
    window = _parse_window(args.window)
    data = load_tangential(_body_path(args))
    _check_exact_mode(args, data)
    m = args.m if args.m is not None else data.m
    n = data.rho.grid_size or args.grid
    try:
        seq = synthesize_moments(data, max(args.K, 3 * data.m - 2, 2 * m - 1), n=n)
        report = reconstruct(seq, m, window=window, tol=args.tol)
    except (DegeneratePointError, NotInModelError, ReconstructionFailedError) as exc:
        print(f"reconstruction degenerate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    if out is not None:
        _write_json(out / "reconstruction.json", report.to_dict())
        theta = theta_grid(report.grid_size)[np.asarray(report.indices, dtype=np.intp)]
        rho2 = np.asarray(report.rho2_values, dtype=float)
        residual = [_fmt(report.relative_residual)] * len(rho2)
        block = (_column(theta), _column(rho2), residual)
        _write_csv(out / "rho2.csv", ("theta", "rho2", "relative_residual"), [block])
        _write_meta(out, argv)
    print(f"verdict: {report.verdict}")
    print(f"max recurrence residual: {report.max_residual:.3e} (scale {report.residual_scale:.3e})")
    if report.verdict == "ellipse":
        print(f"quadratic form: {np.asarray(report.ellipse_matrix, dtype=float).tolist()}")
        return EXIT_OK
    if report.verdict == "window-only":
        print("membership: not locally testable on a window")
        return EXIT_OK
    return EXIT_CHECK_FAILED


def cmd_perturbation_study(args, argv) -> int:
    _validate_grid(args.grid, args.K)
    out = _out_dir(args)
    from .circle import TrigPoly
    from .geometry import TangentialData, disk, perturb

    eps_values = [0.01, 0.05, 0.1] if not args.eps else args.eps
    rows = []
    separation_ok = True
    for eps in eps_values:
        body = perturb(disk(1), eps, args.frequency)
        data = TangentialData(body, (TrigPoly.constant(1),))
        seq = synthesize_moments(data, max(args.K, 6), n=args.grid)
        report = reconstruct(seq, 1, tol=args.tol)
        forbidden_ratio = report.quadratic_verdict.forbidden_energy / max(
            report.quadratic_verdict.total_energy, 1e-300
        )
        membership_failed = not report.quadratic_verdict.verdict
        residual_ok = report.relative_residual <= 1e-9
        separation_ok = separation_ok and membership_failed and residual_ok
        rows.append(
            (
                eps,
                args.frequency,
                forbidden_ratio,
                "fail" if membership_failed else "pass",
                report.relative_residual,
            )
        )
        print(
            f"eps={eps}: membership {'fails' if membership_failed else 'passes'}, "
            f"forbidden ratio {forbidden_ratio:.3e}, residual {report.relative_residual:.3e}"
        )
    if out is not None:
        _write_csv(
            out / "perturbation.csv",
            ("eps", "frequency", "forbidden_ratio", "membership", "relative_residual"),
            [[_column(col) for col in zip(*rows)]],
        )
        _write_meta(out, argv)
    print(f"separation (identities hold, membership fails): {'PASS' if separation_ok else 'FAIL'}")
    return EXIT_OK if separation_ok else EXIT_CHECK_FAILED


def _body_path(args) -> str:
    if args.body is None:
        raise _UsageError("--body PATH is required for this command")
    return args.body


def _check_exact_mode(args, data) -> None:
    # exact arithmetic needs rational values of rho itself on the grid,
    # which only disks and exactly sampled bodies provide
    if args.exact and not data.is_exact:
        raise _UsageError(
            "--exact needs a body with exact rational grid values "
            "(a rational disk or a sampled body with p/q entries)"
        )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radonrange",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, body=False):
        p.add_argument("--grid", type=int, default=512, help="theta grid size (power of two)")
        p.add_argument("--K", type=int, default=12, help="maximum half-order of moments")
        p.add_argument("--m", type=int, default=None, help="number of densities")
        p.add_argument("--tol", type=float, default=1e-8, help="relative tolerance")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--exact", action="store_true", help="require exact rational arithmetic")
        if body:
            p.add_argument("--body", default=None, help="path to a body JSON document")

    p = sub.add_parser("demo-disk", help="chord-integral identity of the disk density")
    common(p)

    p = sub.add_parser("verify-identities", help="exact identity suite")
    common(p)
    p.set_defaults(m=6)

    p = sub.add_parser("range-check", help="range membership of a body's moments")
    common(p, body=True)

    p = sub.add_parser("reconstruct", help="recover rho^2 and certify the ellipse")
    common(p, body=True)
    p.add_argument("--window", default=None, help="restrict to the arc LO:HI (radians)")

    p = sub.add_parser("perturbation-study", help="separation of identities vs membership")
    common(p)
    p.add_argument("--eps", type=float, nargs="*", default=None, help="perturbation sizes")
    p.add_argument("--frequency", type=int, default=4, help="perturbation frequency")
    return parser


_PARSER = build_parser()

_COMMANDS = {
    "demo-disk": cmd_demo_disk,
    "verify-identities": cmd_verify_identities,
    "range-check": cmd_range_check,
    "reconstruct": cmd_reconstruct,
    "perturbation-study": cmd_perturbation_study,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _PARSER.parse_args(argv)
        if getattr(args, "m", None) is not None and args.m < 1:
            raise _UsageError("--m must be >= 1")
        if not 0 < getattr(args, "tol", 1.0) < math.inf:
            raise _UsageError("--tol must be positive and finite")
        if not all(map(math.isfinite, getattr(args, "eps", None) or ())):
            raise _UsageError("--eps must be finite")
        if getattr(args, "K", 1) < 1:
            raise _UsageError("--K must be >= 1")
        return _COMMANDS[args.command](args, argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # InvalidParameterError, HypothesisViolatedError and JSONDecodeError are
    # ValueErrors; TypeError/KeyError cover malformed body documents
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
