"""Command-line front end.

Subcommands: ``check`` (verdict at one time), ``sweep`` (CSV over a time
grid), ``example`` (built-in self-checking qutrit fixture), ``random``
(seeded ensemble generation).  Exit codes are part of the contract:
0 = separable, 3 = entangled, 1 = error.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .criteria import (DEFAULT_TOL_COMM, _condition_norms, _report,
                       _require_tol_comm, _verdict)
from .evolution import joint_state, propagators
from .linalg import LinalgError, partial_transpose
from .model import (
    EnsembleSpec,
    Family,
    ValidationError,
    load_model,
    mixed_qutrit_example,
    random_instance,
    save_model,
    validate,
)
from .witnesses import _negativity, pt_spectrum

EXIT_SEPARABLE = 0
EXIT_ERROR = 1
EXIT_ENTANGLED = 3

CSV_HEADER = ["t", "max_qubit_like_norm", "max_cross_norm",
              "min_pt_eig", "negativity", "verdict"]


def _sig6(x):
    return f"{x:.6g}"


def _buffers(n, m):
    """The two (NM, NM) arrays that sigma and its partial transpose are
    written into; a loop over times or same-sized models allocates them once."""
    return tuple(np.empty((n * m, n * m), np.complex128) for _ in range(2))


def _require_finite(option, value):
    if not math.isfinite(value):
        raise ValueError(f"{option} must be finite, got {value!r}")


def _evaluate(model, t, buffers):
    """One time step of every command: the qubit-like and cross norm arrays
    and the ascending partial-transpose spectrum."""
    sigma_out, pt_out = buffers
    props = propagators(model, t)
    norms = _condition_norms(model.r0, props.w)
    eigs = pt_spectrum(joint_state(model, props, out=sigma_out), out=pt_out)
    return norms, eigs


def _evaluate_report(model, t, tol_comm, buffers):
    """``_evaluate`` plus the step's CriterionReport, for the commands that
    print one."""
    norms, eigs = _evaluate(model, t, buffers)
    return _report(t, *norms, tol_comm), eigs, _negativity(eigs)


def _print_report(report, eigs, neg, fmt):
    if fmt == "json":
        doc = report.to_dict()
        doc["pt"] = {
            "min_eigenvalue": float(eigs[0]),
            "negativity": neg,
            "eigenvalues": [float(e) for e in eigs],
        }
        print(json.dumps(doc, indent=2))
        return
    print(f"t        = {_sig6(report.t)}")
    print(f"verdict  = {report.verdict}")
    for j, norm in report.qubit_like:
        print(f"qubit-like [R(0), w_0^dag w_{j}]  norm = {_sig6(norm)}")
    for j, l, norm in report.cross:
        print(f"cross      [W_{j}0, W_{l}0]        norm = {_sig6(norm)}")
    print(f"margin   = {_sig6(report.margin)}")
    print(f"PT min eigenvalue = {_sig6(eigs[0])}")
    print(f"negativity        = {_sig6(neg)}")
    if report.witnesses:
        print("failed conditions: " + ", ".join(report.witnesses))


def cmd_check(args):
    _require_finite("--t", args.t)
    model = validate(load_model(args.model))
    report, eigs, neg = _evaluate_report(model, args.t, args.tol_comm,
                                         _buffers(model.n, model.m))
    _print_report(report, eigs, neg, args.format)
    return EXIT_SEPARABLE if report.separable else EXIT_ENTANGLED


def cmd_sweep(args):
    _require_finite("--t-start", args.t_start)
    _require_finite("--t-end", args.t_end)
    if args.steps < 2:
        raise ValueError("steps must be >= 2")
    if not args.t_start < args.t_end:
        raise ValueError("t-start must be < t-end")
    if not math.isfinite(args.t_end - args.t_start):
        raise ValueError("t-end - t-start must be finite")
    model = validate(load_model(args.model))
    grid = np.linspace(args.t_start, args.t_end, args.steps)
    buffers = _buffers(model.n, model.m)
    numbers = np.empty((args.steps, len(CSV_HEADER) - 1))
    numbers[:, 0] = grid
    verdicts = []
    for step, t in enumerate(grid.tolist()):
        (qubit_like, cross), eigs = _evaluate(model, t, buffers)
        numbers[step, 1:] = (qubit_like.max(initial=0.0),
                             cross.max(initial=0.0), eigs[0], _negativity(eigs))
        verdicts.append(_verdict(qubit_like, cross, args.tol_comm)[0])
    rows = [[f"{x:.17g}" for x in row] + [verdict]
            for row, verdict in zip(numbers.tolist(), verdicts)]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_SEPARABLE


def _format_matrix(a):
    lines = []
    for row in np.asarray(a):
        cells = []
        for z in row:
            re, im = z.real, z.imag
            if abs(im) < 1e-14:
                cells.append(f"{re:8.4f}")
            elif abs(re) < 1e-14:
                cells.append(f"{im:7.4f}j")
            else:
                cells.append(f"{re:.4f}{im:+.4f}j")
        lines.append("  [" + ", ".join(cells) + "]")
    return "\n".join(lines)


def cmd_example(args):
    model = validate(mixed_qutrit_example())
    buffers = _buffers(model.n, model.m)
    report, eigs, _ = _evaluate_report(model, 1.0, args.tol_comm, buffers)
    sigma = buffers[0]   # _evaluate assembled the joint state here
    print("joint state sigma (times 6):")
    print(_format_matrix(6 * sigma))
    print("partial transpose over the environment (times 6):")
    print(_format_matrix(
        6 * partial_transpose(sigma, model.n, model.m, "environment")))
    print("PT eigenvalues:", ", ".join(_sig6(e) for e in eigs))
    print(f"verdict: {report.verdict}")
    for j, norm in report.qubit_like:
        print(f"qubit-like norm j={j}: {_sig6(norm)}")
    for j, l, norm in report.cross:
        print(f"cross norm (j={j}, l={l}): {_sig6(norm)}")

    expected = np.array([-1, -1, 2, 2, 2, 2]) / 6.0
    if np.max(np.abs(np.sort(eigs) - expected)) > 1e-10:
        print("REGRESSION: PT eigenvalues deviate from the expected "
              "{-1/6 x2, 1/3 x4}", file=sys.stderr)
        return EXIT_ERROR
    if report.separable:
        print("REGRESSION: fixture must be entangled", file=sys.stderr)
        return EXIT_ERROR
    print("self-check passed: eigenvalues {-1/6 x2, 1/3 x4}, entangled "
          "with all qubit-like norms zero")
    return EXIT_SEPARABLE


def cmd_random(args):
    if args.count < 1:
        raise ValueError("count must be >= 1")
    _require_finite("--t", args.t)
    family = Family(args.family)
    spec = EnsembleSpec(seed=args.seed, count=args.count,
                        n=args.n, m=args.m, family=family)
    # an invalid --n or --m ends here, before any buffer or directory
    first = validate(random_instance(spec, 0))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    buffers = _buffers(spec.n, spec.m)
    for index in range(spec.count):
        model = first if index == 0 else validate(random_instance(spec, index))
        path = out_dir / f"model_{index:04d}.json"
        save_model(model, path)
        report, eigs, neg = _evaluate_report(model, args.t, args.tol_comm,
                                             buffers)
        rows.append([
            str(index),
            path.name,
            f"{args.t:.17g}",
            report.verdict,
            f"{report.max_qubit_like:.17g}",
            f"{report.max_cross:.17g}",
            f"{neg:.17g}",
        ])
    summary = out_dir / "summary.csv"
    with open(summary, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "file", "t", "verdict",
                        "max_qubit_like_norm", "max_cross_norm", "negativity"])
        writer.writerows(rows)
    print(f"wrote {spec.count} models and {summary}")
    return EXIT_SEPARABLE


class _Parser(argparse.ArgumentParser):
    """Parser (its subparsers too) whose errors reach ``main``'s handler as
    ``ValueError``: exit 1 and one ``error:`` line, not usage and exit 2."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="dephasing",
        description="Separability analysis of pure-dephasing "
                    "system-environment evolutions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verdict for one model at one time")
    p.add_argument("--model", required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--tol-comm", type=float, default=DEFAULT_TOL_COMM)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="CSV sweep over a time grid")
    p.add_argument("--model", required=True)
    p.add_argument("--t-start", type=float, required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol-comm", type=float, default=DEFAULT_TOL_COMM)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("example",
                       help="built-in entangling qutrit fixture (self-checking)")
    p.add_argument("--tol-comm", type=float, default=DEFAULT_TOL_COMM)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("random", help="generate a seeded model ensemble")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--family", choices=[f.value for f in Family],
                   default=Family.GENERIC.value)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--tol-comm", type=float, default=DEFAULT_TOL_COMM)
    p.set_defaults(func=cmd_random)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        _require_tol_comm(args.tol_comm, "--tol-comm")
        return args.func(args)
    except ValidationError as exc:
        print(exc.to_json(), file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, LinalgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
