"""Command-line front-end.

Exit codes: 0 success (and positive verdicts), 10 computed negative
verdict, 2 precondition failure (module error name on stderr),
1 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import errors
from .asdc import asdc_pair_check, asdc_triple_check
from .canonical import pencil_canonical
from .obstruct import builtin_counterexamples, not_asdc_certificate
from .qcqp import (
    BenchConfig,
    QcqpInstance,
    Reformulation,
    bench,
    generate_instance,
    reformulate,
    verify_reformulation,
)
from .rsdc import rsdc1_construct, rsdc2_construct
from .sdc import sdc_check

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_PRECONDITION = 2
EXIT_NEGATIVE = 10


def _load_matrices(path: str) -> list:
    """Family from an instance file ({A1, A2}) or a {"matrices": []} file,
    as nested lists: the entry points convert and check them."""
    data = json.loads(Path(path).read_text())
    if "matrices" in data:
        return data["matrices"]
    if "A1" in data and "A2" in data:
        return [data["A1"], data["A2"]]
    raise ValueError("expected an instance file or a matrices file")


def _load_pair(args) -> list:
    """The pair that args.command reads from args.input."""
    fam = _load_matrices(args.input)
    if len(fam) != 2:
        raise ValueError(f"{args.command} expects a pair")
    return fam


def _load_instance(path: str) -> QcqpInstance:
    return QcqpInstance.from_json(Path(path).read_text())


def _cmd_gen(args) -> int:
    inst = generate_instance(args.n, args.k, args.m, args.seed)
    Path(args.output).write_text(inst.to_json())
    print(f"wrote {args.output} (n={args.n}, k={args.k}, m={args.m})")
    return EXIT_OK


def _cmd_check_sdc(args) -> int:
    fam = _load_matrices(args.input)
    res = sdc_check(fam, seed=args.seed)
    if res.is_sdc:
        print(f"SDC  kappa={res.congruence.kappa:.6e}")
        return EXIT_OK
    print(f"NotSDC  witness={res.witness}")
    return EXIT_NEGATIVE


def _cmd_check_asdc(args) -> int:
    fam = _load_matrices(args.input)
    if len(fam) in (2, 3):
        v = (asdc_pair_check if len(fam) == 2 else asdc_triple_check)(*fam)
        print(f"{v.status}  reason={v.reason or '-'}")
        return EXIT_OK if v.is_asdc else EXIT_NEGATIVE
    rep = not_asdc_certificate(fam, seed=args.seed)
    print(
        f"necessary-condition report: algebra_dim={rep.algebra_dim} "
        f"violated={rep.algebra_bound_violated}"
    )
    return EXIT_NEGATIVE if rep.algebra_bound_violated else EXIT_OK


def _cmd_canon(args) -> int:
    fam = _load_pair(args)
    form = pencil_canonical(fam[0], fam[1])
    out = {
        "r": form.r,
        "k": form.k,
        "real_blocks": [[s, mu] for s, mu in form.real_blocks],
        "complex_blocks": [[l.real, l.imag] for l in form.complex_blocks],
        "P": form.P.P.tolist(),
        "kappa": form.P.kappa,
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _cmd_rsdc(args, order: int) -> int:
    fam = _load_pair(args)
    build = rsdc1_construct if order == 1 else rsdc2_construct
    cert = build(fam[0], fam[1], strategy=args.strategy, seed=args.seed)
    Path(args.output).write_text(cert.to_json())
    print(
        f"wrote {args.output}  kappa={cert.kappa:.6e} "
        f"eig_residual={cert.eig_residual:.3e}"
    )
    return EXIT_OK


def _cmd_reformulate(args) -> int:
    inst = _load_instance(args.input)
    ref = reformulate(inst, args.method)
    Path(args.output).write_text(ref.to_json())
    print(f"wrote {args.output}  dim={ref.dim} kappa={ref.kappa:.6e}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = _load_instance(args.input)
    ref = Reformulation.from_json(Path(args.reformulation).read_text())
    dev = verify_reformulation(inst, ref, samples=args.samples, seed=args.seed)
    print(f"max deviation {dev:.6e}")
    return EXIT_OK if dev <= 1e-6 else EXIT_NEGATIVE


def _parse_grid(text: str) -> tuple[tuple, tuple]:
    parts = dict(p.split("=") for p in text.split(";"))
    ns = tuple(int(v) for v in parts["n"].split(","))
    ks = tuple(int(v) for v in parts["k"].split(","))
    return ns, ks


def _cmd_bench(args) -> int:
    ns, ks = _parse_grid(args.grid)
    methods = tuple(args.methods.split(",")) if args.methods else None
    cfg = BenchConfig(
        n_values=ns,
        k_values=ks,
        seeds=args.seeds,
        m=args.m,
        **({"methods": methods} if methods else {}),
    )
    report = bench(cfg)
    Path(args.output).write_text(report["csv"])
    json_path = Path(args.output).with_suffix(".json")
    json_path.write_text(
        json.dumps({"medians": report["medians"]}, indent=2)
    )
    print(f"wrote {args.output} and {json_path} ({len(report['rows'])} rows)")
    for med in report["medians"]:
        print(
            f"  n={med['n']} k={med['k']} {med['method']}: "
            f"median kappa {med['median_kappa']:.4e}"
        )
    return EXIT_OK


def _cmd_counterexamples(args) -> int:
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    ce = builtin_counterexamples()
    seven = ce["seven_tuple"]["matrices"]
    path = outdir / "seven_tuple.json"
    path.write_text(json.dumps({"matrices": [m.a.tolist() for m in seven]}))
    rep = not_asdc_certificate([m.a for m in seven])
    print(
        f"wrote {path}: algebra_dim={rep.algebra_dim} "
        f"violated={rep.algebra_bound_violated}"
    )
    for n in (2, 3, 4):
        fam = ce["large_commutator"]["build"](n)
        path = outdir / f"large_commutator_n{n}.json"
        path.write_text(json.dumps({"matrices": [m.a.tolist() for m in fam]}))
        rep = not_asdc_certificate([m.a for m in fam])
        print(
            f"wrote {path}: rank={rep.commutator_rank} "
            f"d_threshold={rep.rsdc_lower_bound}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sdckit",
        description="simultaneous diagonalization by congruence toolkit",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[shared], **kw)

    g = add_parser("gen", help="generate a random instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--m", type=int, default=100)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_gen)

    c = add_parser("check-sdc", help="certified SDC verdict")
    c.add_argument("-i", "--input", required=True)
    c.set_defaults(func=_cmd_check_sdc)

    c = add_parser("check-asdc", help="ASDC verdict (pair/triple dispatch)")
    c.add_argument("-i", "--input", required=True)
    c.set_defaults(func=_cmd_check_asdc)

    c = add_parser("canon", help="pencil canonical form dump")
    c.add_argument("-i", "--input", required=True)
    c.set_defaults(func=_cmd_canon)

    for order in (1, 2):
        c = add_parser(f"rsdc{order}", help=f"{order}-RSDC construction")
        c.add_argument("-i", "--input", required=True)
        c.add_argument("-o", "--output", required=True)
        c.add_argument("--strategy", default="chebyshev",
                       choices=("spread", "chebyshev", "random"))
        c.set_defaults(func=lambda a, order=order: _cmd_rsdc(a, order))

    c = add_parser("reformulate", help="diagonal QCQP reformulation")
    c.add_argument("-i", "--input", required=True)
    c.add_argument("--method", required=True,
                   choices=("sdc", "rsdc1", "rsdc2", "eig"))
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(func=_cmd_reformulate)

    c = add_parser("verify", help="pointwise reformulation equivalence")
    c.add_argument("-i", "--input", required=True)
    c.add_argument("-r", "--reformulation", required=True)
    c.add_argument("--samples", type=int, default=100)
    c.set_defaults(func=_cmd_verify)

    c = add_parser("bench", help="grid benchmark (CSV + JSON)")
    c.add_argument("--grid", required=True, help='e.g. "n=10,15;k=1,2"')
    c.add_argument("--seeds", type=int, default=5)
    c.add_argument("--m", type=int, default=100)
    c.add_argument("--methods", default="")
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(func=_cmd_bench)

    c = add_parser("counterexamples", help="emit obstruction families")
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(func=_cmd_counterexamples)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_MALFORMED if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except errors.SdckitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
