"""Command-line benchmark driver.

Subcommands:

* ``gen`` - write deterministic instance/matroid JSON files.
* ``run`` - run one algorithm config for a number of seeded trials, CSV out.
* ``sweep-lambda`` - run the combined algorithm across a list of lambda
  values on one instance (the query-tradeoff driver).
* ``summarize`` - aggregate a result CSV into per-group statistics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import InvalidInputError
from .harness import (
    ALGORITHMS,
    RunConfig,
    format_summary,
    generate_instance,
    generate_matroid,
    read_csv,
    run_experiment,
    save_json,
    summarize,
    write_csv,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="submax")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate instance and matroid files")
    g.set_defaults(func=_cmd_gen)
    g.add_argument("--family", required=True,
                   choices=["coverage", "cut", "facility", "modular"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--universe", type=int, default=None)
    g.add_argument("--density", type=float, default=0.1)
    g.add_argument("--clients", type=int, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="instance JSON path")
    g.add_argument("--matroid-kind", choices=["uniform", "partition", "graphic"],
                   default=None)
    g.add_argument("--k", type=int, default=None)
    g.add_argument("--blocks", type=int, default=None)
    g.add_argument("--matroid-out", default=None, help="matroid JSON path")

    r = sub.add_parser("run", help="run one algorithm configuration")
    r.set_defaults(func=_cmd_run)
    _add_run_flags(r)

    s = sub.add_parser("sweep-lambda", help="lambda sweep for the combined algorithm")
    s.set_defaults(func=_cmd_sweep)
    _add_run_flags(s, algo_default="combined")
    s.add_argument("--lambdas", required=True,
                   help="comma-separated lambda values, e.g. 1,5,20")

    z = sub.add_parser("summarize", help="aggregate a results CSV")
    z.set_defaults(func=_cmd_summarize)
    z.add_argument("--input", required=True)
    z.add_argument("--json-out", default=None)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, OSError) as exc:
        print(f"submax: error: {exc}", file=sys.stderr)
        return 2


def _add_run_flags(p: argparse.ArgumentParser, algo_default: str | None = None) -> None:
    """The flags of a ``RunConfig``; each ``dest`` is the field it sets."""
    p.add_argument("--algo", choices=sorted(ALGORITHMS), required=algo_default is None,
                   default=algo_default)
    p.add_argument("--instance", required=True)
    p.add_argument("--matroid", default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--B", type=float, default=None)
    p.add_argument("--I", type=int, default=None)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--opt", dest="compute_opt", action="store_true",
                   help="also compute the brute-force optimum (small instances)")
    p.add_argument("--sample-scale", type=float, default=1.0,
                   help="derivative-estimator budget scale (1.0 = analysis-faithful)")
    p.add_argument("--no-wall-time", dest="record_wall_time", action="store_false",
                   help="write wall_ms as 0 for byte-reproducible CSVs")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)})


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = generate_instance(
        args.family,
        args.n,
        args.seed,
        universe=args.universe,
        density=args.density,
        clients=args.clients,
    )
    mspec = None
    if args.matroid_kind is not None:
        if args.k is None:
            raise InvalidInputError("--k is required with --matroid-kind")
        mspec = generate_matroid(args.matroid_kind, args.n, args.k, args.seed,
                                 blocks=args.blocks)
    # both specs are built before either file is written
    save_json(spec, args.out)
    print(f"wrote {args.out}")
    if mspec is not None:
        out = args.matroid_out or str(Path(args.out).with_suffix(".matroid.json"))
        save_json(mspec, out)
        print(f"wrote {out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    records = run_experiment(config)
    failures = sum(1 for r in records if r.failed)
    print(f"{len(records)} trials, {failures} failures -> {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        lambdas = [float(x) for x in args.lambdas.split(",") if x]
    except ValueError:
        raise InvalidInputError(
            f"--lambdas must be comma-separated numbers, got {args.lambdas!r}"
        ) from None
    if not lambdas:
        raise InvalidInputError(f"--lambdas must list at least one number, got {args.lambdas!r}")
    all_records = []
    config = _config_from_args(args)
    for lam in lambdas:
        all_records.extend(run_experiment(dataclasses.replace(config, lam=lam, out=None)))
    write_csv(all_records, args.out)
    print(f"{len(all_records)} trials over {len(lambdas)} lambda values -> {args.out}")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    rows = read_csv(args.input)
    entries = summarize(rows)
    print(format_summary(entries))
    if args.json_out:
        try:
            text = json.dumps(entries, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:  # a mean or spread past the float range
            raise InvalidInputError(f"cannot write {args.json_out}: {exc}") from None
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.json_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
