"""Command-line front end.

Exit codes: 0 success, 1 usage error (unknown subcommand or flag, or a
value of the wrong shape or out of range), 2 computation error
(range/budget/degenerate/etc.).  Every failure prints exactly one
machine-parsable line to stderr of the form ``error: code=<CODE> <message>``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from . import constants as consts
from . import minoverlap as mo
from .config import ExperimentConfig
from .correlation import type1_sweep, type2
from .errors import ConfigError, CorrlabError
from .identity import identity_check
from .report import (
    CLAIM_HEADER,
    CORRELATION_HEADER,
    MINOVERLAP_HEADER,
    ReportBundle,
    ResultTable,
    format_cell,
    make_meta,
    render_line_chart,
    write_csv,
    write_json,
    write_svg,
)
from .tables import FunctionKind, build_table, prefix_sums


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures map to exit code 1."""

    def error(self, message):
        raise ValueError(message)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p != "")
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _mode(exact: bool) -> str:
    """The ``mode=`` token's value for an exact or a floating payload."""
    return "exact" if exact else "floating"


def build_parser() -> _Parser:
    p = _Parser(prog="corrlab", description=__doc__)
    p.add_argument("--version", action="version", version=f"corrlab {__version__}")
    sub = p.add_subparsers(dest="command", parser_class=_Parser)

    sp = sub.add_parser("sieve", help="build a value table and optionally dump it")
    sp.add_argument("--kind", required=True)
    sp.add_argument("--limit", type=int, required=True)
    sp.add_argument("--headroom", type=int, default=0)
    sp.add_argument("--out", help="CSV output path (header n,value)")
    sp.set_defaults(func=_cmd_sieve)

    ip = sub.add_parser("identity-check", help="cross-validate the decomposition")
    ip.add_argument("--kind", required=True)
    ip.add_argument("--x", type=int, required=True)
    ip.add_argument("--exact", action="store_true", help="require literal equality")
    ip.add_argument("--tolerance", type=float, default=1e-9)
    ip.add_argument("--oracle-cap", type=int, default=100_000)
    ip.set_defaults(func=_cmd_identity_check)

    cp = sub.add_parser("correlate", help="shifted or representation sums")
    cp.add_argument("--kind", required=True)
    cp.add_argument("--x", type=int, required=True)
    cp.add_argument("--shift", help="comma-separated shift list")
    cp.add_argument("--type2", action="store_true", help="representation sum at x")
    cp.add_argument("--out", help="CSV output path")
    cp.set_defaults(func=_cmd_correlate)

    kp = sub.add_parser("constants", help="measured constants at one (x, shift)")
    kp.add_argument("--kind", required=True)
    kp.add_argument("--x", type=int, required=True)
    kp.add_argument("--shift", type=int, default=1)
    kp.add_argument("--out", help="CSV output path")
    kp.set_defaults(func=_cmd_constants)

    lp = sub.add_parser("claims", help="score catalogued bounds over an x-grid")
    lp.add_argument("--claims", default="all", help="ids, comma-separated, or 'all'")
    lp.add_argument("--grid", default="1000,10000,100000,1000000")
    lp.add_argument("--shift", type=int, default=1)
    lp.add_argument("--divisor-order", type=int, default=3)
    lp.add_argument("--epsilon", type=float, default=0.1)
    lp.add_argument("--c", type=float, default=1.0)
    lp.add_argument("--slack", type=float, default=0.25)
    lp.add_argument("--out-dir", default="out")
    lp.add_argument("--no-svg", action="store_true")
    lp.set_defaults(func=_cmd_claims)

    mp = sub.add_parser("minoverlap", help="minimum-overlap search")
    mp.add_argument("--n", type=int, required=True)
    group = mp.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true")
    group.add_argument("--heuristic", action="store_true")
    mp.add_argument("--budget", type=int, default=mo.DEFAULT_BUDGET)
    mp.add_argument("--seed", type=int, default=0)
    mp.add_argument("--cap", type=int, default=mo.DEFAULT_EXACT_CAP)
    mp.add_argument("--out", help="CSV output path")
    mp.set_defaults(func=_cmd_minoverlap)

    rp = sub.add_parser("report", help="full pipeline from a config file")
    rp.add_argument("--config", help="key=value config file")
    rp.add_argument("--out-dir", default=None)
    rp.add_argument("--grid", default=None, help="override x_grid")
    rp.add_argument("--no-svg", action="store_true")
    rp.set_defaults(func=_cmd_report)

    return p


# -- subcommand bodies -------------------------------------------------------


def _key_values(header: tuple, row: tuple) -> str:
    """One stdout line, ``key=value`` per field, cells as in the CSV."""
    return " ".join(f"{k}={format_cell(v)}" for k, v in zip(header, row))


def _correlation_row(r) -> tuple:
    """The :data:`CORRELATION_HEADER` row of one correlation result."""
    return (r.kind.label, r.x, r.shift_label, r.value, r.terms)


def _cmd_sieve(args) -> int:
    kind = FunctionKind.parse(args.kind)
    table = build_table(kind, args.limit, args.headroom)
    ps = prefix_sums(table)
    if args.out:
        rows = tuple((n, table.value(n)) for n in range(1, table.span + 1))
        write_csv(args.out, ResultTable("table", ("n", "value"), rows))
        print(f"wrote {args.out}")
    print(
        f"kind={kind.label} limit={table.limit} headroom={table.shift_headroom} "
        f"mode={_mode(table.is_exact)} sum={format_cell(ps.s(table.limit))}"
    )
    return 0


def _cmd_identity_check(args) -> int:
    kind = FunctionKind.parse(args.kind)
    table = build_table(kind, args.x)
    if args.exact and not table.is_exact:
        raise ValueError(f"{kind.label} has no exact payload; drop --exact")
    res = identity_check(table, args.x, args.tolerance, args.oracle_cap)
    if res.equal:
        print(f"lhs=rhs value={format_cell(res.lhs)} mode={_mode(res.exact)}")
        return 0
    print(
        f"error: code=IDENTITY lhs={format_cell(res.lhs)} "
        f"rhs={format_cell(res.rhs)} differ (mode={_mode(res.exact)})",
        file=sys.stderr,
    )
    return 2


def _cmd_correlate(args) -> int:
    kind = FunctionKind.parse(args.kind)
    if not args.type2 and not args.shift:
        raise ValueError("pass --shift L[,L2,...] or --type2")
    shifts = _parse_int_list(args.shift) if args.shift else ()
    table = build_table(kind, args.x, max(shifts, default=0))
    results = [type2(table, args.x)] if args.type2 else []
    if shifts:
        results.extend(type1_sweep(table, args.x, list(shifts)))
    rows = tuple(_correlation_row(r) for r in results)
    for r, row in zip(results, rows):
        line = _key_values(CORRELATION_HEADER, row)
        if r.middle_term is not None:
            line += f" middle_term={format_cell(r.middle_term)}"
        print(line)
    if args.out:
        write_csv(args.out, ResultTable("correlations", CORRELATION_HEADER, rows))
        print(f"wrote {args.out}")
    return 0


def _cmd_constants(args) -> int:
    kind = FunctionKind.parse(args.kind)
    table = build_table(kind, args.x, args.shift)
    est = consts.density_estimate(table, args.x, args.shift)
    ratio = consts.diagonal_ratio(table, args.x)
    fields = {
        "kind": kind.label,
        "x": args.x,
        "shift": args.shift,
        "c_min": est.c_min,
        "local_density": est.local_density,
        "d_of_x": consts.d_of_x(table, args.x),
        "diagonal_ratio": ratio,
    }
    header, row = tuple(fields), tuple(fields.values())
    print(_key_values(header, row))
    if args.out:
        write_csv(args.out, ResultTable("constants", header, (row,)))
        print(f"wrote {args.out}")
    return 0


def _claims_from_arg(text: str) -> list[str]:
    if text.strip().lower() in ("all", ""):
        return list(consts.ALL_CLAIMS)
    return [p.strip() for p in text.split(",") if p.strip()]


def _claims_step(
    cfg: ExperimentConfig, want_svg: bool, extra_tables=()
) -> ReportBundle:
    """Score the claims of a validated config, then write every artifact.

    Nothing is written until every claim is scored: each extra table goes to
    ``<name>.csv``, then come ``claims.csv``, ``report.json`` and the SVGs.
    """
    ids = list(cfg.claims) if cfg.claims else list(consts.ALL_CLAIMS)
    settings = consts.ClaimSettings(
        shift=cfg.shifts[0],
        divisor_order=cfg.divisor_order,
        epsilon=cfg.epsilon,
        c=cfg.c,
        slack=cfg.slack,
    )
    claims = consts.evaluate_claims(ids, list(cfg.x_grid), settings)
    out = Path(cfg.out_dir)
    for table in extra_tables:
        write_csv(out / f"{table.name}.csv", table)
    rows = tuple(row for c in claims for row in c.rows())
    claims_table = ResultTable("claims", CLAIM_HEADER, rows)
    write_csv(out / "claims.csv", claims_table)
    bundle = ReportBundle(
        meta=make_meta(__version__, cfg.digest()),
        tables=tuple(extra_tables) + (claims_table,),
        claims=tuple(claims),
    )
    write_json(out / "report.json", bundle)
    if want_svg:
        for c in claims:
            finite = [
                (x, v, b)
                for x, v, b in zip(c.grid, c.computed, c.bound)
                if b == b  # drops NaN bounds from vacuous rows
            ]
            if not finite:
                continue
            xs = [p[0] for p in finite]
            series = [
                ("computed", xs, [p[1] for p in finite]),
                ("bound", xs, [p[2] for p in finite]),
            ]
            svg = render_line_chart(
                f"{c.claim}: computed vs bound",
                series,
                log_x=True,
                log_y=all(p[1] > 0 and p[2] > 0 for p in finite),
            )
            write_svg(out / f"claim-{c.claim}.svg", svg)
    return bundle


def _cmd_claims(args) -> int:
    cfg = ExperimentConfig(
        x_grid=_parse_int_list(args.grid),
        shifts=(args.shift,),
        slack=args.slack,
        epsilon=args.epsilon,
        c=args.c,
        divisor_order=args.divisor_order,
        claims=tuple(_claims_from_arg(args.claims)),
        out_dir=args.out_dir,
    )
    for c in _claims_step(cfg.validate(), not args.no_svg).claims:
        tally = {v: c.verdicts.count(v) for v in ("consistent", "violated", "vacuous")}
        print(
            f"{c.claim}: consistent={tally['consistent']} "
            f"violated={tally['violated']} vacuous={tally['vacuous']}"
        )
    print(f"wrote {Path(args.out_dir) / 'claims.csv'}")
    return 0


def _cmd_minoverlap(args) -> int:
    if args.exact:
        result = mo.exact_Mn(args.n, cap=args.cap)
    else:
        result = mo.heuristic_Mn(args.n, budget=args.budget, seed=args.seed)
    print(
        f"n={result.n} M={result.m} method={result.method} "
        f"witness={result.witness.bits}"
    )
    for row in result.bounds:
        print(
            f"  bound {row.name}: value={row.value:.6g} ok={row.ok}"
            + (f" ({row.note})" if row.note else "")
        )
    if args.out:
        rows = tuple(
            (
                result.n,
                result.method,
                result.m,
                result.witness.bits,
                row.name,
                row.value,
                row.ok,
            )
            for row in result.bounds
        )
        write_csv(args.out, ResultTable("minoverlap", MINOVERLAP_HEADER, rows))
        print(f"wrote {args.out}")
    return 0


def _cmd_report(args) -> int:
    try:
        cfg = ExperimentConfig()
        if args.config:
            cfg = ExperimentConfig.from_text(Path(args.config).read_text())
        cfg = cfg.with_overrides(
            out_dir=args.out_dir,
            x_grid=_parse_int_list(args.grid) if args.grid else None,
        )
    except FileNotFoundError:
        raise ValueError(f"config file not found: {args.config}")

    # Correlation sweep over the configured kinds, shifts, and grid.
    corr_rows = []
    max_x = max(cfg.x_grid)
    for kind_label in cfg.kinds:
        kind = FunctionKind.parse(kind_label)
        table = build_table(kind, max_x, max(cfg.shifts))
        for x in cfg.x_grid:
            corr_rows += map(_correlation_row, type1_sweep(table, x, list(cfg.shifts)))
    corr_table = ResultTable("correlations", CORRELATION_HEADER, tuple(corr_rows))
    bundle = _claims_step(cfg, not args.no_svg, extra_tables=(corr_table,))
    out = Path(cfg.out_dir)
    print(f"config_digest={bundle.meta['config_digest']}")
    print(f"wrote {out / 'correlations.csv'}, {out / 'claims.csv'}, {out / 'report.json'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ValueError as exc:
        print(f"error: code=USAGE {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    if getattr(args, "func", None) is None:
        print("error: code=USAGE a subcommand is required (see --help)", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, ConfigError) as exc:
        print(f"error: code=USAGE {exc}", file=sys.stderr)
        return 1
    except CorrlabError as exc:
        print(f"error: code={exc.code} {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: code=IO {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
