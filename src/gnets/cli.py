"""Command-line front end: validate / compose / simulate / analyze / export.

Exit codes: 0 success, 1 semantic failure (violations, deadlock, composition
error), 2 input error (missing file, parse error, bad format), 3 step limit,
4 truncated state space.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import algebra, analysis, dsl, guards, io, prod, sim
from .errors import GnetError, InvalidModel, ParseError, SubnetDeadlock
from .model import Registry, validate

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_INPUT = 2
EXIT_STEP_LIMIT = 3
EXIT_TRUNCATED = 4


def _registry_dir(args):
    return args.registry or os.environ.get("GNET_REGISTRY")


def _registry(args) -> Registry:
    directory = _registry_dir(args)
    return Registry() if directory is None else io.load_registry(directory)


def _write_out(args, text):
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_cli_value(text):
    try:
        expr = guards.parse_expr(text)
        return guards.eval_expr(expr, {})
    except GnetError:
        return text  # bare words are string values


def _load_valid(args):
    """The model file's service; raises InvalidModel when `validate`
    rejects it."""
    ws = io.load_service(args.model)
    report = validate(ws)
    if not report.ok:
        raise InvalidModel(str(report))
    return ws


def cmd_validate(args):
    ws = io.load_service(args.model)
    report = validate(ws)
    print(report)
    return EXIT_OK if report.ok else EXIT_SEMANTIC


def cmd_compose(args):
    """Compose a term; with a registry directory, each composite the term
    nests is saved there as <name>.json unless the registry holds it."""
    reg = _registry(args)
    held = set(reg.services)
    text = Path(args.expr).read_text()
    ws = dsl.eval_expr(dsl.parse_expr(text), reg)
    report = validate(ws)
    if not report.ok:
        print(report, file=sys.stderr)
        return EXIT_SEMANTIC
    directory = _registry_dir(args)
    for name in (reg.services.keys() - held - {ws.name}) if directory else ():
        io.save_service(reg.services[name], Path(directory) / f"{name}.json")
    if args.out:
        io.save_service(ws, args.out)
    else:
        json.dump(io.service_to_dict(ws), sys.stdout, indent=2)
        print()
    return EXIT_OK


def cmd_simulate(args):
    ws = _load_valid(args)
    reg = _registry(args)
    reg.insert(ws)
    config = sim.SimConfig(policy=args.policy, seed=args.seed,
                           depth_limit=args.depth_limit,
                           max_steps=args.max_steps)
    call_args = [_parse_cli_value(a) for a in args.args]
    try:
        state = sim.init_state(ws, args.method, call_args, registry=reg,
                               config=config)
        state, outcome = sim.run(state)
    except SubnetDeadlock as exc:
        # the failed call's partial trace follows its error line
        print("\n".join([f"error: {exc}"] + sim.format_trace(exc)),
              file=sys.stderr)
        return (EXIT_STEP_LIMIT if exc.outcome == sim.STEP_LIMIT
                else EXIT_SEMANTIC)
    if args.json:
        _write_out(args, json.dumps(io.trace_to_dict(outcome, state.trace),
                                    indent=2) + "\n")
    else:
        lines = [f"outcome: {outcome}"] + sim.format_trace(state)
        _write_out(args, "\n".join(lines) + "\n")
    if outcome == sim.GOAL:
        return EXIT_OK
    if outcome == sim.STEP_LIMIT:
        return EXIT_STEP_LIMIT
    return EXIT_SEMANTIC


def _flatten_model(ws, reg, args, structural=False):
    """Inline and flatten the main method, called with --args, one value
    per parameter.  `structural`: no --args at all leaves the parameters
    unresolved."""
    reg.insert(ws)
    inlined = analysis.inline_isps(ws, reg, depth_limit=args.depth_limit)
    method = algebra.main_method(inlined.service)
    values = [_parse_cli_value(a) for a in args.args]
    if values or not structural:
        sim.check_arity(inlined.service, method, values)
    call_args = {name: value
                 for (name, _), value in zip(method.params, values)}
    flat = analysis.flatten(inlined.service, method.name, args=call_args)
    return inlined.service, method, flat


def cmd_analyze(args):
    ws = _load_valid(args)
    reg = _registry(args)
    service, method, flat = _flatten_model(ws, reg, args)
    goals = analysis.flat_goal_places(method)
    reports = []
    for initial in flat.initial_markings():
        graph = analysis.reachability(flat, max_states=args.max_states,
                                      initial=initial)
        reports.append(analysis.analyze(graph, goals))
    combined = analysis.AnalysisReport(
        state_count=sum(r.state_count for r in reports),
        deadlocks=[d for r in reports for d in r.deadlocks],
        bound_k=max(r.bound_k for r in reports),
        goal_reachable=all(r.goal_reachable for r in reports),
        witness=next((r.witness for r in reports if r.goal_reachable), []),
        truncated=any(r.truncated for r in reports),
    )
    _write_out(args, combined.to_text() + "\n")
    if combined.truncated:
        return EXIT_TRUNCATED
    if combined.deadlocks or not combined.goal_reachable:
        return EXIT_SEMANTIC
    return EXIT_OK


def cmd_export(args):
    ws = _load_valid(args)
    if args.format == "dot":
        _write_out(args, prod.export_dot(ws))
        return EXIT_OK
    reg = _registry(args)
    _, _, flat = _flatten_model(ws, reg, args, structural=True)
    # markings with still-unresolved fields are structural only: omit them
    flat = replace(flat, initial={
        p: toks for p, toks in flat.initial.items()
        if not any(isinstance(v, analysis.Unresolved)
                   for tok in toks for v in tok)})
    _write_out(args, prod.export_prod(flat))
    return EXIT_OK


def _add_registry_flag(p):
    p.add_argument("--registry", default=None,
                   help="registry directory (default: $GNET_REGISTRY)")


def _add_out_flag(p):
    p.add_argument("--out", default=None, help="output file (default: stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gnets",
        description="model, compose, simulate and verify G-Net web services")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a service definition file")
    p.add_argument("model")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compose", help="evaluate a composition expression")
    p.add_argument("expr", help="composition expression file")
    _add_registry_flag(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("simulate", help="run the token game")
    p.add_argument("model")
    p.add_argument("--method", default=None)
    p.add_argument("--args", nargs="*", default=[], metavar="VALUE")
    p.add_argument("--policy", choices=sim.POLICIES, default="det")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth-limit", type=int, default=16)
    p.add_argument("--max-steps", type=int, default=10000)
    p.add_argument("--json", action="store_true",
                   help="emit the trace as JSON")
    _add_registry_flag(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze",
                       help="inline, flatten and explore the state space")
    p.add_argument("model")
    p.add_argument("--args", nargs="*", default=[], metavar="VALUE")
    p.add_argument("--depth-limit", type=int, default=16)
    p.add_argument("--max-states", type=int, default=100000)
    _add_registry_flag(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("export", help="write PROD or dot output")
    p.add_argument("model")
    p.add_argument("--format", choices=("prod", "dot"), required=True)
    p.add_argument("--args", nargs="*", default=[], metavar="VALUE")
    p.add_argument("--depth-limit", type=int, default=16)
    _add_registry_flag(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # checked here, as a command such as `export --format dot` may
        # never reach the library call that rejects it
        if getattr(args, "depth_limit", 0) < 0:
            raise ValueError(f"depth_limit must not be negative, got "
                             f"{args.depth_limit}")
        return args.func(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except RecursionError:
        # a call chain, or a nesting no parser reports, deeper than the
        # interpreter's stack
        print("error: nesting exceeds the interpreter's recursion limit",
              file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
