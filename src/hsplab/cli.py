"""Reproducible experiment harness.

Subcommands build a planted instance from flags (or a JSON config), run the
matching solver for a number of independent trials, compare every recovered
value against a brute-force classical oracle, and emit one JSON report.

Determinism contract: the same config and seed produce byte-identical
reports apart from the "timestamp" field, which holds both the start time
and the wall-clock duration.  Trials run in order, in the calling thread.
Trial i runs its solver at seed master seed + i, and the solver draws all
of its randomness from one stream seeded there, so distinct trials draw
independent streams and each trial's "seed" replays it.  The brute-force
truth is the same for every trial, so a run computes it once, at the first
trial that returns a result; a run whose every trial fails computes none.

Exit codes: 0 success and all trials match; 1 solver failure in some trial
(budget exhausted or promise violated; the report is still emitted, with
the error in that trial's entry); 2 config error, or a resource limit
(dimension cap or memory) hit, reported as "resource limit: ..."; 3
verification mismatch.  Exit 1 wins over 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import amplitudes
from .algorithms import (
    BudgetExhausted,
    PromiseViolation,
    SolverParams,
    factor_via_order,
    find_order,
    find_period,
    robust_hsp,
    robust_period,
    solve_dlog,
    solve_hsp_general,
)
from .estimation import control_distribution
from .groups import SubgroupGenerators, subgroups_equal
from .oracles import (
    QueryCounter,
    check_merge,
    classical_invariance_subgroup,
    classical_least_period,
    classical_order,
    instance_from_json,
)
from .qft import estimator_distribution

SCHEMA = 1
SOLVERS = {  # every solver but factoring takes (instance, params)
    "order": find_order, "period": find_period, "dlog": solve_dlog,
    "simon": solve_hsp_general, "deutsch": solve_hsp_general, "hsp": solve_hsp_general,
    "robust-period": robust_period, "robust-hsp": robust_hsp,
}


# the solvers that size a register for a period bound; the rest read only
# the `trials` param, and none reads `seed`: trial i runs at master seed + i
REGISTER_SOLVERS = frozenset({"order", "period", "robust-period", "factor"})


class ConfigError(ValueError):
    pass


def _merge_table(size: int, multiplicity: int, seed: int) -> list[int]:
    """Random m-to-1 collapse: shuffle the labels, then bucket in runs of m."""
    order = np.random.default_rng(seed).permutation(size)
    table = [0] * size
    for pos, label in enumerate(order):
        table[int(label)] = pos // multiplicity
    return table


def _period_descriptor(args) -> dict:
    return {"kind": "period", "period": args.period, "relabel_seed": args.relabel_seed}


def _hidden_subgroup_descriptor(args) -> dict:
    chunks = args.generators.split(";") if args.generators else []
    return {
        "kind": "hidden_subgroup",
        "moduli": [int(v) for v in args.moduli.split(",")],
        "generators": [[int(v) for v in chunk.split(",")] for chunk in chunks],
        "relabel_seed": args.relabel_seed,
    }


def _merged_descriptor(args, inner: dict, labels: int) -> dict:
    return {
        "kind": "many_to_one",
        "inner": inner,
        "merge": _merge_table(labels, args.multiplicity, args.merge_seed),
        "multiplicity": args.multiplicity,
    }


def _instance_descriptor(args) -> dict:
    kind = args.command
    if kind == "order":
        return {"kind": "order", "modulus": args.modulus, "base": args.base}
    if kind == "period":
        return _period_descriptor(args)
    if kind == "simon":
        secret = [int(c) for c in args.secret]
        return {"kind": "simon", "bits": args.bits or len(secret), "secret": secret}
    if kind == "deutsch":
        return {"kind": "deutsch", "f0": args.f0, "f1": args.f1}
    if kind == "hsp":
        return _hidden_subgroup_descriptor(args)
    if kind == "dlog":
        desc = {"kind": "dlog", "base": args.base, "target": args.target}
        if args.modulus is not None:
            desc["modulus"] = args.modulus
        else:
            desc["order"] = args.order
        return desc
    if kind == "robust-period":
        return _merged_descriptor(args, _period_descriptor(args), args.period)
    if kind == "robust-hsp":
        inner = _hidden_subgroup_descriptor(args)
        return _merged_descriptor(args, inner, instance_from_json(inner).codomain_size)
    raise ConfigError(f"no instance for command {kind!r}")


def _default_bound(descriptor: dict) -> int | None:
    kind = descriptor.get("kind")
    if kind == "order":
        return descriptor["modulus"]
    if kind == "period":
        return descriptor["period"]
    if kind == "many_to_one":
        return _default_bound(descriptor["inner"])
    return None


def _integers(value) -> bool:
    """An int (a bool is not one), or a list of them, nested or not."""
    return type(value) is int or isinstance(value, list) and all(map(_integers, value))


def _check_descriptor(descriptor, where: str = "instance") -> None:
    """Every field of an instance descriptor but its kind is null or
    `_integers`, or, for a merge, the inner descriptor."""
    if not isinstance(descriptor, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key, value in descriptor.items():
        if key == "inner":
            _check_descriptor(value, f"{where}.inner")
        elif key != "kind" and value is not None and not _integers(value):
            raise ConfigError(f"{where}.{key} must be an integer or a list of integers, got {value!r}")


def _load_config(args) -> dict:
    config: dict = {}
    verify = args.command == "verify"
    if verify and not args.config:
        raise ConfigError("verify needs --config")
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object, not {type(config).__name__}")
        if verify and not config.get("solver"):
            raise ConfigError("verify config needs a 'solver' field")
        if config.get("schema", SCHEMA) != SCHEMA:
            raise ConfigError(f"unsupported schema {config.get('schema')!r}")
    config.setdefault("schema", SCHEMA)
    config.setdefault("solver", args.command)
    solver = config["solver"]
    if not isinstance(solver, str):
        raise ConfigError(f"solver must be a string, got {solver!r}")

    if "instance" not in config and solver != "factor":
        config["instance"] = _instance_descriptor(args)
    if solver == "factor":
        n = getattr(args, "n", None)
        if n is not None:
            config["n"] = n
        if "n" not in config:
            raise ConfigError("factor needs --n")
        if type(config["n"]) is not int:
            raise ConfigError(f"n must be an integer, got {config['n']!r}")
    else:
        _check_descriptor(config["instance"])
        if config["instance"].get("kind") == "many_to_one":
            # checked once here: each trial rebuilds the instance unchecked;
            # the robust solvers accept an ambiguous bound
            check_merge(instance_from_json(config["instance"]))

    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    if "seed" not in config:
        raise ConfigError("a master seed is mandatory (--seed or config)")
    if getattr(args, "trials", None) is not None:
        config["trials"] = args.trials
    config.setdefault("trials", 1)
    for key in ("seed", "trials"):
        if type(config[key]) is not int:
            raise ConfigError(f"{key} must be an integer, got {config[key]!r}")
    if config["trials"] < 1:
        raise ConfigError(f"trials must be at least 1, got {config['trials']}")

    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"params must be a JSON object, got {params!r}")
    params = dict(params)
    if getattr(args, "control_bits", None) is not None:
        params["control_bits"] = args.control_bits
    reads = {"trials", "control_bits", "epsilon", "period_bound"} if solver in REGISTER_SOLVERS else {"trials"}
    unread = sorted(params.keys() & (SolverParams.__dataclass_fields__.keys() - reads))
    if unread:
        raise ConfigError(f"{solver} never reads params: {', '.join(unread)}")
    if solver in REGISTER_SOLVERS and "period_bound" not in params:
        bound = config["n"] if solver == "factor" else _default_bound(config["instance"])
        if bound is not None:
            params["period_bound"] = bound
    config["params"] = params
    return config


def _truth_report(solver: str, instance) -> dict:
    """Ground truth from independent brute-force oracles (bills nothing)."""
    if solver in ("order", "period", "robust-period"):
        desc = instance.descriptor
        if desc.get("kind") == "order":
            return {"period": classical_order(desc["base"], desc["modulus"])}
        return {"period": classical_least_period(instance, instance.truth.period)}
    if solver in ("simon", "deutsch", "hsp", "robust-hsp"):
        return {"subgroup": classical_invariance_subgroup(instance).to_json()}
    if solver == "dlog":
        # the first t with f(0, t) = f(1, 0), read off one row of f's labels
        powers = instance.label_table((1, instance.domain.moduli[0]))[0]
        return {"exponent": int(np.flatnonzero(powers == instance._raw((1, 0)))[0])}
    return {}


def _run_single_trial(solver: str, config: dict, params: SolverParams, index: int, truth_of) -> dict:
    seed = config["seed"] + index
    trial_params = replace(params, seed=seed)
    if solver == "factor":
        n = config["n"]
        counter = QueryCounter()
        result = factor_via_order(n, trial_params, counter)
        return {
            "trial": index,
            "seed": seed,
            "recovered": result.value,
            "match": bool(n % result.value == 0 and 1 < result.value < n),
            "query_count": counter.count,
            "result": result.to_json(),
        }

    if solver not in SOLVERS:
        raise ConfigError(f"unknown solver {solver!r}")
    instance = instance_from_json(config["instance"])
    result = SOLVERS[solver](instance, trial_params)
    recovered = result.value

    truth = truth_of(instance)
    if "period" in truth:
        match = recovered == truth["period"]
    elif "subgroup" in truth:
        match = subgroups_equal(
            recovered, SubgroupGenerators.from_json(truth["subgroup"])
        )
    elif "exponent" in truth:
        match = recovered == truth["exponent"]
    else:
        match = result.verified
    return {
        "trial": index,
        "seed": seed,
        "recovered": recovered.to_json() if isinstance(recovered, SubgroupGenerators) else recovered,
        "truth": truth.get("subgroup") or truth.get("period") or truth.get("exponent"),
        "match": bool(match and result.verified),
        "query_count": instance.query_count,
        "result": result.to_json(),
    }


def _run_trial_or_failure(solver: str, config: dict, params: SolverParams, index: int, truth_of) -> dict:
    """One trial's report entry; a solver failure becomes that trial's error."""
    try:
        return _run_single_trial(solver, config, params, index, truth_of)
    except (BudgetExhausted, PromiseViolation) as exc:
        return {
            "trial": index,
            "seed": config["seed"] + index,
            "error": f"{type(exc).__name__}: {exc}",
            "match": False,
        }


def _input_error(exc: Exception) -> int:
    """Exit 2: a bad config, or a dimension cap or memory the run could not
    stay under."""
    kind = "resource limit" if isinstance(exc, (amplitudes.CapExceeded, MemoryError)) else "config error"
    print(f"{kind}: {exc}", file=sys.stderr)
    return 2


def _run_command(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()
    try:
        config = _load_config(args)
        params = SolverParams.from_json(config.get("params", {}))
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        return _input_error(exc)

    solver = config["solver"]
    truths: list[dict] = []  # the run's one truth, from the first trial with a result

    def truth_of(instance) -> dict:
        if not truths:
            truths.append(_truth_report(solver, instance))
        return truths[0]

    try:
        results = [
            _run_trial_or_failure(solver, config, params, i, truth_of) for i in range(config["trials"])
        ]
    except (ConfigError, ValueError, MemoryError) as exc:
        return _input_error(exc)

    failures = [t for t in results if "error" in t]
    for t in failures:
        print(f"solver failure: trial {t['trial']}: {t['error']}", file=sys.stderr)
    all_match = all(t["match"] for t in results)
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "config": {k: config[k] for k in sorted(config) if k != "schema"},
        "results": results,
        "match": all_match,
        "timestamp": {"started": started, "wall_seconds": round(time.monotonic() - t0, 6)},
    }
    try:
        _emit(report, getattr(args, "json_out", None))
    except OSError as exc:
        return _input_error(exc)
    if failures:
        return 1
    return 0 if all_match else 3


def _dump_command(args) -> int:
    try:
        if args.kind == "estimator":
            if args.phi is None:
                raise ConfigError("--phi is required for estimator dumps")
            phi = Fraction(args.phi)
            dist = estimator_distribution(float(phi), args.size)
            payload = {"kind": "estimator", "phi": str(phi), "size": args.size,
                       "probs": [float(p) for p in dist.probs]}
        else:
            if not args.instance:
                raise ConfigError("--instance JSON is required for pe dumps")
            instance = instance_from_json(json.loads(args.instance))
            n_bits = args.bits
            # the cascade runs at least one step; a register holds 2^bits >= 1 levels
            least = 1 if args.kind == "semiclassical-pe" else 0
            if n_bits < least:
                raise ConfigError(f"--bits must be >= {least} for {args.kind} dumps, got {n_bits}")
            # the one-qubit cascade's law is the register's (Griffiths-Niu),
            # and the cascade runs on shift maps
            if args.kind == "semiclassical-pe" and not instance.homomorphism_available:
                raise ConfigError("the one-qubit cascade needs computable shift maps")
            law = control_distribution(instance, 1 << n_bits)
            payload = {"kind": args.kind, "bits": n_bits,
                       "instance": instance.to_json(),
                       "probs": [float(p) for p in law]}
    except (ConfigError, ValueError, MemoryError, json.JSONDecodeError) as exc:
        return _input_error(exc)
    payload["schema"] = SCHEMA
    try:
        _emit(payload, getattr(args, "json_out", None))
    except OSError as exc:
        return _input_error(exc)
    return 0


def _emit(payload: dict, json_out: str | None) -> None:
    """Write --json-out before printing, so a reader that closes stdout
    early cannot lose the file; a closed stdout ends the printing quietly.
    A --json-out that cannot be written raises OSError before anything is
    printed."""
    text = json.dumps(payload, sort_keys=True, indent=2)
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(text + "\n")
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # what is still buffered goes to devnull when the interpreter flushes at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--seed", type=int, help="master seed (mandatory here or in config)")
    p.add_argument("--trials", type=int, help="independent solver runs (default 1)")
    p.add_argument("--control-bits", type=int, dest="control_bits",
                   help="control register size as a power of two")
    p.add_argument("--json-out", dest="json_out", help="also write the report to this path")
    p.add_argument("--cap", type=int, help="dimension cap override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsplab",
        description="Exact simulators and solvers for hidden-subgroup style problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", help="multiplicative order via phase estimation")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--base", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("period", help="period of a relabeled periodic function")
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--relabel-seed", type=int, default=0, dest="relabel_seed")
    _add_common(p)

    p = sub.add_parser("simon", help="two-element hidden subgroup over bit vectors")
    p.add_argument("--secret", required=True, help="bit string, e.g. 101")
    p.add_argument("--bits", type=int)
    _add_common(p)

    p = sub.add_parser("deutsch", help="constant-vs-balanced on one bit")
    p.add_argument("--f0", type=int, required=True, choices=(0, 1))
    p.add_argument("--f1", type=int, required=True, choices=(0, 1))
    _add_common(p)

    p = sub.add_parser("hsp", help="general Abelian hidden subgroup")
    p.add_argument("--moduli", required=True, help="comma list, e.g. 4,2")
    p.add_argument("--generators", default="", help="semicolon list of comma tuples, e.g. 2,0;0,1")
    p.add_argument("--relabel-seed", type=int, default=0, dest="relabel_seed")
    _add_common(p)

    p = sub.add_parser("dlog", help="discrete logarithm given the base's order")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--modulus", type=int)
    p.add_argument("--order", type=int)
    _add_common(p)

    p = sub.add_parser("robust-period", help="period finding under an m-to-1 collapse")
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--multiplicity", type=int, default=2)
    p.add_argument("--merge-seed", type=int, default=0, dest="merge_seed")
    p.add_argument("--relabel-seed", type=int, default=0, dest="relabel_seed")
    _add_common(p)

    p = sub.add_parser("robust-hsp", help="hidden subgroup under an m-to-1 collapse")
    p.add_argument("--moduli", required=True)
    p.add_argument("--generators", default="")
    p.add_argument("--multiplicity", type=int, default=2)
    p.add_argument("--merge-seed", type=int, default=0, dest="merge_seed")
    p.add_argument("--relabel-seed", type=int, default=0, dest="relabel_seed")
    _add_common(p)

    p = sub.add_parser("factor", help="split an odd composite via even orders")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("dump", help="exact probability vectors for plotting")
    p.add_argument("--kind", required=True,
                   choices=("estimator", "register-pe", "semiclassical-pe"))
    p.add_argument("--phi", help="phase as a fraction, e.g. 5/8 (estimator)")
    p.add_argument("--size", type=int, default=8, help="register size (estimator)")
    p.add_argument("--bits", type=int, default=3, help="control bits (pe kinds)")
    p.add_argument("--instance", help="instance descriptor JSON (pe kinds)")
    p.add_argument("--json-out", dest="json_out")
    p.add_argument("--cap", type=int)

    p = sub.add_parser("verify", help="run a config and compare against brute-force oracles")
    _add_common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command.  A --cap or HSPLAB_CAP override holds for this run
    only; the previous dimension cap is back in place on return."""
    args = _parser().parse_args(argv)

    cap = args.cap if args.cap is not None else os.environ.get("HSPLAB_CAP") or None
    previous = amplitudes.dimension_cap()
    try:
        if cap is not None:
            amplitudes.set_dimension_cap(int(cap))
    except ValueError:
        source = f"--cap {cap}" if args.cap is not None else f"HSPLAB_CAP {cap!r}"
        print(f"config error: bad {source}", file=sys.stderr)
        return 2
    try:
        return _dump_command(args) if args.command == "dump" else _run_command(args)
    finally:
        amplitudes.set_dimension_cap(previous)


if __name__ == "__main__":
    sys.exit(main())
