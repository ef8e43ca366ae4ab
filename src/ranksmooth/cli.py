"""Command-line front door: data generation, training, evaluation,
ablation grids, and diagnostics, with CSV/SVG outputs.

Every subcommand that writes files writes a manifest (command, config,
seed, git describe, environment, timestamps) before any compute starts:
-o/manifest.json, or <csv>.manifest.json beside gen-data's file. Its
config is keyed by the library's parameter names, plus the seed and the
--data, --checkpoint, --param and --values given. The run's end adds its
status ("ok" or "failed", as for a grad check that fails), the error, the
files written and the resources used by the process and its reaped
children. An error in the flags, the config file, the seed or the input
paths comes before the run and leaves no manifest. CSV outputs are
deterministic given identical flags and seed; wall-clock timings go to a
separate timings.csv sidecar.

Each subcommand takes its options and their defaults from the library
object it calls: gen-data from SyntheticSpec, train and ablate from
TrainConfig, eval from TrainConfig's tau and d_out, and the diagnostics
from the keyword parameters of grad_check, approx_error_sweep and
operating_region_sweep. A flag is the parameter name with dashes
(--per-class) and a config-file key is the name itself (per_class), except
for the shorter spellings in SPELLING.

Config precedence: command-line flags override `key = value` lines from
--config, which override the library defaults; an unknown key is an
error. The seed comes from --seed, else a `seed` line of the config file,
else the RANK_SMOOTH_SEED environment variable, else 0.

Exit codes: 0 success, 1 diagnostic failure (failed grad check), 2 usage
or input errors.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, astuple, fields, is_dataclass
from functools import partial
from inspect import Parameter, signature
from pathlib import Path
from types import NoneType
from typing import get_args

import numpy as np

from .data import load_features_csv, save_features_csv
from .encoder import encode, init_encoder, load_encoder, save_encoder
from .experiments import (
    LOSS_KINDS,
    RECORD_METRIC_FIELDS,
    CsvSpec,
    SyntheticSpec,
    TrainConfig,
    _usable_cores,
    ablate,
    approx_error_sweep,
    build_dataset,
    grad_check,
    measure,
    operating_region_sweep,
    train,
)
from .plots import line_chart
from .smoothap import smooth_ap_loss

SEED_ENV_VAR = "RANK_SMOOTH_SEED"

METRIC_COLUMNS = ("step",) + RECORD_METRIC_FIELDS

# Library parameter name -> flag and config-file key, where the CLI keeps
# a shorter spelling.
SPELLING = {
    "batch_size": "batch",
    "num_classes": "classes",
    "noise_sigma": "noise",
    "grad_threshold": "threshold",
}

_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


class UsageError(ValueError):
    """Bad flags or unusable input files; exits with status 2."""


class CheckFailed(Exception):
    """A diagnostic ran and failed its check; exits with status 1."""


def _key(name):
    return SPELLING.get(name, name)


def _options(obj):
    """{name: (default, type)} for the defaulted fields of a config
    dataclass or the defaulted parameters of a function. The seed is left
    out: it has a precedence of its own."""
    if is_dataclass(obj):
        found = [(f.name, f.default, f.type) for f in fields(obj)]
    else:
        found = [(p.name, p.default, type(p.default)) for p in signature(obj).parameters.values()]
    return {
        name: (default, next(t for t in get_args(kind) or (kind,) if t is not NoneType))
        for name, default, kind in found
        if name != "seed" and default is not MISSING and default is not Parameter.empty
    }


GEN_DATA = _options(SyntheticSpec)
TRAIN = _options(TrainConfig)
EVAL = {name: TRAIN[name] for name in ("tau", "d_out")}
GRAD_CHECK = _options(grad_check)
APPROX_ERROR = _options(approx_error_sweep)
REGION_SWEEP = _options(operating_region_sweep)

TRAIN_DEFAULTS = {_key(name): default for name, (default, _) in TRAIN.items()}


def _parse(key, value, default, kind):
    """A flag or config-file string as the parameter's type; non-string
    values (library defaults, switch flags) pass through."""
    if not isinstance(value, str):
        return value
    try:
        if kind is bool:
            return _BOOLEANS[value.lower()]
        if kind is tuple:
            return tuple(type(default[0])(v) for v in value.split(",") if v.strip())
        return kind(value)
    except (KeyError, ValueError):
        raise UsageError(f"{key}: cannot read {value!r} as {kind.__name__}") from None


def _read_config_file(path, keys):
    values, where = {}, {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise UsageError(
                f"{path}:{lineno}: unknown key {key!r}; expected one of {', '.join(sorted(keys))}"
            )
        if key in where:
            raise UsageError(f"{path}:{lineno}: key {key!r} given again, first on line {where[key]}")
        where[key] = lineno
        values[key] = value.strip()
    return values


def _resolve(args, table):
    """Flags over config-file lines over library defaults, each parsed to
    its parameter's type. Returns ({parameter name: value}, seed)."""
    keys = {_key(name): name for name in table}
    lines = _read_config_file(args.config, set(keys) | {"seed"}) if args.config else {}
    params = {}
    for key, name in keys.items():
        value = getattr(args, key)
        if value is None:
            value = lines.get(key, table[name][0])
        params[name] = _parse(key, value, *table[name])
    seed = args.seed if args.seed is not None else lines.get("seed")
    key = "seed" if seed is not None else SEED_ENV_VAR
    seed = _parse(key, os.environ.get(SEED_ENV_VAR, 0) if seed is None else seed, 0, int)
    if seed < 0:
        raise UsageError(f"{key}: {seed} is negative; the seed must be a nonnegative integer")
    return params, seed


def _fmt(value):
    if value is None:
        return "nan"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _metric_row(record):
    return [getattr(record, name) for name in METRIC_COLUMNS]


def _git_describe():
    """git describe of the checkout that holds this package, wherever the
    caller runs from."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _environment():
    """Python, NumPy, BLAS and C library versions, usable cores, and the
    environment variables that set BLAS threads (None when unset)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older NumPy has no "dicts" mode
        blas = {}
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "libc": " ".join(platform.libc_ver()).strip() or None,
        "cores": _usable_cores(),
        **{var: os.environ.get(var) for var in threads},
    }


def _resources():
    """CPU seconds, peak RSS (MiB, from Linux's KiB) and minor page faults
    so far, of this process ("self") and of its reaped children."""
    out = {}
    for who, scope in (("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN)):
        use = resource.getrusage(scope)
        out[who] = {"cpu_s": use.ru_utime + use.ru_stime, "peak_rss_mb": use.ru_maxrss / 1024.0,
                    "minor_faults": use.ru_minflt}
    return out


def _chart(args, save, name, xs, series, title, xlabel, ylabel):
    """With --plot, the line chart of series over xs as -o/plot_<name>.svg."""
    if args.plot:
        save(line_chart, args.output / f"plot_{name}.svg", xs, series, title, xlabel, ylabel)


@contextmanager
def _manifest(path, command, config, seed):
    """Write the manifest, yield save(write_file, out, *args), which writes
    one output file with write_file(out, *args) and lists it, and on
    leaving rewrite the manifest with finished_at, the files written, the
    resources used and the status: "ok", or "failed" with the error
    message."""
    stamp = partial(time.strftime, "%Y-%m-%dT%H:%M:%S%z")
    body = dict(command=command, config=config, seed=seed, git_describe=_git_describe(),
                environment=_environment(), started_at=stamp(), finished_at=None,
                status="running", error=None, outputs=[], resources=None)

    def write():
        path.write_text(json.dumps(body, indent=2) + "\n", encoding="utf-8", newline="\n")

    def save(write_file, out, *args):
        write_file(out, *args)
        body["outputs"].append(str(out))

    write()
    try:
        yield save
        body["status"] = "ok"
    except BaseException as exc:
        body.update(status="failed", error=str(exc) or type(exc).__name__)
        raise
    finally:
        body.update(finished_at=stamp(), resources=_resources())
        write()


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed args, the resolved parameters of its
# option table, the seed, and the manifest's save, through which it writes
# every file, and fails by raising.

def cmd_gen_data(args, params, seed, save):
    # signal_dim 0 asks for fully isotropic means (None in the library).
    spec = SyntheticSpec(**dict(params, signal_dim=params["signal_dim"] or None))
    ds = build_dataset(spec, seed)
    save(save_features_csv, args.output, ds)
    print(f"wrote {len(ds)} rows to {args.output}")


def cmd_train(args, params, seed, save):
    out = args.output
    result = train(TrainConfig(**params, seed=seed, data=CsvSpec(path=args.data)))
    records = result.records
    save(_write_csv, out / "metrics.csv", METRIC_COLUMNS, [_metric_row(r) for r in records])
    save(_write_csv, out / "timings.csv", ("step", "wall_ms"), [[r.step, r.wall_ms] for r in records])
    save(save_encoder, out / "encoder.bin", result.params)
    steps = [r.step for r in records]
    for name in ("train_loss", "test_map", "ap_error"):
        _chart(args, save, name, steps, {name: [getattr(r, name) for r in records]},
               name, "step", name)
    final = result.final
    print(f"final step {final.step}: test mAP {final.test_map:.4f}, loss {final.train_loss:.4f}")


def cmd_eval(args, params, seed, save):
    cfg = TrainConfig(**params, seed=seed)
    ds = load_features_csv(args.data)
    if args.checkpoint:
        encoder = load_encoder(args.checkpoint)
    else:
        encoder = init_encoder(ds.dim, cfg.d_out, seed=cfg.seed)
    batch = encode(ds.features, ds.class_ids, encoder)
    diag = cfg.smooth_ap
    loss = smooth_ap_loss(batch, diag).loss
    record = measure(0, loss, batch, batch, diag, time.perf_counter())
    save(_write_csv, args.output / "metrics.csv", METRIC_COLUMNS, [_metric_row(record)])
    print(f"mAP {record.test_map:.4f}, recall@1 {record.recall_at_1:.4f} over {len(ds)} instances")


def cmd_ablate(args, params, seed, save):
    name = {key: name for name, key in SPELLING.items()}.get(args.param, args.param)
    if name not in TRAIN:
        raise UsageError(f"--param must be one of {', '.join(map(_key, TRAIN))}")
    values = [_parse("--values", v, *TRAIN[name]) for v in args.values.split(",") if v.strip()]
    cfg = TrainConfig(**params, seed=seed, data=CsvSpec(path=args.data))
    rows = [[value] + _metric_row(final) for value, final, _ in ablate(cfg, name, values)]
    save(_write_csv, args.output / "summary.csv", (args.param,) + METRIC_COLUMNS, rows)
    for row in rows:
        print(f"{args.param}={row[0]}: test mAP {row[3]:.4f}")


def cmd_grad_check(args, params, seed, save):
    report = grad_check(**params, seed=seed)
    print(
        f"{report.loss}: max rel error embedding {report.max_rel_error_embedding:.3e}, "
        f"params {report.max_rel_error_params:.3e}, tolerance {report.tolerance:.1e} "
        f"-> {'PASS' if report.passed else 'FAIL'}"
    )
    if args.output:
        save(
            _write_csv,
            args.output / "grad_check.csv",
            [f.name for f in fields(report)] + ["passed"],
            [[*astuple(report), report.passed]],
        )
    if not report.passed:
        raise CheckFailed(
            f"max relative error {report.max_rel_error:.3e} is not below the "
            f"tolerance {report.tolerance:.1e}"
        )


def cmd_approx_error(args, params, seed, save):
    taus = params["taus"]
    sweep = approx_error_sweep(load_features_csv(args.data), **params, seed=seed)
    rows = [[tau, step, err] for tau in taus for step, err in enumerate(sweep[tau])]
    save(_write_csv, args.output / "approx_error.csv", ("tau", "step", "ap_error"), rows)
    _chart(args, save, "approx_error", list(range(params["steps"])),
           {f"tau={tau:g}": sweep[tau] for tau in taus},
           "AP approximation error per training batch", "step", "ap_error")
    for tau in taus:
        print(f"tau={tau:g}: mean ap_error {float(np.mean(sweep[tau])):.5f}")


def cmd_region_sweep(args, params, seed, save):
    sizes = params["batch_sizes"]
    sweep = operating_region_sweep(load_features_csv(args.data), **params, seed=seed)
    rows = [[b, sweep[b]] for b in sizes]
    save(_write_csv, args.output / "region_sweep.csv", ("batch_size", "mean_operating_region"), rows)
    _chart(args, save, "region_sweep", sizes, {"P": [sweep[b] for b in sizes]},
           "Operating-region fraction vs batch size", "batch size", "P")
    for b in sizes:
        print(f"B={b}: mean P {sweep[b]:.4f}")


# ---------------------------------------------------------------------------
# parser

COMMANDS = {
    "gen-data": (cmd_gen_data, GEN_DATA, "generate a synthetic feature CSV"),
    "train": (cmd_train, TRAIN, "train an encoder and log metrics"),
    "eval": (cmd_eval, EVAL, "evaluate a dataset with a checkpoint or fresh encoder"),
    "ablate": (cmd_ablate, TRAIN, "vary one training parameter over a grid"),
    "grad-check": (cmd_grad_check, GRAD_CHECK, "compare analytic gradients to finite differences"),
    "approx-error": (cmd_approx_error, APPROX_ERROR, "AP approximation error per temperature"),
    "region-sweep": (cmd_region_sweep, REGION_SWEEP, "operating-region fraction vs batch size"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ranksmooth",
        description="Retrieval training and evaluation with exact and smoothed average precision.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, table, text) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.set_defaults(func=func, table=table)
        if command not in ("gen-data", "grad-check"):
            p.add_argument("--data", required=True, help="feature CSV path")
        for name, (default, kind) in table.items():
            key = _key(name)
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, dest=key, action="store_const", const=True,
                               help=f"default: {default}")
            else:
                p.add_argument(flag, dest=key, choices=LOSS_KINDS if name == "loss" else None,
                               help=f"default: {default}")
        p.add_argument("--seed", help=f"random seed (falls back to ${SEED_ENV_VAR}, then 0)")
        p.add_argument("--config", help="key=value config file")
        p.add_argument("-o", "--out", dest="output", type=Path,
                       required=command != "grad-check", help="output path")
        if command in ("train", "approx-error", "region-sweep"):
            p.add_argument("--plot", action="store_true", help="also write SVG charts")
    sub.choices["eval"].add_argument("--checkpoint", help="encoder.bin; default a fresh encoder")
    sub.choices["ablate"].add_argument("--param", required=True, help="TrainConfig field to vary")
    sub.choices["ablate"].add_argument("--values", required=True, help="comma-separated grid")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        params, seed = _resolve(args, args.table)
        for what in ("data", "checkpoint"):
            path = getattr(args, what, None)
            if path and not Path(path).exists():
                raise UsageError(f"{what} not found: {path}")
        if args.output is None:  # grad-check without -o writes nothing
            args.func(args, params, seed, None)
            return 0
        if args.command == "gen-data":
            manifest = Path(f"{args.output}.manifest.json")
        else:
            args.output.mkdir(parents=True, exist_ok=True)
            manifest = args.output / "manifest.json"
        given = {k: getattr(args, k, None) for k in ("data", "checkpoint", "param", "values")}
        config = dict(params, seed=seed, **{k: v for k, v in given.items() if v})
        with _manifest(manifest, args.command, config, seed) as save:
            args.func(args, params, seed, save)
        return 0
    except CheckFailed:  # the subcommand printed its verdict
        return 1
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
