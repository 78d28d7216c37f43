"""Command-line entry point.

Subcommands: train, eval, gridsearch, verify, gendata. Runs are driven by
a JSON config file plus a few override flags; every run writes exactly one
manifest into the output directory. Reports are JSON-lines files whose
first line carries a schema version; wall-clock timing lives only in the
manifest so reports from identical configs and seeds are byte-identical.

Exit codes: 0 success, 1 config error, 2 data error, 3 training
divergence, 4 verification check failure.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    IdxFormatError,
    gen_two_gaussians,
    gen_two_moons,
    gen_xor,
    load_delimited,
    load_idx,
    write_delimited,
    write_jsonl,
)
from .linalg import DegenerateIterateError, gram
from .margin import (
    AnchorSamplingError,
    BisectionToleranceError,
    DegenerateGradientError,
    NoCrossingError,
    NonFiniteMidpointError,
    save_margin_reports,
    verify_theorem1,
)
from .model import SMOOTH_ACTIVATIONS, init_mlp, load_model, save_model
from .objectives import LOSS_KINDS, LayerPenalty, RegularizerSpec
from .train import (
    DivergenceError,
    EarlyStopping,
    TrainConfig,
    evaluate,
    grid_search,
    save_grid_result,
    save_history,
    sgd_train,
)
from .verify import (
    gradient_check_suite,
    model_gradient_check,
    power_method_fidelity_suite,
    quadratic_form_bound_suite,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3
EXIT_CHECK_FAILED = 4

# The loss of a config that names none, and of `eval` without --loss.
# Every other default lives in the library call a key or flag feeds.
DEFAULT_LOSS = "mse"


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    pass


class CheckError(RuntimeError):
    """A verification could not be carried out to a verdict."""


def _load_config(path):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"config path is a directory: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"config file {path} is nested too deeply") from None
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    for key in ("model", "data", "train", "regularizers", "grid"):
        if not isinstance(config.get(key, {}), (dict, type(None))):
            raise ConfigError(f"config section {key!r} must be a JSON object")
    return config


def _given(spec, *keys):
    """The entries under keys that a config object sets. A key left out is
    not passed on, so the library's own default applies."""
    if not isinstance(spec, dict):
        # a str would answer `key in spec` by substring
        raise TypeError(f"expected a JSON object, got {spec!r}")
    return {key: spec[key] for key in keys if key in spec}


def _flags(args, *names):
    """The flags among names that the command line gives."""
    given = {name: getattr(args, name) for name in names}
    return {name: value for name, value in given.items() if value is not None}


def _build_dataset(spec):
    kind = spec.get("kind")
    try:
        if kind == "csv":
            return _load_csv(spec["path"], **_given(spec, "sep", "header", "n_classes"))
        if kind == "idx":
            return _load_idx_pair(
                spec["images"], spec["labels"], **_given(spec, "n_classes", "limit")
            )
        if kind == "two_gaussians":
            return gen_two_gaussians(
                spec["n_per_class"], **_given(spec, "centers", "sigma", "seed")
            )
        if kind == "two_moons":
            return gen_two_moons(spec["n"], **_given(spec, "noise", "seed"))
        if kind == "xor":
            return gen_xor(spec["n"], **_given(spec, "seed"))
    except KeyError as exc:
        raise ConfigError(f"data spec is missing key {exc}") from None
    except DataError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad data spec: {exc}") from None
    except MemoryError as exc:
        raise ConfigError(f"data spec too large to generate: {exc}") from None
    raise ConfigError(f"unknown data kind {kind!r}")


def _load_csv(path, **options):
    if not os.path.isfile(path):
        raise DataError(f"data file not found: {path}")
    try:
        return load_delimited(path, **options)
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _load_idx_pair(images, labels, **options):
    for path in (images, labels):
        if not os.path.isfile(path):
            raise DataError(f"data file not found: {path}")
    try:
        return load_idx(images, labels, **options)
    except IdxFormatError as exc:
        raise DataError(str(exc)) from None


def _build_model(spec):
    try:
        return init_mlp(spec["layers"], **_given(spec, "hidden_activation", "seed"))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad model spec: {exc}") from None
    except MemoryError as exc:
        raise ConfigError(f"model too large to allocate: {exc}") from None


def _build_regularizers(spec, n_layers, n_hidden):
    reg = RegularizerSpec.none(n_layers, n_hidden)
    if spec is None:
        return reg
    try:
        layers = reg.layers
        if "layers" in spec:
            layers = [LayerPenalty(**_given(entry, "kind", "c", "p"))
                      for entry in spec["layers"]]
        reg = RegularizerSpec(layers, spec.get("dropout", reg.dropout))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad regularizer spec: {exc}") from None
    if len(reg.layers) != n_layers:
        raise ConfigError(
            f"{len(reg.layers)} penalty entries for {n_layers} weight layers"
        )
    if len(reg.dropout) != n_hidden:
        raise ConfigError(
            f"{len(reg.dropout)} dropout rates for {n_hidden} hidden layers"
        )
    return reg


def _build_train_config(spec, seed_override=None, epochs_override=None):
    spec = dict(spec or {})
    if seed_override is not None:
        spec["seed"] = seed_override
    if epochs_override is not None:
        spec["max_epochs"] = epochs_override
    es_spec = spec.get("early_stopping") or {}
    if not isinstance(es_spec, dict):
        raise ConfigError("config section 'early_stopping' must be a JSON object")
    try:
        es = EarlyStopping(
            **_given(es_spec, "enabled", "patience", "validation_fraction")
        )
        return TrainConfig(
            spec["learning_rate"],
            early_stopping=es,
            **_given(spec, "batch_size", "max_epochs", "seed", "shuffle", "momentum"),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad train spec: {exc}") from None


def _loss_kind(kind):
    if kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss {kind!r}; pick one of {LOSS_KINDS}")
    return kind


def _numerics():
    """What report bytes depend on besides the config and seeds: the numpy
    and BLAS build, and the threads BLAS may split a matmul across."""
    build = getattr(np.__config__, "CONFIG", {})  # numpy >= 1.26
    blas = build.get("Build Dependencies", {}).get("blas", {})
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "affinity_cpus": len(affinity(0)) if affinity else None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _write_manifest(out_dir, command, config_echo, seed, started, outputs):
    manifest = {
        "schema_version": 1,
        "command": command,
        "config": config_echo,
        "seed": seed,
        "version": __version__,
        "numerics": _numerics(),
        "duration_s": time.perf_counter() - started,
        "outputs": sorted(outputs),
    }
    path = Path(out_dir) / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_report(path, kind, lines):
    write_jsonl(path, {"schema_version": 1, "kind": kind}, lines)


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(args):
    started = time.perf_counter()
    config = _load_config(args.config)
    out = _out_dir(args)
    loss_kind = _loss_kind(config.get("loss", DEFAULT_LOSS))
    tcfg = _build_train_config(config.get("train"), args.seed, args.epochs)
    model = _build_model(config.get("model") or {})
    reg = _build_regularizers(
        config.get("regularizers"), len(model.layers), len(model.hidden)
    )
    dataset = _build_dataset(config.get("data") or {})
    try:
        model, history = sgd_train(model, dataset, loss_kind, reg, tcfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    save_model(model, out / "model.json")
    save_history(history, out / "history.jsonl")
    _write_manifest(
        out, "train", config, tcfg.seed, started, ["model.json", "history.jsonl"]
    )
    print(f"trained {tcfg.max_epochs} epoch budget, best epoch {history.best_epoch}")
    return EXIT_OK


def _load_eval_data(args):
    if args.limit is not None and args.limit < 1:
        # _load_idx_pair maps only IdxFormatError, so the flag is checked here
        raise ConfigError(f"--limit must be >= 1, got {args.limit}")
    if args.data:
        dataset = _load_csv(args.data)
        if args.limit is not None:
            # the first --limit rows, as load_idx keeps them
            dataset = dataset.subset(np.arange(min(args.limit, len(dataset))))
        return dataset
    if args.images and args.labels:
        return _load_idx_pair(args.images, args.labels, **_flags(args, "limit"))
    raise ConfigError("provide --data CSV or --images/--labels IDX paths")


def _require_fit(model, dataset):
    if (dataset.n_features, dataset.n_classes) != (model.n_in, model.n_out):
        raise DataError(
            f"data has {dataset.n_features} features and {dataset.n_classes} "
            f"classes; the model maps {model.n_in} inputs to {model.n_out} outputs"
        )


def _load_model_file(path):
    if not os.path.isfile(path):
        raise DataError(f"model file not found: {path}")
    try:
        return load_model(path)
    except (ValueError, KeyError) as exc:
        raise DataError(f"bad model file {path}: {exc}") from None
    except RecursionError:
        raise DataError(f"bad model file {path}: nested too deeply") from None


def cmd_eval(args):
    started = time.perf_counter()
    out = _out_dir(args)
    model = _load_model_file(args.model)
    dataset = _load_eval_data(args)
    _require_fit(model, dataset)
    _loss_kind(args.loss)
    scores = evaluate(model, dataset, args.loss)
    report = {
        "accuracy": scores["accuracy"],
        "mean_loss": scores["mean_loss"],
        "n_examples": len(dataset),
        "loss": args.loss,
    }
    _write_report(out / "eval.jsonl", "eval", [report])
    _write_manifest(
        out,
        "eval",
        {"model": args.model, "loss": args.loss},
        None,
        started,
        ["eval.jsonl"],
    )
    print(f"accuracy {scores['accuracy']:.4f} mean_loss {scores['mean_loss']:.6f}")
    return EXIT_OK


def cmd_gridsearch(args):
    started = time.perf_counter()
    config = _load_config(args.config)
    out = _out_dir(args)
    loss_kind = _loss_kind(config.get("loss", DEFAULT_LOSS))
    grid = config.get("grid") or {}
    # the axes and folds are the command's own; grid_search has none
    grid_a, grid_b = (grid.get(key, [0.0, 1e-4, 1e-3, 1e-2, 1e-1]) for key in "ab")
    for key, axis in (("a", grid_a), ("b", grid_b)):
        if not isinstance(axis, list) or any(isinstance(c, bool) for c in axis):
            raise ConfigError(f"grid axis {key!r} must be a list of coefficients")
    folds = grid.get("folds", 5)
    tcfg = _build_train_config(config.get("train"), args.seed, args.epochs)
    model_spec = config.get("model") or {}
    reg_spec = config.get("regularizers")
    dataset = _build_dataset(config.get("data") or {})

    def model_builder(seed):
        spec = dict(model_spec)
        spec["seed"] = seed
        return _build_model(spec)

    template = model_builder(0)
    n_layers = len(template.layers)
    n_hidden = len(template.hidden)
    base = _build_regularizers(reg_spec, n_layers, n_hidden)

    def reg_builder(c_a, c_b):
        # c_a drives the hidden-layer penalties, c_b the output layer;
        # kinds and dropout come from the configured base spec
        entries = []
        for k, entry in enumerate(base.layers):
            kind = entry.kind if entry.kind != "none" else "eigen_decay"
            c = c_a if k < n_layers - 1 else c_b
            if c == 0.0:
                entries.append(LayerPenalty())
            else:
                entries.append(LayerPenalty(kind, c, entry.p))
        return RegularizerSpec(tuple(entries), base.dropout)

    try:
        result = grid_search(
            dataset,
            model_builder,
            loss_kind,
            grid_a,
            grid_b,
            folds,
            tcfg,
            reg_builder,
            **_given(grid, "select_by"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    save_grid_result(result, out / "gridsearch.jsonl")
    _write_manifest(
        out, "gridsearch", config, tcfg.seed, started, ["gridsearch.jsonl"]
    )
    print(
        f"selected c_a={result.selected[0]:g} c_b={result.selected[1]:g} "
        f"cv_accuracy={result.selected_accuracy:.4f}"
    )
    return EXIT_OK


def _require_finite_grams(mode, layers):
    # the eigenvalue solvers need every W W^T inside float range
    for k, layer in enumerate(layers):
        if not np.isfinite(gram(layer.weights)).all():
            raise DataError(f"{mode}: W W^T of layer {k} overflows float range")


def cmd_verify(args):
    started = time.perf_counter()
    out = _out_dir(args)
    mode = args.mode
    if args.count is not None and args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    # each suite keeps its own default seed and count unless a flag gives one
    options = _flags(args, "seed", "count")
    if mode == "eigencheck":
        records, ok = power_method_fidelity_suite(**options)
    elif mode == "lemma1":
        records, ok = quadratic_form_bound_suite(**options)
    elif mode == "gradcheck":
        if args.model:
            model = _load_model_file(args.model)
            _require_finite_grams(mode, model.layers)
            try:
                records, ok = model_gradient_check(model, **_flags(args, "seed"))
            except (DegenerateIterateError, OverflowError) as exc:
                raise DataError(f"{mode}: {exc}") from None
        else:
            records, ok = gradient_check_suite(**options)
    elif mode == "theorem1":
        if not args.model:
            raise ConfigError("theorem1 verification needs --model")
        model = _load_model_file(args.model)
        for layer in model.hidden:
            if layer.activation.kind not in SMOOTH_ACTIVATIONS:
                raise ConfigError(
                    f"theorem1 verification needs differentiable activations; "
                    f"the model uses {layer.activation.kind!r}"
                )
        if not 0 <= args.cls < model.n_out:
            raise ConfigError(
                f"--class {args.cls} out of range for {model.n_out} outputs"
            )
        if args.anchors_per_example is not None and args.anchors_per_example < 1:
            raise ConfigError(f"--anchors must be >= 1, got {args.anchors_per_example}")
        _require_finite_grams(mode, model.hidden)
        dataset = _load_eval_data(args)
        _require_fit(model, dataset)
        try:
            reports, ok = verify_theorem1(
                model, dataset, args.cls, **_flags(args, "anchors_per_example")
            )
        except (AnchorSamplingError, NonFiniteMidpointError, OverflowError) as exc:
            raise DataError(f"theorem1: {exc}") from None
        except (NoCrossingError, BisectionToleranceError, DegenerateGradientError) as exc:
            raise CheckError(f"theorem1: {exc}") from None
        save_margin_reports(reports, out / "margin.jsonl")
        summary = {
            "mode": mode,
            "examples_checked": len(reports),
            "violations": sum(1 for r in reports if not r.ok),
            "ok": ok,
        }
        _write_report(out / "verify.jsonl", "verify", [summary])
        _write_manifest(
            out,
            "verify",
            {"mode": mode, "model": args.model, "class": args.cls},
            args.seed,
            started,
            ["margin.jsonl", "verify.jsonl"],
        )
        print(f"theorem1: {len(reports)} examples, ok={ok}")
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    failures = [r for r in records if not r["ok"]]
    lines = list(records)
    lines.append({"mode": mode, "checked": len(records), "failures": len(failures), "ok": ok})
    _write_report(out / "verify.jsonl", "verify", lines)
    _write_manifest(
        out, "verify", {"mode": mode, "count": args.count}, args.seed, started,
        ["verify.jsonl"],
    )
    print(f"{mode}: {len(records)} checks, {len(failures)} failures")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_gendata(args):
    started = time.perf_counter()
    out = _out_dir(args)
    size = "n_per_class" if args.kind == "two_gaussians" else "n"
    spec = {"kind": args.kind, size: args.n, **_flags(args, "seed", "sigma", "noise")}
    dataset = _build_dataset(spec)
    write_delimited(dataset, out / "data.csv")
    _write_manifest(
        out,
        "gendata",
        {"kind": args.kind, "n": args.n, "seed": args.seed},
        args.seed,
        started,
        ["data.csv"],
    )
    print(f"wrote {len(dataset)} examples to {out / 'data.csv'}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eigendecay",
        description="train and verify dense networks with eigenvalue-decay "
        "regularization",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a JSON config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--epochs", type=int)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", help="CSV with labels in the last column")
    p_eval.add_argument("--images", help="IDX images file")
    p_eval.add_argument("--labels", help="IDX labels file")
    p_eval.add_argument("--limit", type=int)
    p_eval.add_argument("--loss", default=DEFAULT_LOSS)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(fn=cmd_eval)

    p_grid = sub.add_parser("gridsearch", help="cross-validated 2-d grid search")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--out", required=True)
    p_grid.add_argument("--seed", type=int)
    p_grid.add_argument("--epochs", type=int)
    p_grid.set_defaults(fn=cmd_gridsearch)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "--mode",
        required=True,
        choices=["theorem1", "lemma1", "gradcheck", "eigencheck"],
    )
    p_verify.add_argument("--model")
    p_verify.add_argument("--data")
    p_verify.add_argument("--images")
    p_verify.add_argument("--labels")
    p_verify.add_argument("--limit", type=int)
    p_verify.add_argument("--class", dest="cls", type=int, default=0)
    p_verify.add_argument("--anchors", dest="anchors_per_example", type=int, metavar="N")
    p_verify.add_argument("--count", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--out", required=True)
    p_verify.set_defaults(fn=cmd_verify)

    p_gen = sub.add_parser("gendata", help="write a synthetic dataset")
    p_gen.add_argument(
        "--kind", required=True, choices=["two_gaussians", "two_moons", "xor"]
    )
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--sigma", type=float)
    p_gen.add_argument("--noise", type=float)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=cmd_gendata)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a run ends in at most one stderr line, not in numpy's float warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except CheckError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
