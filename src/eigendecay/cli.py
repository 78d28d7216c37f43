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
from .linalg import POWER_STEPS, DegenerateIterateError, gram
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


def _build_dataset(spec):
    kind = spec.get("kind")
    try:
        if kind == "csv":
            return _load_csv(
                spec["path"],
                sep=spec.get("sep", ","),
                header=spec.get("header", False),
                n_classes=spec.get("n_classes"),
            )
        if kind == "idx":
            return _load_idx_pair(
                spec["images"],
                spec["labels"],
                n_classes=spec.get("n_classes"),
                limit=spec.get("limit"),
            )
        if kind == "two_gaussians":
            return gen_two_gaussians(
                n_per_class=spec["n_per_class"],
                centers=spec.get("centers", ((-1.0, 0.0), (1.0, 0.0))),
                sigma=spec.get("sigma", 0.5),
                seed=spec.get("seed", 0),
            )
        if kind == "two_moons":
            return gen_two_moons(
                n=spec["n"], noise=spec.get("noise", 0.1), seed=spec.get("seed", 0)
            )
        if kind == "xor":
            return gen_xor(n=spec["n"], seed=spec.get("seed", 0))
    except KeyError as exc:
        raise ConfigError(f"data spec is missing key {exc}") from None
    except DataError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad data spec: {exc}") from None
    except MemoryError as exc:
        raise ConfigError(f"data spec too large to generate: {exc}") from None
    raise ConfigError(f"unknown data kind {kind!r}")


def _load_csv(path, sep=",", header=False, n_classes=None):
    if not os.path.isfile(path):
        raise DataError(f"data file not found: {path}")
    try:
        return load_delimited(path, sep=sep, header=header, n_classes=n_classes)
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _load_idx_pair(images, labels, n_classes=None, limit=None):
    for path in (images, labels):
        if not os.path.isfile(path):
            raise DataError(f"data file not found: {path}")
    try:
        return load_idx(images, labels, n_classes=n_classes, limit=limit)
    except IdxFormatError as exc:
        raise DataError(str(exc)) from None


def _build_model(spec):
    try:
        return init_mlp(
            spec["layers"],
            hidden_activation=spec.get("hidden_activation", "sigmoid"),
            seed=spec.get("seed", 0),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad model spec: {exc}") from None
    except MemoryError as exc:
        raise ConfigError(f"model too large to allocate: {exc}") from None


def _build_regularizers(spec, n_layers, n_hidden):
    if spec is None:
        return RegularizerSpec.none(n_layers, n_hidden)
    try:
        entries = []
        for entry in spec.get("layers", [{}] * n_layers):
            entries.append(
                LayerPenalty(
                    kind=entry.get("kind", "none"),
                    c=entry.get("c", 0.0),
                    p=entry.get("p", POWER_STEPS),
                )
            )
        dropout = tuple(spec.get("dropout", (0.0,) * n_hidden))
        reg = RegularizerSpec(tuple(entries), dropout)
    except (ValueError, TypeError, AttributeError) as exc:
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
    es_spec = spec.get("early_stopping") or {}
    if not isinstance(es_spec, dict):
        raise ConfigError("config section 'early_stopping' must be a JSON object")
    try:
        es = EarlyStopping(
            enabled=es_spec.get("enabled", False),
            patience=es_spec.get("patience", 10),
            validation_fraction=es_spec.get("validation_fraction", 0.1),
        )
        return TrainConfig(
            learning_rate=spec["learning_rate"],
            batch_size=spec.get("batch_size", 32),
            max_epochs=(
                epochs_override
                if epochs_override is not None
                else spec.get("max_epochs", 100)
            ),
            seed=seed_override if seed_override is not None else spec.get("seed", 0),
            early_stopping=es,
            shuffle=spec.get("shuffle", True),
            momentum=spec.get("momentum", 0.0),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad train spec: {exc}") from None


def _loss_kind(config):
    kind = config.get("loss", "mse")
    if kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss {kind!r}; pick one of {LOSS_KINDS}")
    return kind


def _write_manifest(out_dir, command, config_echo, seed, started, outputs):
    manifest = {
        "schema_version": 1,
        "command": command,
        "config": config_echo,
        "seed": seed,
        "version": __version__,
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
    loss_kind = _loss_kind(config)
    tcfg = _build_train_config(config.get("train"), args.seed, args.epochs)
    model = _build_model(config.get("model", {}))
    reg = _build_regularizers(
        config.get("regularizers"), len(model.layers), len(model.hidden)
    )
    dataset = _build_dataset(config.get("data", {}))
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
        return _load_idx_pair(args.images, args.labels, limit=args.limit)
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
    if args.loss not in LOSS_KINDS:
        raise ConfigError(f"unknown loss {args.loss!r}; pick one of {LOSS_KINDS}")
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
    loss_kind = _loss_kind(config)
    grid = config.get("grid") or {}
    grid_a = grid.get("a", [0.0, 1e-4, 1e-3, 1e-2, 1e-1])
    grid_b = grid.get("b", [0.0, 1e-4, 1e-3, 1e-2, 1e-1])
    for key, axis in (("a", grid_a), ("b", grid_b)):
        if not isinstance(axis, list) or any(isinstance(c, bool) for c in axis):
            raise ConfigError(f"grid axis {key!r} must be a list of coefficients")
    folds = grid.get("folds", 5)
    select_by = grid.get("select_by", "accuracy")
    tcfg = _build_train_config(config.get("train"), args.seed, args.epochs)
    model_spec = config.get("model", {})
    reg_spec = config.get("regularizers")
    dataset = _build_dataset(config.get("data", {}))

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
            select_by=select_by,
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
    seed = args.seed or 0
    # each suite keeps its own default count unless --count is given
    count = {} if args.count is None else {"count": args.count}
    if mode == "eigencheck":
        records, ok = power_method_fidelity_suite(seed=seed, **count)
    elif mode == "lemma1":
        records, ok = quadratic_form_bound_suite(seed=seed, **count)
    elif mode == "gradcheck":
        if args.model:
            model = _load_model_file(args.model)
            _require_finite_grams(mode, model.layers)
            try:
                records, ok = model_gradient_check(model, seed=seed)
            except (DegenerateIterateError, OverflowError) as exc:
                raise DataError(f"{mode}: {exc}") from None
        else:
            records, ok = gradient_check_suite(seed=seed, **count)
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
        if args.anchors < 1:
            raise ConfigError(f"--anchors must be >= 1, got {args.anchors}")
        _require_finite_grams(mode, model.hidden)
        dataset = _load_eval_data(args)
        _require_fit(model, dataset)
        try:
            reports, ok = verify_theorem1(
                model,
                dataset,
                args.cls,
                anchors_per_example=args.anchors,
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
    spec = {"kind": args.kind, "seed": args.seed or 0}
    if args.kind == "two_gaussians":
        spec.update(n_per_class=args.n, sigma=args.sigma)
    elif args.kind == "two_moons":
        spec.update(n=args.n, noise=args.noise)
    else:
        spec.update(n=args.n)
    dataset = _build_dataset(spec)
    write_delimited(dataset, out / "data.csv")
    _write_manifest(
        out,
        "gendata",
        {"kind": args.kind, "n": args.n, "seed": args.seed or 0},
        args.seed or 0,
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
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", default=None, help="CSV with labels in the last column")
    p_eval.add_argument("--images", default=None, help="IDX images file")
    p_eval.add_argument("--labels", default=None, help="IDX labels file")
    p_eval.add_argument("--limit", type=int, default=None)
    p_eval.add_argument("--loss", default="mse")
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(fn=cmd_eval)

    p_grid = sub.add_parser("gridsearch", help="cross-validated 2-d grid search")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--out", required=True)
    p_grid.add_argument("--seed", type=int, default=None)
    p_grid.add_argument("--epochs", type=int, default=None)
    p_grid.set_defaults(fn=cmd_gridsearch)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "--mode",
        required=True,
        choices=["theorem1", "lemma1", "gradcheck", "eigencheck"],
    )
    p_verify.add_argument("--model", default=None)
    p_verify.add_argument("--data", default=None)
    p_verify.add_argument("--images", default=None)
    p_verify.add_argument("--labels", default=None)
    p_verify.add_argument("--limit", type=int, default=None)
    p_verify.add_argument("--class", dest="cls", type=int, default=0)
    p_verify.add_argument("--anchors", type=int, default=5)
    p_verify.add_argument("--count", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--out", required=True)
    p_verify.set_defaults(fn=cmd_verify)

    p_gen = sub.add_parser("gendata", help="write a synthetic dataset")
    p_gen.add_argument(
        "--kind", required=True, choices=["two_gaussians", "two_moons", "xor"]
    )
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--sigma", type=float, default=0.5)
    p_gen.add_argument("--noise", type=float, default=0.1)
    p_gen.add_argument("--seed", type=int, default=None)
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
