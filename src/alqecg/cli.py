"""Command-line driver: synth, train, quantize, eval, sweep, report.

Exit codes: 0 success, 1 argument/config/input validation failure, 2
runtime or numeric failure. Every run writes a manifest (resolved settings,
seed, config digest, package versions, input hashes) next to its outputs so
the run can be reproduced exactly. ALQ_THREADS caps the threads that run
the record blocks of inference, fp or quantized (0 or unset = one per CPU);
no output depends on it. Gradient passes run their blocks in order on the
calling thread, and every pass uses BLAS's own threads.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__, bitpack, metrics as _metrics, net as _net
from .data import load_dataset, normalize_dataset, save_dataset, synth_generate
from .errors import (
    ConfigError,
    ContainerFormatError,
    DataFormatError,
    EmptyDatasetError,
    NumericError,
    ShapeError,
    TrainingError,
)
from .net import TrainConfig, default_ecgnet_spec, init_params, train
from .quantizer import AlqConfig, alq_pipeline
from .util import canonical_json_bytes, sha256_file

log = logging.getLogger("alqecg")

_VALIDATION_ERRORS = (
    ConfigError,
    DataFormatError,
    EmptyDatasetError,
    ContainerFormatError,
    ShapeError,
    FileNotFoundError,
    IsADirectoryError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage to stderr, exit code 1
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="alqecg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--n-per-class", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "raw-f32"], default="csv")

    p = sub.add_parser("train", help="train the full-precision classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=["csv", "raw-f32"], default="csv")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("quantize", help="quantize a trained checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--config", default=None, help="JSON quantizer config")
    p.add_argument("--data", default=None, help="calibration dataset")
    p.add_argument("--format", choices=["csv", "raw-f32"], default="csv")
    p.add_argument("--out", required=True)
    p.add_argument("--group-size", type=int, default=None)
    target = p.add_mutually_exclusive_group()
    target.add_argument("--prune-rate", type=float, default=None)
    target.add_argument("--target-bitwidth", type=float, default=None)
    p.add_argument("--scorer", choices=["magnitude", "loss_aware"], default=None)
    p.add_argument("--refine-iters", type=int, default=None)
    p.add_argument("--calib-batch", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=None)

    p = sub.add_parser("eval", help="evaluate a checkpoint or quantized model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=["csv", "raw-f32"], default="csv")
    p.add_argument("--out", default=".", help="report directory (default: cwd)")

    p = sub.add_parser("sweep", help="prune-rate sweep from one shared init")
    p.add_argument("--model", required=True, help="full-precision checkpoint")
    p.add_argument("--data", required=True, help="calibration dataset")
    p.add_argument("--test", required=True, help="held-out dataset")
    p.add_argument("--format", choices=["csv", "raw-f32"], default="csv")
    p.add_argument("--rates", required=True, help="comma-separated ascending rates")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="memory accounting for a quantized model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=".", help="report directory (default: cwd)")
    return parser


def _alq_config(args) -> AlqConfig:
    raw = AlqConfig.from_json_file(args.config).to_dict() if args.config else AlqConfig().to_dict()
    # the two flags are exclusive; either one replaces the file's target
    if args.prune_rate is not None:
        raw["prune"] = {"rate": args.prune_rate}
    if args.target_bitwidth is not None:
        raw["prune"] = {"target_avg_bitwidth": args.target_bitwidth}
    for key, flag in [
        ("group_size", args.group_size), ("scorer", args.scorer),
        ("refine_iters", args.refine_iters), ("calib_batch", args.calib_batch),
        ("seed", args.seed),
    ]:
        if flag is not None:
            raw[key] = flag
    return AlqConfig.from_dict(raw)


def _hash_inputs(paths) -> dict:
    return {str(p): sha256_file(p) for p in paths if p is not None}


def _write_manifest(anchor: Path, command: str, settings: dict, inputs, outputs,
                    seed=None, config_digest=None) -> None:
    manifest = {
        "command": command,
        "settings": settings,
        "seed": seed,
        "config_digest": config_digest,
        "inputs": _hash_inputs(inputs),
        "outputs": [str(o) for o in outputs],
        "versions": {
            "alqecg": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }
    anchor = Path(anchor)
    path = anchor / "manifest.json" if anchor.is_dir() else anchor.with_suffix(
        anchor.suffix + ".manifest.json"
    )
    path.write_bytes(canonical_json_bytes(manifest))


def _load_normalized(path, format):
    # normalize_dataset logs the flatline warning
    return normalize_dataset(load_dataset(path, format))[0]


def _cmd_synth(args) -> int:
    ds = synth_generate(args.n_per_class, args.seed, args.noise_sigma)
    save_dataset(args.out, ds, args.format)
    _write_manifest(
        Path(args.out), "synth",
        {"n_per_class": args.n_per_class, "noise_sigma": args.noise_sigma,
         "format": args.format},
        [], [args.out], seed=args.seed,
    )
    log.info("wrote %d records to %s", len(ds), args.out)
    return 0


def _cmd_train(args) -> int:
    try:  # a bad setting is a validation failure, not a training one
        config = TrainConfig(
            epochs=args.epochs, batch_size=args.batch_size,
            learning_rate=args.lr, seed=args.seed,
        )
    except TrainingError as exc:
        raise ConfigError(str(exc)) from None
    ds = _load_normalized(args.data, args.format)
    network = init_params(default_ecgnet_spec(), config.seed)
    result = train(network, ds, config)
    _net.save_checkpoint(result.network, args.out)
    _write_manifest(
        Path(args.out), "train",
        {"epochs": config.epochs, "batch_size": config.batch_size,
         "learning_rate": config.learning_rate,
         "data": str(args.data), "format": args.format,
         "epoch_losses": result.epoch_losses},
        [args.data], [args.out], seed=config.seed,
    )
    log.info("final epoch loss %.6f; checkpoint at %s", result.epoch_losses[-1], args.out)
    return 0


def _cmd_quantize(args) -> int:
    config = _alq_config(args)
    network = _net.load_checkpoint(args.model)
    calib = _load_normalized(args.data, args.format) if args.data else None
    model, report = alq_pipeline(network, calib, config)
    bitpack.serialize(model, args.out)
    _write_manifest(
        Path(args.out), "quantize",
        {"model": str(args.model), "data": str(args.data) if args.data else None,
         "config": config.to_dict(),
         "avg_bitwidth": report.avg_bitwidth_final,
         "pruned_coords": report.pruned_coords},
        [args.model, args.data], [args.out],
        seed=config.seed, config_digest=config.digest(),
    )
    log.info(
        "quantized %s: avg bitwidth %.4f -> %.4f, %d coordinate(s) pruned",
        args.model, report.avg_bitwidth_init, report.avg_bitwidth_final,
        report.pruned_coords,
    )
    return 0


def _load_model(path):
    with open(path, "rb") as f:
        magic = f.read(4)
    if magic == bitpack.MAGIC:
        return bitpack.deserialize(path)
    if magic == _net.CHECKPOINT_MAGIC:
        return _net.load_checkpoint(path)
    raise ContainerFormatError(f"{path}: unrecognized model container", 0)


def _cmd_eval(args) -> int:
    model = _load_model(args.model)
    ds = _load_normalized(args.data, args.format)
    cm, rep = _metrics.evaluate(model, ds)
    mem = bitpack.memory_report(model) if not isinstance(model, _net.Network) else None
    print(f"OA  {rep.oa:.2f}%\nSen {rep.sen:.2f}%\nSpe {rep.spe:.2f}%  (N={rep.n})")
    written = _metrics.emit_reports(args.out, rep, cm, mem)
    _write_manifest(
        Path(args.out), "eval",
        {"model": str(args.model), "data": str(args.data), "format": args.format},
        [args.model, args.data], written,
    )
    return 0


def _cmd_sweep(args) -> int:
    try:
        rates = [float(r) for r in args.rates.split(",") if r.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad --rates value {args.rates!r}") from None
    config = AlqConfig.from_json_file(args.config) if args.config else AlqConfig()
    network = _net.load_checkpoint(args.model)
    calib = _load_normalized(args.data, args.format)
    test = _load_normalized(args.test, args.format)
    points = _metrics.sweep(network, calib, test, rates, config)
    written = _metrics.emit_reports(args.out, sweep_points=points)
    _write_manifest(
        Path(args.out), "sweep",
        {"model": str(args.model), "rates": rates, "config": config.to_dict()},
        [args.model, args.data, args.test], written,
        seed=config.seed, config_digest=config.digest(),
    )
    return 0


def _cmd_report(args) -> int:
    model = bitpack.deserialize(args.model)
    mem = bitpack.memory_report(model)
    print(mem.format_table(), end="")
    written = _metrics.emit_reports(args.out, memory=mem)
    _write_manifest(
        Path(args.out), "report", {"model": str(args.model)},
        [args.model], written,
    )
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "quantize": _cmd_quantize,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def run(argv) -> int:
    """Parse and execute one command; returns the process exit code."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TrainingError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
