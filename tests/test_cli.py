import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from alqecg import cli
from alqecg.bitpack import serialize
from alqecg.cli import run
from alqecg.data import load_dataset, synth_generate, save_dataset
from test_bitpack import models_equal, random_model


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _synth(workdir, name="d.csv", n=2, seed=5, sigma=0.0):
    assert run(["synth", "--n-per-class", str(n), "--seed", str(seed),
                "--noise-sigma", str(sigma), "--out", name]) == 0
    return workdir / name


class TestSynthCommand:
    def test_writes_dataset_and_manifest(self, workdir):
        path = _synth(workdir)
        ds = load_dataset(path)
        assert len(ds) == 34
        manifest = json.loads((workdir / "d.csv.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 5
        assert manifest["versions"]["alqecg"]

    def test_raw_format(self, workdir):
        assert run(["synth", "--n-per-class", "1", "--seed", "0",
                    "--out", "d.raw", "--format", "raw-f32"]) == 0
        assert len(load_dataset(workdir / "d.raw", "raw-f32")) == 17


class TestTrainCommand:
    def test_deterministic_checkpoints(self, workdir):
        _synth(workdir)
        args = ["train", "--data", "d.csv", "--epochs", "2", "--seed", "7"]
        assert run(args + ["--out", "a.alqf"]) == 0
        assert run(args + ["--out", "b.alqf"]) == 0
        assert (workdir / "a.alqf").read_bytes() == (workdir / "b.alqf").read_bytes()

    def test_missing_data_is_validation_error(self, workdir):
        assert run(["train", "--data", "nope.csv", "--out", "m.alqf"]) == 1

    def test_malformed_data_is_validation_error(self, workdir):
        (workdir / "bad.csv").write_text("1,2,3\n")
        assert run(["train", "--data", "bad.csv", "--out", "m.alqf"]) == 1

    def test_flatline_record_warned_once(self, workdir, caplog):
        ds = synth_generate(1, seed=0)
        ds.records[3] = 0.25
        save_dataset(workdir / "flat.csv", ds)
        with caplog.at_level("WARNING"):
            assert run(["train", "--data", "flat.csv", "--epochs", "1",
                        "--out", "m.alqf"]) == 0
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "1 constant record" in warnings[0].getMessage()


class TestQuantizeEvalPipeline:
    def _train(self, workdir):
        _synth(workdir)
        assert run(["train", "--data", "d.csv", "--out", "m.alqf",
                    "--epochs", "2", "--seed", "7"]) == 0

    def test_quantize_then_eval_writes_reports(self, workdir):
        self._train(workdir)
        (workdir / "alq.json").write_text(json.dumps(
            {"group_size": 16, "i_max": 2, "prune": {"rate": 0.2},
             "scorer": "magnitude", "refine_iters": 1, "seed": 3}
        ))
        assert run(["quantize", "--model", "m.alqf", "--config", "alq.json",
                    "--out", "m.alqq"]) == 0
        assert run(["eval", "--model", "m.alqq", "--data", "d.csv",
                    "--out", "rep"]) == 0
        metrics = json.loads((workdir / "rep" / "metrics.json").read_text())
        assert 0.0 <= metrics["oa"] <= 100.0
        assert (workdir / "rep" / "memory.txt").exists()
        assert (workdir / "rep" / "confusion.csv").exists()
        assert (workdir / "rep" / "manifest.json").exists()

    def test_eval_full_precision_checkpoint(self, workdir):
        self._train(workdir)
        assert run(["eval", "--model", "m.alqf", "--data", "d.csv"]) == 0
        # without --out the reports land in the working directory
        assert (workdir / "metrics.json").exists()
        assert (workdir / "manifest.json").exists()

    def test_quantize_deterministic(self, workdir):
        self._train(workdir)
        args = ["quantize", "--model", "m.alqf", "--scorer", "magnitude",
                "--prune-rate", "0.3", "--seed", "11"]
        assert run(args + ["--out", "a.alqq"]) == 0
        assert run(args + ["--out", "b.alqq"]) == 0
        assert (workdir / "a.alqq").read_bytes() == (workdir / "b.alqq").read_bytes()

    def test_loss_aware_pruning_requires_calib(self, workdir):
        self._train(workdir)
        assert run(["quantize", "--model", "m.alqf", "--prune-rate", "0.3",
                    "--scorer", "loss_aware", "--out", "m.alqq"]) == 1
        assert run(["quantize", "--model", "m.alqf", "--prune-rate", "0.3",
                    "--scorer", "loss_aware", "--data", "d.csv",
                    "--out", "m.alqq"]) == 0

    def test_report_command(self, workdir, capsys):
        self._train(workdir)
        assert run(["quantize", "--model", "m.alqf", "--out", "m.alqq",
                    "--scorer", "magnitude"]) == 0
        assert run(["report", "--model", "m.alqq", "--out", "mem"]) == 0
        out = capsys.readouterr().out
        assert "Total" in out and "KB" in out
        assert (workdir / "mem" / "memory.json").exists()

    def test_sweep_command(self, workdir):
        self._train(workdir)
        assert run(["sweep", "--model", "m.alqf", "--data", "d.csv",
                    "--test", "d.csv", "--rates", "0,0.5,0.9",
                    "--out", "swp"]) == 0
        lines = (workdir / "swp" / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rates
        bitwidths = [float(l.split(",")[1]) for l in lines[1:]]
        assert bitwidths == sorted(bitwidths, reverse=True)

    def test_sweep_rejects_empty_rate_list(self, workdir, capsys):
        self._train(workdir)
        assert run(["sweep", "--model", "m.alqf", "--data", "d.csv",
                    "--test", "d.csv", "--rates", ",", "--out", "swp"]) == 1
        assert "rates must be a non-empty" in capsys.readouterr().err
        assert not (workdir / "swp" / "sweep.json").exists()


class TestValidation:
    def test_bad_prune_rate_message(self, workdir, capsys):
        _synth(workdir)
        assert run(["train", "--data", "d.csv", "--out", "m.alqf",
                    "--epochs", "1", "--seed", "0"]) == 0
        rc = run(["quantize", "--model", "m.alqf", "--prune-rate", "1.5",
                  "--out", "x.alqq"])
        assert rc == 1
        assert "prune.rate must be in [0,1)" in capsys.readouterr().err

    def test_group_size_above_largest_layer_rejected_before_the_pipeline(
            self, workdir, capsys, monkeypatch):
        from alqecg import quantizer

        _synth(workdir)
        assert run(["train", "--data", "d.csv", "--out", "m.alqf",
                    "--epochs", "1", "--seed", "0"]) == 0
        calls = []
        monkeypatch.setattr(quantizer, "init_layers", lambda *a: calls.append(a))
        capsys.readouterr()
        assert run(["quantize", "--model", "m.alqf", "--group-size", "30000",
                    "--prune-rate", "0.5", "--scorer", "magnitude", "--out", "x.alqq"]) == 1
        (workdir / "alq.json").write_text(json.dumps({"group_size": 30000}))
        assert run(["sweep", "--model", "m.alqf", "--data", "d.csv", "--test", "d.csv",
                    "--config", "alq.json", "--rates", "0,0.5", "--out", "swp"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: group size 30000 exceeds the largest layer's 20544 values"] * 2
        assert calls == []
        assert not (workdir / "x.alqq").exists() and not (workdir / "swp").exists()

    def test_prune_rate_and_target_bitwidth_are_exclusive(self, capsys):
        # the model is never opened: the parser rejects the pair first
        assert run(["quantize", "--model", "m.alqf", "--prune-rate", "0.3",
                    "--target-bitwidth", "2.0", "--out", "x.alqq"]) == 1
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, prune", [
        ("--prune-rate", "0.3", {"rate": 0.3}),
        ("--target-bitwidth", "2.0", {"target_avg_bitwidth": 2.0}),
    ])
    def test_either_flag_replaces_config_file_prune(self, workdir, flag, value, prune):
        from alqecg.cli import _alq_config, _build_parser

        (workdir / "alq.json").write_text(json.dumps({"prune": {"rate": 0.5}}))
        args = _build_parser().parse_args(["quantize", "--model", "m.alqf", "--config",
                                           "alq.json", flag, value, "--out", "x.alqq"])
        assert _alq_config(args).to_dict()["prune"] == prune

    @pytest.mark.parametrize("argv", [
        ["synth", "--n-per-class", "1", "--noise-sigma", "nan", "--out", "d.csv"],
        ["train", "--data", "d.csv", "--epochs", "1", "--lr", "nan", "--out", "m.alqf"],
        ["train", "--data", "d.csv", "--epochs", "1", "--lr", "inf", "--out", "m.alqf"],
        ["quantize", "--model", "m.alqf", "--target-bitwidth", "nan", "--out", "x.alqq"],
    ])
    def test_non_finite_setting_rejected(self, workdir, argv, capsys):
        _synth(workdir)
        assert run(["train", "--data", "d.csv", "--out", "m.alqf",
                    "--epochs", "1", "--seed", "0"]) == 0
        out = argv[-1]
        (workdir / out).unlink(missing_ok=True)
        capsys.readouterr()
        assert run(argv) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (workdir / out).exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--n-per-class", "1", "--seed", "-1", "--out", "d.csv"],
        ["train", "--data", "d.csv", "--seed", "-1", "--out", "m.alqf"],
        ["quantize", "--model", "m.alqf", "--prune-rate", "0", "--seed", "-1",
         "--out", "x.alqq"],
    ])
    def test_negative_seed_rejected_by_the_parser(self, argv, capsys):
        # no input is opened: the parser rejects the flag first
        assert run(argv) == 1
        assert "expected a non-negative integer" in capsys.readouterr().err

    def test_config_seed_outside_u64_rejected_before_the_pipeline(self, workdir, capsys):
        (workdir / "alq.json").write_text(json.dumps({"seed": -3}))
        assert run(["quantize", "--model", "m.alqf", "--config", "alq.json",
                    "--prune-rate", "0", "--out", "x.alqq"]) == 1
        assert "seed must be in 0..2**64-1" in capsys.readouterr().err

    def test_config_non_integer_rejected_before_the_pipeline(self, workdir, capsys,
                                                            monkeypatch):
        from alqecg import quantizer

        _synth(workdir)
        assert run(["train", "--data", "d.csv", "--out", "m.alqf",
                    "--epochs", "1", "--seed", "0"]) == 0
        calls = []
        monkeypatch.setattr(quantizer, "init_layers", lambda *a: calls.append(a))
        capsys.readouterr()
        for raw, message in [({"seed": 1.5}, "seed must be an integer, got 1.5"),
                             ({"i_max": {"default": 2.5}}, "i_max must be an integer"),
                             ({"prune": {"rate": "0.5"}}, "prune.rate must be a number")]:
            (workdir / "alq.json").write_text(json.dumps(raw))
            assert run(["quantize", "--model", "m.alqf", "--config", "alq.json",
                        "--prune-rate", "0", "--out", "x.alqq"]) == 1
            assert message in capsys.readouterr().err
        assert calls == []
        assert not (workdir / "x.alqq").exists()

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, capsys):
        assert run(["synth", "--n-per-class", "1", "--out", "d.csv",
                    "--frob", "3"]) == 1

    def test_corrupt_model_container(self, workdir):
        (workdir / "junk.alqq").write_bytes(b"JUNKJUNKJUNK")
        _synth(workdir)
        assert run(["eval", "--model", "junk.alqq", "--data", "d.csv"]) == 1

    def test_model_file_read_once(self, workdir, monkeypatch):
        model = random_model(np.random.default_rng(0))
        serialize(model, workdir / "m.alqq")
        reads = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes",
                            lambda self: reads.append(self) or read_bytes(self))
        assert models_equal(cli._load_model(workdir / "m.alqq"), model)
        assert len(reads) == 1  # the loader's; the magic is sniffed alone

    def test_inputs_not_mutated(self, workdir):
        path = _synth(workdir)
        before = path.read_bytes()
        assert run(["train", "--data", "d.csv", "--out", "m.alqf",
                    "--epochs", "1", "--seed", "0"]) == 0
        assert path.read_bytes() == before


class TestManifest:
    def test_contains_input_hashes(self, workdir):
        _synth(workdir)
        assert run(["train", "--data", "d.csv", "--out", "m.alqf",
                    "--epochs", "1", "--seed", "4"]) == 0
        manifest = json.loads((workdir / "m.alqf.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert "d.csv" in manifest["inputs"]
        assert len(manifest["inputs"]["d.csv"]) == 64
        assert manifest["settings"]["epochs"] == 1

    def test_rerun_same_args_identical_manifest(self, workdir):
        _synth(workdir)
        args = ["train", "--data", "d.csv", "--out", "m.alqf",
                "--epochs", "1", "--seed", "4"]
        assert run(args) == 0
        first = (workdir / "m.alqf.manifest.json").read_bytes()
        assert run(args) == 0
        assert (workdir / "m.alqf.manifest.json").read_bytes() == first


def test_module_runs_as_a_script(tmp_path):
    # python -m alqecg.cli runs the command, like the installed entry point
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "alqecg.cli", "synth", "--n-per-class", "1", "--out", "d.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len(load_dataset(tmp_path / "d.csv")) == 17
