"""CLI: argument parsing and a fast end-to-end smoke run."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_attack_defaults(self):
        args = build_parser().parse_args(["attack"])
        assert args.dataset == "cifar"
        assert args.bits == [4]
        assert args.method == "target_correlated"
        assert args.rate == 20.0

    def test_attack_overrides(self):
        args = build_parser().parse_args([
            "attack", "--dataset", "faces", "--bits", "3",
            "--method", "weighted_entropy", "--rate", "5", "--epochs", "2",
        ])
        assert args.dataset == "faces"
        assert args.bits == [3]
        assert args.method == "weighted_entropy"
        assert args.rate == 5.0
        assert args.epochs == 2

    def test_benign_subcommand(self):
        args = build_parser().parse_args(["benign", "--epochs", "3"])
        assert args.command == "benign"
        assert args.epochs == 3

    def test_audit_subcommand(self):
        args = build_parser().parse_args(["audit", "--rate", "10"])
        assert args.command == "audit"
        assert args.rate == 10.0

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_dataset_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "--dataset", "imagenet"])

    def test_bad_method_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "--method", "magic"])

    def test_backend_choices_come_from_the_registry(self, capsys):
        from repro.backend import available_backends
        for name in available_backends():
            args = build_parser().parse_args(["--backend", name, "attack"])
            assert args.backend == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", "compiled", "attack"])
        err = capsys.readouterr().err
        assert "invalid choice: 'compiled'" in err
        for name in available_backends():
            assert repr(name) in err


class TestEndToEnd:
    def test_benign_smoke(self, capsys):
        code = main(["benign", "--epochs", "1", "--batch-size", "64"])
        assert code == 0
        assert "benign accuracy" in capsys.readouterr().out

    def test_attack_smoke_with_json(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = main(["attack", "--epochs", "2", "--batch-size", "64",
                     "--bits", "6", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "uncompressed" in captured
        assert "released" in captured
        assert out.exists()
        from repro.pipeline import load_result
        data = load_result(out)
        assert data["quantized"] is not None


class TestConfigErrors:
    """A config the attack would reject ends as one line, before any work."""

    def test_attack_bad_config_exits_with_one_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--dataset", "digits", "--epochs", "1",
                  "--rate", "0"])
        assert exc.value.code == (
            "repro attack: at least one group needs a non-zero rate")

    def test_monitor_bad_config_leaves_no_timeseries(self, tmp_path, capsys):
        timeseries = tmp_path / "ben.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["monitor", "--dataset", "digits", "--epochs", "1",
                  "--rate", "0", "--bits", "2",
                  "--timeseries", str(timeseries)])
        assert exc.value.code == (
            "repro monitor: at least one group needs a non-zero rate")
        assert not timeseries.exists()


class TestTelemetryCli:
    def test_global_flags_default(self):
        args = build_parser().parse_args(["info"])
        assert args.trace_out is None
        assert args.log_level == "warning"

    def test_global_flags_parse(self):
        args = build_parser().parse_args(
            ["--trace-out", "t.json", "--log-level", "debug", "benign"])
        assert args.trace_out == "t.json"
        assert args.log_level == "debug"

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze", "t.json"])
        assert args.path == "t.json"
        assert args.top == 5

    def test_profile_subcommand_is_gone(self):
        # a traced run plus ``repro analyze`` does its job
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile"])

    @pytest.mark.parametrize("command", ["report", "alerts"])
    def test_report_and_alerts_subcommands_are_gone(self, command):
        # ``repro analyze`` renders, diffs and replays timeseries
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "run.timeseries.jsonl"])

    def test_info_smoke(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "numpy" in out and "metrics" in out

    def test_analyze_training_trace_smoke(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["--trace-out", str(trace), "benign", "--dataset",
                     "digits", "--epochs", "1", "--batch-size", "64"]) == 0
        capsys.readouterr()
        assert main(["analyze", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "repro main" in out and "self time" in out
        for row in ("trainer.batch", "autograd.backward", "nn.optim.step",
                    "conv2d_forward", "unattributed", "total"):
            assert row in out

    def test_analyze_malformed_trace_exits(self, tmp_path):
        trace = tmp_path / "bad.json"
        trace.write_text('{"traceEvents": [{"ph": "X", "name": "x"}]}')
        with pytest.raises(SystemExit, match="malformed trace event"):
            main(["analyze", str(trace)])
        trace.write_text('{"traceEvents": []}')
        with pytest.raises(SystemExit, match="no spans to analyze"):
            main(["analyze", str(trace)])

    def test_analyze_unrecognised_file_names_the_kinds(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("not an artifact\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(path)])
        message = str(excinfo.value)
        assert message.startswith(f"repro analyze: {path}: not ")
        for kind in ("Chrome trace", "run manifest", "monitor timeseries"):
            assert kind in message

    def test_analyze_bad_manifest_sidecars_are_structured_errors(
            self, tmp_path):
        import json
        manifest = tmp_path / "run.manifest.json"
        manifest.write_text(json.dumps(
            {"run_id": "r1", "extra": {"trace_out": str(manifest)}}))
        with pytest.raises(SystemExit, match="but is a manifest"):
            main(["analyze", str(manifest)])
        manifest.write_text(json.dumps({"run_id": "r1", "extra": 3}))
        with pytest.raises(SystemExit, match="malformed"):
            main(["analyze", str(manifest)])

    def test_analyze_manifest_reaches_timeseries_and_trace(self, tmp_path,
                                                           capsys):
        trace, out = tmp_path / "run.trace.json", tmp_path / "run.json"
        assert main(["--trace-out", str(trace), "monitor", "--dataset",
                     "digits", "--epochs", "1", "--batch-size", "64",
                     "--decode-images", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        manifest = tmp_path / "run.manifest.json"
        assert main(["analyze", str(manifest)]) == 0
        text = capsys.readouterr().out
        assert text.startswith("run ")
        timeseries = tmp_path / "run.timeseries.jsonl"
        assert f"monitor: {timeseries}" in text
        assert "corr_abs_mean" in text
        assert f"alerts: {timeseries}" in text
        assert "repro main (pid" in text and "self time" in text

    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        import json
        trace = tmp_path / "trace.json"
        code = main(["--trace-out", str(trace), "benign", "--dataset",
                     "digits", "--epochs", "1", "--batch-size", "64"])
        assert code == 0
        data = json.loads(trace.read_text())
        assert any(e["name"] == "trainer.epoch" for e in data["traceEvents"])

    def test_trace_out_unwritable_path_errors_cleanly(self, tmp_path, capsys):
        trace = tmp_path / "no-such-dir" / "trace.json"
        code = main(["--trace-out", str(trace), "info"])
        assert code == 1
        err = capsys.readouterr().err
        assert "could not write trace" in err
