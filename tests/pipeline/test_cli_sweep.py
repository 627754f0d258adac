"""CLI sweep subcommand, multi-bit attack and the global --workers flag."""

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.command == "sweep"
        assert args.bits == [4, 3, 2]
        assert args.rates == [20.0]
        assert args.csv is None
        assert args.point_timeout is None

    def test_sweep_overrides(self):
        args = build_parser().parse_args([
            "sweep", "--bits", "4", "3", "--rates", "5", "20",
            "--dataset", "digits", "--point-timeout", "30",
        ])
        assert args.bits == [4, 3]
        assert args.rates == [5.0, 20.0]
        assert args.point_timeout == 30.0

    def test_workers_is_global(self):
        args = build_parser().parse_args(["--workers", "4", "sweep"])
        assert args.workers == 4
        args = build_parser().parse_args(["--workers", "2", "attack"])
        assert args.workers == 2

    def test_workers_default_serial(self):
        assert build_parser().parse_args(["sweep"]).workers is None

    def test_attack_multiple_bits(self):
        args = build_parser().parse_args(["attack", "--bits", "4", "3", "2"])
        assert args.bits == [4, 3, 2]


def fake_experiment(bits, rate, *, data, **_):
    """Deterministic stand-in for ``cli._attack_experiment``."""
    assert data == ("train", "test")
    return {"q_accuracy": 0.5, "q_ssim": round(bits / 10 + rate / 100, 4)}


@pytest.fixture
def fake_runs(monkeypatch):
    """Replace the dataset and the attack run; returns the list of
    datasets built."""
    built = []

    def build_dataset(name, seed):
        built.append(name)
        return ("train", "test")

    monkeypatch.setattr(cli, "_build_dataset", build_dataset)
    monkeypatch.setattr(cli, "_attack_experiment", fake_experiment)
    return built


class TestOneRunner:
    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]])
    def test_multi_bit_attack_prints_the_sweep_records(self, fake_runs,
                                                       capsys, workers):
        assert main([*workers, "attack", "--bits", "4", "3",
                     "--rate", "5"]) == 0
        attack = capsys.readouterr().out
        assert main([*workers, "sweep", "--bits", "4", "3",
                     "--rates", "5"]) == 0
        assert capsys.readouterr().out == attack
        assert "2-point sweep" in attack
        assert "best SSIM: bits=4 rate=5 (ssim 0.450" in attack

    def test_failed_point_exits_1(self, fake_runs, monkeypatch):
        def failing(bits, rate, **_):
            raise RuntimeError("diverged")

        monkeypatch.setattr(cli, "_attack_experiment", failing)
        assert main(["attack", "--bits", "4", "3"]) == 1

    def test_out_needs_a_single_bits(self, fake_runs, tmp_path):
        out = tmp_path / "res.json"
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--bits", "4", "3", "--out", str(out)])
        assert str(exc.value) == ("repro attack: --out takes a single "
                                  "--bits (use repro sweep --csv)")
        assert fake_runs == [] and not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--bits", "4", "0"],
         "repro sweep: bits must be in [1, 16], got 0"),
        (["sweep", "--rates", "5", "-1"],
         "repro sweep: correlation rates must be non-negative"),
        (["attack", "--bits", "4", "17"],
         "repro attack: bits must be in [1, 16], got 17"),
        (["sweep", "--point-timeout", "0"],
         "repro sweep: --point-timeout must be positive, got 0"),
    ], ids=["bits-0", "rate-negative", "attack-bits-17", "timeout-0"])
    def test_bad_grid_value_fails_before_the_dataset(self, fake_runs, argv,
                                                     message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value).startswith(message)
        assert "\n" not in str(exc.value)
        assert fake_runs == []

    @pytest.mark.parametrize("command, flag, argv", [
        ("sweep", "--csv", ["sweep", "--bits", "4", "--csv", "PATH"]),
        ("attack", "--out", ["attack", "--bits", "4", "--out", "PATH"]),
        ("monitor", "--out", ["monitor", "--out", "PATH"]),
        ("loadgen", "--out", ["loadgen", "--demo", "--out", "PATH"]),
        ("attack", "--trace-out", ["--trace-out", "PATH", "attack"]),
    ], ids=["sweep-csv", "attack-out", "monitor-out", "loadgen-out",
            "trace-out"])
    def test_missing_output_dir_fails_before_the_dataset(
            self, fake_runs, tmp_path, command, flag, argv):
        path = str(tmp_path / "no-such-dir" / "x.json")
        with pytest.raises(SystemExit) as exc:
            main([path if arg == "PATH" else arg for arg in argv])
        assert str(exc.value) == (f"repro {command}: {flag} {path}: "
                                  f"no such directory")
        assert fake_runs == []


@pytest.mark.slow
class TestEndToEnd:
    def test_sweep_smoke_parallel(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        code = main(["--workers", "2", "sweep", "--bits", "4", "3",
                     "--rates", "20", "--epochs", "1", "--batch-size", "64",
                     "--csv", str(csv)])
        out = capsys.readouterr().out
        assert code == 0
        assert "2-point sweep" in out
        assert "best SSIM" in out
        assert csv.exists()
        lines = csv.read_text().strip().splitlines()
        assert len(lines) == 3  # header + one record per point

    def test_attack_multi_bits_smoke(self, capsys):
        code = main(["--workers", "2", "attack", "--bits", "4", "3",
                     "--epochs", "1", "--batch-size", "64"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2-point sweep" in out
        assert "best SSIM: bits=" in out
