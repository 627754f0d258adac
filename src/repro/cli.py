"""Command-line interface: run the paper's experiments from a shell.

Subcommands:

* ``attack``       -- run the full quantized correlation attack flow.
* ``sweep``        -- grid of attack runs over bitwidths x rates.
* ``benign``       -- train the benign reference model.
* ``audit``        -- run the defender's pre-release audit on an attack run.
* ``monitor``      -- attack run with the in-training probe suite
  (``repro.monitor``), writing a JSONL timeseries.
* ``serve``        -- batched async HTTP serving of released model
  artifacts (``repro.serve``): deadline coalescing, sharded workers,
  live latency telemetry as Prometheus text on ``GET /metrics``.
* ``loadgen``      -- deterministic heavy-tailed open-loop traffic
  against a server (in-process or ``--url``), with replayable traces.
* ``analyze``      -- explain a finished run: a Chrome trace's or flight
  dump's request report and per-lane self time (spans, kernels,
  unattributed); a monitor timeseries' probe table and replayed alert
  rules (exit 1 when any fires), or the diff of two; a run manifest's
  run id and recorded metrics, then the views of the timeseries and
  trace it names.
* ``info``         -- versions, platform, backends and registered metrics.

Global flags (before the subcommand): ``--backend {fast,reference}``
selects the kernel backend every op dispatches through
(``repro.backend``; ``fast``, the default, gathers conv patches with
tap slices and fuses inference and batch-norm kernels; ``reference``
with ``--dtype float64`` is the bit-exact oracle); every training step
and forward runs eagerly on it,
``--dtype {float32,float64}`` sets the compute-precision
policy (``repro.precision``; float32 is the training default, float64
restores the bit-exact wide path), ``--workers N`` fans the points of
``sweep`` and multi-bitwidth ``attack`` across worker processes
(``repro.parallel``; results are identical to a serial run),
``--ddp-workers N`` shards every training run across N data-parallel
ranks sharing tensors through ``multiprocessing.shared_memory`` with a
deterministic tree all-reduce (``repro.parallel.ddp``; attack metrics
stay inside the serial tolerance bands),
``--trace-out PATH`` exports a Chrome-trace file of the run's spans
(including spans shipped back from worker processes, with kernel time
on them),
``--log-level LEVEL`` controls the structured JSONL event log
(optionally to ``--log-out PATH``).

Examples::

    python -m repro.cli attack --bits 4 --rate 20 --epochs 15
    python -m repro.cli --backend reference --dtype float64 attack --bits 4
    python -m repro.cli --workers 4 attack --bits 4 3 2 --epochs 15
    python -m repro.cli --workers 4 sweep --bits 4 3 --rates 5 20 --epochs 5
    python -m repro.cli attack --dataset faces --bits 3 --out result.json
    python -m repro.cli --trace-out trace.json benign --epochs 15
    python -m repro.cli audit --rate 20
    python -m repro.cli monitor --epochs 10 --out run.json
    python -m repro.cli monitor --alerts --epochs 10 --out run.json && \
        python -m repro.cli analyze run.manifest.json
    python -m repro.cli analyze run.timeseries.jsonl --corr-above 0.25
    python -m repro.cli analyze malicious.timeseries.jsonl benign.timeseries.jsonl
    python -m repro.cli --trace-out run.trace.json monitor --out run.json && \
        python -m repro.cli analyze run.manifest.json
    python -m repro.cli serve --demo --bits 4 --port 8080 --shards 2
    python -m repro.cli loadgen --url http://127.0.0.1:8080 --requests 500
    python -m repro.cli --trace-out serve.trace.json loadgen --demo --requests 200
    python -m repro.cli analyze serve.trace.json --top 10
    python -m repro.cli --trace-out t.json attack --epochs 1 && \
        python -m repro.cli analyze t.json
    python -m repro.cli --dtype float64 --trace-out f64.json \
        benign --dataset digits --epochs 1 && python -m repro.cli analyze f64.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import sys
from typing import Optional, Sequence

import numpy as np

from repro import backend as _backend
from repro import precision as _precision
from repro.datasets import (
    SyntheticCifarConfig,
    SyntheticDigitsConfig,
    SyntheticFacesConfig,
    make_synthetic_cifar,
    make_synthetic_digits,
    make_synthetic_faces,
    to_grayscale,
    train_test_split,
)
from repro.errors import ReproError
from repro.pipeline import (
    AttackConfig,
    QuantizationConfig,
    TrainingConfig,
    run_quantized_correlation_attack,
    train_benign,
)
from repro.pipeline.reporting import percent
from repro.pipeline.results_io import attack_result_to_dict, save_result
from repro.telemetry import (
    RunManifest,
    TraceRecorder,
    configure_logging,
    default_registry,
    set_recorder,
    span,
)


def _build_dataset(name: str, seed: int):
    if name == "cifar":
        data = make_synthetic_cifar(
            SyntheticCifarConfig(num_images=240, num_classes=6, image_size=16, seed=seed)
        )
    elif name == "cifar-gray":
        data = to_grayscale(make_synthetic_cifar(
            SyntheticCifarConfig(num_images=240, num_classes=6, image_size=16, seed=seed)
        ))
    elif name == "faces":
        data = make_synthetic_faces(
            SyntheticFacesConfig(num_identities=12, images_per_identity=8,
                                 image_size=24, seed=seed)
        )
    elif name == "digits":
        data = make_synthetic_digits(
            SyntheticDigitsConfig(num_images=300, image_size=20, seed=seed)
        )
    else:
        raise SystemExit(f"unknown dataset {name!r}")
    return train_test_split(data, test_fraction=0.2, seed=0)


def _build_model_builder(dataset_name: str, train_dataset, seed: int):
    channels = train_dataset.image_shape[2]
    if dataset_name == "faces":
        from repro.models import face_net_mini
        return lambda: face_net_mini(
            num_identities=train_dataset.num_classes, in_channels=channels,
            width=8, rng=np.random.default_rng(seed),
        )
    from repro.models import resnet8_tiny
    return lambda: resnet8_tiny(
        num_classes=train_dataset.num_classes, in_channels=channels,
        width=8, rng=np.random.default_rng(seed),
    )


def _attack_configs(args) -> tuple:
    if args.dataset == "faces":
        attack = AttackConfig(layer_ranges=((1, 2), (3, 5), (6, -1)),
                              rates=(0.0, 0.0, args.rate),
                              std_window=10.0, capacity_fraction=0.6)
    else:
        attack = AttackConfig(layer_ranges=((1, 2), (3, 4), (5, -1)),
                              rates=(0.0, 0.0, args.rate), std_window=8.0)
    training = TrainingConfig(epochs=args.epochs, batch_size=args.batch_size,
                              lr=args.lr, seed=args.seed)
    quantization = QuantizationConfig(bits=args.bits, method=args.method)
    for config in (training, attack, quantization):
        config.validate()
    return training, attack, quantization


def _checked_configs(args, command: str) -> tuple:
    """:func:`_attack_configs`, with a bad value ending as one line."""
    try:
        return _attack_configs(args)
    except ReproError as exc:
        raise SystemExit(f"repro {command}: {exc}")


def _attack_experiment(bits: int, rate: float, *, data: tuple,
                       dataset: str = "cifar", seed: int = 7,
                       epochs: int = 15, batch_size: int = 32,
                       lr: float = 0.08,
                       method: str = "target_correlated") -> dict:
    """One full attack run reduced to a flat metrics record.

    Module-level (and partial-friendly) so ``repro sweep`` and the
    multi-bitwidth ``repro attack`` can bind it once and run it in
    forked worker processes.  ``data`` is the ``(train, test)`` pair of
    ``dataset``, built once by the caller before the workers fork.
    Every stage is seeded explicitly, which is what makes parallel and
    serial records identical.
    """
    ns = argparse.Namespace(dataset=dataset, rate=rate, epochs=epochs,
                            batch_size=batch_size, lr=lr, seed=seed,
                            bits=bits, method=method)
    train, test = data
    builder = _build_model_builder(dataset, train, seed)
    training, attack, quantization = _attack_configs(ns)
    result = run_quantized_correlation_attack(
        train, test, builder, training, attack, quantization)
    quant = result.quantized
    return {
        "accuracy": round(result.uncompressed.accuracy, 6),
        "q_accuracy": round(quant.accuracy, 6),
        "q_mape": round(quant.mean_mape, 4),
        "q_ssim": round(quant.mean_ssim, 4),
        "recognized": quant.recognized_count,
        "encoded": quant.encoded_images,
    }


def _cmd_attack(args) -> int:
    if len(args.bits) > 1:
        if args.out:
            raise SystemExit("repro attack: --out takes a single --bits "
                             "(use repro sweep --csv)")
        return _cmd_sweep(argparse.Namespace(
            **vars(args), rates=[args.rate], csv=None, point_timeout=None))
    args.bits = args.bits[0]
    training, attack, quantization = _checked_configs(args, "attack")
    train, test = _build_dataset(args.dataset, args.data_seed)
    builder = _build_model_builder(args.dataset, train, args.seed)
    result = run_quantized_correlation_attack(
        train, test, builder, training, attack, quantization,
        progress=lambda stage: print(f"[{stage}]", file=sys.stderr),
    )
    for label, ev in [("uncompressed", result.uncompressed),
                      (f"{args.bits}-bit released", result.quantized)]:
        print(f"{label}: accuracy {percent(ev.accuracy)}, "
              f"MAPE {ev.mean_mape:.2f}, SSIM {ev.mean_ssim:.3f}, "
              f"recognizable {ev.recognized_count}/{ev.encoded_images}")
    if args.out:
        manifest = RunManifest.create(
            seed=args.seed, config=(training, attack, quantization),
            workers=args.workers, dataset=args.dataset,
            trace_out=args.trace_out,
        )
        save_result(attack_result_to_dict(result), args.out, manifest=manifest)
        print(f"result written to {args.out} (run {manifest.run_id})")
    return 0


def _cmd_monitor(args) -> int:
    """Attack run with the probe suite attached; writes a timeseries."""
    from repro.monitor import Monitor, default_probes, render_run
    from repro.pipeline.results_io import timeseries_path

    args.bits = args.bits[0] if isinstance(args.bits, list) else args.bits
    # before the Monitor creates its timeseries file
    training, attack, quantization = _checked_configs(args, "monitor")
    train, test = _build_dataset(args.dataset, args.data_seed)
    builder = _build_model_builder(args.dataset, train, args.seed)
    ts_path = args.timeseries
    if ts_path is None:
        ts_path = timeseries_path(args.out) if args.out else "run.timeseries.jsonl"
    engine = None
    if getattr(args, "alerts", False):
        from repro.monitor.alerts import AlertEngine, default_rules
        engine = AlertEngine(default_rules())
    with Monitor(default_probes(decode_images=args.decode_images),
                 path=ts_path, every_batches=args.every_batches,
                 alerts=engine) as monitor:
        result = run_quantized_correlation_attack(
            train, test, builder, training, attack, quantization,
            progress=lambda stage: print(f"[{stage}]", file=sys.stderr),
            monitor=monitor,
        )
        print(render_run(monitor.records,
                         title=f"monitor: {args.dataset} attack, "
                               f"rate {args.rate:g}, {args.bits}-bit"))
        for label, ev in [("uncompressed", result.uncompressed),
                          (f"{args.bits}-bit released", result.quantized)]:
            if ev is None:
                continue
            print(f"{label}: accuracy {percent(ev.accuracy)}, "
                  f"MAPE {ev.mean_mape:.2f}, SSIM {ev.mean_ssim:.3f}, "
                  f"recognizable {ev.recognized_count}/{ev.encoded_images}")
        if args.out:
            manifest = RunManifest.create(
                seed=args.seed, config=(training, attack, quantization),
                workers=args.workers, dataset=args.dataset,
                trace_out=args.trace_out,
            )
            save_result(attack_result_to_dict(result), args.out,
                        manifest=manifest, timeseries=ts_path)
            print(f"result written to {args.out} (run {manifest.run_id})")
    if engine is not None and engine.alerts:
        print(engine.summary_table(title=f"alerts ({len(engine.alerts)} fired)"))
    print(f"timeseries written to {ts_path} "
          f"({len(monitor.records)} records)", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    """Cartesian bits x rate grid of attack runs via pipeline.sweep; the
    multi-bit ``repro attack`` runs here too, as a one-rate grid."""
    from repro.pipeline.sweep import Sweep

    # every point's configs and the timeout, before the dataset is built
    for bits, rate in itertools.product(args.bits, args.rates):
        _checked_configs(argparse.Namespace(**{**vars(args), "bits": bits,
                                               "rate": rate}), args.command)
    if args.point_timeout is not None and args.point_timeout <= 0:
        raise SystemExit(f"repro {args.command}: --point-timeout must be "
                         f"positive, got {args.point_timeout:g}")
    experiment = functools.partial(
        _attack_experiment,
        data=_build_dataset(args.dataset, args.data_seed),
        dataset=args.dataset, seed=args.seed, epochs=args.epochs,
        batch_size=args.batch_size, lr=args.lr, method=args.method,
    )
    sweep = Sweep({"bits": args.bits, "rate": args.rates}, experiment)
    total = len(sweep)
    result = sweep.run(
        progress=lambda params: print(f"[point {params}]", file=sys.stderr),
        parallel=args.workers or 1,
        timeout=args.point_timeout,
        backend=args.backend,
    )
    print(result.to_table(title=f"{total}-point sweep ({args.dataset})"))
    failed = result.failures()
    if len(result.ok()):
        best = result.best("q_ssim")
        print(f"best SSIM: bits={best['bits']} rate={best['rate']:g} "
              f"(ssim {best['q_ssim']:.3f}, accuracy {percent(best['q_accuracy'])})")
    if args.csv:
        result.to_csv(args.csv)
        print(f"records written to {args.csv}")
    for record in failed.records:
        print(f"point bits={record['bits']} rate={record['rate']:g} failed "
              f"({record['error_kind']}): {record['error']}", file=sys.stderr)
    return 1 if len(failed) else 0


def _cmd_benign(args) -> int:
    with span("benign.setup", dataset=args.dataset):
        train, test = _build_dataset(args.dataset, args.data_seed)
        builder = _build_model_builder(args.dataset, train, args.seed)
    training = TrainingConfig(epochs=args.epochs, batch_size=args.batch_size,
                              lr=args.lr, seed=args.seed)
    result = train_benign(train, test, builder, training)
    print(f"benign accuracy: {percent(result.accuracy)}")
    return 0


def _cmd_audit(args) -> int:
    from repro.defenses import detect_attack
    train, test = _build_dataset(args.dataset, args.data_seed)
    builder = _build_model_builder(args.dataset, train, args.seed)
    training, attack, _ = _attack_configs(args)
    print("[training attacked model]", file=sys.stderr)
    result = run_quantized_correlation_attack(
        train, test, builder, training, attack, quantization=None,
    )
    print("[training benign reference]", file=sys.stderr)
    reference = train_benign(train, test, builder, training)
    report = detect_attack(result.model, train, reference=reference.model)
    print(report)
    return 0 if report.flagged else 1


def _shm_info_row() -> str:
    """Shared-memory capability summary for ``repro info``."""
    from repro.parallel import ddp as _ddp
    from repro.parallel.arena import live_segments

    if not _ddp.shm_available():
        return "unavailable (multiprocessing.shared_memory probe failed)"
    segments = live_segments()
    return (f"available ({len(segments)} repro_* segment(s) live)"
            if segments else "available (no repro_* segments live)")


def _ddp_info_row() -> str:
    """Data-parallel training configuration for ``repro info``."""
    from repro.parallel import ddp as _ddp

    config = _ddp.ddp_config()
    workers = config["default_workers"]
    mode = f"{workers} worker(s)" if workers else "serial (--ddp-workers N)"
    fork = "fork ok" if config["fork_available"] else "fork unavailable"
    return f"{mode}; {fork}; {config['cpus']} cpu(s)"


def _cmd_info(args) -> int:
    """One consolidated environment/observability table."""
    import platform

    from repro.version import __version__

    from repro.parallel import cpu_workers
    from repro.telemetry import format_table

    names = default_registry().names()
    rows = [
        ("repro", __version__),
        ("numpy", np.__version__),
        ("python", platform.python_version()),
        ("platform", platform.platform()),
        ("backend", f"{_backend.active().name} "
                    f"(available: {', '.join(_backend.available_backends())})"),
        ("dtype", f"{_precision.default_dtype().name} "
                  f"(metrics pinned to {_precision.METRICS_DTYPE.name})"),
        ("workers", f"{cpu_workers()} cpu(s) auto-detected"),
        ("cpus", f"{os.cpu_count() or 1} logical core(s)"),
        ("shm", _shm_info_row()),
        ("ddp", _ddp_info_row()),
        ("metrics", f"{len(names)} registered"
                    + (": " + ", ".join(names) if names else "")),
    ]
    flat = default_registry().flat_snapshot()
    lookups = flat.get("serve.cache_hits", 0.0) + \
        flat.get("serve.cache_misses", 0.0)
    if lookups:
        rate = flat.get("serve.cache_hits", 0.0) / lookups
        rows.append(("serve cache",
                     f"{rate:.1%} hit rate over {int(lookups)} lookups "
                     f"({int(flat.get('serve.cache_evictions', 0.0))} "
                     f"evictions)"))
    print(format_table(("key", "value"), rows, title="repro info"))
    return 0


def _demo_artifact(path: str, bits: Optional[int], seed: int) -> str:
    """Materialize a (optionally quantized) demo artifact at ``path``.

    A released resnet8_tiny with random weights -- enough for the
    serving/loadgen commands to run end to end without a training run.
    """
    from repro.models import resnet8_tiny
    from repro.serve import save_artifact

    kwargs = dict(num_classes=10, in_channels=3, width=8)
    model = resnet8_tiny(rng=np.random.default_rng(seed), **kwargs)
    quantization = None
    if bits is not None:
        from repro.quantization import (UniformQuantizer, apply_quantization,
                                        levels_for_bits)
        result = UniformQuantizer(levels_for_bits(bits)).quantize_model(model)
        apply_quantization(model, result)
        quantization = {"bits": bits, "method": "uniform"}
    save_artifact(model, path, "resnet8_tiny", model_kwargs=kwargs,
                  input_shape=(3, 8, 8), quantization=quantization,
                  seed=seed)
    return path


@contextlib.contextmanager
def _parse_artifacts(specs, demo: bool, demo_dir: Optional[str],
                     bits: Optional[int], seed: int):
    """``{key: path}`` of the ARTIFACT specs plus the ``--demo`` one; a
    demo artifact built in a temp dir is removed when the block ends,
    by error or interrupt too."""
    import shutil
    import tempfile

    artifacts = {}
    for spec in specs or []:
        if "=" in spec:
            key, _, path = spec.partition("=")
        else:
            path = spec
            key = os.path.basename(os.path.normpath(spec)) or "default"
        artifacts[key] = path
    temp = (tempfile.mkdtemp(prefix="repro-serve-")
            if demo and demo_dir is None else None)
    try:
        if demo:
            path = demo_dir or os.path.join(temp, "demo")
            print(f"[demo artifact -> {path}]", file=sys.stderr)
            with span("serve.demo_artifact", bits=bits):
                artifacts.setdefault("demo", _demo_artifact(path, bits, seed))
        yield artifacts
    finally:
        if temp is not None:
            shutil.rmtree(temp, ignore_errors=True)


def _cmd_serve(args) -> int:
    """Serve released artifacts over HTTP until interrupted."""
    import asyncio

    from repro.monitor.alerts import AlertEngine, serving_rules
    from repro.serve import ModelServer, ServeConfig, ServeHTTP

    config = ServeConfig(
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        queue_capacity=args.queue_capacity, shards=args.shards,
        backend=args.backend, default_deadline_ms=args.deadline_ms,
        slo_ms=args.slo_ms, flight_dir=args.flight_dir)
    engine = None
    if args.alerts:
        engine = AlertEngine(serving_rules(p99_budget_ms=args.p99_budget_ms))

    async def _run(artifacts) -> None:
        async with ModelServer(artifacts, config, alerts=engine) as server:
            async with ServeHTTP(server, host=args.host,
                                 port=args.port) as front:
                for key, meta in server.models().items():
                    quant = meta.get("quantization") or {}
                    tag = (f"{quant.get('bits')}-bit" if quant else "float")
                    print(f"serving {key!r} [{meta['fingerprint']}] ({tag}) "
                          f"x{config.shards} shard(s)", file=sys.stderr)
                print(f"listening on {front.url} (POST /infer, GET /healthz, "
                      f"GET /models, GET /metrics)", file=sys.stderr)
                # SIGINT cancels this wait; asyncio.run turns the
                # cancellation into KeyboardInterrupt once the servers close
                await asyncio.Event().wait()

    with _parse_artifacts(args.artifact, args.demo, args.demo_dir,
                          args.bits, args.seed) as artifacts:
        if not artifacts:
            raise SystemExit("repro serve: give ARTIFACT dirs (KEY=PATH or "
                             "PATH) or --demo")
        if args.manifest_out:
            manifest = RunManifest.create(
                seed=args.seed, config=config, telemetry={},
                artifacts=sorted(artifacts),
                trace_out=args.trace_out, flight_dir=args.flight_dir,
                slo_ms=args.slo_ms)
            save_result({"command": "serve", "run_id": manifest.run_id},
                        args.manifest_out, manifest=manifest)
            print(f"manifest written beside {args.manifest_out} "
                  f"(run {manifest.run_id})", file=sys.stderr)
        try:
            asyncio.run(_run(artifacts))
        except KeyboardInterrupt:
            print("repro serve: shutting down", file=sys.stderr)
    if engine is not None and engine.alerts:
        print(engine.summary_table(
            title=f"serve alerts ({len(engine.alerts)} fired)"))
        return 1
    return 0


def _cmd_loadgen(args) -> int:
    """Generate (or replay) synthetic traffic against a serving stack."""
    import asyncio

    from repro.serve import (
        LoadGenConfig,
        ModelServer,
        ServeConfig,
        generate_trace,
        http_loadgen,
        load_trace,
        run_loadgen,
        save_trace,
    )

    if args.replay:
        try:
            trace = load_trace(args.replay)
        except ReproError as exc:
            raise SystemExit(f"repro loadgen: {exc}")
        config = None
        print(f"[replaying {len(trace)} requests from {args.replay}]",
              file=sys.stderr)
    else:
        config = LoadGenConfig(seed=args.seed, n_requests=args.requests,
                               rate_rps=args.rate, alpha=args.alpha,
                               deadline_ms=args.deadline_ms)
        trace = generate_trace(config)
    if args.save_trace:
        save_trace(trace, args.save_trace, config)
        print(f"trace written to {args.save_trace}", file=sys.stderr)
    if args.url:
        report = asyncio.run(http_loadgen(args.url, trace,
                                          time_scale=args.time_scale))
    else:
        serve_config = ServeConfig(
            max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
            shards=args.shards, backend=args.backend,
            default_deadline_ms=args.deadline_ms,
            slo_ms=args.slo_ms, flight_dir=args.flight_dir)

        async def _run(artifacts):
            async with ModelServer(artifacts, serve_config) as server:
                return await run_loadgen(server, trace,
                                         time_scale=args.time_scale)

        with _parse_artifacts(args.artifact, args.demo, None,
                              args.bits, args.seed) as artifacts:
            if not artifacts:
                raise SystemExit("repro loadgen: give --url, ARTIFACT dirs, "
                                 "or --demo")
            report = asyncio.run(_run(artifacts))
    print(report.to_table())
    if args.out:
        import dataclasses
        manifest = RunManifest.create(
            seed=args.seed, config=config, trace_out=args.trace_out,
            flight_dir=args.flight_dir, slo_ms=args.slo_ms,
            requests=len(trace))
        save_result(dataclasses.asdict(report), args.out, manifest=manifest)
        print(f"report written to {args.out} (run {manifest.run_id})",
              file=sys.stderr)
    return 1 if (report.errors or not report.completed) else 0


def _read_artifact(path: str) -> tuple:
    """``(kind, content)`` of one ``analyze`` path, told apart by its
    first JSON value because ``--trace-out`` and ``--timeseries`` take
    any file name: a ``"trace"`` (Chrome trace or flight dump), a
    ``"timeseries"`` (monitor records) or a ``"manifest"``."""
    import json

    from repro.errors import ConfigError
    from repro.monitor import load_timeseries
    from repro.telemetry import read_trace

    try:
        with open(path, "r", encoding="utf-8") as handle:
            head, _ = json.JSONDecoder().raw_decode(handle.read().lstrip())
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc}")
    except ValueError:
        head = None
    if isinstance(head, dict) and "traceEvents" in head:
        return "trace", read_trace(path)
    if isinstance(head, dict) and "event" in head:
        return "timeseries", load_timeseries(path)
    if isinstance(head, dict) and "run_id" in head:
        return "manifest", RunManifest.from_dict(head)
    raise ConfigError(f"{path}: not a Chrome trace or flight dump (JSON "
                      f"with traceEvents), a run manifest (JSON with "
                      f"run_id) or a monitor timeseries (JSONL)")


def _replay_alerts(path: str, records: list, args) -> tuple:
    """The default rules replayed over a timeseries: (text, alerts fired)."""
    from repro.monitor import AlertEngine, default_rules

    engine = AlertEngine(default_rules(corr_threshold=args.corr_above,
                                       psnr_window=args.psnr_window))
    fired = engine.replay(records)
    if not fired:
        return f"alerts: {path}: no alerts over {len(records)} records\n", 0
    return engine.summary_table(
        title=f"alerts: {path} ({len(fired)} fired over "
              f"{len(records)} records)") + "\n", len(fired)


def _explain(path: str, args, manifest: Optional[str] = None) -> tuple:
    """(text blocks, alerts fired) for every view of one artifact."""
    from repro.errors import ConfigError
    from repro.monitor import render_run
    from repro.serve import analyze_requests, render_analysis, request_records
    from repro.telemetry import attribute, render_lanes, render_metrics

    kind, content = _read_artifact(path)
    if kind == "trace":
        blocks = []
        records = request_records(content)
        if records:
            blocks.append(render_analysis(
                analyze_requests(records, top=args.top), source=path))
        lanes = attribute(content)
        if lanes:
            blocks.append(render_lanes(lanes, source=path))
        if not blocks:
            raise ConfigError(f"{path}: no spans to analyze")
        return ["\n".join(blocks)], 0
    if kind == "timeseries":
        alerts, fired = _replay_alerts(path, content, args)
        return [render_run(content, title=f"monitor: {path}") + "\n",
                alerts], fired
    if manifest is not None:
        raise ConfigError(f"{path}: named by {manifest} but is a manifest")
    blocks, fired = [f"run {content.run_id}  ({path})\n"], 0
    if content.telemetry:
        blocks.append(render_metrics(content.telemetry,
                                     title=f"metrics: {path}") + "\n")
    for sidecar in (content.timeseries, content.extra.get("trace_out")):
        if sidecar:
            more, count = _explain(str(sidecar), args, manifest=path)
            blocks += more
            fired += count
    return blocks, fired


def _cmd_analyze(args) -> int:
    """Every view of one artifact, or the diff of two timeseries with
    each run's alert replay; exit 1 when a replayed rule fires."""
    from repro.errors import ConfigError
    from repro.monitor import compare_runs

    paths = [args.path] + ([args.other] if args.other else [])
    try:
        if len(paths) == 1:
            blocks, fired = _explain(args.path, args)
        else:
            runs = [_read_artifact(path) for path in paths]
            if any(kind != "timeseries" for kind, _ in runs):
                raise ConfigError(f"{' and '.join(paths)}: only two monitor "
                                  f"timeseries can be diffed")
            blocks = [compare_runs(runs[0][1], runs[1][1],
                                   labels=tuple(paths)) + "\n"]
            replays = [_replay_alerts(path, records, args)
                       for path, (_, records) in zip(paths, runs)]
            blocks += [text for text, _ in replays]
            fired = sum(count for _, count in replays)
    except ReproError as exc:
        raise SystemExit(f"repro analyze: {exc}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"repro analyze: {' and '.join(paths)}: malformed "
                         f"trace event or timeseries record: {exc!r}")
    print("\n".join(blocks), end="")
    return 1 if fired else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DAC'20 compressed-model data-stealing reproduction"
    )
    parser.add_argument("--backend", default="fast",
                        choices=_backend.available_backends(),
                        help="kernel backend for all op dispatch "
                             "(fast, the default: tap-slice gathers + fused "
                             "inference; reference: the bit-exact oracle)")
    parser.add_argument("--dtype", default="float32",
                        choices=["float32", "float64"],
                        help="compute-precision policy for tensors, "
                             "parameters and batches (float64: the "
                             "bit-exact wide path; metrics always "
                             "accumulate in float64)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes for the points of sweep and "
                             "multi-bit attack (default: serial; results "
                             "are identical)")
    parser.add_argument("--ddp-workers", type=int, default=None, metavar="N",
                        help="data-parallel training ranks per run "
                             "(repro.parallel.ddp: shared-memory tensors, "
                             "deterministic all-reduce; default: serial)")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write a Chrome-trace JSON of the run's spans")
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"],
                        help="structured JSONL event-log threshold")
    parser.add_argument("--log-out", metavar="PATH", default=None,
                        help="append JSONL events to PATH (default: stderr "
                             "when --log-level is raised)")
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset",
                       choices=["cifar", "cifar-gray", "faces", "digits"],
                       default="cifar")
        p.add_argument("--epochs", type=int, default=15)
        p.add_argument("--batch-size", type=int, default=32)
        p.add_argument("--lr", type=float, default=0.08)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--data-seed", type=int, default=3)

    attack = sub.add_parser("attack", help="run the full attack flow")
    _common(attack)
    attack.add_argument("--rate", type=float, default=20.0,
                        help="correlation rate for the deep layer group")
    attack.add_argument("--bits", type=int, nargs="+", default=[4],
                        help="bitwidth(s); several values run as a sweep "
                             "at --rate (see --workers)")
    attack.add_argument("--method", default="target_correlated",
                        choices=["target_correlated", "weighted_entropy",
                                 "uniform", "kmeans"])
    attack.add_argument("--out", help="write the result summary as JSON "
                                      "(single --bits only)")
    attack.set_defaults(func=_cmd_attack)

    sweep = sub.add_parser("sweep",
                           help="bits x rate grid of attack runs")
    _common(sweep)
    sweep.add_argument("--bits", type=int, nargs="+", default=[4, 3, 2])
    sweep.add_argument("--rates", type=float, nargs="+", default=[20.0])
    sweep.add_argument("--method", default="target_correlated",
                       choices=["target_correlated", "weighted_entropy",
                                "uniform", "kmeans"])
    sweep.add_argument("--csv", metavar="PATH", default=None,
                       help="export the records as CSV")
    sweep.add_argument("--point-timeout", type=float, default=None,
                       help="per-point timeout in seconds (parallel runs)")
    sweep.set_defaults(func=_cmd_sweep)

    monitor = sub.add_parser(
        "monitor", help="attack run with in-training probes + timeseries")
    _common(monitor)
    monitor.add_argument("--rate", type=float, default=20.0,
                         help="correlation rate for the deep layer group")
    monitor.add_argument("--bits", type=int, default=4)
    monitor.add_argument("--method", default="target_correlated",
                         choices=["target_correlated", "weighted_entropy",
                                  "uniform", "kmeans"])
    monitor.add_argument("--every-batches", type=int, default=None,
                         metavar="N",
                         help="additionally fire batch-scope probes every "
                              "N batches (default: epoch ticks only)")
    monitor.add_argument("--decode-images", type=int, default=4,
                         help="images decoded by the mid-training decode probe")
    monitor.add_argument("--timeseries", metavar="PATH", default=None,
                         help="timeseries JSONL output (default: derived "
                              "from --out, else run.timeseries.jsonl)")
    monitor.add_argument("--out", help="also write the result summary + "
                                       "manifest as JSON")
    monitor.add_argument("--alerts", action="store_true", default=False,
                         help="evaluate the default alert rules per tick "
                              "(correlation leak, PSNR stall, throughput "
                              "collapse, worker death, disabled probes)")
    monitor.set_defaults(func=_cmd_monitor)

    benign = sub.add_parser("benign", help="train the benign reference")
    _common(benign)
    benign.set_defaults(func=_cmd_benign)

    audit = sub.add_parser("audit", help="audit an attacked model (defender view)")
    _common(audit)
    audit.add_argument("--rate", type=float, default=20.0)
    audit.add_argument("--bits", type=int, default=4)
    audit.add_argument("--method", default="target_correlated")
    audit.set_defaults(func=_cmd_audit)

    serve = sub.add_parser(
        "serve", help="serve released model artifacts over HTTP")
    serve.add_argument("artifact", nargs="*", metavar="ARTIFACT",
                       help="artifact dirs to serve, as PATH or KEY=PATH")
    serve.add_argument("--demo", action="store_true", default=False,
                       help="also serve a generated demo artifact "
                            "(random resnet8_tiny; see --bits)")
    serve.add_argument("--demo-dir", metavar="DIR", default=None,
                       help="where --demo materializes the artifact "
                            "(default: a temp dir)")
    serve.add_argument("--bits", type=int, default=None,
                       help="uniform-quantize the --demo artifact to this "
                            "bitwidth before release")
    serve.add_argument("--seed", type=int, default=7,
                       help="weight seed for the --demo artifact")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (0 picks a free port)")
    serve.add_argument("--shards", type=int, default=1,
                       help="persistent inference worker processes")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="request coalescing cap per dispatched batch")
    serve.add_argument("--max-wait-ms", type=float, default=4.0,
                       help="longest a request coalesces before dispatch")
    serve.add_argument("--queue-capacity", type=int, default=512,
                       help="admission cap; beyond it requests are refused")
    serve.add_argument("--deadline-ms", type=float, default=1000.0,
                       help="default per-request deadline")
    serve.add_argument("--alerts", action="store_true", default=False,
                       help="evaluate the serving alert rules per batch "
                            "(p99 breach, shard death, errors, refusals); "
                            "exit 1 if any fired")
    serve.add_argument("--p99-budget-ms", type=float, default=250.0,
                       help="latency budget for the serve_p99_breach rule")
    serve.add_argument("--slo-ms", type=float, default=250.0,
                       help="per-request latency SLO, admission to "
                            "response; requests above it count as breaches "
                            "on serve.latency_ms (the latency_slo "
                            "burn-rate rule)")
    serve.add_argument("--flight-dir", metavar="DIR", default=None,
                       help="where the flight recorder dumps its last-N-"
                            "requests Chrome trace when an alert fires "
                            "or a shard crashes")
    serve.add_argument("--manifest-out", metavar="PATH", default=None,
                       help="write a run manifest (recording --trace-out, "
                            "--flight-dir and the serve config) as JSON")
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen", help="synthetic open-loop traffic against a server")
    loadgen.add_argument("artifact", nargs="*", metavar="ARTIFACT",
                         help="artifact dirs for an in-process server "
                              "(ignored with --url)")
    loadgen.add_argument("--url", metavar="URL", default=None,
                         help="drive a running `repro serve` over HTTP "
                              "instead of an in-process server")
    loadgen.add_argument("--demo", action="store_true", default=False,
                         help="generate a demo artifact for the in-process "
                              "server")
    loadgen.add_argument("--bits", type=int, default=None,
                         help="quantization bitwidth for the --demo artifact")
    loadgen.add_argument("--requests", type=int, default=200,
                         help="requests in the generated trace")
    loadgen.add_argument("--rate", type=float, default=200.0,
                         help="mean arrival rate, requests/second")
    loadgen.add_argument("--alpha", type=float, default=1.5,
                         help="Pareto tail index of inter-arrival gaps "
                              "(smaller = burstier)")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="trace seed (same seed => byte-identical trace)")
    loadgen.add_argument("--deadline-ms", type=float, default=1000.0,
                         help="per-request deadline recorded in the trace")
    loadgen.add_argument("--time-scale", type=float, default=1.0,
                         help="stretch (>1) or compress (<1) the schedule")
    loadgen.add_argument("--replay", metavar="TRACE", default=None,
                         help="replay an existing trace JSONL instead of "
                              "generating one")
    loadgen.add_argument("--save-trace", metavar="PATH", default=None,
                         help="write the trace JSONL for later --replay")
    loadgen.add_argument("--shards", type=int, default=1,
                         help="shards for the in-process server")
    loadgen.add_argument("--max-batch", type=int, default=16)
    loadgen.add_argument("--max-wait-ms", type=float, default=4.0)
    loadgen.add_argument("--out", metavar="PATH", default=None,
                         help="write the load report + run manifest "
                              "(recording --trace-out) as JSON")
    loadgen.add_argument("--slo-ms", type=float, default=250.0,
                         help="latency SLO for the in-process server")
    loadgen.add_argument("--flight-dir", metavar="DIR", default=None,
                         help="flight-recorder dump dir for the "
                              "in-process server")
    loadgen.set_defaults(func=_cmd_loadgen)

    analyze = sub.add_parser(
        "analyze",
        help="explain a finished run from its trace, flight dump, "
             "monitor timeseries or run manifest")
    analyze.add_argument("path", metavar="PATH",
                         help="a --trace-out Chrome trace, a flight-"
                              "recorder dump, a monitor timeseries or a "
                              "run manifest (told apart by content)")
    analyze.add_argument("other", nargs="?", metavar="PATH2", default=None,
                         help="a second monitor timeseries to diff")
    analyze.add_argument("--top", type=int, default=5,
                         help="slowest requests to list individually")
    analyze.add_argument("--corr-above", type=float, default=0.25,
                         help="correlation_leak threshold on corr_abs_mean")
    analyze.add_argument("--psnr-window", type=int, default=3,
                         help="psnr_stall window in ticks")
    analyze.set_defaults(func=_cmd_analyze)

    info = sub.add_parser("info", help="print versions/platform for bug reports")
    info.set_defaults(func=_cmd_info)
    return parser


# every flag that names a file the run writes, by argparse dest
_OUTPUT_FLAGS = {"trace_out": "--trace-out", "log_out": "--log-out",
                 "out": "--out", "csv": "--csv", "timeseries": "--timeseries",
                 "save_trace": "--save-trace", "manifest_out": "--manifest-out"}


def _check_output_dirs(args) -> None:
    """End an output path whose directory does not exist as one line,
    before any work whose results the failed write would lose."""
    for dest, flag in _OUTPUT_FLAGS.items():
        path = getattr(args, dest, None)
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise SystemExit(f"repro {args.command}: {flag} {path}: "
                             f"no such directory")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_output_dirs(args)

    stream = None
    if args.log_out is None and args.log_level in ("debug", "info"):
        stream = sys.stderr
    logger = configure_logging(path=args.log_out, stream=stream,
                               level=args.log_level)
    recorder = None
    if args.trace_out:
        # manifests record it; absolute so it resolves from any cwd
        args.trace_out = os.path.abspath(args.trace_out)
        recorder = TraceRecorder()
        set_recorder(recorder)
    logger.info("cli.start", command=args.command, argv=list(argv or sys.argv[1:]))
    trace_error = None
    # restored afterwards so in-process callers (tests) are unaffected
    from repro.parallel import ddp as _ddp
    previous_backend = _backend.set_backend(args.backend)
    previous_dtype = _precision.set_default_dtype(args.dtype)
    previous_ddp = _ddp.set_default_ddp_workers(args.ddp_workers)
    try:
        code = args.func(args)
    except Exception as exc:
        logger.error("cli.error", command=args.command, error=repr(exc))
        raise
    finally:
        _backend.set_backend(previous_backend)
        _precision.set_default_dtype(previous_dtype)
        _ddp.set_default_ddp_workers(previous_ddp)
        if recorder is not None:
            set_recorder(None)
            try:
                recorder.to_chrome_trace(args.trace_out)
            except OSError as exc:
                trace_error = exc
                print(f"repro: error: could not write trace to "
                      f"{args.trace_out}: {exc}", file=sys.stderr)
            else:
                print(f"trace written to {args.trace_out} "
                      f"({len(recorder)} spans)", file=sys.stderr)
    if trace_error is not None:
        code = 1
    logger.info("cli.done", command=args.command, exit_code=code)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
