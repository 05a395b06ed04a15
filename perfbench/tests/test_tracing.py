"""Span self time and the in-place wrapping of ctcx functions."""
import numpy as np
import pytest

import tracing


def _span(sid, parent, start, end, name="x", thread=1, work=None):
    return (sid, parent, name, thread, start, end, work)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 2.0, 5.0),    # overlaps span 2 (a worker thread)
        _span(4, 1, 8.0, 12.0),   # runs past its parent's end
        _span(5, 2, 1.5, 2.5),    # grandchild: counts against span 2 only
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)


def test_summarize_sums_calls_and_work():
    spans = [
        _span(1, None, 0.0, 4.0, "a"),
        _span(2, 1, 1.0, 2.0, "b", work={"frames": 5}),
        _span(3, 1, 2.0, 3.0, "b", work={"frames": 7, "deviation": 0.5}),
        _span(4, None, 5.0, 6.0, "b", work={"deviation": 0.25}),
    ]
    rows = tracing.summarize(spans)
    assert rows["a"]["calls"] == 1 and rows["a"]["self_s"] == pytest.approx(2.0)
    assert rows["b"]["calls"] == 3 and rows["b"]["total_s"] == pytest.approx(3.0)
    assert rows["b"]["work"]["frames"] == 12
    assert rows["b"]["work"]["deviation"] == 0.5  # a maximum, not a sum


def test_worker_busy_counts_only_other_threads():
    spans = [
        _span(1, None, 0.0, 2.0, "cli.features", thread=1),
        _span(2, 1, 0.0, 1.5, "frontend.mfcc", thread=2),
        _span(3, 1, 0.5, 1.5, "frontend.mfcc", thread=3),
        _span(4, 1, 1.5, 2.0, "frontend.write_feature_cache", thread=1),
    ]
    assert tracing.worker_busy(spans, "cli.features") == (2.5, 2.0)


def test_install_wraps_every_binding_and_uninstall_restores():
    from ctcx import cli, frontend, network, trainer

    forward, resample = network.forward, frontend.resample
    tracer = tracing.Tracer().install()
    try:
        assert trainer.forward is network.forward and trainer.forward is not forward
        assert cli.resample is frontend.resample and cli.resample is not resample
        clip = frontend.AudioClip(np.zeros(800), 8000)
        frontend.resample(clip, 16000)  # outside a measured cycle
        with tracer.recording():
            with tracer.paused():
                frontend.resample(clip, 16000)
            frontend.resample(clip, 16000)
    finally:
        tracer.uninstall()
    assert network.forward is forward and trainer.forward is forward
    assert cli.resample is resample
    assert list(tracer.spans) == ["cycle"]
    assert [s[2] for s in tracer.spans["cycle"]] == ["frontend.resample"]
    assert tracer.spans["cycle"][0][6] == {"audio_s": pytest.approx(0.1)}


def test_install_loads_modules_the_program_has_not_imported_yet():
    import subprocess
    import sys
    from pathlib import Path

    bench = Path(tracing.__file__).resolve().parent
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(bench)!r}, {str(bench.parent / 'src')!r}]\n"
        "import tracing\n"
        "assert 'ctcx.cli' not in sys.modules\n"
        "tracing.Tracer().install()\n"
        "from ctcx import cli\n"
        "assert hasattr(cli.cmd_prepare, '__wrapped__')\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_layer_metrics_are_per_measured_cycle_and_set_up_stays_out():
    import run

    spans = []
    for cycle in range(3):
        t = 10.0 * cycle
        spans += [
            (10 * cycle + 1, None, "trainer.train_epoch", 1, t, t + 4.0, None),
            (10 * cycle + 2, 10 * cycle + 1, "network.forward", 1, t + 1.0, t + 2.0,
             {"frames": 50}),
            (10 * cycle + 3, 10 * cycle + 1, "network.forward", 1, t + 2.0, t + 3.0,
             {"frames": 50}),
            (10 * cycle + 4, 10 * cycle + 1, "trainer.clip_gradients", 1, t + 3.0, t + 3.5,
             {"clipped": 1}),
        ]
    setup = [(100, None, "synthetic.make_corpus", 1, 50.0, 50.5, None),
             (101, None, "network.forward", 1, 51.0, 52.0, {"frames": 999})]
    values = run._layer_metrics({"setup": setup, "cycle": spans}, {}, workers=1, cycles=3)
    assert values["network.forward.calls"] == 2.0
    assert values["network.forward.self_s"] == pytest.approx(2.0)
    assert values["network.forward.ms_per_call"] == pytest.approx(1000.0)
    assert values["network.forward.frames_per_s"] == pytest.approx(50.0)
    assert values["trainer.train_epoch.self_s"] == pytest.approx(4.0 - 2.5)
    assert values["trainer.clipped_steps"] == 1.0
    assert values["network.backward.calls"] == 0.0
    assert values["synthetic.make_corpus.calls"] == 1.0  # per set-up, not per cycle
    assert values["synthetic.make_corpus.self_s"] == pytest.approx(0.5)


def test_train_timed_times_every_epoch_through_train_and_restores_it(tmp_path):
    from common import train_timed
    from ctcx import network, synthetic, trainer
    from ctcx.text_labels import builtin_alphabet

    kk = builtin_alphabet("kk")
    data, _ = trainer.load_dataset(synthetic.write_corpus(tmp_path, kk, 3, 5), kk)
    model = network.ModelConfig(feature_dim=13, num_classes=kk.num_classes, hidden=4)
    cfg = trainer.TrainConfig(epochs=2, dropout_keep=1.0)
    epoch = trainer.train_epoch
    _, seconds, costs = train_timed(data, kk, model, cfg)
    assert trainer.train_epoch is epoch
    assert len(seconds) == len(costs) == 2 and all(s > 0 for s in seconds)
    _, rows = trainer.train(data, [], kk, model, cfg)
    assert costs == [row.train_cost for row in rows]
