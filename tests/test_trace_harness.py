"""The benchmark's per-layer tracing wraps tapfuse functions by name, in the
namespace their callers look them up in; a renamed layer function must fail
here rather than silently break ``perfbench/run.py --trace 1``."""

import types
from pathlib import Path

import numpy as np

import tapfuse
import tapfuse.arrayio  # noqa: F401  (the harness wraps these modules too)
import tapfuse.cli  # noqa: F401
from tapfuse.tracker import QueryPoint
from tapfuse.weights import FusionConfig, WeightBundle

from _tracker_oracle import drifting_weights, small_sequence

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """Import the harness module without writing bytecode next to it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_bytes(), str(TRACING), "exec"), module.__dict__)
    return module


def test_install_attributes_refiner_work_and_uninstall_restores():
    tracing = load_tracing()
    original = tapfuse.tracker.sample_patch
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, tapfuse)
        assert tapfuse.tracker.sample_patch is not original
        weights = WeightBundle.initialize(
            FusionConfig(window=4, iterations=2), seed=0)
        rng = np.random.default_rng(0)
        levels = tuple(rng.normal(size=(4, 8, 8, c)) for c in (64, 32, 16))
        tapfuse.tracker.refine_track(rng.uniform(10, 50, size=(4, 2)),
                                     np.zeros(4), levels, weights)
    finally:
        tracer.uninstall()
    assert tapfuse.tracker.sample_patch is original
    counts = tracer.snapshot()
    assert counts["tracker.refine_calls"] == 1
    # one windowed gather per level per iteration
    assert counts["tracker.sample_patch_calls"] == 3 * 2
    assert counts["tracker.correlation_s"] >= 0.0


def test_one_temporal_attention_call_per_window_of_a_one_query_track():
    """The tracker decodes each window only at the tokens its refiner
    reads; a query whose estimates stay near their token still costs one
    temporal attention call per window, so fusion.windows counts
    windows."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    frames, timeline, stream, _ = small_sequence()
    weights = drifting_weights(drift=0.0)
    try:
        tracing.install(tracer, tapfuse)
        tapfuse.tracker.track_sequence(frames, stream, timeline,
                                       [QueryPoint(0, 16.0, 16.0)], weights)
    finally:
        tracer.uninstall()
    counts = tracer.snapshot()
    # window starts 0, 8, 16, 24, 32 of 16 steps over 48 query steps
    assert counts["fusion.windows"] == 5
    assert counts["tracker.refine_calls"] == 5
    assert counts["tracker.sample_patch_calls"] == (
        3 * weights.config.iterations * counts["tracker.refine_calls"])


def test_state_machine_counts_one_call_per_step():
    """The tracker computes the state rows a window reads from the kept
    keys of each step, outside taf_update; taf_init still runs once per
    frame step and taf_update once per other step, so the harness's
    state-machine counters keep their meaning."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    frames, timeline, stream, _ = small_sequence()
    weights = drifting_weights(drift=0.0)
    try:
        tracing.install(tracer, tapfuse)
        tapfuse.tracker.track_sequence(frames, stream, timeline,
                                       [QueryPoint(0, 16.0, 16.0)], weights)
    finally:
        tracer.uninstall()
    counts = tracer.snapshot()
    n_frames = len(timeline.frame_times)
    assert counts["fusion.taf_init_calls"] == n_frames == 12
    assert counts["fusion.taf_update_calls"] == 48 - n_frames
    # the blob leaves 5 of the 36 batches without an event
    assert counts["fusion.empty_batches"] == 5
