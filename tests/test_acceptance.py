"""Acceptance gate: one test per release criterion, each reported as a
single pass/fail line under pytest -v."""

import time
from dataclasses import replace

import numpy as np
import pytest

from _gradcheck import clwf_grad_max_rel_err, tattn_grad_max_rel_err
from _metric_oracle import (
    bf_average_jaccard,
    bf_delta_avg_vis,
    bf_feature_age,
    bf_occlusion_accuracy,
    random_pair,
)
from tapfuse.cli import cmd_bench
from tapfuse.config import RunConfig
from tapfuse.events import Event, EventStream, Timeline
from tapfuse.fusion import Tokens, clwf_fuse
from tapfuse.metrics import (
    EvalPair,
    average_jaccard,
    delta_avg_vis,
    feature_age,
    occlusion_accuracy,
)
from tapfuse.synth import (
    SceneConfig,
    SceneObject,
    edi_blur,
    render_intensity_video,
    simulate_events,
)
from tapfuse.tracker import QueryPoint, refine_track, track_sequence
from tapfuse.weights import FusionConfig, WeightBundle

from test_tracker import count_state_calls


def random_scene(rng, width=64, height=64, duration_us=2_000_000, fps=48.0):
    objects = []
    for _ in range(int(rng.integers(1, 3))):
        objects.append(SceneObject(
            shape=str(rng.choice(["gaussian_blob", "textured_square"])),
            position=(float(rng.uniform(12, width - 12)),
                      float(rng.uniform(12, height - 12))),
            velocity=(float(rng.uniform(-12, 12)), float(rng.uniform(-12, 12))),
            size=float(rng.uniform(2.5, 5.0)),
            intensity=float(rng.uniform(1.0, 3.0))))
    return SceneConfig(width=width, height=height, duration_us=duration_us,
                       fps=fps, objects=objects)


def test_criterion_01_physics_round_trip_within_threshold():
    started = time.perf_counter()
    contrasts = (0.1, 0.2, 0.4)
    for scene_idx in range(20):
        rng = np.random.default_rng(1000 + scene_idx)
        c = contrasts[scene_idx % 3]
        config = random_scene(rng)
        video, _ = render_intensity_video(config)
        stream = simulate_events(video, c)
        recon = np.log(video.frames[0]).copy()
        worst = 0.0
        for k in range(1, len(video.frame_times)):
            lo = np.searchsorted(stream.t, np.uint64(video.frame_times[k - 1]),
                                 side="right")
            hi = np.searchsorted(stream.t, np.uint64(video.frame_times[k]),
                                 side="right")
            np.add.at(recon, (stream.y[lo:hi].astype(np.int64),
                              stream.x[lo:hi].astype(np.int64)),
                      c * stream.p[lo:hi].astype(np.float64))
            worst = max(worst, np.max(np.abs(recon - np.log(video.frames[k]))))
        assert worst <= c + 1e-9, f"scene {scene_idx}: {worst} > c={c}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"round-trip suite took {elapsed:.1f} s"


def test_criterion_02_edi_identity_and_closed_form():
    cfg = SceneConfig(width=16, height=16, duration_us=500_000, fps=24,
                      objects=[SceneObject("gaussian_blob", (8, 8), (0, 0),
                                           3.0, 2.0)])
    video, _ = render_intensity_video(cfg)
    stream = simulate_events(video, 0.2)
    assert len(stream) == 0
    sharp = np.log(video.frames[5])
    out = edi_blur(sharp, stream, int(video.frame_times[5]), 100_000, 0.2)
    assert np.max(np.abs(out - sharp)) < 1e-9

    for c in (0.1, 0.2, 0.4):
        one = EventStream.from_events([Event(4, 4, 50_000, 1)], 16, 16,
                                      0, 100_000)
        blurred = edi_blur(np.zeros((16, 16)), one, 50_000, 40_000, c)
        want = np.log((1.0 + np.exp(c)) / 2.0)
        assert abs(blurred[4, 4] - want) < 1e-9


def test_criterion_03_attention_contracts_on_1000_instances():
    for i in range(1000):
        rng = np.random.default_rng(2000 + i)
        d = int(rng.choice([2, 4, 8]))
        grid = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        n = grid[0] * grid[1]
        weights = WeightBundle.initialize(FusionConfig(d=d), seed=2000 + i)
        weights.params["clwf.bias_table"] = rng.normal(size=9)
        ev = Tokens(values=rng.normal(size=(n, d)), grid=grid)
        im_vals = rng.normal(size=(n, d))
        cache = {}
        out = clwf_fuse(ev, Tokens(values=im_vals, grid=grid), weights,
                        cache=cache)
        a, mask = cache["a"], cache["mask"]
        assert np.all(np.abs(a.sum(axis=1) - 1.0) < 1e-6)
        assert np.all(a[~mask] == 0.0)
        if i % 20 == 0 and min(grid) >= 3:
            # perturbing an image token beyond the radius leaves the
            # opposite-corner event token bit-identical
            bumped = im_vals.copy()
            bumped[-1] += 5.0
            out2 = clwf_fuse(ev, Tokens(values=bumped, grid=grid), weights)
            assert np.array_equal(out.values[0], out2.values[0])


def test_criterion_04_backward_passes_match_finite_differences():
    worst_clwf = max(clwf_grad_max_rel_err(seed) for seed in range(100))
    worst_tattn = max(tattn_grad_max_rel_err(seed) for seed in range(100))
    assert worst_clwf < 1e-4, f"clwf max rel err {worst_clwf}"
    assert worst_tattn < 1e-4, f"temporal attention max rel err {worst_tattn}"


def test_criterion_05_state_machine_cadence_24_init_72_update(monkeypatch):
    config = RunConfig()
    timeline = config.timeline()
    rng = np.random.default_rng(42)
    scene = random_scene(rng)
    video, _ = render_intensity_video(scene)
    stream = simulate_events(video, config.sim_contrast)
    frames = video.frames[::4]
    weights = WeightBundle.initialize(config.fusion_config(), seed=0)
    counts = count_state_calls(monkeypatch)
    tracks = track_sequence(frames, stream, timeline,
                            [QueryPoint(0, 32.0, 32.0)], weights)
    assert len(tracks.times) == 96
    assert counts["taf_init"] == 24
    assert counts["taf_update"] == 72


def test_criterion_06_identity_tracker_matches_static_ground_truth():
    cfg = SceneConfig(width=64, height=64, duration_us=2_000_000, fps=48,
                      objects=[
                          SceneObject("gaussian_blob", (20, 24), (0, 0), 3.0, 2.0),
                          SceneObject("gaussian_blob", (44, 40), (0, 0), 4.0, 1.5)])
    video, gt = render_intensity_video(cfg)
    stream = simulate_events(video, 0.2)
    timeline = Timeline(
        frame_times=[int(t) for t in video.frame_times[::4]],
        query_times=[int(t) for t in video.frame_times],
        exposure_us=4000)
    weights = WeightBundle.initialize(FusionConfig(), seed=0)
    queries = [QueryPoint(0, float(gt.positions[qi, 0, 0]),
                          float(gt.positions[qi, 0, 1]))
               for qi in range(len(cfg.objects))]
    tracks = track_sequence(video.frames[::4], stream, timeline, queries,
                            weights)
    np.testing.assert_array_equal(tracks.positions, gt.positions)
    np.testing.assert_array_equal(tracks.visibility, gt.visibility)
    pair = EvalPair(predicted=tracks, reference=gt, image_height=64)
    assert average_jaccard(pair) == 1.0
    assert delta_avg_vis(pair) == 1.0
    assert occlusion_accuracy(pair) == 1.0
    fa, efa = feature_age(pair)
    assert fa == 1.0 and efa == 1.0


def test_criterion_07_metrics_match_brute_force_on_200_instances():
    thresholds = (1.0, 2.0, 4.0, 8.0, 16.0)
    for seed in range(200):
        pair = random_pair(seed, q=10, t=50)
        d = delta_avg_vis(pair, thresholds)
        aj = average_jaccard(pair, thresholds)
        assert abs(d - bf_delta_avg_vis(pair, thresholds)) < 1e-9
        assert abs(aj - bf_average_jaccard(pair, thresholds)) < 1e-9
        assert abs(occlusion_accuracy(pair)
                   - bf_occlusion_accuracy(pair)) < 1e-9
        fa, efa = feature_age(pair, 8.0)
        bfa, befa = bf_feature_age(pair, 8.0)
        assert abs(fa - bfa) < 1e-9 and abs(efa - befa) < 1e-9
        assert aj <= d + 1e-12


def test_criterion_08_frame_rate_sweep_on_fixed_query_grid(monkeypatch):
    rng = np.random.default_rng(7)
    scene = random_scene(rng, width=32, height=32, duration_us=400_000, fps=75)
    video, _ = render_intensity_video(scene)
    stream = simulate_events(video, 0.2)
    qtimes = [int(t) for t in video.frame_times]
    n_steps = len(qtimes)
    assert n_steps == 30
    weights = WeightBundle.initialize(FusionConfig(), seed=0)
    step_counts = []
    counts = count_state_calls(monkeypatch)
    for stride in (1, 2, 3, 4, 6, 8):   # 75 .. 9.375 FPS
        timeline = Timeline(frame_times=qtimes[::stride], query_times=qtimes,
                            exposure_us=4000)
        counts.update(taf_init=0, taf_update=0)
        tracks = track_sequence(video.frames[::stride], stream, timeline,
                                [QueryPoint(0, 16.0, 16.0)], weights)
        n_init = len(timeline.frame_times)
        assert counts["taf_init"] == n_init
        assert counts["taf_update"] == n_steps - n_init
        step_counts.append(len(tracks.times))
    assert step_counts == [n_steps] * 6


def test_criterion_09_refinement_constants_and_composition():
    cfg = FusionConfig()
    assert cfg.patch_radius == 3
    assert (2 * cfg.patch_radius + 1) ** 2 == 49
    assert cfg.window == 16
    assert cfg.iterations == 3
    weights = WeightBundle.initialize(cfg, seed=0)
    assert weights["corr.l0.w1"].shape[0] == 49 * 49

    rng = np.random.default_rng(11)
    for name in ("ref.head.w", "ref.head.b", "ref.b0.attn.wo",
                 "ref.b1.attn.wo", "ref.b0.mlp.w2", "ref.b1.mlp.w2"):
        weights.params[name] = rng.normal(scale=0.05,
                                          size=weights.params[name].shape)
    steps = [tuple(rng.normal(size=(8, 8, c)) for c in cfg.decoder_channels)
             for _ in range(cfg.window)]
    levels = tuple(np.stack(lvl) for lvl in zip(*steps))
    track = (rng.uniform(10, 50, size=(cfg.window, 2)),
             rng.normal(size=cfg.window))
    one, two = (replace(weights, config=replace(cfg, iterations=m))
                for m in (1, 2))
    twice = refine_track(*refine_track(*track, levels, one), levels, one)
    once = refine_track(*track, levels, two)
    np.testing.assert_allclose(once[0], twice[0], atol=1e-12)
    np.testing.assert_allclose(once[1], twice[1], atol=1e-12)


def test_criterion_10_bench_on_one_million_events(capsys):
    config = RunConfig()
    assert config.bench_n_events == 1_000_000
    report = cmd_bench(config)
    assert report["n_events"] == 1_000_000
    keys = report["events_per_s"]
    assert set(keys) == {"parse", "serialize", "bin", "time_surface",
                         "count_image", "voxel_grid"}
    assert all(v > 0 for v in keys.values())
    assert report["steps_per_s"]["taf_update"] > 0
