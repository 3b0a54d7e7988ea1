"""The tracker's test oracle: a small moving-blob sequence, weights that
make every layer count and drive the tracks off the sensor, a counter of
the fusion state calls, and the dense reference decode that
track_sequence's on-demand decode must equal bit for bit."""

import numpy as np

from tapfuse.events import Timeline, bin_events, exposure_window_events
from tapfuse.fusion import (
    decode_pyramid,
    taf_init,
    taf_update,
    temporal_attention,
)
from tapfuse.synth import (
    SceneConfig,
    SceneObject,
    render_intensity_video,
    simulate_events,
)
from tapfuse.tracker import _window_starts, refine_track
from tapfuse.weights import FusionConfig, WeightBundle


def small_sequence(seed=0, n_query=48, frame_every=4, size=32, width=None):
    width = width or size
    cfg = SceneConfig(width=width, height=size, duration_us=1_000_000,
                      fps=n_query, objects=[
                          SceneObject("gaussian_blob", (width / 2, size / 2),
                                      (6.0, -4.0), 3.0, 2.0)])
    video, gt = render_intensity_video(cfg)
    stream = simulate_events(video, 0.2)
    timeline = Timeline(
        frame_times=[int(t) for t in video.frame_times[::frame_every]],
        query_times=[int(t) for t in video.frame_times],
        exposure_us=4000)
    frames = video.frames[::frame_every]
    return frames, timeline, stream, gt


def count_state_calls(monkeypatch):
    """Patch tracker's taf_init and taf_update, the names track_sequence
    calls, to count their calls in the returned dict."""
    import tapfuse.tracker as tracker

    counts = {"taf_init": 0, "taf_update": 0}

    def counted(name):
        fn = getattr(tracker, name)

        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    for name in counts:
        monkeypatch.setattr(tracker, name, counted(name))
    return counts


def drifting_weights(drift=5.0, **kw):
    """The seeded init with small draws in every zero-init matrix, so every
    layer contributes, and a refiner head bias that moves each estimate
    drift px right per iteration, so the tracks cross tokens and leave the
    sensor."""
    weights = WeightBundle.initialize(FusionConfig(**kw), seed=0)
    rng = np.random.default_rng(11)
    for name, value in weights.params.items():
        if value.ndim == 2 and not value.any():
            weights.params[name] = rng.uniform(
                -0.2, 0.2, size=value.shape) / np.sqrt(value.shape[0])
    weights.params["ref.head.b"] = np.array([drift, 0.0, 0.0])
    return weights


def dense_track_sequence(frames, stream, timeline, queries, weights):
    """track_sequence with every window decoded at all its tokens: temporal
    attention and the decoder over the whole window, then refine_track on
    the full levels. Returns (positions, visibility)."""
    qtimes = list(timeline.query_times)
    frame_at = {t: i for i, t in enumerate(timeline.frame_times)}
    batches = bin_events(stream, timeline)
    states = []
    for step, t in enumerate(qtimes):
        if t in frame_at:
            batch = exposure_window_events(stream, t, timeline.exposure_us)
            states.append(taf_init(frames[frame_at[t]], t, batch, weights))
        else:
            states.append(taf_update(states[-1], batches[step], weights))
    n_steps, w = len(qtimes), weights.config.window
    begin = [qtimes.index(q.t_q) for q in queries]
    pos = np.array([[(q.x, q.y)] * n_steps for q in queries], dtype=float)
    logit = np.ones((len(queries), n_steps))
    for start in _window_starts(n_steps, w):
        stop = min(start + w, n_steps)
        window = states[start:stop]
        x = temporal_attention(np.stack([s.tokens.values for s in window]),
                               weights)
        levels = decode_pyramid(
            x.reshape(len(window), *window[0].tokens.grid, -1), weights)
        for qi, a in enumerate(begin):
            if a < stop:
                p, lg = refine_track(pos[qi, start:stop],
                                     logit[qi, start:stop], levels, weights)
                pos[qi, start:stop], logit[qi, start:stop] = p, lg
                pos[qi, stop:], logit[qi, stop:] = p[-1], lg[-1]
    visibility = (logit > 0).astype(np.int64)
    for qi, a in enumerate(begin):
        pos[qi, :a] = queries[qi].x, queries[qi].y
        visibility[qi, :a] = 0
    return pos, visibility
