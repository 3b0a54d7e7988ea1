"""
Event tensors and the transient fusion state machine
====================================================

Bin an event stream on a query-time grid, build the three dense
representations for one batch, and drive the frame/event state machine
along the timeline, counting how often each path runs.
"""

import numpy as np

from tapfuse import (
    FusionConfig,
    SceneConfig,
    SceneObject,
    Timeline,
    WeightBundle,
    bin_events,
    event_count_image,
    exposure_window_events,
    render_intensity_video,
    sbt_time_surface,
    simulate_events,
    taf_init,
    taf_update,
    voxel_grid,
)

scene = SceneConfig(width=32, height=32, duration_us=1_000_000, fps=48,
                    objects=[SceneObject("textured_square", (16, 16),
                                         (10.0, 6.0), 5.0, 2.0)])
video, _ = render_intensity_video(scene)
# read the frames first, so the event model iterates the frames held
# instead of rendering the scene a second time
frames = video.frames
stream = simulate_events(video, 0.2)

# 48 Hz query grid, every 4th step carries a frame (12 Hz)
qtimes = [int(t) for t in video.frame_times]
timeline = Timeline(frame_times=qtimes[::4], query_times=qtimes,
                    exposure_us=4000)
batches = bin_events(stream, timeline)
sizes = [len(b) for b in batches]
print(f"{len(batches)} bins, {min(sizes)}..{max(sizes)} events each")

busiest = max(batches, key=len)
for name, fn in (("time surface", sbt_time_surface),
                 ("count image", event_count_image),
                 ("voxel grid", voxel_grid)):
    tensor = fn(busiest, 32, 32, 5)
    print(f"{name:13s} shape {tensor.data.shape}, "
          f"|values| in [0, {np.abs(tensor.data).max():.2f}]")
# the voxel grid conserves total polarity mass exactly
vg = voxel_grid(busiest, 32, 32, 5)
print(f"voxel mass {vg.data.sum():+.6f} vs net polarity "
      f"{busiest.p.astype(np.float64).sum():+.0f}")

weights = WeightBundle.initialize(FusionConfig(), seed=0)
state = None
n_init = n_update = 0
frame_at = {t: i for i, t in enumerate(timeline.frame_times)}
for step, t in enumerate(timeline.query_times):
    if t in frame_at:
        exposure = exposure_window_events(stream, t, timeline.exposure_us)
        state = taf_init(frames[frame_at[t] * 4], t, exposure, weights)
        n_init += 1
    else:
        state = taf_update(state, batches[step], weights)
        n_update += 1
print(f"state machine: {n_init} inits, {n_update} updates, "
      f"final state_time {state.state_time} us")
# residual output projections start at zero, so the untrained update
# leaves the fused tokens untouched
fresh = taf_init(frames[0], timeline.frame_times[0],
                 exposure_window_events(stream, timeline.frame_times[0], 4000),
                 weights)
stepped = taf_update(fresh, batches[1], weights)
print("untrained update is identity on tokens:",
      bool(np.array_equal(stepped.tokens.values, fresh.tokens.values)))
