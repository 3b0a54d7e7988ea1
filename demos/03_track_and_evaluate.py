"""
End-to-end tracking and evaluation
==================================

Run the full pipeline on a synthetic scene and score the result with the
track metric suite. With freshly initialized (zero residual head)
weights, the tracker is an exact identity tracker, so static queries
score perfectly against ground truth.
"""

import numpy as np

from tapfuse import (
    EvalPair,
    FusionConfig,
    QueryPoint,
    SceneConfig,
    SceneObject,
    Timeline,
    WeightBundle,
    evaluate,
    render_intensity_video,
    simulate_events,
    speed_weighted_success,
    track_sequence,
)

scene = SceneConfig(width=64, height=64, duration_us=2_000_000, fps=48,
                    objects=[
                        SceneObject("gaussian_blob", (20, 24), (0, 0), 3.0, 2.0),
                        SceneObject("gaussian_blob", (44, 40), (0, 0), 4.0, 1.5),
                    ])
video, gt = render_intensity_video(scene)
# read the frames first, so the event model iterates the frames held
# instead of rendering the scene a second time
frames = video.frames
stream = simulate_events(video, 0.2)
qtimes = [int(t) for t in video.frame_times]
timeline = Timeline(frame_times=qtimes[::4], query_times=qtimes,
                    exposure_us=4000)

weights = WeightBundle.initialize(FusionConfig(), seed=0)
queries = [QueryPoint(0, float(gt.positions[qi, 0, 0]),
                      float(gt.positions[qi, 0, 1]))
           for qi in range(gt.positions.shape[0])]
tracks = track_sequence(frames[::4], stream, timeline, queries, weights)
print(f"tracked {len(queries)} queries over {len(tracks.times)} steps")

# the ground truth is a TrackSet too, so it is the reference as it stands
pair = EvalPair(predicted=tracks, reference=gt, image_height=64)
report = evaluate(pair)
print(f"AJ={report.aj:.3f}  delta_avg_vis={report.delta_avg_vis:.3f}  "
      f"OA={report.oa:.3f}  FA={report.fa:.3f}  EFA={report.efa:.3f}")
for th, entry in report.per_threshold.items():
    print(f"  threshold {th:>2}: jaccard={entry['jaccard']:.3f} "
          f"delta_vis={entry['delta_vis']:.3f}")

# the speed-weighted success curve needs per-step speeds; fake a drifting
# comparison by perturbing the prediction
rng = np.random.default_rng(0)
rve = np.abs(rng.normal(scale=0.3, size=200))
speeds = rng.uniform(0.5, 2.0, size=200)
curve, auc = speed_weighted_success(rve, speeds)
print(f"speed-weighted success AUC on a synthetic error sample: {auc:.3f}")
