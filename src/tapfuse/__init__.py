"""tapfuse: asynchronous frame-event fusion point tracking.

Event sensing and simulation, dense event representations, transient
asynchronous fusion with locality-biased cross-attention, correlation-
pyramid trajectory refinement, and the tracking evaluation metric suite.
"""

from .events import (
    Event,
    EventBatch,
    EventStream,
    Timeline,
    bin_events,
    exposure_window_events,
    parse_event_stream,
    serialize_event_stream,
)
from .representations import (
    EventTensor,
    event_count_image,
    sbt_time_surface,
    voxel_grid,
)
from .synth import (
    GroundTruth,
    IntensityVideo,
    SceneConfig,
    SceneObject,
    edi_blur,
    reconstruct_log_intensity,
    render_intensity_video,
    simulate_events,
)
from .fusion import (
    FeaturePyramid,
    Tokens,
    TransientState,
    clwf_backward,
    clwf_fuse,
    decode_pyramid,
    taf_init,
    taf_update,
    temporal_attention,
    temporal_attention_backward,
    tokenize_events,
    tokenize_frame,
)
from .tracker import (
    QueryPoint,
    TrackSet,
    TrackState,
    correlation_features,
    parse_track_set,
    refine_track,
    sample_patch,
    serialize_track_set,
    track_sequence,
)
from .metrics import (
    EvalPair,
    MetricReport,
    average_jaccard,
    delta_avg_vis,
    evaluate,
    feature_age,
    occlusion_accuracy,
    pca_dispersion,
    smooth_gt,
    speed_weighted_success,
)
from .weights import FusionConfig, WeightBundle, load_weights, save_weights

__version__ = "0.1.0"
