"""Per-layer tracing from outside the program.

The traced run replaces public functions of each layer, in the namespace
its caller looks them up in, with wrappers that time each call and count
the work it did. A layer's self time is its span minus the time of the
traced spans it called, in CPU seconds. Nothing under src/ is changed;
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import time
from collections import defaultdict


def _fmt(args, kwargs) -> str:
    return args[1] if len(args) > 1 else kwargs.get("format", "csv")


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, count=None):
        """name is a metric name or a function of (args, kwargs) giving one;
        count maps (args, kwargs, result) to {counter: increment}."""
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.process_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.process_time() - start
                child = stack.pop()
                key = name(args, kwargs) if callable(name) else name
                self.self_s[key] += dur - child
                if stack:
                    stack[-1] += dur
            if count is not None:
                for key, inc in count(args, kwargs, out).items():
                    self.counts[key] += inc
            return out

        return traced

    def patch(self, owner, attr: str, name, count=None):
        if isinstance(owner, type):  # a classmethod: keep the descriptor
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr,
                    staticmethod(self.wrap(getattr(owner, attr), name, count)))
        else:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def snapshot(self) -> dict[str, float]:
        snap = dict(self.self_s)
        snap.update(self.counts)
        return snap


def install(tracer: Tracer, tapfuse) -> None:
    """Wrap the layers' public functions where their callers find them."""
    cli, events, fusion = tapfuse.cli, tapfuse.events, tapfuse.fusion
    rep, tracker, wts = tapfuse.representations, tapfuse.tracker, tapfuse.weights

    def parse_name(a, k):
        return f"events.parse_{_fmt(a, k)}_s"

    def ser_name(a, k):
        return f"events.serialize_{_fmt(a, k)}_s"

    def n_in(counter):
        return lambda a, k, out: {counter: len(a[0])}

    def once(counter):
        return lambda a, k, out: {counter: 1}

    for mod in (events, cli):
        tracer.patch(mod, "parse_event_stream", parse_name)
        tracer.patch(mod, "serialize_event_stream", ser_name)
    for mod in (events, cli, tracker):
        tracer.patch(mod, "bin_events", "events.bin_s", once("events.bin_calls"))
    # the parsers build their EventStream from already-canonical columns
    tracer.patch(events, "EventStream", "events.construct_s")
    tracer.patch(tracker, "exposure_window_events", "events.exposure_s")

    for mod in (rep, fusion):
        tracer.patch(mod, "sbt_time_surface", "repr.time_surface_s",
                     n_in("repr.events"))
    tracer.patch(rep, "event_count_image", "repr.count_image_s",
                 n_in("repr.events"))
    tracer.patch(rep, "voxel_grid", "repr.voxel_grid_s", n_in("repr.events"))

    tracer.patch(cli, "render_intensity_video", "synth.render_s")
    tracer.patch(cli, "simulate_events", "synth.simulate_events_s",
                 lambda a, k, out: {"synth.events": len(out)})

    tracer.patch(tapfuse.arrayio, "write_array", "arrayio.write_s",
                 lambda a, k, out: {"arrayio.mb": len(out) / 1e6})
    tracer.patch(tapfuse.arrayio, "read_array", "arrayio.read_s",
                 lambda a, k, out: {"arrayio.mb": len(a[0]) / 1e6})

    tracer.patch(wts.WeightBundle, "initialize", "weights.init_s")
    tracer.patch(wts, "save_weights", "weights.save_s")
    for mod in (wts, cli):
        tracer.patch(mod, "load_weights", "weights.load_s")

    for attr in ("tokenize_events", "tokenize_frame"):
        tracer.patch(fusion, attr, "fusion.tokenize_s")
    tracer.patch(fusion, "clwf_fuse", "fusion.clwf_s")
    tracer.patch(tracker, "taf_init", "fusion.taf_init_s",
                 once("fusion.taf_init_calls"))
    tracer.patch(tracker, "taf_update", "fusion.taf_update_s",
                 lambda a, k, out: {"fusion.taf_update_calls": 1,
                                    "fusion.empty_batches": int(len(a[1]) == 0)})
    tracer.patch(tracker, "temporal_attention", "fusion.temporal_attention_s",
                 once("fusion.windows"))
    tracer.patch(tracker, "decode_pyramid", "fusion.decode_s")

    tracer.patch(tracker, "sample_patch", "tracker.sample_patch_s",
                 once("tracker.sample_patch_calls"))
    tracer.patch(tracker, "correlation_features", "tracker.correlation_s")
    tracer.patch(tracker, "refine_track", "tracker.refine_s",
                 once("tracker.refine_calls"))
    tracer.patch(cli, "track_sequence", "tracker.sequence_s")
    for attr in ("serialize_track_set", "parse_track_set"):
        tracer.patch(cli, attr, "tracker.tracks_io_s")

    tracer.patch(cli, "evaluate", "metrics.evaluate_s")
    # what is left of a subcommand: argument parsing, config, file IO, hashing
    tracer.patch(cli, "main", "cli.self_s")
