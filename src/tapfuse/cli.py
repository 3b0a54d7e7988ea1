"""Command-line operator surface.

Subcommands: simulate | track | eval | bench | repr. All outputs are
deterministic from (config, seed) except bench timings. Exit codes:
0 success, 2 config error, 3 data error, 4 contract violation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import arrayio
from .config import RunConfig, load_run_config
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    GridMismatch,
    TapfuseError,
)
from .events import (
    EventStream,
    bin_events,
    exposure_window_events,
    parse_event_stream,
    serialize_event_stream,
)
from .fusion import taf_init, taf_update
from .metrics import DEFAULT_THRESHOLDS, EvalPair, evaluate, threshold_keys
from .representations import REPRESENTATIONS
from .synth import render_intensity_video, simulate_events
from .tracker import (
    QueryPoint,
    parse_track_set,
    serialize_track_set,
    track_sequence,
)
from .weights import WeightBundle, load_weights


@contextlib.contextmanager
def _output(path: Path):
    """Open a temporary sibling of path and yield (write, digest): write
    appends a chunk (bytes or a contiguous array) and adds it to digest,
    a sha256. A clean exit from the with-block moves the file onto path;
    an error removes it, and path keeps what it held."""
    path.parent.mkdir(parents=True, exist_ok=True)
    part = path.with_name(f".{path.name}.part")
    digest = hashlib.sha256()
    try:
        with open(part, "wb") as f:
            def write(chunk):
                f.write(chunk)
                digest.update(chunk)
            yield write, digest
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _write(path: Path, *chunks) -> str:
    """Write the chunks (bytes or contiguous arrays) to path in turn;
    return the first 16 hex digits of the sha256 of what was written."""
    with _output(path) as (write, digest):
        for chunk in chunks:
            write(chunk)
    return digest.hexdigest()[:16]


def cmd_simulate(config: RunConfig, out_dir: Path, fmt: str = "evbin") -> dict:
    """Render a seeded scene, simulate events, write video/stream/tracks,
    and print a one-line manifest of output hashes.

    The video is never held whole: simulate_events reads it from
    render_intensity_video a chunk of frames at a time, and each chunk is
    appended to video.tns on its way there. As every output is written to
    a temporary sibling first, and video.tns moved into place only after
    the last chunk has passed simulate_events' checks, a run that fails
    leaves out_dir as it was."""
    rng = np.random.default_rng(config.seed)
    scene = config.scene_config(rng)
    timeline = config.timeline()
    video, gt = render_intensity_video(scene, query_times=timeline.query_times)
    with _output(out_dir / "video.tns") as (write, video_digest):
        write(arrayio.TNS_MAGIC + arrayio.record_header(
            (len(video.frame_times), scene.height, scene.width)))

        def written():
            for times, frames in video:
                write(np.ascontiguousarray(frames, dtype="<f8"))
                yield times, frames

        stream = simulate_events(written(), config.sim_contrast)

    manifest = {
        "video": video_digest.hexdigest()[:16],
        "events": _write(out_dir / f"events.{fmt}",
                         serialize_event_stream(stream, fmt)),
        "tracks": _write(out_dir / "tracks.txt",
                         serialize_track_set(gt)),
    }
    print("simulate " + " ".join(f"{k}={v}" for k, v in manifest.items()))
    return manifest


def _load_stream(path: Path) -> EventStream:
    fmt = "evbin" if path.suffix == ".evbin" else "csv"
    return parse_event_stream(path.read_bytes(), fmt)


def cmd_track(config: RunConfig, stream_path: Path, frames_path: Path,
              weights_path: Path | None, queries: list[QueryPoint],
              out_path: Path) -> Path:
    """Track queries through a stored sequence and write the track file."""
    stream = _load_stream(stream_path)
    frames = arrayio.read_frames(frames_path, config.frame_indices())
    timeline = config.timeline()

    if weights_path is not None:
        weights = load_weights(weights_path.read_bytes(),
                               config.fusion_config(), config.seed)
    else:
        weights = WeightBundle.initialize(config.fusion_config(), config.seed)
    tracks = track_sequence(frames, stream, timeline, queries, weights)
    _write(out_path, serialize_track_set(tracks))
    return out_path


def cmd_eval(pred_path: Path, ref_path: Path, image_height: int,
             thresholds: tuple[float, ...], err_threshold: float,
             out_dir: Path) -> dict:
    """Evaluate a prediction against a reference; write JSON and CSV."""
    pred = parse_track_set(pred_path.read_bytes())
    ref = parse_track_set(ref_path.read_bytes())
    pair = EvalPair(predicted=pred, reference=ref, image_height=image_height)
    report = evaluate(pair, thresholds, err_threshold)
    _write(out_dir / "metrics.json", report.to_json().encode())
    _write(out_dir / "metrics.csv", report.to_csv().encode())
    print(report.to_json())
    return json.loads(report.to_json())


def _median_cpu_s(fn, *args):
    """The median CPU seconds of five calls of fn(*args), and the last
    call's result."""
    times = []
    for _ in range(5):
        t0 = time.process_time()
        out = fn(*args)
        times.append(time.process_time() - t0)
    return float(np.median(times)), out


def cmd_bench(config: RunConfig) -> dict:
    """Throughput smoke benchmark on synthetic events, in CPU time: EVB1
    parse and serialize, bin and each representation are the median of
    five calls."""
    rng = np.random.default_rng(config.seed)
    n = config.bench_n_events
    w, h = config.scene_width, config.scene_height
    span = 1_000_000
    stream = EventStream(
        t=np.sort(rng.integers(0, span + 1, size=n)).astype(np.uint64),
        x=rng.integers(0, w, size=n).astype(np.uint16),
        y=rng.integers(0, h, size=n).astype(np.uint16),
        p=rng.choice(np.array([-1, 1], dtype=np.int8), size=n),
        width=w, height=h, t_start=0, t_end=span)
    blob = serialize_event_stream(stream, "evbin")

    parse_s, stream = _median_cpu_s(parse_event_stream, blob, "evbin")
    serialize_s = _median_cpu_s(serialize_event_stream, stream, "evbin")[0]
    timeline = config.timeline()
    bin_s, batches = _median_cpu_s(bin_events, stream, timeline)
    big = max(batches, key=len)
    repr_s = {kind: _median_cpu_s(fn, big, w, h, config.model_subwindows)[0]
              for kind, fn in REPRESENTATIONS.items()}

    weights = WeightBundle.initialize(config.fusion_config(), config.seed)
    frame = np.ones((h, w))
    t0f = int(timeline.frame_times[0])
    exposure = exposure_window_events(stream, t0f, timeline.exposure_us)
    state = taf_init(frame, t0f, exposure, weights)
    n_steps = min(20, len(batches) - 1)
    t0 = time.process_time()
    for k in range(1, n_steps + 1):
        state = taf_update(state, batches[k], weights)
    taf_s = time.process_time() - t0

    report = {
        "events_per_s": {
            "parse": n / max(parse_s, 1e-12),
            "serialize": n / max(serialize_s, 1e-12),
            "bin": n / max(bin_s, 1e-12),
            **{kind: len(big) / max(s, 1e-12) for kind, s in repr_s.items()},
        },
        "steps_per_s": {"taf_update": n_steps / max(taf_s, 1e-12)},
        "n_events": n,
    }
    print(json.dumps(report, indent=2))
    return report


def cmd_repr(config: RunConfig, stream_path: Path, bin_index: int, kind: str,
             out_path: Path) -> Path:
    """Dump one bin's event tensor to the array container."""
    if kind not in REPRESENTATIONS:
        raise ConfigError(f"unknown representation {kind!r}")
    stream = _load_stream(stream_path)
    timeline = config.timeline()
    batches = bin_events(stream, timeline)
    if not 0 <= bin_index < len(batches):
        raise DataError(f"bin index {bin_index} out of range 0..{len(batches) - 1}")
    tensor = REPRESENTATIONS[kind](batches[bin_index], stream.width,
                                   stream.height, config.model_subwindows)
    _write(out_path, arrayio.write_array(tensor.data))
    return out_path


def _parse_query(text: str) -> QueryPoint:
    parts = text.split(",")
    try:
        if len(parts) != 3:
            raise ValueError("expected 3 fields")
        t_q, x, y = int(parts[0]), float(parts[1]), float(parts[2])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("x and y must be finite")
    except ValueError as exc:
        raise ConfigError(f"--query must be t_us,x,y: {text!r}: {exc}") from exc
    return QueryPoint(t_q=t_q, x=x, y=y)


def _parse_thresholds(text: str) -> tuple[float, ...]:
    try:
        thresholds = tuple(float(t) for t in text.split(","))
        threshold_keys(thresholds)
    except (ValueError, GridMismatch) as exc:
        raise ConfigError(f"--thresholds must be comma-separated numbers: "
                          f"{text!r}: {exc}") from exc
    return thresholds


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tapfuse")
    ap.add_argument("--config", type=Path, help="flat-text config file")
    ap.add_argument("--out", type=Path, default=Path("out"), help="output dir")
    ap.add_argument("--format", choices=["csv", "evbin"], default="evbin")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate")
    p_track = sub.add_parser("track")
    p_track.add_argument("--stream", type=Path, required=True)
    p_track.add_argument("--frames", type=Path, required=True)
    p_track.add_argument("--weights", type=Path)
    p_track.add_argument("--query", action="append", default=[],
                         metavar="T,X,Y", help="repeatable query point")
    p_eval = sub.add_parser("eval")
    p_eval.add_argument("--pred", type=Path, required=True)
    p_eval.add_argument("--ref", type=Path, required=True)
    p_eval.add_argument("--thresholds",
                        default=",".join(f"{t:g}" for t in DEFAULT_THRESHOLDS))
    sub.add_parser("bench")
    p_repr = sub.add_parser("repr")
    p_repr.add_argument("--stream", type=Path, required=True)
    # bin 0 ends at the first query time, (0, 0] on every config timeline
    p_repr.add_argument("--bin", type=int, default=1)
    p_repr.add_argument("--kind", default="time_surface")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_run_config(args.config) if args.config else RunConfig()
        if args.command == "simulate":
            cmd_simulate(config, args.out, args.format)
        elif args.command == "track":
            queries = [_parse_query(q) for q in args.query]
            cmd_track(config, args.stream, args.frames, args.weights,
                      queries, args.out / "tracks.txt")
        elif args.command == "eval":
            cmd_eval(args.pred, args.ref, config.scene_height,
                     _parse_thresholds(args.thresholds),
                     config.eval_err_threshold, args.out)
        elif args.command == "bench":
            cmd_bench(config)
        elif args.command == "repr":
            cmd_repr(config, args.stream, args.bin, args.kind,
                     args.out / "tensor.tns")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ContractError, TapfuseError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
