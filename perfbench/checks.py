"""Correctness checks, computed apart from the program.

The file readers here are the benchmark's own, written from the format
descriptions, so a fault in the program's parsers cannot hide a fault in
its writers. Each check returns None when it holds, else a one-line reason.
"""

from __future__ import annotations

import json
import struct

import numpy as np

# tolerances, stated once
GT_REL_TOL = 1e-8        # tracks files carry 9 significant digits
LOG_TOL = 1e-9           # slack on the +-c event-model bound
VOXEL_TOL = 1e-9         # per-event float rounding in the voxel-grid mass
TS_TOL = 1e-12           # rounding of (t - s_b) / len_b for t at a bin end
TRACK_TOL_PX = 1e-6      # sub-pixel agreement between two perturbed runs
METRIC_TOL = 1e-12       # recomputed metrics against metrics.json
THRESHOLDS = (1.0, 2.0, 4.0, 8.0, 16.0)

_EVBIN_RECORD = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"),
                          ("p", "i1"), ("pad", "u1", 3)])


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------

def read_tns(data: bytes) -> np.ndarray:
    """TNS1: magic, u32 rank, rank u32 dims, row-major little-endian f64."""
    if data[:4] != b"TNS1":
        raise ValueError("not a TNS1 container")
    (rank,) = struct.unpack_from("<I", data, 4)
    dims = struct.unpack_from(f"<{rank}I", data, 8)
    return np.frombuffer(data, dtype="<f8", offset=8 + 4 * rank).reshape(dims)


def read_evbin(data: bytes) -> dict:
    """EVB1: 36-byte header, then 16-byte (t, x, y, p, pad) records."""
    magic, width, height, t_start, t_end, count = struct.unpack_from(
        "<4sIIQQQ", data)
    if magic != b"EVB1":
        raise ValueError("not an EVB1 stream")
    rec = np.frombuffer(data, dtype=_EVBIN_RECORD, count=count, offset=36)
    return {"t": rec["t"], "x": rec["x"], "y": rec["y"], "p": rec["p"],
            "width": width, "height": height, "t_start": t_start,
            "t_end": t_end}


def read_tracks(data: bytes):
    """'# queries=Q steps=T', then 't,q0x,q0y,q0v,q1x,...' per step.
    Returns (text rows, times (T,), positions (Q, T, 2), visibility (Q, T))."""
    lines = [ln for ln in data.decode("utf-8").split("\n") if ln.strip()]
    head = dict(tok.split("=") for tok in lines[0][1:].split())
    q, t = int(head["queries"]), int(head["steps"])
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != t or any(len(r) != 1 + 3 * q for r in rows):
        raise ValueError("tracks file does not match its header")
    num = np.array(rows, dtype=np.float64)
    pos = np.stack([num[:, 1::3], num[:, 2::3]], axis=-1).transpose(1, 0, 2)
    return rows, num[:, 0].astype(np.int64), pos, num[:, 3::3].T > 0.5


def reference_tracks(gt_rows, objects_of_queries) -> bytes:
    """A reference with one column per query: the ground-truth columns of
    the object each query was placed on, copied as written by simulate."""
    out = [f"# queries={len(objects_of_queries)} steps={len(gt_rows)}"]
    for row in gt_rows:
        parts = [row[0]]
        for j in objects_of_queries:
            parts += row[1 + 3 * j: 4 + 3 * j]
        out.append(",".join(parts))
    return ("\n".join(out) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def scene_truth(tracks: bytes, objects, query_times) -> str | None:
    """Ground truth equals x0 + v t for every object the benchmark built."""
    _, times, pos, _ = read_tracks(tracks)
    if list(times) != list(query_times):
        return "ground-truth times are not the query grid"
    t = np.asarray(query_times, dtype=np.float64) / 1e6
    for j, o in enumerate(objects):
        want = np.stack([o.x + o.vx * t, o.y + o.vy * t], axis=-1)
        err = np.abs(pos[j] - want)
        if np.any(err > GT_REL_TOL * np.maximum(1.0, np.abs(want))):
            return f"object {j}: ground truth off x0 + v t by {err.max():.3g} px"
    return None


def event_model(video: bytes, events: bytes, contrast: float,
                fps: float) -> str | None:
    """At every frame time t_k and pixel,
    |log I_k - (log I_0 + c * sum of polarities with t <= t_k)| <= c,
    from a per-pixel running sum of the benchmark's own."""
    frames = read_tns(video)
    ev = read_evbin(events)
    n_frames, h, w = frames.shape
    if len(ev["t"]) == 0:
        return "no events"
    if np.any(np.diff(ev["t"].astype(np.int64)) < 0):
        return "event timestamps not ascending"
    if ev["x"].max() >= w or ev["y"].max() >= h or not np.all(np.abs(ev["p"]) == 1):
        return "event outside the sensor or with bad polarity"
    frame_times = np.round(np.arange(n_frames) * 1e6 / fps).astype(np.int64)
    cuts = np.searchsorted(ev["t"], frame_times.astype(np.uint64), side="right")
    pix = ev["y"].astype(np.int64) * w + ev["x"].astype(np.int64)
    pol = ev["p"].astype(np.int64)
    running = np.zeros(h * w, dtype=np.int64)
    log0 = np.log(frames[0].reshape(-1))
    worst, lo = 0.0, 0
    for k in range(n_frames):
        hi = cuts[k]
        running += np.bincount(pix[lo:hi], weights=pol[lo:hi],
                               minlength=h * w).astype(np.int64)
        lo = hi
        dev = np.abs(np.log(frames[k].reshape(-1)) - (log0 + contrast * running))
        worst = max(worst, float(dev.max()))
    if worst > contrast + LOG_TOL:
        return f"log intensity off the event integral by {worst:.6g} > c"
    return None


def same_stream(a, ref: dict) -> str | None:
    """A parsed EventStream equals the benchmark's own decode of EVB1."""
    for key in ("width", "height", "t_start", "t_end"):
        if int(getattr(a, key)) != int(ref[key]):
            return f"header {key} differs"
    for key in ("t", "x", "y", "p"):
        col = getattr(a, key)
        if len(col) != len(ref[key]) or not np.array_equal(col, ref[key]):
            return f"column {key} differs"
    return None


def partition(batches, n_events: int) -> str | None:
    """The bins hold every event of the stream once."""
    if sum(len(b) for b in batches) != n_events:
        return "bins do not partition the stream"
    return None


def representation_bin(b, ts, ci, vg) -> str | None:
    """Count-image and voxel-grid totals equal the bin's polarity sum;
    time-surface values lie in [-1, 1] (up to TS_TOL: an event exactly at
    a bin end can give 1 + 7e-16)."""
    psum = float(np.sum(b.p, dtype=np.int64))
    where = f"bin ({b.bin_start}, {b.bin_end}]"
    if float(ci.data.sum()) != psum:
        return f"{where}: count image mass != sum p"
    if abs(float(vg.data.sum()) - psum) > VOXEL_TOL * max(1, len(b)):
        return f"{where}: voxel grid mass != sum p"
    if ts.data.min() < -1.0 - TS_TOL or ts.data.max() > 1.0 + TS_TOL:
        return f"{where}: time surface outside [-1, 1]"
    return None


def identity_tracks(tracks: bytes, queries) -> str | None:
    """Seeded default init: every position is exactly its query point;
    visibility is 0 before the query's start step and 1 from it on."""
    _, _, pos, vis = read_tracks(tracks)
    for i, q in enumerate(queries):
        if not (np.all(pos[i, :, 0] == q.x) and np.all(pos[i, :, 1] == q.y)):
            return f"query {i}: identity tracker moved the point"
        if vis[i, :q.step].any() or not vis[i, q.step:].all():
            return f"query {i}: visibility does not switch on at its start step"
    return None


def perturbed_tracks(tracks: bytes, queries) -> str | None:
    """Before its start step a query sits at its point with visibility 0;
    every position is finite, and the perturbed weights do move points."""
    _, _, pos, vis = read_tracks(tracks)
    if not np.all(np.isfinite(pos)):
        return "non-finite positions"
    moved = 0.0
    for i, q in enumerate(queries):
        if not (np.all(pos[i, :q.step, 0] == q.x)
                and np.all(pos[i, :q.step, 1] == q.y)) or vis[i, :q.step].any():
            return f"query {i}: not parked at its point before its start step"
        moved = max(moved, float(np.abs(pos[i, q.step:] - (q.x, q.y)).max()))
    if moved < 1e-3:
        return "perturbed weights left every point in place"
    return None


def same_tracks(a: bytes, b: bytes, order) -> str | None:
    """Track i of b equals track order[i] of a, within TRACK_TOL_PX."""
    _, ta, pa, va = read_tracks(a)
    _, tb, pb, vb = read_tracks(b)
    if not np.array_equal(ta, tb) or pb.shape[0] != len(order):
        return "track grids differ"
    err = np.abs(pa[list(order)] - pb)
    if err.max() > TRACK_TOL_PX:
        return f"tracks differ by {err.max():.3g} px"
    if not np.array_equal(va[list(order)], vb):
        return "visibility differs"
    return None


def eval_metrics(pred: bytes, ref: bytes, metrics_json: bytes,
                 image_height: int) -> str | None:
    """delta_avg^vis, OA and AJ recomputed from the tracks files."""
    _, _, pp, pv = read_tracks(pred)
    _, _, rp, rv = read_tracks(ref)
    err = np.linalg.norm(pp - rp, axis=2) * (256.0 / image_height)
    delta = float(np.mean([np.mean(err[rv] < th) for th in THRESHOLDS])) \
        if rv.any() else 0.0
    oa = float(np.mean(pv == rv))
    jac = []
    for th in THRESHOLDS:
        close = err < th
        tp = np.sum(pv & rv & close)
        fp = np.sum(pv & ~(rv & close))
        fn = np.sum(rv & ~(pv & close))
        jac.append(1.0 if tp + fp + fn == 0 else tp / (tp + fp + fn))
    got = json.loads(metrics_json)
    for key, want in (("delta_avg_vis", delta), ("oa", oa),
                      ("aj", float(np.mean(jac)))):
        if abs(got[key] - want) > METRIC_TOL:
            return f"{key}: metrics.json {got[key]!r} != recomputed {want!r}"
    return None
