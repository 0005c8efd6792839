"""Trajectory ingestion, local-frame transforms, and sample building.

Tracks are global-frame (x lateral, y longitudinal, meters) at 10 Hz.
Samples are built in the prediction-time local frame: origin at the
predicted vehicle at frame t, 3 s of history and 5 s of future,
downsampled by 2 to a 5 Hz working rate. The 14 history channels are
the predicted vehicle (0-1) followed by six neighbor slots (2-13) in
the order (same ahead, same behind, left ahead, left behind, right
ahead, right behind); left = lane_id - 1.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import maneuvers
from .errors import FrameRangeError, IntegrityError, SchemaError
from .maneuvers import Lateral, Longitudinal, ManeuverLabel

FEET_TO_METERS = 0.3048
HISTORY_FRAMES = 30      # 3 s at 10 Hz
FUTURE_FRAMES = 50       # 5 s at 10 Hz
DOWNSAMPLE = 2
T_H = HISTORY_FRAMES // DOWNSAMPLE   # 15 -> 16 history points incl. frame t
T_F = FUTURE_FRAMES // DOWNSAMPLE    # 25 future points
N_CHANNELS = 14
N_NEIGHBORS = 6
MAX_STEP_M = 5.0         # plausibility bound on |dy| per 0.1 s

# NGSIM public export column names
DEFAULT_COLUMNS = {
    "vehicle_id": "Vehicle_ID",
    "frame_id": "Frame_ID",
    "x": "Local_X",
    "y": "Local_Y",
    "lane_id": "Lane_ID",
}

NEIGHBOR_SLOTS = ("same_ahead", "same_behind", "left_ahead",
                  "left_behind", "right_ahead", "right_behind")


class VehicleTrack:
    """One vehicle's trajectory: frames (strictly increasing), xy, lanes."""

    def __init__(self, vehicle_id, frame_ids, xy, lane_ids):
        self.vehicle_id = int(vehicle_id)
        self.frame_ids = np.asarray(frame_ids, dtype=np.int64)
        self.xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
        self.lane_ids = np.asarray(lane_ids, dtype=np.int64)
        self._validate()
        self._index = {int(f): i for i, f in enumerate(self.frame_ids)}

    def _validate(self):
        n = len(self.frame_ids)
        if len(self.xy) != n or len(self.lane_ids) != n:
            raise IntegrityError(
                f"vehicle {self.vehicle_id}: column lengths disagree")
        if n == 0:
            return
        d = np.diff(self.frame_ids)
        if (d <= 0).any():
            raise IntegrityError(
                f"vehicle {self.vehicle_id}: duplicate or non-monotone frames")
        if (self.lane_ids < 1).any():
            raise IntegrityError(f"vehicle {self.vehicle_id}: lane_id < 1")
        dy = np.abs(np.diff(self.xy[:, 1]))
        if (dy > MAX_STEP_M * d).any():
            raise IntegrityError(
                f"vehicle {self.vehicle_id}: implausible longitudinal step")

    def index_of(self, frame):
        return self._index.get(int(frame))

    def position(self, frame):
        i = self.index_of(frame)
        if i is None:
            raise FrameRangeError(
                f"vehicle {self.vehicle_id} has no frame {frame}")
        return self.xy[i]

    def lane_at(self, frame):
        i = self.index_of(frame)
        if i is None:
            raise FrameRangeError(
                f"vehicle {self.vehicle_id} has no frame {frame}")
        return int(self.lane_ids[i])

    def __len__(self):
        return len(self.frame_ids)


class TrackStore:
    """Immutable-after-ingestion collection of tracks with a frame index."""

    def __init__(self, tracks, dataset_tag="", subset_tags=None):
        self.tracks = dict(tracks)   # vehicle_id -> VehicleTrack
        self.dataset_tag = dataset_tag
        # per-vehicle subset membership; defaults to the store tag
        self.subset_tags = dict(subset_tags) if subset_tags else {
            vid: dataset_tag for vid in self.tracks}
        self.frame_index = {}        # frame -> set of vehicle_ids
        for vid, tr in self.tracks.items():
            for f in tr.frame_ids:
                self.frame_index.setdefault(int(f), set()).add(vid)

    def vehicles_at(self, frame):
        return self.frame_index.get(int(frame), set())

    def __len__(self):
        return len(self.tracks)

    @staticmethod
    def merge(stores):
        tracks, tags = {}, {}
        for st in stores:
            for vid, tr in st.tracks.items():
                if vid in tracks:
                    raise IntegrityError(f"vehicle {vid} present in two stores")
                tracks[vid] = tr
                tags[vid] = st.subset_tags.get(vid, st.dataset_tag)
        return TrackStore(tracks, dataset_tag="merged", subset_tags=tags)


@dataclass
class Sample:
    """One prediction instance in the local frame at the query time."""

    history: np.ndarray            # (T_H+1, 14) meters
    future: np.ndarray             # (T_F, 2) meters
    label: ManeuverLabel
    neighbor_mask: np.ndarray      # (6,) bool
    origin: tuple                  # (global x, global y, frame_index)
    vehicle_id: int = 0
    neighbor_ids: tuple = field(default=(None,) * N_NEIGHBORS)


def _split_fields(line, delimiter):
    if delimiter == ",":
        return [s.strip() for s in line.split(",")]
    return line.split()


def parse_trajectories(lines, unit_mode="meters", columns=None,
                       dataset_tag="") -> TrackStore:
    """Parse delimited rows into a TrackStore.

    `lines` is an iterable of text rows (comma or whitespace separated).
    A first row with non-numeric tokens is treated as a header and the
    column names in `columns` (default NGSIM export names) are resolved
    against it; without a header the columns map may give 0-based integer
    indices instead. unit_mode "feet" converts coordinates to meters.
    """
    if unit_mode not in ("feet", "meters"):
        raise SchemaError(f"unknown unit_mode {unit_mode!r}")
    colspec = dict(DEFAULT_COLUMNS)
    if columns:
        colspec.update(columns)
    scale = FEET_TO_METERS if unit_mode == "feet" else 1.0

    rows_by_vehicle = {}
    seen = set()
    col_idx = None
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        delimiter = "," if "," in line else None
        fields = _split_fields(line, "," if delimiter else " ")
        if col_idx is None:
            if any(isinstance(v, str) for v in colspec.values()):
                # need a header row to resolve names
                header = {name: i for i, name in enumerate(fields)}
                col_idx = {}
                for key, name in colspec.items():
                    if isinstance(name, int):
                        col_idx[key] = name
                    elif name in header:
                        col_idx[key] = header[name]
                    else:
                        raise SchemaError(f"missing column {name!r}")
                continue
            col_idx = {k: int(v) for k, v in colspec.items()}
        try:
            vid = int(float(fields[col_idx["vehicle_id"]]))
            frame = int(float(fields[col_idx["frame_id"]]))
            x = float(fields[col_idx["x"]]) * scale
            y = float(fields[col_idx["y"]]) * scale
            lane = int(float(fields[col_idx["lane_id"]]))
        except (IndexError, ValueError) as e:
            raise SchemaError(f"malformed row {line!r}: {e}") from e
        if (vid, frame) in seen:
            raise IntegrityError(f"duplicate (vehicle, frame) = ({vid}, {frame})")
        seen.add((vid, frame))
        rows_by_vehicle.setdefault(vid, []).append((frame, x, y, lane))

    tracks = {}
    for vid, rows in rows_by_vehicle.items():
        rows.sort(key=lambda r: r[0])
        arr = np.array(rows, dtype=np.float64)
        tracks[vid] = VehicleTrack(vid, arr[:, 0].astype(np.int64),
                                   arr[:, 1:3], arr[:, 3].astype(np.int64))
    return TrackStore(tracks, dataset_tag=dataset_tag)


def to_local_frame(store: TrackStore, vehicle_id, t, other_id, s):
    """Position of other_id at frame s relative to vehicle_id at frame t."""
    origin = store.tracks[vehicle_id].position(t)
    pos = store.tracks[other_id].position(s)
    return pos[0] - origin[0], pos[1] - origin[1]


def select_neighbors(store: TrackStore, vehicle_id, t):
    """The six neighbor slots at frame t; absent slots are None.

    For each of {same lane, lane-1 (left), lane+1 (right)} the nearest
    vehicle ahead (smallest positive dy; dy == 0 counts as ahead) and the
    nearest behind (smallest |dy|, dy < 0). Identities are meant to be
    frozen at t by the caller for the whole history window.
    """
    ego = store.tracks[vehicle_id]
    ego_y = ego.position(t)[1]
    ego_lane = ego.lane_at(t)
    lanes = (ego_lane, ego_lane - 1, ego_lane + 1)
    # per lane: (best ahead dy, id), (best behind |dy|, id)
    best = [[None, None] for _ in lanes]
    for other in store.vehicles_at(t):
        if other == vehicle_id:
            continue
        tr = store.tracks[other]
        lane = tr.lane_at(t)
        try:
            k = lanes.index(lane)
        except ValueError:
            continue
        dy = tr.position(t)[1] - ego_y
        side = 0 if dy >= 0 else 1
        key = (abs(dy), other)
        if best[k][side] is None or key < best[k][side]:
            best[k][side] = key
    out = []
    for k in range(3):
        for side in range(2):
            out.append(best[k][side][1] if best[k][side] else None)
    return tuple(out)


def build_sample(store: TrackStore, vehicle_id, t):
    """Build the local-frame Sample at frame t, or None (skip) if the
    vehicle lacks 30 contiguous past or 50 contiguous future frames.

    Neighbor identities are frozen at t; a neighbor missing some history
    frame contributes zeros at just those frames while keeping mask=True.
    """
    track = store.tracks[vehicle_id]
    hist_frames = range(t - HISTORY_FRAMES, t + 1, DOWNSAMPLE)
    fut_frames = range(t + DOWNSAMPLE, t + FUTURE_FRAMES + 1, DOWNSAMPLE)
    needed = range(t - HISTORY_FRAMES, t + FUTURE_FRAMES + 1)
    if any(track.index_of(f) is None for f in needed):
        return None

    origin = track.position(t)
    neighbors = select_neighbors(store, vehicle_id, t)
    mask = np.array([n is not None for n in neighbors])

    history = np.zeros((T_H + 1, N_CHANNELS))
    for i, f in enumerate(hist_frames):
        history[i, 0:2] = to_local_frame(store, vehicle_id, t, vehicle_id, f)
    for slot, nid in enumerate(neighbors):
        if nid is None:
            continue
        ntr = store.tracks[nid]
        for i, f in enumerate(hist_frames):
            if ntr.index_of(f) is not None:
                history[i, 2 + 2 * slot:4 + 2 * slot] = \
                    to_local_frame(store, vehicle_id, t, nid, f)

    future = np.zeros((T_F, 2))
    for i, f in enumerate(fut_frames):
        future[i] = to_local_frame(store, vehicle_id, t, vehicle_id, f)

    lab = maneuvers.label(track, t)
    return Sample(history=history, future=future, label=lab,
                  neighbor_mask=mask,
                  origin=(float(origin[0]), float(origin[1]), int(t)),
                  vehicle_id=vehicle_id, neighbor_ids=neighbors)


def build_samples(store: TrackStore, vehicle_ids=None, stride=DOWNSAMPLE):
    """All buildable samples for the given vehicles (default: all).

    Query times step by `stride` frames so the prediction frame stays
    congruent with the downsampling grid. Returns (samples, n_skipped).
    """
    if vehicle_ids is None:
        vehicle_ids = sorted(store.tracks)
    samples, skipped = [], 0
    for vid in vehicle_ids:
        tr = store.tracks[vid]
        if len(tr) == 0:
            continue
        start = int(tr.frame_ids[0]) + HISTORY_FRAMES
        stop = int(tr.frame_ids[-1]) - FUTURE_FRAMES
        for t in range(start, stop + 1, stride):
            s = build_sample(store, vid, t)
            if s is None:
                skipped += 1
            else:
                samples.append(s)
    return samples, skipped


def split_train_test(store: TrackStore, seed: int):
    """Deterministic 75/25 split of vehicle ids, stratified by subset tag."""
    by_tag = {}
    for vid in sorted(store.tracks):
        by_tag.setdefault(store.subset_tags.get(vid, ""), []).append(vid)
    rng = np.random.default_rng(seed)
    train, test = [], []
    for tag in sorted(by_tag):
        vids = np.array(by_tag[tag])
        rng.shuffle(vids)
        n_test = max(1, len(vids) // 4)
        if len(vids) < 4:
            warnings.warn(
                f"subset {tag!r} has only {len(vids)} vehicles; forcing 1 into test")
        test.extend(vids[:n_test].tolist())
        train.extend(vids[n_test:].tolist())
    return sorted(train), sorted(test)


# ---------------------------------------------------------------------------
# Sample serialization: JSON-lines and a little-endian binary format
# ---------------------------------------------------------------------------


def sample_to_dict(s: Sample) -> dict:
    return {
        "vehicle_id": s.vehicle_id,
        "origin": list(s.origin),
        "lateral": s.label.lateral.name,
        "longitudinal": s.label.longitudinal.name,
        "neighbor_mask": [bool(b) for b in s.neighbor_mask],
        "history": s.history.tolist(),
        "future": s.future.tolist(),
    }


def sample_from_dict(d: dict) -> Sample:
    return Sample(
        history=np.array(d["history"], dtype=np.float64),
        future=np.array(d["future"], dtype=np.float64),
        label=ManeuverLabel(Lateral[d["lateral"]], Longitudinal[d["longitudinal"]]),
        neighbor_mask=np.array(d["neighbor_mask"], dtype=bool),
        origin=tuple(d["origin"]),
        vehicle_id=int(d["vehicle_id"]),
    )


def write_samples_jsonl(path, samples):
    with open(path, "w") as f:
        for s in samples:
            f.write(json.dumps(sample_to_dict(s)) + "\n")


def read_samples_jsonl(path):
    """Read a file written by `write_samples_jsonl`.

    A line that is not a complete sample record raises SchemaError naming
    the path and line.
    """
    samples = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                samples.append(sample_from_dict(json.loads(line)))
            except (KeyError, TypeError, ValueError) as e:
                raise SchemaError(f"{path}:{lineno}: bad sample record: {e!r}") from e
    return samples


_SAMPLE_MAGIC = b"TPSAMP01"


def write_samples_binary(path, samples):
    """Binary sample file.

    Layout: magic "TPSAMP01"; u32 count; u16 history length (T_H+1);
    u16 future length (T_F). Per record: i64 vehicle id, f64 origin x,
    f64 origin y, i64 origin frame, u8 lateral, u8 longitudinal, u8
    neighbor mask bits (slot k -> bit k), then history ((T_H+1) x 14 f64
    row-major) and future (T_F x 2 f64 row-major), all little-endian.
    """
    with open(path, "wb") as f:
        f.write(_SAMPLE_MAGIC)
        f.write(struct.pack("<IHH", len(samples), T_H + 1, T_F))
        for s in samples:
            bits = 0
            for k, b in enumerate(s.neighbor_mask):
                if b:
                    bits |= 1 << k
            f.write(struct.pack("<qddqBBB", s.vehicle_id, s.origin[0],
                                s.origin[1], int(s.origin[2]),
                                int(s.label.lateral), int(s.label.longitudinal),
                                bits))
            f.write(s.history.astype("<f8").tobytes())
            f.write(s.future.astype("<f8").tobytes())


def read_samples_binary(path):
    """Read a file written by `write_samples_binary`.

    The file length is checked against the header's record count before
    any record is read: a foreign, cut or padded file raises SchemaError
    naming the path.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(8) != _SAMPLE_MAGIC:
            raise SchemaError(f"{path}: not a sample file")
        header = f.read(8)
        if len(header) != 8:
            raise SchemaError(f"{path}: truncated sample file header")
        count, hlen, flen = struct.unpack("<IHH", header)
        record = 35 + (hlen * N_CHANNELS + flen * 2) * 8
        if size != 16 + count * record:
            raise SchemaError(
                f"{path}: {size} bytes, but {count} records of {record} "
                f"bytes need {16 + count * record}")
        samples = []
        for i in range(count):
            vid, ox, oy, ofr, lat, lon, bits = struct.unpack("<qddqBBB", f.read(35))
            hist = np.frombuffer(f.read(hlen * N_CHANNELS * 8), dtype="<f8")
            fut = np.frombuffer(f.read(flen * 2 * 8), dtype="<f8")
            try:
                label = ManeuverLabel(Lateral(lat), Longitudinal(lon))
            except ValueError as e:
                raise SchemaError(f"{path}: record {i}: {e}") from e
            samples.append(Sample(
                history=hist.reshape(hlen, N_CHANNELS).copy(),
                future=fut.reshape(flen, 2).copy(),
                label=label,
                neighbor_mask=np.array([(bits >> k) & 1 == 1
                                        for k in range(N_NEIGHBORS)]),
                origin=(ox, oy, int(ofr)),
                vehicle_id=int(vid),
            ))
    return samples
