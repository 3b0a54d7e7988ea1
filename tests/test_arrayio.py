import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tapfuse.arrayio import read_array, read_frames, write_array
from tapfuse.errors import DataError, MalformedRecord, TapfuseError


@pytest.mark.parametrize("cut", [5, 8, 11, 16])
def test_truncated_header_is_malformed_record(cut):
    # rank 3 needs 8 + 12 header bytes; cut inside the rank or the dims
    data = write_array(np.zeros((2, 3, 4)))
    with pytest.raises(MalformedRecord):
        read_array(data[:cut])


def test_rank_only_header_is_malformed_record():
    with pytest.raises(MalformedRecord):
        read_array(b"TNS1\x03")


def test_layout_is_magic_rank_dims_payload():
    arr = np.arange(6.0).reshape(2, 3)
    data = write_array(arr)
    assert data == (b"TNS1" + struct.pack("<3I", 2, 2, 3)
                    + struct.pack("<6d", *range(6)))
    # a 0-d array is written as shape (1,)
    assert write_array(np.float64(2.5)) == (b"TNS1" + struct.pack("<2I", 1, 1)
                                            + struct.pack("<d", 2.5))


@pytest.mark.parametrize("arr", [np.zeros(0), np.arange(24.0).reshape(2, 3, 4),
                                 np.ones((3, 0, 2)),
                                 np.arange(12).reshape(3, 4).T])
def test_round_trip_exact(arr):
    back = read_array(write_array(arr))
    assert back.dtype == np.float64 and back.shape == arr.shape
    np.testing.assert_array_equal(back, arr)
    back[...] = 1.0  # the result owns its memory


@pytest.mark.parametrize("data", [
    # 65 dims of 1, more than numpy holds
    b"TNS1" + struct.pack("<66I", 65, *[1] * 65) + b"\x00" * 8,
    # a 0-size shape whose other dims overflow
    b"TNS1" + struct.pack("<4I", 3, 0, 2**32 - 1, 2**32 - 1),
    # a payload one value short, and one value over
    write_array(np.zeros(3))[:-8],
    write_array(np.zeros(3)) + b"\x00" * 8,
], ids=["65_dims", "zero_size_overflow", "payload_short", "payload_long"])
def test_bad_shape_or_payload_is_malformed_record(data):
    with pytest.raises(MalformedRecord):
        read_array(data)


VALID_TNS = write_array(np.arange(6.0).reshape(1, 2, 3))
TNS_MUTATIONS = st.one_of(
    st.binary(max_size=4),
    st.sampled_from([b"\x00", b"\xff", b"\xff\xff\xff\xff", b"\x41\x00\x00\x00",
                     b"\x00\x00\x00\x00", b"TNS1"]))


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, len(VALID_TNS) - 1),
                                TNS_MUTATIONS), min_size=1, max_size=4),
       cut=st.integers(0, len(VALID_TNS) + 8))
def test_mutated_array_file_raises_only_typed_errors(edits, cut):
    """Each edit replaces one byte with a short byte string (a delete,
    replace or insert); then the file is cut at a random length."""
    blob = bytearray(VALID_TNS)
    for pos, repl in edits:
        pos = min(pos, len(blob) - 1)
        blob[pos:pos + 1] = repl
    try:
        arr = read_array(bytes(blob[:cut]))
    except TapfuseError:
        return
    assert arr.dtype == np.float64


# ---------------------------------------------------------------------------
# Reading some frames of a stored video
# ---------------------------------------------------------------------------

VIDEO = np.random.default_rng(3).normal(size=(96, 6, 5))
GOOD_VIDEO = write_array(VIDEO)


@pytest.mark.parametrize("indices", [range(1), range(0, 96, 16), range(5, 96, 7),
                                     range(95, 96), range(96)])
def test_frames_equal_the_whole_array_indexed(tmp_path, indices):
    path = tmp_path / "video.tns"
    path.write_bytes(GOOD_VIDEO)
    got = read_frames(path, indices)
    want = read_array(path.read_bytes())[indices]
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


BAD_VIDEOS = {
    "bad_magic": (b"TNS2" + GOOD_VIDEO[4:], MalformedRecord),
    "cut_header": (GOOD_VIDEO[:14], MalformedRecord),
    "payload_byte_short": (GOOD_VIDEO[:-1], MalformedRecord),
    "trailing_byte": (GOOD_VIDEO + b"\x00", MalformedRecord),
    "rank_2": (write_array(VIDEO[0]), DataError),
    "short_video": (write_array(VIDEO[:80]), DataError),
}


@pytest.mark.parametrize("case", sorted(BAD_VIDEOS))
def test_bad_video_keeps_its_error_type(tmp_path, case):
    """The same exception type as reading the whole file and checking its
    rank and length: a broken record is MalformedRecord, a well-formed
    array of the wrong rank or too few frames a plain DataError."""
    data, error = BAD_VIDEOS[case]
    path = tmp_path / "video.tns"
    path.write_bytes(data)
    with pytest.raises(DataError) as info:
        read_frames(path, range(0, 96, 16))
    assert type(info.value) is error


@pytest.mark.parametrize("indices, message", [
    ([], "no frame index"),
    ([-1], "frame index = -1 is outside its domain 0..95"),
    ([0, 96], "frame index = 96 is outside its domain 0..95")])
def test_index_outside_the_video_is_data_error_naming_it(tmp_path, indices,
                                                         message):
    """An empty list raised IndexError and -1 an OSError from a negative
    seek."""
    path = tmp_path / "video.tns"
    path.write_bytes(GOOD_VIDEO)
    with pytest.raises(DataError, match=message) as info:
        read_frames(path, indices)
    assert type(info.value) is DataError


@pytest.mark.parametrize("indices", [[0.5], [0, np.float64(16.0)], ["1"]])
def test_index_that_is_not_an_integer_is_data_error_naming_it(tmp_path,
                                                               indices):
    """0.5 raised a TypeError from seek."""
    path = tmp_path / "video.tns"
    path.write_bytes(GOOD_VIDEO)
    message = re.escape(f"frame index = {indices[-1]!r} is outside its "
                        f"domain 0..95")
    with pytest.raises(DataError, match=message) as info:
        read_frames(path, indices)
    assert type(info.value) is DataError


def test_indices_are_read_in_their_order(tmp_path):
    path = tmp_path / "video.tns"
    path.write_bytes(GOOD_VIDEO)
    indices = [np.int64(7), 3, 7, 0]
    assert read_frames(path, indices).tobytes() == VIDEO[[7, 3, 7, 0]].tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_frame_read_is_data_error_naming_it(tmp_path, value):
    """A non-finite value in a frame that is read raises DataError naming
    that frame; the same value in a frame that is not read is never seen."""
    video = VIDEO.copy()
    video[32, 4, 1] = value
    video[34, 0, 0] = value
    path = tmp_path / "video.tns"
    path.write_bytes(write_array(video))
    with pytest.raises(DataError, match=r"frame 32 holds a non-finite") as info:
        read_frames(path, range(0, 96, 16))
    assert type(info.value) is DataError
    got = read_frames(path, range(1, 96, 16))
    assert got.tobytes() == VIDEO[1::16].tobytes()


def test_six_of_96_frames_allocate_six_frames(tmp_path):
    video = np.zeros((96, 64, 64))
    path = tmp_path / "video.tns"
    path.write_bytes(write_array(video))
    frame = video[0].nbytes
    tracemalloc.start()
    try:
        frames = read_frames(path, range(0, 96, 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frames.shape == (6, 64, 64)
    assert 6 * frame <= peak < 7 * frame
