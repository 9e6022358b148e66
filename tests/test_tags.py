"""Binary time-tag stream: bit-exact round-trips, malformed-file rejection."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phononherald import tags


def sample_stream(n=100, trials=1000, seed=0):
    rng = np.random.default_rng(seed)
    records = tags.make_records(
        np.sort(rng.integers(0, trials, n).astype(np.uint64)),
        rng.integers(0, 2, n).astype(np.uint8),
        rng.integers(0, 2, n).astype(np.uint8),
        rng.integers(0, 10 ** 6, n).astype(np.uint64))
    return tags.TagStream(0xDEADBEEF, trials, records)


def test_round_trip_bit_exact(tmp_path):
    stream = sample_stream()
    path = tmp_path / "a.tags"
    tags.write_tagstream(stream, path)
    loaded = tags.read_tagstream(path)
    assert loaded.config_hash == stream.config_hash
    assert loaded.trial_count == stream.trial_count
    assert loaded.records.tobytes() == stream.records.tobytes()
    # a second write of the loaded stream is byte-identical
    path2 = tmp_path / "b.tags"
    tags.write_tagstream(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_empty_stream_round_trip(tmp_path):
    stream = tags.TagStream(1, 10, np.zeros(0, dtype=tags.RECORD_DTYPE))
    path = tmp_path / "empty.tags"
    tags.write_tagstream(stream, path)
    loaded = tags.read_tagstream(path)
    assert len(loaded) == 0
    assert loaded.trial_count == 10


def test_read_holds_one_copy_of_the_records(tmp_path):
    # a read checks every record a block at a time and keeps none: its peak
    # is one block and the field checks' temporaries, at any record count
    for n in (100_000, 200_000):
        stream = sample_stream(n=n, trials=10 ** 6)
        path = tmp_path / f"big{n}.tags"
        tags.write_tagstream(stream, path)
        tracemalloc.start()
        try:
            loaded = tags.read_tagstream(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.records.tobytes() == stream.records.tobytes()
        assert peak <= 3 * tags.BLOCK_RECORDS * tags.RECORD_SIZE


def test_blocks_keep_stream_order_at_any_block_size(tmp_path, monkeypatch):
    # a stream of parts writes the bytes of their concatenation, a file's
    # blocks come back in order, and a stream of one array returns it
    stream = sample_stream(n=100)
    parts = [stream.records[:37], stream.records[37:37], stream.records[37:]]
    for size in (1, 7, 100, 4096):
        monkeypatch.setattr(tags, "BLOCK_RECORDS", size)
        path = tmp_path / f"parts{size}.tags"
        tags.write_tagstream(tags.TagStream(stream.config_hash, 1000, parts), path)
        loaded = tags.read_tagstream(path)
        blocks = list(loaded.blocks())
        assert len(loaded) == 100 and max(map(len, blocks)) == min(size, 100)
        assert b"".join(b.tobytes() for b in blocks) == stream.records.tobytes()
        assert loaded.records.tobytes() == stream.records.tobytes()
    one = stream.records
    assert tags.TagStream(0, 1000, one).records is one


def test_bad_field_position_in_a_later_block(tmp_path, monkeypatch):
    monkeypatch.setattr(tags, "BLOCK_RECORDS", 16)
    stream = sample_stream(n=100)
    stream.records["pulse_label"][53] = 2
    path = tmp_path / "late.tags"
    tags.write_tagstream(stream, path)
    with pytest.raises(tags.TagFormatError, match=f"label at position {32 + 53 * 24}$"):
        tags.read_tagstream(path)


def test_file_stream_checks_its_blocks_again(tmp_path):
    # the stream reads its file again on every pass, and checks it again
    path = tmp_path / "again.tags"
    tags.write_tagstream(sample_stream(n=10), path)
    loaded = tags.read_tagstream(path)
    path.write_bytes(path.read_bytes()[:-24])
    with pytest.raises(tags.TagFormatError, match="promises 10 records, file holds 9"):
        list(loaded.blocks())


def test_record_layout_is_24_bytes():
    assert tags.RECORD_DTYPE.itemsize == 24
    assert tags.HEADER_STRUCT.size == 32


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.tags"
    tags.write_tagstream(sample_stream(), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(raw)
    with pytest.raises(tags.TagFormatError, match="magic"):
        tags.read_tagstream(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "bad.tags"
    tags.write_tagstream(sample_stream(), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<H", raw, 4, 9)
    path.write_bytes(raw)
    with pytest.raises(tags.TagFormatError, match="version"):
        tags.read_tagstream(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "short.tags"
    path.write_bytes(b"PTT1\x01\x00")
    with pytest.raises(tags.TagFormatError, match="truncated header"):
        tags.read_tagstream(path)


def test_truncated_record_rejected(tmp_path):
    path = tmp_path / "cut.tags"
    tags.write_tagstream(sample_stream(), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-7])
    with pytest.raises(tags.TagFormatError, match="truncated record"):
        tags.read_tagstream(path)


def test_record_count_mismatch_rejected(tmp_path):
    path = tmp_path / "miscount.tags"
    tags.write_tagstream(sample_stream(n=10), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:32] + raw[32:32 + 24 * 6])
    with pytest.raises(tags.TagFormatError, match="promises"):
        tags.read_tagstream(path)


def test_invalid_detector_rejected(tmp_path):
    stream = sample_stream(n=10)
    stream.records["detector"][3] = 7
    path = tmp_path / "det.tags"
    tags.write_tagstream(stream, path)
    with pytest.raises(tags.TagFormatError, match="detector id at position"):
        tags.read_tagstream(path)


def test_invalid_pulse_label_rejected(tmp_path):
    stream = sample_stream(n=10)
    stream.records["pulse_label"][5] = 2
    path = tmp_path / "lbl.tags"
    tags.write_tagstream(stream, path)
    with pytest.raises(tags.TagFormatError, match="pulse label"):
        tags.read_tagstream(path)


def test_trial_index_beyond_count_rejected(tmp_path):
    stream = sample_stream(n=10, trials=100)
    stream.records["trial_index"][0] = 100
    path = tmp_path / "trial.tags"
    tags.write_tagstream(stream, path)
    with pytest.raises(tags.TagFormatError, match="trial index"):
        tags.read_tagstream(path)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 200), seed=st.integers(0, 2 ** 32 - 1))
def test_round_trip_property(tmp_path_factory, n, seed):
    stream = sample_stream(n=n, seed=seed)
    path = tmp_path_factory.mktemp("tags") / "s.tags"
    tags.write_tagstream(stream, path)
    loaded = tags.read_tagstream(path)
    assert loaded.records.tobytes() == stream.records.tobytes()
