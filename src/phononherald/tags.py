"""Binary time-tag stream format (little-endian, magic "PTT1").

Header (32 bytes): magic 4s, version u16, reserved u16, config-hash u64
(FNV-1a of the canonical config JSON), trial count u64, record count u64.
Records (24 bytes each): trial_index u64, detector u8, pulse_label u8,
reserved u16 = 0, time_ps u64, pad u32 = 0.

``read_tagstream`` holds the records as a read-only view of the bytes it
read, and ``write_tagstream`` writes their buffer: neither copies them.
A read validates every record's fields but not the record order or
uniqueness that the sampler produces: the analysis ORs each trial's
records into one click pattern per clicked trial, so its results depend
on neither.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"PTT1"
FORMAT_VERSION = 1
HEADER_STRUCT = struct.Struct("<4sHHQQQ")
RECORD_SIZE = 24

WRITE_PULSE = 0
READ_PULSE = 1

RECORD_DTYPE = np.dtype([
    ("trial_index", "<u8"),
    ("detector", "u1"),
    ("pulse_label", "u1"),
    ("reserved", "<u2"),
    ("time_ps", "<u8"),
    ("pad", "<u4"),
])

assert RECORD_DTYPE.itemsize == RECORD_SIZE


class TagFormatError(Exception):
    """Malformed tag-stream file; message carries the byte position."""


@dataclass
class TagStream:
    config_hash: int
    trial_count: int
    records: np.ndarray  # structured array with RECORD_DTYPE

    def __post_init__(self):
        self.records = np.asarray(self.records, dtype=RECORD_DTYPE)

    def __len__(self) -> int:
        return len(self.records)


def make_records(trial_index, detector, pulse_label, time_ps) -> np.ndarray:
    records = np.zeros(len(trial_index), dtype=RECORD_DTYPE)
    records["trial_index"] = trial_index
    records["detector"] = detector
    records["pulse_label"] = pulse_label
    records["time_ps"] = time_ps
    return records


def write_tagstream(stream: TagStream, path) -> None:
    header = HEADER_STRUCT.pack(MAGIC, FORMAT_VERSION, 0,
                                stream.config_hash & 0xFFFFFFFFFFFFFFFF,
                                stream.trial_count, len(stream.records))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(stream.records).data)


def read_tagstream(path) -> TagStream:
    # unbuffered, so the body is read into one bytes object, not joined
    # to a read-ahead buffer
    with open(path, "rb", buffering=0) as fh:
        header, body = fh.read(HEADER_STRUCT.size), fh.read()
    if len(header) < HEADER_STRUCT.size:
        raise TagFormatError(f"truncated header: {len(header)} bytes at position 0")
    magic, version, _reserved, cfg_hash, trial_count, record_count = \
        HEADER_STRUCT.unpack(header)
    if magic != MAGIC:
        raise TagFormatError(f"bad magic {magic!r} at position 0")
    if version != FORMAT_VERSION:
        raise TagFormatError(f"unsupported format version {version}")
    if len(body) % RECORD_SIZE:
        raise TagFormatError(
            f"truncated record at position {HEADER_STRUCT.size + len(body) - len(body) % RECORD_SIZE}")
    records = np.frombuffer(body, dtype=RECORD_DTYPE)  # read-only, not a copy
    if len(records) != record_count:
        raise TagFormatError(
            f"header promises {record_count} records, file holds {len(records)}")
    for bad, what in ((records["detector"] > 1, "invalid detector id"),
                      (records["pulse_label"] > 1, "invalid pulse label"),
                      (records["trial_index"] >= trial_count,
                       "trial index beyond header trial count")):
        if bad.any():
            pos = HEADER_STRUCT.size + int(np.argmax(bad)) * RECORD_SIZE
            raise TagFormatError(f"{what} at position {pos}")
    return TagStream(cfg_hash, trial_count, records)
