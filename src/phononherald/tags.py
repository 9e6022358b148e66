"""Binary time-tag stream format (little-endian, magic "PTT1").

Header (32 bytes): magic 4s, version u16, reserved u16, config-hash u64
(FNV-1a of the canonical config JSON), trial count u64, record count u64.
Records (24 bytes each): trial_index u64, detector u8, pulse_label u8,
reserved u16 = 0, time_ps u64, pad u32 = 0.

Records move in blocks of at most BLOCK_RECORDS, so no stage holds an
array as large as the stream. A file stream reads and checks its blocks
each time they are iterated (so it cannot be written over its own file).
The checks cover every record's fields but not the record order or
uniqueness that the sampler produces: the analysis ORs each trial's
records into one click pattern per clicked trial, so its results depend
on neither.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"PTT1"
FORMAT_VERSION = 1
HEADER_STRUCT = struct.Struct("<4sHHQQQ")
RECORD_SIZE = 24
BLOCK_RECORDS = 1 << 13  # 192 kB of records: temporaries per block stay small

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


class TagStream:
    """A stream's header fields and its records in stream order: one
    RECORD_DTYPE array, a list of them (a sampled stream's parts), or a
    function that yields them afresh on each call, counted here."""

    def __init__(self, config_hash: int, trial_count: int, records):
        parts = records if isinstance(records, list) else [records]
        self.config_hash, self.trial_count = config_hash, trial_count
        self._parts = records if callable(records) else lambda: parts
        self._count = sum(map(len, self._parts()))

    def __len__(self) -> int:
        return self._count

    def blocks(self):
        """The records in stream order, at most BLOCK_RECORDS at a time."""
        for part in self._parts():
            yield from (part[i:i + BLOCK_RECORDS] for i in range(0, len(part), BLOCK_RECORDS))

    @property
    def records(self) -> np.ndarray:
        """Every record in one array; a stream made of one array returns it."""
        parts = list(self._parts())
        return parts[0] if len(parts) == 1 else np.concatenate(
            [np.zeros(0, dtype=RECORD_DTYPE), *parts])


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
                                stream.trial_count, len(stream))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.writelines(np.ascontiguousarray(block).data for block in stream.blocks())


def read_tagstream(path) -> TagStream:
    with open(path, "rb") as fh:
        header = fh.read(HEADER_STRUCT.size)
    if len(header) < HEADER_STRUCT.size:
        raise TagFormatError(f"truncated header: {len(header)} bytes at position 0")
    magic, version, _reserved, cfg_hash, trial_count, record_count = \
        HEADER_STRUCT.unpack(header)
    if magic != MAGIC:
        raise TagFormatError(f"bad magic {magic!r} at position 0")
    if version != FORMAT_VERSION:
        raise TagFormatError(f"unsupported format version {version}")

    def blocks():
        with open(path, "rb") as fh:
            size = fh.seek(0, 2)
            if (body := size - HEADER_STRUCT.size) % RECORD_SIZE:
                raise TagFormatError(f"truncated record at position {size - body % RECORD_SIZE}")
            if body // RECORD_SIZE != record_count:
                raise TagFormatError(f"header promises {record_count} records, "
                                     f"file holds {body // RECORD_SIZE}")
            fh.seek(HEADER_STRUCT.size)
            for start in range(0, record_count, BLOCK_RECORDS):
                block = np.frombuffer(fh.read(min(BLOCK_RECORDS, record_count - start)
                                              * RECORD_SIZE), dtype=RECORD_DTYPE)
                for bad, what in ((block["detector"] > 1, "invalid detector id"),
                                  (block["pulse_label"] > 1, "invalid pulse label"),
                                  (block["trial_index"] >= trial_count,
                                   "trial index beyond header trial count")):
                    if bad.any():
                        pos = HEADER_STRUCT.size + (start + int(np.argmax(bad))) * RECORD_SIZE
                        raise TagFormatError(f"{what} at position {pos}")
                yield block

    return TagStream(cfg_hash, trial_count, blocks)  # counting its records checks them
