import gzip
import hashlib
import io
import math
import os
import random
import threading
import tracemalloc
import weakref
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bllrec import ingest
from bllrec.cli import main
from bllrec.errors import DataError, ParseError, UsageError
from bllrec.ingest import (
    INT64_MAX,
    MAX_COLUMN,
    ColumnSchema,
    EventLog,
    IdMaps,
    build_user_histories,
    load_events,
    parse_event_line,
    write_events_tsv,
)
from bllrec.synth import SynthConfig, generate_synthetic

from conftest import LFM_SCHEMA, PROTOCOL, SIMPLE_SCHEMA, histories_from_events, log_from_events, user_slice
from oracles import events_by_user, per_user_histories



@contextmanager
def _open_text(source):
    """A text handle on a path, a text stream or a binary stream; closes only what it opened."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        opener = gzip.open if path.suffix == ".gz" else open
        with opener(path, "rt", encoding="utf-8", errors="surrogateescape") as handle:
            yield handle
    elif isinstance(source, io.TextIOBase):
        yield source
    else:
        wrapper = io.TextIOWrapper(source, encoding="utf-8", errors="surrogateescape")
        try:
            yield wrapper
        finally:
            wrapper.detach()


def oracle_load(source, schema, on_error="skip"):
    """The line-at-a-time loader, kept as the reference: ``parse_event_line`` over
    the lines a text handle yields, ids interned in line order."""
    users: dict[str, int] = {}
    artists: dict[str, int] = {}
    events = []
    skipped = 0
    with _open_text(source) as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                user_key, artist_key, ts = parse_event_line(line, schema, line_no)
            except ParseError:
                if on_error == "fail":
                    raise
                skipped += 1
                continue
            events.append((users.setdefault(user_key, len(users)), artists.setdefault(artist_key, len(artists)), ts))
    return events, [list(users), list(artists)], skipped


def _keys(id_maps):
    return [id_maps.users.keys(), id_maps.artists.keys()]


def summary(log, skipped):
    """What ``oracle_load`` returns, from a loaded log; also checks the arrays' types.

    Timestamps are uint32 unless some timestamp is 2**32 or more; then they are int64.
    """
    events = list(zip(log.users.tolist(), log.artists.tolist(), log.timestamps.tolist()))
    ts_type = np.int64 if any(ts >= 2**32 for _, _, ts in events) else np.uint32
    assert (log.users.dtype, log.artists.dtype, log.timestamps.dtype) == (np.int32, np.int32, ts_type)
    assert not any(arr.flags.writeable for arr in (log.users, log.artists, log.timestamps))
    return events, _keys(log.id_maps), skipped


def oracle_outcome(source, schema, on_error):
    """``("ok", oracle_load(...))``, or ``("error", line number)`` of its ParseError."""
    try:
        return "ok", oracle_load(source, schema, on_error)
    except ParseError as exc:
        return "error", exc.line_no


@pytest.fixture
def truncated_gz(tmp_path):
    """A gzip-compressed synthetic log with the second half of its bytes cut off."""
    plain = tmp_path / "events.tsv"
    write_events_tsv(generate_synthetic(SynthConfig(n_users=20, n_artists=50, events_per_user=(20, 40))), plain)
    compressed = gzip.compress(plain.read_bytes())
    path = tmp_path / "events.tsv.gz"
    path.write_bytes(compressed[: len(compressed) // 2])
    return path


@pytest.fixture(params=["flipped", "bad-crc", "not-gzip"])
def corrupt_gz(request, tmp_path):
    """A synthetic log named ``.gz``: gzip with 100 bytes flipped mid-stream or a
    wrong CRC, or the plain bytes. Returns the path and its messages' pattern."""
    plain = tmp_path / "events.tsv"
    write_events_tsv(generate_synthetic(SynthConfig(n_users=20, n_artists=50, events_per_user=(20, 40))), plain)
    data = bytearray(gzip.compress(plain.read_bytes()))
    if request.param == "flipped":
        mid = len(data) // 2
        data[mid : mid + 100] = bytes(b ^ 0xFF for b in data[mid : mid + 100])
        pattern = r"corrupt after line [1-9]\d*: Error -3 while decompressing"
    elif request.param == "bad-crc":
        data[-8] ^= 1  # the CRC-32 is checked once the whole stream is read
        pattern = r"corrupt after line [1-9]\d*: CRC check failed"
    else:
        data = plain.read_bytes()
        pattern = r"corrupt after line 0: Not a gzipped file"
    path = tmp_path / "events.tsv.gz"
    path.write_bytes(data)
    return path, pattern


class TestParseEventLine:
    def test_lfm_layout(self):
        line = "31435741\t2\t4\t10\t1385212958"
        assert parse_event_line(line, LFM_SCHEMA) == ("31435741", "2", 1385212958)

    def test_non_integer_timestamp(self):
        with pytest.raises(ParseError, match="non-integer timestamp"):
            parse_event_line("u1\ta9\tx", SIMPLE_SCHEMA, line_no=7)
        try:
            parse_event_line("u1\ta9\tx", SIMPLE_SCHEMA, line_no=7)
        except ParseError as exc:
            assert exc.line_no == 7

    @pytest.mark.parametrize("raw", ["1_000", " \u0661\u0662\u0663", "+7 ", "+7", "7 ", "\u0667", "-"])
    def test_timestamp_is_ascii_digits_only(self, raw):
        # int() accepts all of these; each must fail as a line with a non-integer timestamp does.
        with pytest.raises(ParseError, match="non-integer timestamp") as info:
            load_events(io.BytesIO(f"u\ta\t3\nu\ta\t{raw}\n".encode()), SIMPLE_SCHEMA, on_error="fail")
        assert info.value.line_no == 2

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="columns"):
            parse_event_line("u1\ta9", LFM_SCHEMA, line_no=3)

    def test_negative_timestamp(self):
        with pytest.raises(ParseError, match="negative"):
            parse_event_line("u1\ta9\t-5", SIMPLE_SCHEMA)
        with pytest.raises(ParseError, match="non-integer"):
            parse_event_line("u1\ta9\t--5", SIMPLE_SCHEMA)

    def test_extra_columns_ignored(self):
        assert parse_event_line("u\ta\t3\tjunk\tmore", SIMPLE_SCHEMA) == ("u", "a", 3)

    def test_timestamp_beyond_int64(self):
        assert parse_event_line(f"u\ta\t{INT64_MAX}", SIMPLE_SCHEMA)[2] == INT64_MAX
        with pytest.raises(ParseError, match="int64") as info:
            parse_event_line(f"u\ta\t{INT64_MAX + 1}", SIMPLE_SCHEMA, line_no=4)
        assert info.value.line_no == 4

    def test_undecodable_bytes(self):
        assert parse_event_line("u\tcafé\t3", SIMPLE_SCHEMA) == ("u", "café", 3)
        line = b"u\ta\xff\xfe\t3".decode("utf-8", "surrogateescape")
        with pytest.raises(ParseError, match="UTF-8") as info:
            parse_event_line(line, SIMPLE_SCHEMA, line_no=5)
        assert info.value.line_no == 5


class TestColumnSchema:
    def test_parse_spec(self):
        schema = ColumnSchema.parse("user=0,artist=1,ts=4")
        assert (schema.user, schema.artist, schema.ts) == (0, 1, 4)
        assert schema.min_columns == 5
        assert ColumnSchema.parse(f"user=0,artist=1,ts={MAX_COLUMN}").ts == MAX_COLUMN

    def test_bad_specs(self):
        for spec in ("user=0,artist=1", "user=x,artist=1,ts=2", "nope=1", "user=0,artist=0,ts=1",
                     f"user=0,artist=1,ts={MAX_COLUMN + 1}", "user=0,artist=1,ts=99999999999999999999",
                     "user=0,artist=1,ts=4,ts=2"):
            with pytest.raises(UsageError):
                ColumnSchema.parse(spec)


class TestLoadEvents:
    def test_counts(self):
        text = "u1\ta1\t10\nu2\ta1\t11\nu1\ta2\t12\n"
        log, skipped = load_events(io.BytesIO(text.encode()), SIMPLE_SCHEMA, "skip")
        assert len(log) == 3
        assert len(log.id_maps.users) == 2
        assert len(log.id_maps.artists) == 2
        assert skipped == 0

    def test_skip_and_count(self):
        text = "u1\ta1\t10\nbroken line\nu1\ta2\t12\n"
        log, skipped = load_events(io.BytesIO(text.encode()), SIMPLE_SCHEMA, on_error="skip")
        assert len(log) == 2
        assert skipped == 1

    def test_fail_fast_carries_line_number(self):
        text = "u1\ta1\t10\nu1\ta2\tbad\n"
        with pytest.raises(ParseError) as info:
            load_events(io.BytesIO(text.encode()), SIMPLE_SCHEMA, on_error="fail")
        assert info.value.line_no == 2

    def test_deterministic_reload(self):
        text = "b\tx\t5\na\tx\t4\nb\ty\t6\n"
        log1, _ = load_events(io.BytesIO(text.encode()), SIMPLE_SCHEMA, "skip")
        log2, _ = load_events(io.BytesIO(text.encode()), SIMPLE_SCHEMA, "skip")
        assert np.array_equal(log1.users, log2.users)
        assert np.array_equal(log1.artists, log2.artists)
        assert np.array_equal(log1.timestamps, log2.timestamps)
        # first-seen id assignment: user "b" was seen first
        assert log1.id_maps.users.keys() == ["b", "a"]

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "events.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("u1\ta1\t10\nu1\ta2\t11\n")
        log, skipped = load_events(path, SIMPLE_SCHEMA, "skip")
        assert len(log) == 2 and skipped == 0

    @pytest.mark.parametrize("on_error", ["skip", "fail"])
    def test_truncated_gzip_is_data_error(self, truncated_gz, on_error):
        with pytest.raises(DataError, match=r"truncated after line [1-9]"):
            load_events(truncated_gz, LFM_SCHEMA, on_error=on_error)

    def test_truncated_gzip_exits_with_data_error(self, truncated_gz, capsys):
        assert main(["ingest", "--events", str(truncated_gz)]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("on_error", ["skip", "fail"])
    def test_corrupt_gzip_is_data_error(self, corrupt_gz, on_error):
        path, pattern = corrupt_gz
        # Small chunks, so that whole lines come out before the corrupt bytes are reached.
        with mock.patch.object(ingest, "CHUNK_SIZE", 1024), pytest.raises(DataError, match=pattern):
            load_events(path, LFM_SCHEMA, on_error=on_error)

    def test_corrupt_gzip_exits_with_data_error(self, corrupt_gz, capsys):
        assert main(["run", "--events", str(corrupt_gz[0]), "--out-dir", str(corrupt_gz[0].parent / "out")]) == 2
        err = capsys.readouterr().err
        assert "data error: ingest: compressed input is corrupt" in err and "Traceback" not in err

    def test_bad_policy(self):
        with pytest.raises(UsageError):
            load_events(io.BytesIO(b""), SIMPLE_SCHEMA, on_error="explode")

    def test_binary_stream_left_open(self):
        stream = io.BytesIO(b"u1\ta1\t10\n")
        log, _ = load_events(stream, SIMPLE_SCHEMA, "skip")
        assert len(log) == 1
        assert not stream.closed

    @pytest.mark.parametrize("bad", [b"u1\ta1\t99999999999999999999\n", b"u1\ta\xff\xfe\t11\n"])
    def test_overflow_and_undecodable_lines(self, tmp_path, bad):
        data = b"u1\ta1\t10\n" + bad + b"u2\ta2\t12\n"
        plain, gz = tmp_path / "events.tsv", tmp_path / "events.tsv.gz"
        plain.write_bytes(data)
        gz.write_bytes(gzip.compress(data))
        for source in (plain, gz, io.BytesIO(data)):
            log, skipped = load_events(source, SIMPLE_SCHEMA, on_error="skip")
            assert (log.timestamps.tolist(), skipped) == ([10, 12], 1)
        with pytest.raises(ParseError) as info:
            load_events(io.BytesIO(data), SIMPLE_SCHEMA, on_error="fail")
        assert info.value.line_no == 2


_FIELD = st.one_of(
    st.binary(max_size=6),
    st.sampled_from([b"u1", b"a\xff", b"\xc3\xa9", b"0", b"-1", b"99999999999999999999", str(INT64_MAX).encode()]),
)
_LINE = st.one_of(st.binary(max_size=30), st.lists(_FIELD, min_size=1, max_size=5).map(b"\t".join))
_DATA = st.lists(_LINE, max_size=12).map(b"\n".join)


class TestArbitraryBytes:
    @settings(max_examples=300, deadline=None)
    @given(data=_DATA, on_error=st.sampled_from(["skip", "fail"]))
    def test_load_or_data_error(self, data, on_error):
        try:
            log, skipped = load_events(io.BytesIO(data), SIMPLE_SCHEMA, on_error=on_error)
        except DataError:  # ParseError is a DataError
            assert on_error == "fail"
            return
        n_lines = len(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape").readlines())
        assert len(log) + skipped == n_lines
        for ids in (log.id_maps.users, log.id_maps.artists):
            for key in ids.keys():
                key.encode("utf-8")


_CLEAN_KEY = st.sampled_from([b"u1", b"u2", b"a", b"17", b"", "é".encode(), "ключ".encode(), b"x" * 8, b"x" * 9])
_ODD_KEY = st.sampled_from([b"k\x00", b"\x00", b"a\xff", b"\xfe", b"y" * 200])
_TIMESTAMP = st.one_of(
    st.integers(0, 10**12).map(lambda t: str(t).encode()),
    st.sampled_from(
        [b"+5", b" 5", b"5 ", b"1_0", "٥".encode(), "१२".encode(), b"007", b"", b"-3", b"x", b"0x1f",
         str(INT64_MAX).encode(), str(INT64_MAX + 1).encode(), b"1" * 19, b"9" * 19, b"0" * 20 + b"7", b"1" * 18]
    ),
)


def _log(odd: bool):
    """Logs of well-formed, ragged and (when ``odd``) arbitrary lines; only ``odd``
    logs have NULs, bytes that are not UTF-8 and lone \\r line ends."""
    key = st.one_of(_CLEAN_KEY, _CLEAN_KEY, _ODD_KEY) if odd else _CLEAN_KEY
    well_formed = st.tuples(key, key, _TIMESTAMP).map(b"\t".join)
    ragged = st.lists(st.one_of(key, _TIMESTAMP), max_size=5).map(b"\t".join)
    line = st.one_of(well_formed, well_formed, ragged, st.binary(max_size=12)) if odd else st.one_of(well_formed, ragged)
    newline = st.sampled_from([b"\n"] * 4 + [b"\r\n", b"\r"]) if odd else st.just(b"\n")
    return st.tuples(st.lists(st.tuples(line, newline), max_size=25), st.booleans()).map(
        lambda t: b"".join(line + newline for line, newline in t[0]) + (b"u9\ta9\t9" if t[1] else b"")
    )


_LOG = st.booleans().flatmap(_log)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("differential")


class TestAgainstLineOracle:
    """The chunk parser gives the line-at-a-time loader's log, skip count and failing line."""

    @settings(max_examples=400, deadline=None)
    @given(
        data=_LOG,
        kind=st.sampled_from(["path", "gz", "bytes"]),
        schema=st.sampled_from([SIMPLE_SCHEMA, ColumnSchema(user=2, artist=0, ts=1)]),
        on_error=st.sampled_from(["skip", "fail"]),
        chunk_size=st.sampled_from([1, 3, 16, 64, ingest.CHUNK_SIZE]),
    )
    def test_same_as_oracle(self, scratch_dir, data, kind, schema, on_error, chunk_size):
        path = None
        if kind in ("path", "gz"):
            path = scratch_dir / ("events.tsv.gz" if kind == "gz" else "events.tsv")
            path.write_bytes(gzip.compress(data) if kind == "gz" else data)
            sources = (path, path)
        else:
            sources = (io.BytesIO(data), io.BytesIO(data))
        expected = oracle_outcome(sources[0], schema, on_error)
        with mock.patch.object(ingest, "CHUNK_SIZE", chunk_size):
            try:
                log, skipped = load_events(sources[1], schema, on_error=on_error)
            except ParseError as exc:
                assert ("error", exc.line_no) == expected
                return
        assert ("ok", summary(log, skipped)) == expected
        assert log.sha256 == (hashlib.sha256(path.read_bytes()).hexdigest() if path else None)


@pytest.mark.parametrize("chunk_size", [1, 5, ingest.CHUNK_SIZE])
@pytest.mark.parametrize(
    "data",
    [b"u1\ta1\t10\r\nu2\ta2\t11\r\n", b"u1\ta1\t10\r\r\nu2\ta2\t11\r\n", b"u1\ta1\t10\r\nu2\ta2\t11\r"],
    ids=["crlf", "cr-crlf", "final-cr"],
)
def test_crlf_matches_oracle(chunk_size, data):
    with mock.patch.object(ingest, "CHUNK_SIZE", chunk_size):
        log, skipped = load_events(io.BytesIO(data), SIMPLE_SCHEMA, "skip")
    assert summary(log, skipped) == oracle_load(io.BytesIO(data), SIMPLE_SCHEMA)


def test_lone_cr_line_ends_cut_blocks():
    """A log whose lines end in a lone \\r is parsed in blocks near ``CHUNK_SIZE``, not as one block."""
    data = b"".join(f"u{i % 7}\ta{i % 13}\t{1000 + i}\r".encode() for i in range(400))
    chunk_size = 256
    assert len(data) > 10 * chunk_size
    with (
        mock.patch.object(ingest, "CHUNK_SIZE", chunk_size),
        mock.patch.object(ingest._ChunkParser, "add", autospec=True, side_effect=ingest._ChunkParser.add) as spy,
    ):
        log, skipped = load_events(io.BytesIO(data), SIMPLE_SCHEMA, "skip")
    blocks = [len(call.args[1]) for call in spy.call_args_list]
    assert len(blocks) > 1 and max(blocks) < 2 * chunk_size
    assert summary(log, skipped) == oracle_load(io.BytesIO(data), SIMPLE_SCHEMA)


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gz"])
@pytest.mark.parametrize("line", [0, 300], ids=["first-block", "later-block"])
@pytest.mark.parametrize("value", [2**32 - 1, 2**32])
def test_timestamp_column_widens_once_past_uint32(tmp_path, compress, line, value):
    """Timestamps stay uint32 up to 2**32 - 1; a 2**32 in any block makes the whole column int64."""
    lines = [f"u{i % 7}\ta{i % 13}\t{1000 + i}\n".encode() for i in range(400)]
    lines[line] = f"u1\ta1\t{value}\n".encode()
    lines[-1] = f"u2\ta2\t{2**32 - 1}\n".encode()
    data = b"".join(lines)
    chunk_size = 256
    assert len(data) > 10 * chunk_size
    path = tmp_path / ("events.tsv.gz" if compress else "events.tsv")
    path.write_bytes(gzip.compress(data) if compress else data)
    with mock.patch.object(ingest, "CHUNK_SIZE", chunk_size):
        log, skipped = load_events(path, SIMPLE_SCHEMA, "skip")
    assert log.timestamps.dtype == (np.int64 if value >= 2**32 else np.uint32)
    assert log.timestamps[line] == value and log.timestamps[-1] == 2**32 - 1
    assert summary(log, skipped) == oracle_load(path, SIMPLE_SCHEMA)


VECTOR_EDGE_LINES = [
    b"u1\ta1\t0\t0\t0\n",
    b"u1\ta2\t0\t0\t999999999999999999\n",  # 18 digits, the most numpy parses
    b"u2\ta1\t0\t0\t007\n",
    b"u2\ta2\t0\t0\t000000000000000042\n",
    b"user-008\t" + "ключ".encode() + b"\t0\t0\t11\n",  # keys of 8 bytes, one of them 4 two-byte letters
    "ключ\tartist08\t0\t0\t12\n".encode(),
]


def _mixed_log(path: Path, compress: bool) -> bytes:
    """Write a synth log with lines of every kind the chunk parser hands to
    ``parse_event_line``; returns its uncompressed bytes.

    A line with a byte that is not UTF-8, one with a NUL and one ending in
    ``\\r\\n`` come last, so that the blocks before them hold valid UTF-8.
    ``VECTOR_EDGE_LINES`` come first, so that a first block of 4096 bytes or
    more holds at once every width of timestamp and key that numpy parses.
    """
    plain = path.with_suffix(".plain")
    write_events_tsv(generate_synthetic(SynthConfig(n_users=40, n_artists=60, events_per_user=(15, 30))), plain)
    lines = VECTOR_EDGE_LINES + plain.read_bytes().splitlines(keepends=True)
    one_at_a_time = [
        b"u1\ta1\t0\t0\n",  # too few columns
        b"u1\ta1\t0\t0\t+5\n",
        b"new-user\ta1\t0\t0\t0000000000000000007\n",  # 19 digits: only parse_event_line reads it
        b"u1\tnew-artist\t0\t0\t" + str(INT64_MAX).encode() + b"\n",
        b"u2\ta2\t0\t0\t5\textra\n",
        "ü\tkünstler\t0\t0\t12\n".encode(),
        b"\n",
        b"u1\t" + b"z" * 300 + b"\t0\t0\t12\n",
    ]
    for i, line in enumerate(one_at_a_time):
        lines.insert(90 * i + 7, line)
    lines[-4:-4] = [b"u1\ta\xff\t0\t0\t12\n", b"u\x00\ta1\t0\t0\t12\n", b"u1\ta1\t0\t0\t3\r\n"]
    data = b"".join(lines).rstrip(b"\n")
    path.write_bytes(gzip.compress(data) if compress else data)
    return data


class TestChunkBoundaries:
    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gz"])
    def test_any_chunk_size_gives_the_same_log(self, tmp_path, compress):
        path = tmp_path / ("events.tsv.gz" if compress else "events.tsv")
        data = _mixed_log(path, compress)
        expected = oracle_load(path, LFM_SCHEMA)
        assert expected[2] == 4  # the short line, the '+5' timestamp, the empty line and the undecodable line
        for size in (1, 2, 7, 4096, path.stat().st_size + 1):
            with mock.patch.object(ingest, "CHUNK_SIZE", size), \
                    mock.patch.object(ingest, "parse_event_line", wraps=ingest.parse_event_line) as spy:
                log, skipped = load_events(path, LFM_SCHEMA, "skip")
            assert summary(log, skipped) == expected, size
            # Read as one block, which also holds the \\xff line, the edge lines with a
            # byte that is not ASCII are left to parse_event_line.
            one_at_a_time = {call.args[2] for call in spy.call_args_list} & set(range(1, len(VECTOR_EDGE_LINES) + 1))
            assert one_at_a_time == ({5, 6} if size > len(data) else set()), size
            assert log.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_two_member_gzip_loads_like_gzip_open(self, tmp_path):
        path = tmp_path / "events.tsv.gz"
        path.write_bytes(gzip.compress(b"u1\ta1\t10\nu2\ta") + gzip.compress(b"2\t11\nu1\ta3\t12\n"))
        log, skipped = load_events(path, SIMPLE_SCHEMA, "skip")
        assert summary(log, skipped) == oracle_load(path, SIMPLE_SCHEMA)
        assert log.timestamps.tolist() == [10, 11, 12]


def test_only_odd_lines_go_to_parse_event_line():
    """In one block of good lines, only the line with \\xff and the line with a NUL
    go through ``parse_event_line``; the line ending in a lone \\r and the line
    with an extra column do not."""
    lines = [f"u{i % 7}\ta{i % 13}\t{1000 + i}\n".encode() for i in range(300)]
    lines[100] = b"u1\ta\xff\t5\n"
    lines[150] = b"u\x00\ta2\t6\n"
    lines[200] = b"u3\ta3\t7\r"
    lines[250] = b"u4\tnew\t8\textra\n"
    data = b"".join(lines)
    assert len(data) < ingest.CHUNK_SIZE
    with mock.patch.object(ingest, "parse_event_line", wraps=ingest.parse_event_line) as spy:
        log, skipped = load_events(io.BytesIO(data), SIMPLE_SCHEMA, "skip")
    assert [call.args[2] for call in spy.call_args_list] == [101, 151]
    assert summary(log, skipped) == oracle_load(io.BytesIO(data), SIMPLE_SCHEMA)
    assert skipped == 1 and "u\x00" in log.id_maps.users.keys()


def _load_keys(keys, chunk_size=ingest.CHUNK_SIZE):
    """The user ids and user map of a log whose lines have ``keys`` as user keys, in order."""
    data = b"".join(key.encode() + b"\ta\t" + str(i).encode() + b"\n" for i, key in enumerate(keys))
    with mock.patch.object(ingest, "CHUNK_SIZE", chunk_size):
        log, skipped = load_events(io.BytesIO(data), SIMPLE_SCHEMA, "skip")
    assert summary(log, skipped) == oracle_load(io.BytesIO(data), SIMPLE_SCHEMA)
    return log.users.tolist(), log.id_maps.users


class TestIdMap:
    """Keys of at most 8 bytes without a NUL are held as uint64 codes, others in a dict."""

    def test_nul_keys_stay_distinct_from_their_stripped_twins(self):
        keys = ["u", "u\x00", "", "\x00", "\x00u", "u\x00\x00"]
        for chunk_size in (1, ingest.CHUNK_SIZE):
            users, id_map = _load_keys(keys + keys[::-1], chunk_size)
            assert users == [0, 1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 0]
            assert id_map.keys() == keys

    def test_keys_of_8_bytes_are_codes_and_longer_ones_are_not(self):
        short = ["x" * 8, "ключ", "é", "a"]
        long = ["x" * 9, "xxxxxxxxy", "ключи", "ü" * 5]
        odd = ["", "\x00", "u\x00", "abc\x00defg"]
        keys = short + long + odd
        codes = ingest.IdMap().code_all(keys)
        fits = codes < np.uint64(ingest._LONG)
        assert fits.tolist() == [True] * 4 + [False] * 4 + [True, False, False, False]
        coded = [key for key, fit in zip(keys, fits) if fit]
        assert codes[fits].tolist() == [int.from_bytes(key.encode(), "little") for key in coded]
        assert codes[~fits].tolist() == [ingest._LONG | i for i in range(7)]
        users, id_map = _load_keys(short + long + short + long)
        assert users == list(range(8)) * 2
        assert id_map.keys() == short + long
        assert id_map._long_codes == {key: ingest._LONG | i for i, key in enumerate(long)}

    def test_each_key_is_coded_at_most_once_per_block(self):
        # Long keys repeat within each block, and later blocks bring back those already seen.
        keys = [f"long-user-{i // 40}" if i % 3 else f"u{i % 11}" for i in range(400)]
        blocks, calls = [], []
        add, code_all = ingest._ChunkParser.add, ingest.IdMap.code_all

        def add_spy(parser, data):
            blocks.append(data)
            add(parser, data)

        def code_all_spy(id_map, block_keys):
            calls.append((id_map, block_keys))
            return code_all(id_map, block_keys)

        with mock.patch.object(ingest._ChunkParser, "add", add_spy), \
                mock.patch.object(ingest.IdMap, "code_all", code_all_spy):
            _, id_map = _load_keys(keys, chunk_size=1024)
        coded = [block_keys for owner, block_keys in calls if owner is id_map]
        assert 2 < len(coded) <= len(blocks)  # several blocks, each coded in at most one call
        long_coded = [key for block_keys in coded for key in block_keys if key.startswith("long-")]
        assert id_map._long_codes == {key: ingest._LONG | i for i, key in enumerate(dict.fromkeys(long_coded))}

        # Within a call, each distinct key is encoded once, however often it repeats.
        encoded = []

        class Key(str):
            def encode(self, *args):
                encoded.append(str(self))
                return super().encode(*args)

        for block_keys in coded:
            encoded.clear()
            code_all(ingest.IdMap(), [Key(key) for key in block_keys])
            assert sorted(encoded) == sorted(set(block_keys)) and len(encoded) < len(block_keys)

    def test_short_key_first_on_the_slow_path_has_one_id(self):
        # The first block's lines all go to parse_event_line: a timestamp of 19 digits is one
        # only it reads, and the block is not UTF-8, so lines with a byte that is not ASCII go
        # there too. The second block is vectorized and brings both keys back.
        first = "k\ta\t0000000000000000007\nключ\tb\t8\tx\n".encode() + b"u\ta\xff\t9\n"
        data = first + "k\tb\t10\nключ\ta\t11\n".encode()
        with mock.patch.object(ingest, "CHUNK_SIZE", len(first)), \
                mock.patch.object(ingest, "parse_event_line", wraps=ingest.parse_event_line) as spy:
            log, skipped = load_events(io.BytesIO(data), SIMPLE_SCHEMA, "skip")
        assert [call.args[2] for call in spy.call_args_list] == [1, 2, 3]
        assert summary(log, skipped) == oracle_load(io.BytesIO(data), SIMPLE_SCHEMA)
        assert log.users.tolist() == [0, 1, 0, 1] and log.id_maps.users.keys() == ["k", "ключ"]

    def test_lookups_by_key(self):
        seen = ["", "u", "ключ", "x" * 8, "x" * 9, "\x00", "é", "17"]
        unseen = ["u\x00", "x" * 7, "xxxxxxxxy", "ключи", "\x00\x00", "v", "\udcff", "1"]
        _, id_map = _load_keys(seen, chunk_size=4)
        ids = {key: i for i, key in enumerate(id_map.keys())}
        assert [ids[key] for key in seen] == list(range(len(seen)))
        assert not any(key in ids for key in unseen)

    def test_keeps_under_16_bytes_per_short_key(self):
        # A short key's code and id are held once, in the runs: 12 bytes a key.
        keys = [f"k{i}" for i in range(200_000)]
        random.Random(3).shuffle(keys)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            id_map = ingest.IdMap()
            for start in range(0, len(keys), 2000):
                id_map.densify(id_map.code_all(keys[start : start + 2000]))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept / len(keys) < 16
        assert id_map.keys() == keys

    def test_thousands_of_keys_one_block_each_match_the_oracle(self):
        # One line per block: every block adds a run and the runs merge many times,
        # yet each code is copied O(log n) times, not once per block.
        keys = [f"k{i * 7919 % 6007}" for i in range(6007)]
        keys[::1000] = [f"long-key-{i}" for i in range(0, 6007, 1000)]
        copied = []
        merge = ingest.IdMap._merge_top

        def counting_merge(self):
            copied.append(len(self._runs[-2][0]) + len(self._runs[-1][0]))
            merge(self)

        with mock.patch.object(ingest.IdMap, "_merge_top", counting_merge):
            users, id_map = _load_keys(keys + keys[::-7], chunk_size=1)
        assert len(id_map) == 6007 and id_map.keys() == keys
        assert sum(copied) < 6000 * 13
        sizes = [len(codes) for codes, _ in id_map._runs]
        assert all(below > 2 * above for below, above in zip(sizes, sizes[1:]))


def test_parser_columns_keep_at_most_a_quarter_spare():
    # resize zero-fills the room it adds, so spare capacity is memory held at once.
    parser = ingest._ChunkParser(SIMPLE_SCHEMA, "fail")
    rng = np.random.default_rng(5)
    expected = []
    for block in range(300):
        stamps = (block * 1000 + np.arange(int(rng.integers(1, 400)))).tolist()
        if block == 150:
            stamps[-1] = 2**40  # widens the timestamp column to int64
        parser.add("".join(f"u{t % 7}\ta{t % 11}\t{t}\n" for t in stamps).encode())
        expected += stamps
        for column in parser.columns:
            assert parser.size <= len(column) <= 1.25 * parser.size
    log = parser.log(None)
    assert log.timestamps.dtype == np.int64 and log.timestamps.tolist() == expected
    assert len(log.users) == len(log.artists) == len(log) == len(expected)


def _pairs(table, user):
    """One user's pair rows as {artist: (count, latest training play)}."""
    artists, counts, last = (user_slice(table, user, c).tolist() for c in ("pair_artists", "pair_counts", "pair_last"))
    return dict(zip(artists, zip(counts, last)))


class TestBuildUserHistories:
    def test_hand_sorted_example(self):
        histories = histories_from_events([("u0", "a0", 10), ("u0", "a1", 5), ("u0", "a0", 7)], bll_d=0.5)
        a0, a1 = 0, 1  # first-seen densification
        # At the protocol's fraction the latest event, a0 at 10, is the one test event; the
        # training plays are a0 at 7 and a1 at 5, at reference time 7 + 1.
        assert _pairs(histories, 0) == {a0: (2, 7), a1: (1, 5)}
        assert user_slice(histories, 0, "pair_artists").tolist() == [a0, a1]
        assert histories.n_events.tolist() == [3]
        assert user_slice(histories, 0, "pair_test_counts").tolist() == [1, 0]
        assert user_slice(histories, 0, "pair_bll").tolist() == [2.0**-0.5, 4.0**-0.5]

    def test_single_event(self):
        histories = histories_from_events([("u", "a", 3)], bll_d=0.5)
        assert histories.n_events.tolist() == [1]
        assert _pairs(histories, 0) == {0: (1, 3)}
        # A history of one event is not cut: its event trains, at reference time 3 + 1.
        assert (histories.pair_test_counts.tolist(), histories.pair_last.tolist()) == ([0], [3])
        assert histories.pair_bll.tolist() == [2.0**-0.5]

    def test_equal_timestamps_keep_input_order(self):
        histories = histories_from_events([("u", "a", 5), ("u", "b", 5), ("u", "c", 5)])
        # The last input event is the latest, so it is the test event.
        assert histories.pair_test_counts.tolist() == [0, 0, 1]
        assert histories.pair_last.tolist() == [5, 5, 0]

    def test_empty_log(self):
        log = log_from_events([])
        histories = build_user_histories(log, PROTOCOL.fraction, PROTOCOL.bll_d)
        assert len(histories.n_events) == len(histories.pair_artists) == len(histories.pair_bll) == 0
        assert histories.pair_offsets.tolist() == [0]

    @pytest.mark.parametrize("key, value", [("fraction", 0.0), ("fraction", 1.0), ("fraction", -0.5),
                                            ("fraction", 2.0), ("bll_d", 0.0), ("bll_d", -1.0),
                                            ("bll_d", math.inf)])
    def test_bad_fraction_or_decay_is_data_error(self, key, value):
        # An infinite d would make every bll term 0, so every score -inf and the ranking artist-id order.
        with pytest.raises(DataError, match="fraction must be in|decay exponent d must be finite and > 0"):
            histories_from_events([("u", "a", 1), ("u", "a", 2)], **{key: value})

    def test_takes_over_the_log_columns(self):
        # The log's events and the table's are never all alive at once: the build drops each column it has read.
        log = log_from_events([("u1", "a1", 10), ("u2", "a1", 11), ("u1", "a2", 12)])
        columns = [weakref.ref(arr) for arr in (log.users, log.artists, log.timestamps)]
        id_maps = log.id_maps
        histories = build_user_histories(log, PROTOCOL.fraction, PROTOCOL.bll_d)
        assert [ref() for ref in columns] == [None, None, None]
        assert (log.users, log.artists, log.timestamps) == (None, None, None)
        assert log.id_maps is id_maps
        user_keys, artist_keys = id_maps.users.keys(), id_maps.artists.keys()
        assert [user_keys[u] for u in np.flatnonzero(histories.n_events).tolist()] == ["u1", "u2"]
        assert [artist_keys[a] for a in user_slice(histories, 0, "pair_artists").tolist()] == ["a1", "a2"]

    def test_conservation_and_sortedness_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 200))
            events = [
                (f"u{rng.integers(0, 6)}", f"a{rng.integers(0, 12)}", int(rng.integers(0, 1000)))
                for _ in range(n)
            ]
            log = log_from_events(events)
            history = events_by_user(log.users, log.artists, log.timestamps)  # the build takes the log's columns
            histories = build_user_histories(log, 0.3, PROTOCOL.bll_d)
            assert int(histories.n_events.sum()) == n
            for user in np.flatnonzero(histories.n_events).tolist():
                played = history[user]
                n_test = max(1, int(0.3 * len(played))) if len(played) >= 2 else 0
                assert sum(user_slice(histories, user, "pair_counts").tolist()) == len(played)
                assert sum(user_slice(histories, user, "pair_test_counts").tolist()) == n_test
                assert (np.diff(user_slice(histories, user, "pair_artists")) > 0).all()
                for artist, (count, last) in _pairs(histories, user).items():
                    assert count == sum(a == artist for a, _ in played)
                    assert last == max((t for a, t in played[: len(played) - n_test] if a == artist), default=0)


HISTORY_FIELDS = ("n_events", "pair_offsets", "pair_artists", "pair_counts", "pair_last", "pair_bll", "pair_test_counts")


class TestBuildMatchesPerUserSorts:
    """Every field of the batched build equals the per-user enumeration oracle's, dtype included."""

    @staticmethod
    def _check(users, artists, timestamps, fraction=PROTOCOL.fraction, d=PROTOCOL.bll_d):
        expected = per_user_histories(users, artists, timestamps, fraction, d)
        got = build_user_histories(EventLog(users.copy(), artists.copy(), timestamps.copy(), IdMaps()), fraction, d)
        for name in HISTORY_FIELDS:
            want, have = getattr(expected, name), getattr(got, name)
            assert have.dtype == want.dtype, name
            assert np.array_equal(have, want), name

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    def test_random_logs(self, dtype):
        rng = np.random.default_rng(19)
        base = 2**32 if dtype == np.int64 else 0
        for case in range(12):
            n = int(rng.integers(1, 3000))
            # Few distinct timestamps make many equal ones; sparse user ids leave empty users between them.
            users = rng.integers(0, [5, 300, 5000][case % 3], n).astype(np.int32)
            timestamps = (base + rng.integers(0, [3, 50, 2**31][case % 3], n)).astype(dtype)
            if dtype == np.int64 and case % 2:
                timestamps[::5] = rng.integers(0, 2**32, len(timestamps[::5]))  # values below and above 2**32
            # Fractions and decay exponents that give one test event, several and most of a history.
            fraction, d = [(0.01, 0.5), (0.3, 1.7), (0.8, 0.05)][case % 3]
            self._check(users, rng.integers(0, 40, n).astype(np.int32), timestamps, fraction, d)

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    def test_a_history_longer_than_a_batch(self, dtype):
        rng = np.random.default_rng(5)
        n = ingest._BATCH_EVENTS + 3000
        users = np.where(rng.random(n) < 0.9, 7, rng.integers(0, 12, n)).astype(np.int32)
        artists = rng.integers(0, 500, n).astype(np.int32)
        timestamps = ((2**40 if dtype == np.int64 else 0) + rng.integers(0, 1000, n)).astype(dtype)
        assert np.bincount(users).max() > ingest._BATCH_EVENTS
        self._check(users, artists, timestamps, 0.3)

    def test_single_event_users_across_batches(self):
        rng = np.random.default_rng(6)
        n = 2 * ingest._BATCH_EVENTS + 500
        users = rng.permutation(n).astype(np.int32)
        self._check(users, rng.integers(0, 9, n).astype(np.int32), rng.integers(0, 4, n).astype(np.uint32))

    def test_user_ids_far_apart(self):
        # Without the cap on users per batch, user 2**20 would share a batch with user 0 and overflow the key.
        rng = np.random.default_rng(8)
        half = ingest._BATCH_EVENTS // 2
        users = np.repeat(np.array([0, 2**20], dtype=np.int32), half)
        artists = rng.integers(0, 2**31 - 1, 2 * half).astype(np.int32)
        self._check(users, artists, rng.integers(0, 9, 2 * half).astype(np.uint32))

    def test_a_history_beyond_the_key_is_data_error(self, monkeypatch):
        monkeypatch.setattr(ingest, "_BATCH_EVENTS", 4)
        monkeypatch.setattr(ingest, "_MAX_HISTORY", 4)
        log = log_from_events([("u", "a", 1)] * 4 + [("v", "a", 1)] * 5)
        with pytest.raises(DataError, match="user 1 has 5 events"):
            build_user_histories(log, PROTOCOL.fraction, PROTOCOL.bll_d)


def _synth_columns(case: str, seed: int):
    """A synth log's columns, grouped by user, bent to ``case``."""
    users = {"single-user": 1}.get(case, 12)
    log = generate_synthetic(SynthConfig(n_users=users, n_artists=80, events_per_user=(30, 300), seed=seed))
    columns = [log.users.copy(), log.artists.copy(), log.timestamps.astype(np.uint32)]
    rng = np.random.default_rng(seed)
    if case == "unordered":  # each user's events out of time order, the log still grouped by user
        columns = [column[np.lexsort((rng.random(len(log)), log.users))] for column in columns]
    elif case == "equal-timestamps":
        columns[2] //= 100_000  # about 300 distinct timestamps
    elif case == "int64":
        columns[2] = log.timestamps + 2**32
    return columns


def _build_peak(columns) -> int:
    """The tracemalloc peak of building the table of a log with copies of ``columns``."""
    log = EventLog(*(column.copy() for column in columns), IdMaps())
    tracemalloc.start()
    try:
        build_user_histories(log, PROTOCOL.fraction, PROTOCOL.bll_d)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGroupedLogs:
    """A log grouped by user, as every log whose lines come user by user is, builds as its shuffled copy does."""

    @pytest.mark.parametrize("case", ["unordered", "equal-timestamps", "int64", "single-user"])
    def test_grouped_and_shuffled_logs_match_the_oracle(self, case):
        for seed in range(3):
            grouped = _synth_columns(case, seed)
            assert (np.diff(grouped[0]) >= 0).all()
            order = np.random.default_rng(100 + seed).permutation(len(grouped[0]))
            for columns in (grouped, [column[order] for column in grouped]):
                expected = per_user_histories(*columns, 0.1, PROTOCOL.bll_d)
                log = EventLog(*(column.copy() for column in columns), IdMaps())
                got = build_user_histories(log, 0.1, PROTOCOL.bll_d)
                assert (log.users, log.artists, log.timestamps) == (None, None, None)
                for name in HISTORY_FIELDS:
                    want, have = getattr(expected, name), getattr(got, name)
                    assert have.dtype == want.dtype, (case, name)
                    assert np.array_equal(have, want), (case, name)

    def test_takes_over_a_grouped_log_in_place(self):
        # The build gathers a grouped log's columns in their own order and sorts copies of each batch:
        # the columns keep their values and stay read-only, the log holds none of them after the build,
        # and the table keeps only pair rows.
        log = log_from_events([("u1", "a2", 12), ("u1", "a1", 10), ("u2", "a3", 9), ("u2", "a1", 11)])
        artists, timestamps = log.artists, log.timestamps
        histories = build_user_histories(log, 0.5, PROTOCOL.bll_d)
        assert (log.users, log.artists, log.timestamps) == (None, None, None)
        assert timestamps.tolist() == [12, 10, 9, 11] and artists.tolist() == [0, 1, 2, 1]
        assert not artists.flags.writeable and not timestamps.flags.writeable
        # Each user's latest event is its test event, so that pair has no training play.
        assert [_pairs(histories, user) for user in (0, 1)] == [{0: (1, 0), 1: (1, 10)}, {1: (1, 0), 2: (1, 9)}]
        assert histories.pair_test_counts.tolist() == [1, 0, 1, 0]

    def test_read_only_views_build(self):
        # np.frombuffer of bytes can never be written: the build gathers such columns, never sorts them in place.
        columns = [np.array([0, 0, 1, 1, 1], np.int32), np.array([3, 1, 2, 1, 0], np.int32),
                   np.array([5, 4, 9, 7, 7], np.uint32)]
        views = [np.frombuffer(column.tobytes(), dtype=column.dtype) for column in columns]
        histories = build_user_histories(EventLog(*views, IdMaps()), PROTOCOL.fraction, PROTOCOL.bll_d)
        expected = per_user_histories(*columns, PROTOCOL.fraction, PROTOCOL.bll_d)
        for name in HISTORY_FIELDS:
            assert np.array_equal(getattr(histories, name), getattr(expected, name)), name
        assert [view.tolist() for view in views] == [column.tolist() for column in columns]


def _lines(users, per_user):
    """TSV lines of ``users`` in turn, ``per_user[i]`` events each, over 37 artists, timestamps rising with jitter."""
    lines, ts = [], 0
    for user, count in zip(users, per_user):
        for i in range(count):
            lines.append(f"u{user}\ta{(user * 7 + i * i) % 37}\t0\t0\t{ts + (i * 13) % 5}\n")
            ts += 1
    return lines


def _table_bytes(table):
    """Every field of a ``UserHistories`` table as its dtype and bytes."""
    return [(name, getattr(table, name).dtype, getattr(table, name).tobytes()) for name in HISTORY_FIELDS]


def _feed(fifo, data: bytes) -> None:
    """Write ``data`` into ``fifo``; if its reader closes it early, open it again for the rest, as a shell pipe keeps it."""
    rest = memoryview(data)
    while rest:
        fd = os.open(fifo, os.O_WRONLY)
        try:
            while rest:
                rest = rest[os.write(fd, rest) :]
        except BrokenPipeError:
            pass
        finally:
            os.close(fd)


class TestReducedWhileRead:
    """A regular file grouped by user is reduced as it is read; its table equals the one built from the whole log."""

    @staticmethod
    def _check(source, fraction=0.3, d=0.7, streamed=True):
        """Load ``source`` with and without the build's parameters and compare logs and tables, bytes and dtypes."""
        reduced, skipped = load_events(source, LFM_SCHEMA, "skip", (fraction, d))
        if isinstance(source, io.BytesIO):
            source.seek(0)
        whole, whole_skipped = load_events(source, LFM_SCHEMA, "skip")
        assert (reduced.users is None) == streamed and (reduced.reduced is not None) == streamed
        assert (skipped, reduced.sha256, len(reduced)) == (whole_skipped, whole.sha256, len(whole))
        assert reduced.id_maps.users.keys() == whole.id_maps.users.keys()
        assert reduced.id_maps.artists.keys() == whole.id_maps.artists.keys()
        got, want = build_user_histories(reduced, fraction, d), build_user_histories(whole, fraction, d)
        assert (reduced.reduced, len(reduced)) == (None, len(whole))
        assert _table_bytes(got) == _table_bytes(want)
        return got

    @settings(max_examples=300, deadline=None)
    @given(
        data=_LOG,
        grouped=st.booleans(),
        gz=st.booleans(),
        on_error=st.sampled_from(["skip", "fail"]),
        chunk_size=st.sampled_from([1, 3, 16, 64, ingest.CHUNK_SIZE]),
    )
    def test_any_log_as_read_whole(self, scratch_dir, data, grouped, gz, on_error, chunk_size):
        # Sorting the lines by their first field, the user's, groups most logs; the others are read again.
        if grouped:
            data = b"\n".join(sorted(data.split(b"\n"), key=lambda line: line.split(b"\t")[0]))
        path = scratch_dir / ("reduced.tsv.gz" if gz else "reduced.tsv")
        path.write_bytes(gzip.compress(data) if gz else data)
        outcomes = []
        with mock.patch.object(ingest, "CHUNK_SIZE", chunk_size):
            for build in (None, (0.3, PROTOCOL.bll_d)):
                try:
                    log, skipped = load_events(path, SIMPLE_SCHEMA, on_error, build)
                except ParseError as exc:
                    outcomes.append(str(exc))
                    continue
                table = build_user_histories(log, 0.3, PROTOCOL.bll_d)
                outcomes.append((skipped, log.sha256, len(log), _keys(log.id_maps), _table_bytes(table)))
        assert outcomes[0] == outcomes[1]

    def test_grouped_path_stream_and_gzip(self, tmp_path):
        path = tmp_path / "events.tsv"
        write_events_tsv(generate_synthetic(SynthConfig(n_users=60, n_artists=500, events_per_user=(100, 900))), path)
        assert path.stat().st_size > 4 * ingest.CHUNK_SIZE
        table = self._check(path)
        self._check(io.BytesIO(path.read_bytes()), streamed=False)
        gz = tmp_path / "events.tsv.gz"
        gz.write_bytes(gzip.compress(path.read_bytes()))
        assert np.array_equal(self._check(gz).pair_bll, table.pair_bll)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("grouped", [True, False], ids=["grouped", "ungrouped"])
    def test_a_fifo_is_read_whole_from_the_start(self, tmp_path, grouped):
        # A FIFO cannot be read again, so its lines are read once, whole, whether or not they are grouped.
        lines = _lines(range(600), [30] * 600)
        if not grouped:
            random.Random(1).shuffle(lines)
        data = "".join(lines).encode()
        assert len(data) > 2 * ingest.CHUNK_SIZE
        path, fifo = tmp_path / "events.tsv", tmp_path / "events.fifo"
        path.write_bytes(data)
        os.mkfifo(fifo)
        writer = threading.Thread(target=_feed, args=(fifo, data), daemon=True)
        writer.start()
        got, got_skipped = load_events(fifo, LFM_SCHEMA, "skip", (0.3, 0.7))
        writer.join(timeout=60)
        assert not writer.is_alive()
        want, want_skipped = load_events(path, LFM_SCHEMA, "skip", (0.3, 0.7))
        assert (got_skipped, len(got), got.sha256) == (want_skipped, len(want), want.sha256)
        assert _keys(got.id_maps) == _keys(want.id_maps)
        assert _table_bytes(build_user_histories(got, 0.3, 0.7)) == _table_bytes(build_user_histories(want, 0.3, 0.7))

    def test_history_longer_than_a_batch_across_blocks(self, tmp_path):
        long = ingest._BATCH_EVENTS + 5000
        path = tmp_path / "events.tsv"
        path.write_text("".join(_lines([0, 1, 2, 3], [40, long, 3, 1])))
        assert path.stat().st_size > 2 * ingest.CHUNK_SIZE
        calls = []
        batch_rows = ingest._batch_rows

        def spy(artists, *args):
            calls.append(len(artists))
            return batch_rows(artists, *args)

        with mock.patch.object(ingest, "_batch_rows", spy):
            table = self._check(path, fraction=0.01)
        assert table.n_events.tolist() == [40, long, 3, 1]
        # Each read reduces the long history alone, and the users around it in batches of their own.
        assert calls == [40, long, 4] * 2

    def test_a_later_block_widens_the_reduced_rows(self, tmp_path):
        path = tmp_path / "events.tsv"
        # The last user has one event, which is not cut, so its timestamp is a latest training play.
        lines = _lines(range(500), [40] * 499 + [1])
        lines[-1] = lines[-1][: lines[-1].rindex("\t") + 1] + f"{2**32 + 5}\n"
        path.write_text("".join(lines))
        assert path.stat().st_size > 2 * ingest.CHUNK_SIZE
        table = self._check(path)
        assert table.pair_last.dtype == np.int64
        assert table.pair_last.max() == 2**32 + 5

    @pytest.mark.parametrize("chunk_size, users", [(1, 20), (256, 200), (ingest.CHUNK_SIZE, 1000)])
    def test_grouping_broken_in_the_last_block_reads_again(self, tmp_path, chunk_size, users):
        # At a chunk size of 1 each line is a block, so user 0 comes back at the start of one.
        lines = _lines(range(users), [30] * users)
        lines.append(lines[0])  # user 0 again, after all the others
        path = tmp_path / "events.tsv"
        path.write_text("".join(lines))
        assert path.stat().st_size > 2 * chunk_size
        with mock.patch.object(ingest, "CHUNK_SIZE", chunk_size):
            for bad in (6, len(lines), len(lines) + 1):  # early, just before the user ids decrease, and last
                path.write_text("".join(lines[: bad - 1] + ["u0\ta\t0\t0\tnot-a-time\n"] + lines[bad - 1 :]))
                self._check(path, streamed=False)  # the bad line skipped
                with pytest.raises(ParseError, match=f"^line {bad}: non-integer timestamp") as streamed:
                    load_events(path, LFM_SCHEMA, "fail", (0.3, PROTOCOL.bll_d))
                with pytest.raises(ParseError) as whole:
                    load_events(path, LFM_SCHEMA, "fail")
                assert (streamed.value.line_no, str(streamed.value)) == (whole.value.line_no, str(whole.value))

    def test_crlf(self, tmp_path):
        lines = _lines(range(600), [30] * 600)
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        lf.write_text("".join(lines))
        crlf.write_bytes("".join(lines).replace("\n", "\r\n").encode())
        assert crlf.stat().st_size > 2 * ingest.CHUNK_SIZE
        assert _table_bytes(self._check(crlf)) == _table_bytes(self._check(lf))

    def test_the_table_is_handed_over_at_its_own_fraction_only(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("".join(_lines(range(3), [4, 5, 6])))
        log, _ = load_events(path, LFM_SCHEMA, "skip", (0.3, 0.7))
        with pytest.raises(ValueError, match="reduced at fraction 0.3 and d 0.7"):
            build_user_histories(log, 0.2, 0.7)
        with pytest.raises(DataError, match="fraction must be in"):
            load_events(path, LFM_SCHEMA, "skip", (1.5, PROTOCOL.bll_d))


@pytest.fixture(scope="module")
def long_history_logs(tmp_path_factory):
    """The columns of two grouped long-history synth logs, of 40 and 80 users, and their TSV files."""
    directory = tmp_path_factory.mktemp("long-histories")
    logs = []
    for users in (40, 80):
        log = generate_synthetic(SynthConfig(n_users=users, n_artists=3000, events_per_user=(2000, 3000), seed=3))
        path = directory / f"{users}.tsv"
        write_events_tsv(log, path)
        logs.append(([log.users, log.artists, log.timestamps], path))
    return logs


def _slope(sizes, peaks) -> float:
    return (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])


def _load_and_build_peak(path) -> int:
    """The tracemalloc peak of loading ``path`` at the build's parameters and building its table."""
    tracemalloc.start()
    try:
        log, _ = load_events(path, LFM_SCHEMA, "skip", (0.01, 0.5))
        build_user_histories(log, 0.01, 0.5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_allocates_few_bytes_per_event_of_a_grouped_log(long_history_logs):
    # A grouped file is reduced a batch at a time as it is read: per added event ingest and the build
    # allocate only the pair rows' share, 4.1 bytes (0.11 rows of 36 bytes). A stable argsort of the
    # user column and gathers of the other two took 16.4.
    sizes = [len(columns[0]) for columns, _ in long_history_logs]
    assert _slope(sizes, [_load_and_build_peak(path) for _, path in long_history_logs]) < 7.6


def test_build_of_a_shuffled_log_allocates_no_more_than_the_sort_and_gathers(long_history_logs):
    # An ungrouped log keeps the argsort and the gathers, 16.2 bytes per added event; one more int64
    # array over the log would take 24.
    sizes = [len(columns[0]) for columns, _ in long_history_logs]
    order = [np.random.default_rng(1).permutation(size) for size in sizes]
    shuffled = [[column[o] for column in columns] for (columns, _), o in zip(long_history_logs, order)]
    assert _slope(sizes, [_build_peak(columns) for columns in shuffled]) < 18


def test_a_file_read_whole_grows_its_columns_as_a_stream_does(tmp_path):
    # A file read whole, like a stream, grows its columns by a quarter at a time, which zero-fills
    # the room each step adds.
    path = tmp_path / "events.tsv"
    write_events_tsv(generate_synthetic(SynthConfig(n_users=40, n_artists=3000, events_per_user=(2000, 3000))), path)
    lengths = {}
    append = ingest._ChunkParser._append

    def spy(parser, *args):
        append(parser, *args)
        lengths.setdefault(kind, []).append(len(parser.columns[0]))

    with mock.patch.object(ingest._ChunkParser, "_append", spy):
        kind = "stream"
        load_events(io.BytesIO(path.read_bytes()), LFM_SCHEMA, "skip")
        kind = "path"
        tracemalloc.start()
        try:
            log, _ = load_events(path, LFM_SCHEMA, "skip")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(lengths["stream"]) > 10 and len(set(lengths["stream"])) > 5
    assert lengths["path"] == lengths["stream"]
    # The columns' 12 bytes per event and their spare quarter at most, besides the IdMap and the
    # block temporaries (about 2.5 MB).
    assert peak < 14 * len(log) + 3 * 2**20


class TestWriteEventsTsv:
    def test_round_trip(self, tmp_path):
        log = log_from_events([("u1", "a1", 10), ("u2", "a1", 11), ("u1", "a2", 12)])
        path = tmp_path / "out.tsv"
        write_events_tsv(log, path)
        # The default schema reads the layout the writer writes.
        reloaded, skipped = load_events(path, ColumnSchema.parse(PROTOCOL.schema), "skip")
        assert skipped == 0
        assert np.array_equal(reloaded.users, log.users)
        assert np.array_equal(reloaded.artists, log.artists)
        assert np.array_equal(reloaded.timestamps, log.timestamps)
        assert reloaded.id_maps.users.keys()[0] == "u1"
