import gzip
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bllrec.errors import DataError, ParseError, UsageError
from bllrec.ingest import (
    INT64_MAX,
    ColumnSchema,
    build_user_histories,
    load_events,
    parse_event_line,
    write_events_tsv,
)

from conftest import SIMPLE_SCHEMA, histories_from_events, log_from_events

LFM_SCHEMA = ColumnSchema(user=0, artist=1, ts=4)


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

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="columns"):
            parse_event_line("u1\ta9", LFM_SCHEMA, line_no=3)

    def test_negative_timestamp(self):
        with pytest.raises(ParseError, match="negative"):
            parse_event_line("u1\ta9\t-5", SIMPLE_SCHEMA)

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

    def test_bad_specs(self):
        for spec in ("user=0,artist=1", "user=x,artist=1,ts=2", "nope=1", "user=0,artist=0,ts=1"):
            with pytest.raises(UsageError):
                ColumnSchema.parse(spec)


class TestLoadEvents:
    def test_counts(self):
        text = "u1\ta1\t10\nu2\ta1\t11\nu1\ta2\t12\n"
        log, skipped = load_events(io.StringIO(text), SIMPLE_SCHEMA)
        assert len(log) == 3
        assert len(log.id_maps.users) == 2
        assert len(log.id_maps.artists) == 2
        assert skipped == 0

    def test_skip_and_count(self):
        text = "u1\ta1\t10\nbroken line\nu1\ta2\t12\n"
        log, skipped = load_events(io.StringIO(text), SIMPLE_SCHEMA, on_error="skip")
        assert len(log) == 2
        assert skipped == 1

    def test_fail_fast_carries_line_number(self):
        text = "u1\ta1\t10\nu1\ta2\tbad\n"
        with pytest.raises(ParseError) as info:
            load_events(io.StringIO(text), SIMPLE_SCHEMA, on_error="fail")
        assert info.value.line_no == 2

    def test_deterministic_reload(self):
        text = "b\tx\t5\na\tx\t4\nb\ty\t6\n"
        log1, _ = load_events(io.StringIO(text), SIMPLE_SCHEMA)
        log2, _ = load_events(io.StringIO(text), SIMPLE_SCHEMA)
        assert np.array_equal(log1.users, log2.users)
        assert np.array_equal(log1.artists, log2.artists)
        assert np.array_equal(log1.timestamps, log2.timestamps)
        # first-seen id assignment: user "b" was seen first
        assert log1.id_maps.users.id_of("b") == 0
        assert log1.id_maps.users.id_of("a") == 1

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "events.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("u1\ta1\t10\nu1\ta2\t11\n")
        log, skipped = load_events(path, SIMPLE_SCHEMA)
        assert len(log) == 2 and skipped == 0

    def test_bad_policy(self):
        with pytest.raises(UsageError):
            load_events(io.StringIO(""), SIMPLE_SCHEMA, on_error="explode")

    def test_binary_stream_left_open(self):
        stream = io.BytesIO(b"u1\ta1\t10\n")
        log, _ = load_events(stream, SIMPLE_SCHEMA)
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
            for i in range(len(ids)):
                ids.key_of(i).encode("utf-8")


class TestBuildUserHistories:
    def test_hand_sorted_example(self):
        histories = histories_from_events([("u0", "a0", 10), ("u0", "a1", 5), ("u0", "a0", 7)])
        h = histories[0]
        a0, a1 = 0, 1  # first-seen densification
        assert h.artists.tolist() == [a1, a0, a0]
        assert h.timestamps.tolist() == [5, 7, 10]
        assert h.artist_counts == {a0: 2, a1: 1}
        assert h.artist_last_played == {a0: 10, a1: 5}

    def test_single_event(self):
        histories = histories_from_events([("u", "a", 3)])
        assert histories[0].n_events == 1
        assert histories[0].artist_counts == {0: 1}

    def test_equal_timestamps_keep_input_order(self):
        histories = histories_from_events([("u", "a", 5), ("u", "b", 5), ("u", "c", 5)])
        assert histories[0].artists.tolist() == [0, 1, 2]

    def test_empty_log(self):
        log = log_from_events([])
        assert build_user_histories(log) == {}

    def test_conservation_and_sortedness_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 200))
            events = [
                (f"u{rng.integers(0, 6)}", f"a{rng.integers(0, 12)}", int(rng.integers(0, 1000)))
                for _ in range(n)
            ]
            log = log_from_events(events)
            histories = build_user_histories(log)
            assert sum(h.n_events for h in histories.values()) == len(log) == n
            for h in histories.values():
                assert (np.diff(h.timestamps) >= 0).all()
                assert sum(h.artist_counts.values()) == h.n_events
                for artist, last in h.artist_last_played.items():
                    assert last == h.timestamps[h.artists == artist].max()


class TestWriteEventsTsv:
    def test_round_trip(self, tmp_path):
        log = log_from_events([("u1", "a1", 10), ("u2", "a1", 11), ("u1", "a2", 12)])
        path = tmp_path / "out.tsv"
        write_events_tsv(log, path)
        reloaded, skipped = load_events(path)  # default LFM-1b schema matches writer
        assert skipped == 0
        assert np.array_equal(reloaded.users, log.users)
        assert np.array_equal(reloaded.artists, log.artists)
        assert np.array_equal(reloaded.timestamps, log.timestamps)
        assert reloaded.id_maps.users.key_of(0) == "u1"
