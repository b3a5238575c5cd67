import threading

import pytest

from repro.core.lotustrace.columns import (
    ParseStats,
    TraceColumns,
    parse_trace_bytes,
    parse_trace_file_columns,
)
from repro.core.lotustrace.engine import analysis_engine
from repro.core.lotustrace.logfile import (
    InMemoryTraceLog,
    LotusLogWriter,
    open_trace_log,
    parse_trace_file,
    parse_trace_lines,
)
from repro.core.lotustrace.records import KIND_OP, TraceRecord
from repro.errors import TraceError


def make_record(i=0):
    return TraceRecord(
        kind=KIND_OP, name=f"Op{i}", batch_id=-1, worker_id=0, pid=1,
        start_ns=i * 1000, duration_ns=10,
    )


class TestLotusLogWriter:
    def test_write_and_parse(self, tmp_path):
        path = tmp_path / "trace.log"
        with LotusLogWriter(path) as writer:
            writer.write(make_record(0))
            writer.write(make_record(1))
        records = parse_trace_file(path)
        assert [r.name for r in records] == ["Op0", "Op1"]

    def test_append_mode(self, tmp_path):
        path = tmp_path / "trace.log"
        with LotusLogWriter(path) as writer:
            writer.write(make_record(0))
        with LotusLogWriter(path) as writer:
            writer.write(make_record(1))
        assert len(parse_trace_file(path)) == 2

    def test_write_after_close_raises(self, tmp_path):
        writer = LotusLogWriter(tmp_path / "t.log")
        writer.close()
        with pytest.raises(TraceError):
            writer.write(make_record())

    def test_concurrent_writes_intact(self, tmp_path):
        path = tmp_path / "t.log"
        writer = LotusLogWriter(path)

        def write_many(base):
            for i in range(50):
                writer.write(make_record(base + i))

        threads = [threading.Thread(target=write_many, args=(k * 100,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        writer.close()
        records = parse_trace_file(path)
        assert len(records) == 200  # no torn lines

    def test_double_close_ok(self, tmp_path):
        writer = LotusLogWriter(tmp_path / "t.log")
        writer.close()
        writer.close()


class TestInMemoryTraceLog:
    def test_records_accumulate(self):
        log = InMemoryTraceLog()
        log.write(make_record(0))
        log.write(make_record(1))
        assert len(log.records()) == 2

    def test_records_snapshot_isolated(self):
        log = InMemoryTraceLog()
        log.write(make_record())
        snapshot = log.records()
        log.write(make_record(1))
        assert len(snapshot) == 1


class TestOpenTraceLog:
    def test_none_passthrough(self):
        assert open_trace_log(None) is None

    def test_sink_passthrough(self):
        sink = InMemoryTraceLog()
        assert open_trace_log(sink) is sink

    def test_path_opens_writer(self, tmp_path):
        sink = open_trace_log(tmp_path / "x.log")
        assert isinstance(sink, LotusLogWriter)
        sink.close()

    def test_open_file_handle_raises(self, tmp_path):
        with open(tmp_path / "x.log", "w") as handle:
            with pytest.raises(TraceError, match="TextIOWrapper"):
                open_trace_log(handle)

    def test_duck_typed_sink_raises(self):
        class WrapperSink:
            path = "<wrapped>"

            def write(self, record):
                pass

            def flush(self):
                pass

            def close(self):
                pass

        with pytest.raises(TraceError, match="WrapperSink"):
            open_trace_log(WrapperSink())


class TestParsing:
    def test_skips_blank_lines(self):
        lines = [make_record(0).to_line(), "", "   ", make_record(1).to_line()]
        assert len(parse_trace_lines(lines)) == 2

    def test_bad_line_raises(self):
        with pytest.raises(TraceError):
            parse_trace_lines(["garbage"])

    def test_bad_line_skipped_and_counted(self):
        stats = ParseStats()
        lines = [
            make_record(0).to_line(),
            "garbage",
            make_record(1).to_line(),
            "op,Trunc,0,0,1,5",  # torn mid-write: too few fields
        ]
        records = parse_trace_lines(lines, errors="skip", stats=stats)
        assert [r.name for r in records] == ["Op0", "Op1"]
        assert stats.skipped_lines == 2

    def test_blank_lines_not_counted_as_skipped(self):
        stats = ParseStats()
        parse_trace_lines(["", "  "], errors="skip", stats=stats)
        assert stats.skipped_lines == 0

    def test_unknown_errors_mode_raises(self):
        with pytest.raises(TraceError):
            parse_trace_lines([], errors="ignore")


class TestHardenedFileParsing:
    """A log whose tail was torn mid-append must still be readable."""

    def _write_torn_log(self, path):
        lines = [make_record(i).to_line() for i in range(4)]
        torn = lines[3][: len(lines[3]) // 2]  # truncated final append
        path.write_text("\n".join(lines[:3]) + "\n" + torn)
        return path

    def test_truncated_tail_raises_by_default(self, tmp_path):
        path = self._write_torn_log(tmp_path / "torn.log")
        with pytest.raises(TraceError):
            parse_trace_file(path)
        with pytest.raises(TraceError), analysis_engine("records"):
            parse_trace_file(path)

    def test_truncated_tail_skipped_and_counted(self, tmp_path):
        path = self._write_torn_log(tmp_path / "torn.log")
        stats = ParseStats()
        records = parse_trace_file(path, errors="skip", stats=stats)
        assert [r.name for r in records] == ["Op0", "Op1", "Op2"]
        assert stats.skipped_lines == 1

    def test_skip_semantics_match_between_engines(self, tmp_path):
        path = self._write_torn_log(tmp_path / "torn.log")
        columnar_stats, record_stats = ParseStats(), ParseStats()
        columnar = parse_trace_file(path, errors="skip", stats=columnar_stats)
        with analysis_engine("records"):
            oracle = parse_trace_file(path, errors="skip", stats=record_stats)
        assert columnar == oracle
        assert columnar_stats.skipped_lines == record_stats.skipped_lines

    def test_columns_roundtrip_matches_oracle(self, tmp_path):
        path = tmp_path / "trace.log"
        with LotusLogWriter(path) as writer:
            for i in range(10):
                writer.write(make_record(i))
        cols = parse_trace_file_columns(path)
        assert isinstance(cols, TraceColumns)
        with analysis_engine("records"):
            oracle = parse_trace_file(path)
        assert cols.to_records() == oracle

    def test_parse_bytes_corrupt_middle_line(self):
        good = [make_record(i).to_line() for i in range(3)]
        blob = (good[0] + "\nnot,a,record\n" + good[1] + "\n" + good[2] + "\n").encode()
        with pytest.raises(TraceError):
            parse_trace_bytes(blob)
        stats = ParseStats()
        cols = parse_trace_bytes(blob, errors="skip", stats=stats)
        assert len(cols) == 3
        assert stats.skipped_lines == 1
