import pytest

from repro.core.lotustrace import (
    CacheTraceStats,
    SchedTraceStats,
    TransportStats,
    analysis_engine,
    analyze_trace,
    parse_trace_bytes,
    parse_trace_lines,
)
from repro.core.lotustrace.records import (
    COUNTER_TAGS,
    FAULT_KINDS,
    KIND_BATCH_CONSUMED,
    KIND_BATCH_PREPROCESSED,
    KIND_BATCH_TRANSPORT,
    KIND_BATCH_WAIT,
    KIND_CACHE_STATS,
    KIND_OP,
    KIND_SCHED,
    KIND_STRINGS,
    MAIN_PROCESS_WORKER_ID,
    OOO_MARKER_DURATION_NS,
    TraceRecord,
    format_counter_name,
    parse_counter_name,
)
from repro.core.lotustrace.spans import span_name_parts
from repro.errors import TraceError


def make_record(**overrides):
    defaults = dict(
        kind=KIND_OP,
        name="RandomResizedCrop",
        batch_id=-1,
        worker_id=2,
        pid=1234,
        start_ns=1_000_000,
        duration_ns=5_000,
    )
    defaults.update(overrides)
    return TraceRecord(**defaults)


class TestTraceRecord:
    def test_end_ns(self):
        assert make_record().end_ns == 1_005_000

    def test_roundtrip_line(self):
        record = make_record(kind=KIND_BATCH_WAIT, out_of_order=True)
        assert TraceRecord.from_line(record.to_line()) == record

    def test_roundtrip_all_kinds(self):
        for kind in (KIND_OP, KIND_BATCH_PREPROCESSED, KIND_BATCH_WAIT,
                     KIND_BATCH_CONSUMED):
            record = make_record(kind=kind, batch_id=7)
            assert TraceRecord.from_line(record.to_line()) == record

    def test_roundtrip_with_newline(self):
        record = make_record()
        assert TraceRecord.from_line(record.to_line() + "\n") == record

    def test_invalid_kind(self):
        with pytest.raises(TraceError):
            make_record(kind="bogus")

    def test_negative_duration(self):
        with pytest.raises(TraceError):
            make_record(duration_ns=-1)

    def test_malformed_line_wrong_fields(self):
        with pytest.raises(TraceError):
            TraceRecord.from_line("op,Name,1,2")

    def test_malformed_line_bad_int(self):
        line = make_record().to_line().replace("1234", "notanint")
        with pytest.raises(TraceError):
            TraceRecord.from_line(line)

    def test_ooo_marker_is_one_microsecond(self):
        assert OOO_MARKER_DURATION_NS == 1_000

    def test_main_process_sentinel(self):
        assert MAIN_PROCESS_WORKER_ID == -1


class TestKindTable:
    def test_codes_keep_their_values(self):
        # Kind codes are persisted; the table may only grow at the end.
        assert KIND_STRINGS == (
            "op", "batch_preprocessed", "batch_wait", "batch_consumed",
            "worker_restart", "sample_skipped", "sample_retried",
            "heartbeat", "batch_transport", "cache_stats", "sched",
        )

    def test_derived_tables(self):
        assert FAULT_KINDS == {
            "worker_restart", "sample_skipped", "sample_retried", "heartbeat"
        }
        assert COUNTER_TAGS == {
            KIND_BATCH_TRANSPORT: "bc",
            KIND_CACHE_STATS: "hmxep",
            KIND_SCHED: "qsd",
        }
        prefixes = span_name_parts()
        assert 0 not in prefixes  # op spans are named after the transform
        assert prefixes[KIND_STRINGS.index(KIND_SCHED)] == "SSched"
        assert len(prefixes) == len(KIND_STRINGS) - 1


#: One sample value tuple per counter kind (mode first).
COUNTER_SAMPLES = {
    KIND_BATCH_TRANSPORT: ("shm", 1048576, 1),
    KIND_CACHE_STATS: ("shared", 3, 1, 1, 0, 4096),
    KIND_SCHED: ("stealing", 3, 1, 2),
}


@pytest.mark.parametrize("kind", sorted(COUNTER_TAGS))
class TestCounterCodec:
    def test_round_trip(self, kind):
        sample = COUNTER_SAMPLES[kind]
        name = format_counter_name(kind, *sample)
        assert "," not in name
        assert parse_counter_name(kind, name) == sample

    def test_name_layout(self, kind):
        mode, *values = COUNTER_SAMPLES[kind]
        expected = ";".join(
            [mode] + [f"{tag}{v}" for tag, v in zip(COUNTER_TAGS[kind], values)]
        )
        assert format_counter_name(kind, mode, *values) == expected

    def test_wrong_value_count_rejected(self, kind):
        with pytest.raises(TraceError):
            format_counter_name(kind, *COUNTER_SAMPLES[kind], 7)

    @pytest.mark.parametrize("corrupt", [
        lambda name: name.rsplit(";", 1)[0],          # field missing
        lambda name: name + ";z1",                     # field extra
        lambda name: name.replace(";", ";z", 1),       # wrong tag
        lambda name: name + "x",                       # not an integer
        lambda name: name.split(";", 1)[1],            # mode missing
    ], ids=["missing-field", "extra-field", "wrong-tag", "not-int", "no-mode"])
    def test_malformed_names_raise(self, kind, corrupt):
        name = corrupt(format_counter_name(kind, *COUNTER_SAMPLES[kind]))
        with pytest.raises(TraceError, match=f"malformed {kind} record"):
            parse_counter_name(kind, name)

    def test_mode_token_is_free_form(self, kind):
        # Records of modes no longer offered (the removed ``adaptive``
        # scheduler) still parse.
        _, *values = COUNTER_SAMPLES[kind]
        name = format_counter_name(kind, "adaptive", *values)
        assert parse_counter_name(kind, name) == ("adaptive", *values)


# Literal counter lines in the on-disk format, with hand-computed totals.
# Repeated names check that the columnar engine weights each interned
# name by its record count.
COUNTER_LINES = {
    KIND_BATCH_TRANSPORT: (
        [
            "batch_transport,shm;b1000;c1,0,0,100,10,500,0",
            "batch_transport,shm;b1000;c1,1,1,101,20,700,0",
            "batch_transport,pickle;b300;c2,2,0,100,30,50,0",
        ],
        {
            "shm": TransportStats("shm", 2, 2000, 2, 1200),
            "pickle": TransportStats("pickle", 1, 300, 2, 50),
        },
    ),
    KIND_CACHE_STATS: (
        [
            "cache_stats,shared;h3;m1;x1;e0;p4096,0,0,100,10,0,0",
            "cache_stats,shared;h4;m0;x2;e1;p8192,1,1,101,20,0,0",
            "cache_stats,shared;h3;m1;x1;e0;p4096,2,0,100,30,0,0",
            "cache_stats,private;h0;m4;x0;e0;p0,3,1,101,40,0,0",
        ],
        {
            "shared": CacheTraceStats("shared", 3, 10, 2, 4, 1, 8192),
            "private": CacheTraceStats("private", 1, 0, 4, 0, 0, 0),
        },
    ),
    KIND_SCHED: (
        [
            "sched,stealing;q3;s1;d2,0,-1,100,10,0,0",
            "sched,stealing;q2;s0;d2,1,-1,100,20,0,0",
            "sched,stealing;q3;s1;d2,2,-1,100,30,0,0",
            "sched,adaptive;q5;s2;d1,3,-1,100,40,0,0",
            "sched,adaptive;q1;s0;d3,4,-1,100,50,0,0",
        ],
        {
            "stealing": SchedTraceStats("stealing", 3, 2, 3, 8, 2, 2),
            "adaptive": SchedTraceStats("adaptive", 2, 2, 5, 6, 1, 3),
        },
    ),
}

_STATS_METHOD = {
    KIND_BATCH_TRANSPORT: "transport_stats",
    KIND_CACHE_STATS: "cache_stats",
    KIND_SCHED: "sched_stats",
}


@pytest.mark.parametrize("kind", sorted(COUNTER_TAGS))
class TestCounterAggregation:
    def test_both_engines_match_hand_totals(self, kind):
        lines, expected = COUNTER_LINES[kind]
        method = _STATS_METHOD[kind]
        with analysis_engine("records"):
            oracle = analyze_trace(parse_trace_lines(lines))
        columnar = analyze_trace(
            parse_trace_bytes("".join(line + "\n" for line in lines).encode())
        )
        assert getattr(oracle, method)() == expected
        assert getattr(columnar, method)() == expected
        assert oracle.counter_stats(kind) == expected
        # Bookkeeping records never fabricate batch flows.
        assert oracle.num_batches() == columnar.num_batches() == 0
        assert oracle.records_of(kind) == columnar.records_of(kind)
        assert len(oracle.records_of(kind)) == len(lines)

    def test_absent_kind_gives_empty(self, kind):
        lines = ["batch_wait,wait,0,-1,100,10,5,0"]
        with analysis_engine("records"):
            assert analyze_trace(parse_trace_lines(lines)).counter_stats(kind) == {}
        assert analyze_trace(parse_trace_lines(lines)).counter_stats(kind) == {}


def test_records_of_rejects_flow_kinds():
    analysis = analyze_trace(parse_trace_lines(["batch_wait,wait,0,-1,1,2,3,0"]))
    for kind in (KIND_OP, KIND_BATCH_WAIT, "bogus"):
        with pytest.raises(TraceError):
            analysis.records_of(kind)
