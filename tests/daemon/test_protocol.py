"""Wire-format tests: round trips, versioning, malformed input."""

import json

import pytest

from repro.daemon import protocol as proto
from repro.exceptions import ProtocolError

MESSAGES = [
    proto.RunRequest(job_id="j1", app_name="lammps", n_nodes=2,
                     work_units=8.9e5, max_slowdown=0.3, priority=2,
                     app_kwargs={"n_steps": 1_000_000}),
    proto.RunRequest(job_id="j2", app_name="stream", n_nodes=1,
                     work_units=1e4),
    proto.StatusRequest(job_id="j1"),
    proto.ListRequest(),
    proto.KillRequest(job_id="j1"),
    proto.WatchRequest(watch_id="w1", topic="progress/j1", hwm=16,
                       events=False),
    proto.TickRequest(epochs=7),
    proto.InfoRequest(),
    proto.ShutdownRequest(),
    proto.RunReply(job_id="j1", seq=3, state="pending"),
    proto.StatusReply(job_id="j1", state="running", n_nodes=2,
                      work_units=8.9e5, progress=1.25e5,
                      submit_time=0.0, start_time=1.0, end_time=None,
                      cap=55.0, measured_slowdown=None),
    proto.ListReply(now=4.0, jobs=[{"job_id": "j1", "state": "running",
                                    "app_name": "lammps", "n_nodes": 2,
                                    "priority": 0, "seq": 0}]),
    proto.KillReply(job_id="j1", was_running=True),
    proto.WatchReply(watch_id="w1", resumed=True),
    proto.TickReply(now=5.0, epochs=5, running=1, queued=2),
    proto.InfoReply(protocol=1, now=5.0, epochs=5, n_slots=4,
                    power_budget=300.0, policy="backfill", queued=0,
                    running=1, completed=2, killed=0),
    proto.ShutdownReply(checkpointed=True),
    proto.ErrorReply(code="queue-full", message="nope"),
    proto.StreamTelemetry(time=3.0, topic="progress/j1/0", value=2.5e5),
    proto.EventTelemetry(time=3.0, kind="JobStarted",
                         data={"job_id": "j1", "slots": [0, 1]}),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "message", MESSAGES, ids=[type(m).__name__ for m in MESSAGES])
    def test_encode_decode_identity(self, message):
        line = proto.encode(message)
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        assert proto.decode(line) == message

    def test_envelope_shape(self):
        envelope = json.loads(proto.encode(proto.ListRequest()))
        assert envelope == {"v": proto.PROTOCOL_VERSION,
                            "type": "list_request", "body": {}}

    def test_wire_type_names(self):
        assert proto.wire_type(proto.RunRequest) == "run_request"
        assert proto.wire_type(proto.StreamTelemetry) == \
            "stream_telemetry"

    def test_decode_accepts_str(self):
        message = proto.TickRequest(epochs=2)
        assert proto.decode(proto.encode(message).decode()) == message

    def test_defaults_fill_omitted_fields(self):
        line = json.dumps({"v": 1, "type": "watch_request",
                           "body": {"watch_id": "w1"}})
        decoded = proto.decode(line)
        assert decoded == proto.WatchRequest(watch_id="w1")


class TestEncodeErrors:
    def test_non_wire_type_rejected(self):
        with pytest.raises(ProtocolError):
            proto.encode({"not": "a message"})

    def test_nan_rejected(self):
        bad = proto.StreamTelemetry(time=0.0, topic="p",
                                    value=float("nan"))
        with pytest.raises(ProtocolError):
            proto.encode(bad)

    def test_unencodable_body_rejected(self):
        bad = proto.EventTelemetry(time=0.0, kind="X",
                                   data={"fn": lambda: None})
        with pytest.raises(ProtocolError):
            proto.encode(bad)


class TestDecodeErrors:
    @pytest.mark.parametrize("line", [
        b"not json\n",
        b"[1, 2]\n",
        b'{"type": "list_request", "body": {}}\n',          # no version
        b'{"v": 99, "type": "list_request", "body": {}}\n',  # wrong version
        b'{"v": 1, "type": "frob_request", "body": {}}\n',   # unknown type
        b'{"v": 1, "type": "list_request", "body": 3}\n',    # body not dict
        b'{"v": 1, "type": "tick_request", "body": {"bogus": 1}}\n',
        b'{"v": 1, "type": "kill_request", "body": {}}\n',   # missing field
    ])
    def test_malformed_lines_raise(self, line):
        with pytest.raises(ProtocolError):
            proto.decode(line)

    def test_version_mismatch_message_names_both_versions(self):
        with pytest.raises(ProtocolError, match="99"):
            proto.decode(b'{"v": 99, "type": "list_request", "body": {}}')


#: Frames that break the daemon if admitted: each field mistyped or
#: non-finite. Every one must be refused at decode time.
BAD_FIELD_LINES = {
    "n_nodes-float":
        b'{"v": 1, "type": "run_request", "body": {"job_id": "j",'
        b' "app_name": "lammps", "n_nodes": 1.5, "work_units": 10}}',
    "n_nodes-bool":
        b'{"v": 1, "type": "run_request", "body": {"job_id": "j",'
        b' "app_name": "lammps", "n_nodes": true, "work_units": 10}}',
    "work_units-Infinity":
        b'{"v": 1, "type": "run_request", "body": {"job_id": "j",'
        b' "app_name": "lammps", "n_nodes": 1, "work_units": Infinity}}',
    "work_units-overflow":
        b'{"v": 1, "type": "run_request", "body": {"job_id": "j",'
        b' "app_name": "lammps", "n_nodes": 1, "work_units": 1e999}}',
    "priority-NaN":
        b'{"v": 1, "type": "run_request", "body": {"job_id": "j",'
        b' "app_name": "lammps", "n_nodes": 1, "work_units": 10,'
        b' "priority": NaN}}',
    "job_id-null":
        b'{"v": 1, "type": "run_request", "body": {"job_id": null,'
        b' "app_name": "lammps", "n_nodes": 1, "work_units": 10}}',
    "hwm-NaN":
        b'{"v": 1, "type": "watch_request", "body": {"watch_id": "w",'
        b' "hwm": NaN}}',
    "epochs-NaN":
        b'{"v": 1, "type": "tick_request", "body": {"epochs": NaN}}',
    "epochs-str":
        b'{"v": 1, "type": "tick_request", "body": {"epochs": "3"}}',
}


class TestFieldTypes:
    @pytest.mark.parametrize("line", BAD_FIELD_LINES.values(),
                             ids=BAD_FIELD_LINES.keys())
    def test_mistyped_or_non_finite_field_raises(self, line):
        with pytest.raises(ProtocolError):
            proto.decode(line)

    def test_int_is_accepted_for_a_float_field(self):
        decoded = proto.decode(
            b'{"v": 1, "type": "run_request", "body": {"job_id": "j",'
            b' "app_name": "lammps", "n_nodes": 2, "work_units": 10}}')
        assert decoded.work_units == 10 and decoded.n_nodes == 2

    def test_null_only_where_the_annotation_allows_it(self):
        decoded = proto.decode(
            b'{"v": 1, "type": "run_request", "body": {"job_id": "j",'
            b' "app_name": "lammps", "n_nodes": 1, "work_units": 1.5,'
            b' "max_slowdown": null, "app_kwargs": null}}')
        assert decoded.max_slowdown is None and decoded.app_kwargs is None
