"""3-byte wire protocol (paper §6.5)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.protocol import (
    MESSAGE_SIZE_BYTES,
    MSG_CAP,
    MSG_READING,
    decode,
    decode_batch,
    encode,
    encode_batch,
    quantize_w,
)


class TestEncoding:
    def test_exactly_three_bytes(self):
        assert len(encode(MSG_READING, 0, 0.0)) == MESSAGE_SIZE_BYTES
        assert len(encode(MSG_CAP, 1023, 409.5)) == MESSAGE_SIZE_BYTES

    def test_round_trip(self):
        msg = decode(encode(MSG_READING, 7, 123.4))
        assert msg.kind == MSG_READING
        assert msg.unit == 7
        assert msg.value_w == pytest.approx(123.4)

    def test_quantized_to_tenth_watt(self):
        msg = decode(encode(MSG_CAP, 0, 110.04))
        assert msg.value_w == pytest.approx(110.0)
        msg = decode(encode(MSG_CAP, 0, 110.06))
        assert msg.value_w == pytest.approx(110.1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            encode(3, 0, 1.0)

    def test_rejects_unit_out_of_range(self):
        with pytest.raises(ValueError, match="unit"):
            encode(MSG_READING, 1024, 1.0)
        with pytest.raises(ValueError, match="unit"):
            encode(MSG_READING, -1, 1.0)

    def test_rejects_value_out_of_range(self):
        with pytest.raises(ValueError, match="value_w"):
            encode(MSG_READING, 0, 410.0)
        with pytest.raises(ValueError, match="value_w"):
            encode(MSG_READING, 0, -0.1)


class TestHalfUpBoundaries:
    """Ties at the 0.05 W midpoint round *up*, never to-even.

    Built-in ``round`` would send 0.25 W and 0.35 W to the same wire
    value (0.2 and 0.4 — round-to-even) while 0.15 W goes up; explicit
    half-up keeps every boundary direction-stable.
    """

    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            (0.05, 0.1),
            (0.15, 0.2),
            (0.25, 0.3),  # round() would give 0.2.
            (0.35, 0.4),
            (0.45, 0.5),  # round() would give 0.4.
            (102.25, 102.3),
            (409.45, 409.5),
        ],
    )
    def test_midpoints_round_up(self, value, expected):
        msg = decode(encode(MSG_CAP, 0, value))
        assert msg.value_w == pytest.approx(expected)
        assert quantize_w(value) == pytest.approx(expected)

    def test_quantize_matches_wire(self):
        for decis in range(0, 4096):
            value = decis / 10.0 + 0.05
            if value > 409.5:
                break
            assert decode(encode(MSG_CAP, 0, value)).value_w == pytest.approx(
                quantize_w(value)
            )

    @given(st.floats(0.0, 409.4))
    @settings(max_examples=200, deadline=None)
    def test_quantization_is_monotone(self, value):
        lo = decode(encode(MSG_READING, 0, value)).value_w
        hi = decode(encode(MSG_READING, 0, value + 0.1)).value_w
        assert hi >= lo


class TestDecoding:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="3 bytes"):
            decode(b"\x00\x00")

    def test_rejects_corrupt_kind(self):
        # Set the top kind bits to 3 (invalid).
        with pytest.raises(ValueError, match="corrupt"):
            decode(b"\xc0\x00\x00")


class TestProperties:
    @given(
        st.sampled_from([MSG_READING, MSG_CAP]),
        st.integers(0, 1023),
        st.integers(0, 4095),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_exact_on_grid(self, kind, unit, decis):
        value = decis / 10.0
        msg = decode(encode(kind, unit, value))
        assert msg == (kind, unit, pytest.approx(value))

    @given(st.floats(0.0, 409.5))
    @settings(max_examples=100, deadline=None)
    def test_quantization_error_bounded(self, value):
        msg = decode(encode(MSG_READING, 0, value))
        assert abs(msg.value_w - value) <= 0.05 + 1e-9


#: Values on the wire's edges: exact 0.05 W midpoints, both range ends,
#: and their immediate float neighbours.
_EDGES = [0.0, 0.05, 0.15, 0.25, 0.35, 102.25, 409.45, 409.5,
          math.nextafter(0.25, 0.0), math.nextafter(0.25, 1.0),
          math.nextafter(409.5, 0.0)]
_VALUES = st.one_of(st.sampled_from(_EDGES), st.floats(0.0, 409.5))
_KINDS = st.sampled_from([MSG_READING, MSG_CAP])


def _scalar_payload(kind, values):
    return b"".join(encode(kind, unit, v) for unit, v in enumerate(values))


def _raises(fn, *args):
    try:
        fn(*args)
    except ValueError:
        return True
    return False


class TestBatchParity:
    """The batch codec against the scalar one, its oracle."""

    @given(_KINDS, st.lists(_VALUES, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_encode_batch_matches_scalar_bytes(self, kind, values):
        assert encode_batch(kind, np.asarray(values)) == _scalar_payload(
            kind, values
        )

    @given(
        st.lists(st.tuples(_KINDS, st.integers(0, 1023), _VALUES),
                 max_size=300)
    )
    @settings(max_examples=200, deadline=None)
    def test_decode_batch_matches_scalar_decode(self, messages):
        payload = b"".join(encode(k, u, v) for k, u, v in messages)
        kinds, units, values = decode_batch(payload)
        expected = [
            decode(payload[i : i + MESSAGE_SIZE_BYTES])
            for i in range(0, len(payload), MESSAGE_SIZE_BYTES)
        ]
        assert kinds.tolist() == [m.kind for m in expected]
        assert units.tolist() == [m.unit for m in expected]
        # Python-float equality, not approx: the same bits as decode.
        assert values.tolist() == [m.value_w for m in expected]

    def test_edges_round_trip_exactly(self):
        payload = encode_batch(MSG_CAP, np.asarray(_EDGES))
        _, _, values = decode_batch(payload)
        assert values.tolist() == [quantize_w(v) for v in _EDGES]
        assert values[:5].tolist() == [0.0, 0.1, 0.2, 0.3, 0.4]

    @given(
        _KINDS,
        st.lists(_VALUES, max_size=20),
        st.one_of(
            st.sampled_from([math.nan, math.inf, -math.inf, -0.1, 409.55]),
            st.floats(max_value=0.0, exclude_max=True, allow_nan=False),
            st.floats(min_value=409.5, exclude_min=True),
        ),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_bad_values_raise_on_both_paths(self, kind, values, bad, data):
        at = data.draw(st.integers(0, len(values)))
        values = values[:at] + [bad] + values[at:]
        assert _raises(encode, kind, at, bad)
        assert _raises(encode_batch, kind, np.asarray(values))

    @pytest.mark.parametrize("kind", [2, 3, -1])
    def test_bad_kind_raises_on_both_encoders(self, kind):
        assert _raises(encode, kind, 0, 1.0)
        assert _raises(encode_batch, kind, np.asarray([1.0]))

    @given(st.sampled_from([2, 3]), st.integers(0, 1023),
           st.integers(0, 4095), st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_corrupt_kind_raises_on_both_decoders(self, kind, unit, decis,
                                                  at):
        bad = ((kind << 22) | (unit << 12) | decis).to_bytes(3, "big")
        good = encode(MSG_READING, 0, 1.0)
        payload = good * at + bad + good
        with pytest.raises(ValueError, match="corrupt"):
            decode(bad)
        with pytest.raises(ValueError, match="corrupt"):
            decode_batch(payload)

    @pytest.mark.parametrize("length", [1, 2, 4, 5, 602])
    def test_partial_message_rejected(self, length):
        with pytest.raises(ValueError, match="multiple of 3"):
            decode_batch(bytes(length))

    def test_unit_field_bounds_batch_size(self):
        assert len(encode_batch(MSG_READING, np.zeros(1024))) == 3 * 1024
        with pytest.raises(ValueError, match="unit"):
            encode_batch(MSG_READING, np.zeros(1025))
