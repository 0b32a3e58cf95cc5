"""The numpy "%.17g" and repr kernels against Python's own formatting, on floats chosen to
break them, and the JSON writer against the stdlib's."""

import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_propagate import JSON_VALUES, NASTY_FLOATS

from nlevel_rabi import csvtext


def _neighbours(x, k):
    """x and its k nearest floats on each side."""
    down, up = [x], [x]
    for _ in range(k):
        down.append(np.nextafter(down[-1], -np.inf))
        up.append(np.nextafter(up[-1], np.inf))
    return down[:0:-1] + up


def _exact_ties():
    """Floats whose exact decimal value has 18 significant digits, the last a 5.

    m / 2^j with m odd is m 5^j / 10^j; it is a float when m < 2^53.
    """
    rng = np.random.default_rng(5)
    ties = []
    for j in range(1, 26):
        low, high = -(-10 ** 17 // 5 ** j), min((10 ** 18 - 1) // 5 ** j, 2 ** 53 - 1)
        if low > high:
            continue
        for m in {low, high, *(int(v) for v in rng.integers(low, high + 1, 8))}:
            m -= 1 - m % 2  # odd
            if len(str(m * 5 ** j)) == 18 and m > 0:
                ties.append(m / 2 ** j)
    return ties


def _adversarial_floats():
    rng = np.random.default_rng(17)
    values = []
    for k in range(-323, 309):  # 10^k and its three float neighbours on each side
        values += _neighbours(float(f"1e{k}"), 3)
    for tie in _exact_ties():
        values += _neighbours(tie, 1)
    for x in (1e16, 1e17, 99999999999999984.0, 9999999999999998.0, 1e-200, 1e200):
        values += _neighbours(x, 20)  # 17-digit integers, the carry, the fast range's edges
    values += [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               np.nan, -np.nan, np.inf, -np.inf, 1234567890123456.75]
    values += list(rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(float))
    values = np.array(values)
    return np.concatenate((values, -values))


def test_lines_match_percent_17g_on_adversarial_floats():
    values = _adversarial_floats()
    column = "".join(csvtext.lines(values[:, None]))
    assert column == "".join("%.17g\n" % v for v in values.tolist())
    # each row of seven cells ends with a newline, the others with commas
    table = values[: len(values) // 7 * 7].reshape(-1, 7)
    assert "".join(csvtext.lines(table)) == "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())


def test_kernel_falls_back_exactly_where_it_cannot_prove_the_digits():
    ties = np.array(_exact_ties())
    assert len(ties) > 100 and csvtext.slots(ties)[1].all()
    # 1e-14 and 1e-176 are just below their powers of ten: 17 nines and a carry
    fast = np.array([1e-200, 1e200, 0.1, 1.5, 1e16, 1e17, 0.0, -0.0, 123.0, -5e-5, 1e-14,
                     1e-176])
    assert not csvtext.slots(fast)[1].any()
    slow = np.array([np.nan, np.inf, -np.inf, 5e-324, 1e-201, 1e201, 1.7e308])
    assert csvtext.slots(slow)[1].all()


def _repr_texts(values):
    """The kernel's repr text of each value, with the "," each slot ends in."""
    return csvtext.slots(values, shortest=True)[0].tobytes().translate(None, b"\0").decode()


def _json_texts(values):
    return "".join(json.dumps(v) + "," for v in values.tolist())


def test_repr_kernel_matches_repr_on_adversarial_floats():
    values = _adversarial_floats()
    assert _repr_texts(values) == _json_texts(values)


def test_repr_kernel_matches_repr_next_to_powers_of_two_and_its_layout_switches():
    values = [v for k in range(-1074, 1024) for v in _neighbours(2.0 ** k, 3)]
    # where the layout switches: 1e16 and 1e-5 are written with an exponent, 1e15 and 1e-4
    # without
    for x in (1e16, 1e15, 1e-5, 1e-4):
        values += _neighbours(x, 20)
    values = np.array(values)
    values = np.concatenate((values, -values))
    assert _repr_texts(values) == _json_texts(values)
    # the kernel takes the narrower gap below a power of two into account; only 2^-25, whose
    # 17 digits are an exact tie (29802322387695312.5), is left to Python
    powers = np.ldexp(1.0, np.arange(-660, 51))
    assert np.array_equal(csvtext.slots(powers, shortest=True)[1], powers == 2.0 ** -25)


def test_repr_kernel_matches_repr_on_1_to_17_significant_digits():
    rng = np.random.default_rng(23)
    values = []
    for digits in range(1, 18):
        mantissas = rng.integers(10 ** (digits - 1), 10 ** digits, 3000)
        exponents = rng.integers(-215, 215, 3000)
        values += [float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
    values = np.array(values)
    values = np.concatenate((values, -values))
    assert _repr_texts(values) == _json_texts(values)


def _arrays(shape):
    size = math.prod(shape)
    return st.lists(NASTY_FLOATS, min_size=size, max_size=size).map(
        lambda cells: np.array(cells, dtype=float).reshape(shape))


def _dicts(values):
    return st.dictionaries(st.text(max_size=3), values, max_size=4)


ARRAYS = st.lists(st.integers(0, 3), min_size=1, max_size=3).flatmap(_arrays)
# arrays in lists, beside other values, in lists of lists and in dicts in lists
VALUES = st.one_of(ARRAYS, JSON_VALUES, st.lists(
    st.one_of(ARRAYS, JSON_VALUES, st.lists(ARRAYS, max_size=2), _dicts(ARRAYS)), max_size=3))


def _listed(value):
    if isinstance(value, dict):
        return {key: _listed(item) for key, item in value.items()}
    if isinstance(value, list):
        return list(map(_listed, value))
    return value.tolist() if isinstance(value, np.ndarray) else value


def _dumped(doc):
    out = io.StringIO()
    csvtext.dump_json(doc, out)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(_dicts(st.one_of(VALUES, _dicts(st.one_of(VALUES, _dicts(VALUES))))))  # dict depths 1-3
def test_dump_json_is_the_stdlib_indent_2_text(doc):
    assert _dumped(doc) == json.dumps(_listed(doc), indent=2)


def test_dump_json_salts_its_holes_past_the_strings_of_the_doc():
    # keys and strings that spell the first two markers, alone and after an escaped quote
    doc = {"\x01": np.ones(2), "\x010": ["\x010", np.eye(2), '"\x011'], "a": {"\x011": "\x01"},
           "b": [[np.zeros((1, 2))], "\x010"], "\x012": np.arange(3.0)}
    assert _dumped(doc) == json.dumps(_listed(doc), indent=2)


@pytest.mark.parametrize("value", [{1.0}, np.arange(3)], ids=["set", "int64-array"])
def test_dump_json_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value)
    with pytest.raises(TypeError, match=re.escape(str(expected.value))):
        _dumped({"a": np.ones(2), "b": [value]})
