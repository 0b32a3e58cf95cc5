"""The numpy "%.17g" kernel against Python's own formatting, on floats chosen to break it."""

import numpy as np

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
