"""Fuzz the input boundary: every from_json and the file inputs of the CLI.

Malformed input must give a ValueError (exit 2 from the CLI), and input that
is read must give exit 0 or 1; no other exception may escape. Examples are
drawn from arbitrary JSON values and from near-valid objects whose fields are
fuzzed one by one, with a bounded, derandomized example budget.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vanishingflats import GF, AffineSubspace, Cover
from vanishingflats.cli import main

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=4),
    max_leaves=10)
INT = st.integers(-3, 20) | st.integers()


def near(**fields):
    """Objects with some of the given fields, each valid-ish or arbitrary."""
    return st.fixed_dictionaries({}, optional={k: v | JSON for k, v in fields.items()})


# small valid fields (one of them reducible), so the nested checks are reached
FIELD = (st.sampled_from([{"n": 2, "modulus": 7}, {"n": 3, "modulus": 11},
                          {"n": 3, "modulus": 9}, {"n": 4, "modulus": 19}])
         | near(n=INT, modulus=INT))
FLAT = near(base=INT, basis=st.lists(INT, max_size=5))

NEAR = {
    GF: near(n=INT, modulus=INT),
    AffineSubspace: FLAT,
    Cover: near(field=FIELD, dimension=INT, flats=st.lists(FLAT | JSON, max_size=6)),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


@pytest.mark.parametrize("cls", list(NEAR), ids=lambda c: c.__name__)
@FUZZ
@given(data=st.data())
def test_from_json_accepts_or_raises_value_error(cls, data):
    obj = data.draw(NEAR[cls] | JSON)
    try:
        cls.from_json(obj)
    except ValueError:
        pass


@FUZZ
@given(obj=NEAR[Cover] | JSON)
def test_cover_verify_input_exits_cleanly(obj, workdir):
    path = workdir / "cover.json"
    path.write_text(json.dumps(obj))
    assert _exit_code(["cover", "verify", "--input", path]) in (0, 1, 2)


TABLE_FILES = (st.binary(max_size=64)
               | st.text(max_size=64).map(str.encode)
               | st.lists(INT, max_size=10).map(lambda v: "\n".join(map(str, v)).encode())
               | st.lists(st.integers(0, 7), min_size=8, max_size=8)  # a table of GF(2^3)
                 .map(lambda v: "\n".join(map(str, v)).encode()))


@FUZZ
@given(content=TABLE_FILES,
       command=st.sampled_from([["spectrum"], ["vflats", "count"], ["vflats", "list"]]))
def test_table_file_exits_cleanly(content, command, workdir):
    path = workdir / "table.txt"
    path.write_bytes(content)
    assert _exit_code(command + ["--n", "3", "--table-file", path]) in (0, 2)
