"""JSON input: one compiled reader behind a nesting guard.

The reader must give exactly what json.loads gives on valid documents,
floats bit for bit, and turn every malformed input into a spec error.
"""

import json
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandflow.cli import (
    MAX_JSON_DEPTH,
    _load_section_file,
    _nesting_depth,
    _read_json,
    load_family_spec,
    main,
)
from bandflow.errors import SpecError

SRC = Path(__file__).parents[1] / "src"


def _bits(x: float) -> int:
    return int(np.array([x]).view(np.int64)[0])


def _same(a, b) -> bool:
    """Equal values of equal types, floats compared bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return _bits(a) == _bits(b)
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


# --------------------------------------------------------- parity with json


_TEXT = st.text(st.characters(codec="utf-8"), max_size=8)
_LEAVES = st.one_of(
    st.none(), st.booleans(), _TEXT,
    st.integers(-2**63, 2**64 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     2.225073858507201e-308, 1.7976931348623157e308, 0.1, 1e23]),
)
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=200)
@given(_DOCUMENTS, st.booleans(), st.sampled_from([None, 0, 2]))
def test_reader_matches_json_loads(doc, ascii_only, indent):
    text = json.dumps(doc, ensure_ascii=ascii_only, indent=indent)
    assert _same(_read_json(text.encode("utf-8"), "x"), json.loads(text))


_DIGITS = st.text("0123456789", min_size=1, max_size=40)


@st.composite
def _decimal_strings(draw):
    """JSON numbers with long mantissas over the whole double range."""
    sign = draw(st.sampled_from(["", "-"]))
    head = draw(_DIGITS).lstrip("0") or "0"
    frac = draw(st.one_of(st.just(""), _DIGITS.map(lambda d: "." + d)))
    exp = draw(st.one_of(st.just(""), st.integers(-360, 330).map(lambda e: f"e{e:+d}")))
    return sign + head + frac + exp


@settings(max_examples=300)
@given(_decimal_strings())
def test_long_decimals_round_like_json_loads(text):
    """Integers beyond 64 bits come out as the nearest double, numbers
    beyond the double range as a spec error."""
    expected = json.loads(text)
    if isinstance(expected, int) and not -2**63 <= expected < 2**64:
        expected = float(expected)
    if isinstance(expected, float) and math.isinf(expected):
        with pytest.raises(SpecError, match="malformed JSON"):
            _read_json(text.encode(), "x")
    else:
        assert _same(_read_json(text.encode(), "x"), expected)


@settings(max_examples=200)
@given(st.floats(min_value=0.0, max_value=1.7976931348623155e308, exclude_min=True),
       st.sampled_from([0, 1, -1]))
def test_halfway_decimals_round_to_even(x, nudge):
    """The decimal midway between two doubles, exact and one ulp of its
    last digit off, against float()."""
    y = np.nextafter(x, np.inf)
    with localcontext() as ctx:
        ctx.prec = 2000
        mid = (Decimal(x) + Decimal(float(y))) / 2
        mid += nudge * Decimal((0, (1,), mid.as_tuple().exponent))
        text = format(mid, "e") if mid else "0"
    for t in (text, "-" + text):
        assert _bits(_read_json(t.encode(), "x")) == _bits(float(t))


def test_many_long_decimals_in_one_document_are_bitwise_float():
    rng = np.random.default_rng(7)
    n = 20_000
    heads = rng.integers(1, 10**18, n)
    tails = rng.integers(0, 10**18, n)
    exps = rng.integers(-340, 300, n)
    texts = [f"{h}{t:018d}e{e}" for h, t, e in zip(heads.tolist(), tails.tolist(), exps.tolist())]
    expected = np.array([float(t) for t in texts])
    texts = [t for t, x in zip(texts, expected) if math.isfinite(x)]
    expected = expected[np.isfinite(expected)]
    got = np.array(_read_json(("[" + ",".join(texts) + "]").encode(), "x"))
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("n", [2**64, 2**64 + 1, -2**63 - 1, 3**100, -(10**300)])
def test_integers_beyond_64_bits_read_as_the_nearest_double(n):
    value = _read_json(str(n).encode(), "x")
    assert isinstance(value, float) and value == float(n)


# --------------------------------------------------------- nesting guard


def _lexical_depth(raw: bytes) -> int:
    """Deepest nesting reached before the first lexical error, byte by byte."""
    stack = []
    deepest = 0
    in_string = escaped = False
    for c in raw.decode("latin-1"):
        if in_string:
            if escaped:
                escaped = False
            elif c == "\\":
                escaped = True
            elif c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c in "[{":
            stack.append(c)
            deepest = max(deepest, len(stack))
        elif c in "]}":
            if not stack or stack.pop() != "[{"["]}".index(c)]:
                break
        elif c == "\\":
            break
    return deepest


def _nesting(doc) -> int:
    if isinstance(doc, list):
        return 1 + max(map(_nesting, doc), default=0)
    if isinstance(doc, dict):
        return 1 + max(map(_nesting, doc.values()), default=0)
    return 0


_BRACKETY = st.lists(st.sampled_from([b"[", b"]", b"{", b"}", b'"', b"\\", b"\\\\", b'\\"',
                                      b"a", b",", b":", b"0", b"\xff"]),
                     max_size=60).map(b"".join)
_TRICKY_TEXT = st.text(st.sampled_from('[]{}"\\ax\u00e9\u2028'), max_size=8)
_TRICKY_DOCUMENTS = st.recursive(
    st.one_of(st.none(), st.integers(), _TRICKY_TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_TRICKY_TEXT, inner, max_size=3)),
    max_leaves=30,
)


@settings(max_examples=300)
@given(_TRICKY_DOCUMENTS, st.booleans())
def test_depth_scan_is_exact_on_valid_json(doc, ascii_only):
    raw = json.dumps(doc, ensure_ascii=ascii_only).encode("utf-8")
    assert _nesting_depth(raw) == _lexical_depth(raw) == _nesting(doc)


@settings(max_examples=500)
@given(st.one_of(_BRACKETY, st.binary(max_size=60)))
def test_depth_scan_never_undercounts_malformed_bytes(raw):
    assert _nesting_depth(raw) >= _lexical_depth(raw)


def test_the_guard_admits_64_levels_and_rejects_65():
    ok = b"[" * MAX_JSON_DEPTH + b"]" * MAX_JSON_DEPTH
    assert _nesting_depth(ok) == MAX_JSON_DEPTH
    assert _nesting(_read_json(ok, "x")) == MAX_JSON_DEPTH
    too_deep = b"[" + ok + b"]"
    with pytest.raises(SpecError, match=f"nested deeper than {MAX_JSON_DEPTH} levels"):
        _read_json(too_deep, "x")


# ------------------------------------------------- malformed input, end to end


_FRAMES = b", ".join([b'{"columns": [[{"re": 1.0}, {"re": 0.0}]]}'] * 3)


def _spec_with(prefix: bytes, token: bytes) -> bytes:
    """A crossing spec whose params.k is token, two levels deep."""
    return prefix + b'{"generator": "crossing", "params": {"k": ' + token + b"}}"


def _section_with(prefix: bytes, token: bytes) -> bytes:
    """A section file for _SAMPLED with token two levels deep in a field it ignores."""
    return (prefix + b'{"extra": {"k": ' + token + b'}, "reference_cut": 0.0, "subspaces": ['
            + _FRAMES + b"]}")


def _lists(levels: int) -> bytes:
    return b"[" * levels + b"]" * levels


_SAMPLED = {"sampled": {"dim": 2, "matrices": {"real": [np.diag([s, 1.0]).tolist()
                                                        for s in (-0.5, 0.0, 0.5)]},
                        "grid": {"kind": "interval_path", "samples": [0.0, 0.5, 1.0],
                                 "closure": "open_path"}}}

# (prefix, token) of each malformed case
_MALFORMED = {
    "nan": (b"", b"NaN"),
    "infinity": (b"", b"-Infinity"),
    "overflow": (b"", b"1e400"),
    "lone-surrogate": (b"", b'"\\ud800"'),
    "bom": (b"\xef\xbb\xbf", b"1"),
    "byte-ff": (b"", b'"\xff"'),
    "depth-65": (b"", _lists(MAX_JSON_DEPTH - 1)),
}


def test_the_table_is_malformed_only_where_it_says(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_bytes(_spec_with(b"", b"1"))
    assert main(["flow", "--spec", str(spec), "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    # 64 levels pass the guard and reach the generator
    spec.write_bytes(_spec_with(b"", _lists(MAX_JSON_DEPTH - 2)))
    assert main(["flow", "--spec", str(spec), "--out", str(tmp_path / "b")]) == 1
    assert capsys.readouterr().err.startswith("spec error: spec.params: ")
    spec.write_text(json.dumps(_SAMPLED))
    section = tmp_path / "section.json"
    section.write_bytes(_section_with(b"", _lists(MAX_JSON_DEPTH - 2)))
    weak, raw = _load_section_file(section, load_family_spec(spec)[0])
    assert len(weak.subspaces) == 3 and raw == section.read_bytes()


@pytest.mark.parametrize("prefix, token", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_spec_json_is_a_spec_error(tmp_path, capsys, prefix, token):
    spec = tmp_path / "spec.json"
    spec.write_bytes(_spec_with(prefix, token))
    out = tmp_path / "out"
    assert main(["flow", "--spec", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"spec error: spec: {spec}: malformed JSON: ")
    assert not out.exists()


@pytest.mark.parametrize("prefix, token", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_section_json_is_a_spec_error(tmp_path, capsys, prefix, token):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_SAMPLED))
    section = tmp_path / "section.json"
    section.write_bytes(_section_with(prefix, token))
    out = tmp_path / "out"
    assert main(["section", "--spec", str(spec), "--section-file", str(section),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"spec error: section: {section}: malformed JSON: ")
    assert not out.exists()


@pytest.mark.parametrize("which", ["spec", "section"])
def test_a_million_levels_is_a_spec_error_not_a_crash(tmp_path, which):
    """Run in a child process, so that a crash fails the test, not pytest."""
    deep = b"[" * 1_000_000 + b"]" * 1_000_000
    spec = tmp_path / "spec.json"
    section = tmp_path / "section.json"
    argv = ["flow", "--spec", str(spec)]
    if which == "spec":
        spec.write_bytes(deep)
    else:
        spec.write_text(json.dumps(_SAMPLED))
        section.write_bytes(deep)
        argv = ["section", "--spec", str(spec), "--section-file", str(section)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    res = subprocess.run([sys.executable, "-m", "bandflow", *argv, "--out", str(tmp_path / "out")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 1, res.stderr[-2000:]
    assert res.stderr.startswith(f"spec error: {which}: ")
    assert "nested deeper than 64 levels" in res.stderr
    assert "Traceback" not in res.stderr
