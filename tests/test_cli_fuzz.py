"""Generated malformed inputs, run through ``cli.main`` in process.

Every run must end with exit code 0, 1 or 2 and no traceback: nothing but
``SystemExit`` (argparse's usage error) may leave ``main``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flowtrace import cli
from flowtrace.experiment import _PLAN_KEYS, _WORKLOAD_KEYS, load_spec_source
from flowtrace.spec_io import PROTOTYPE_SPEC, load_prototype, parse_system

from test_spec_io import serialize_system

FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr; any exception but
    ``SystemExit`` propagates and fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_clean(argv: list[str]) -> tuple[int, str]:
    code, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, err
    return code, err


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


@pytest.fixture(scope="module")
def valid_selection(workdir) -> dict:
    out = workdir / "valid.json"
    assert run_cli(["select", "prototype", "--metric", "fic", "--out", str(out)])[0] == 0
    return json.loads(out.read_text(encoding="utf-8"))


# -- selection files ---------------------------------------------------------

HUGE = object()  # written as an integer of more digits than ``int`` converts


class Pairs(list):
    """A JSON object as a list of (key, value) pairs, so a key may repeat."""


class Nested(tuple):
    """``(value, depth)``: ``value`` inside ``depth`` JSON arrays."""


class Raw(str):
    """JSON text written as it is, such as ``1e400``, which ``json``
    reads as infinity but writes as ``Infinity``."""


def pairs(value):
    """``value`` with every object turned into :class:`Pairs`."""
    if isinstance(value, dict):
        return Pairs((k, pairs(v)) for k, v in value.items())
    if isinstance(value, list):
        return [pairs(v) for v in value]
    return value


def dump(value) -> str:
    if isinstance(value, Raw):
        return value
    if value is HUGE:
        return "9" * 5000
    if isinstance(value, Nested):
        return "[" * value[1] + dump(value[0]) + "]" * value[1]
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dump, value)) + "]"
    return json.dumps(value)  # a float NaN is written NaN, which ``json`` reads


def slots(value, out: list) -> list:
    """Every (container, index) pair inside ``value``, depth first."""
    for i, child in enumerate(value):
        out.append((value, i))
        child = child[1] if isinstance(value, Pairs) else child
        if isinstance(child, list) and not isinstance(child, Nested):
            slots(child, out)
    return out


def put(container: list, i: int, value) -> None:
    container[i] = (container[i][0], value) if isinstance(container, Pairs) else value


json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(allow_nan=True),
    st.just(float("nan")), st.text(max_size=6), st.just([]), st.just(Pairs()), st.just(HUGE),
)


@st.composite
def mutated_selection(draw, valid: dict) -> bytes:
    """A ``select`` output with up to three keys or items dropped,
    duplicated, retyped or nested, then maybe truncated or given a byte
    that is not UTF-8."""
    body = pairs(copy.deepcopy(valid))
    for _ in range(draw(st.integers(1, 3))):
        places = slots(body, [])
        if not places:
            break
        container, i = draw(st.sampled_from(places))
        kind = draw(st.sampled_from(["drop", "duplicate", "retype", "nest"]))
        if kind == "drop":
            del container[i]
        elif kind == "duplicate":  # an object's key repeats, with a new value
            twin = container[i]
            if isinstance(container, Pairs):
                twin = (twin[0], draw(json_values))
            container.insert(draw(st.integers(0, len(container))), twin)
        elif kind == "retype":
            put(container, i, draw(json_values))
        else:
            old = container[i][1] if isinstance(container, Pairs) else container[i]
            put(container, i, Nested((old, draw(st.sampled_from([1, 2, 50, 5000])))))
    text = dump(body).encode()
    at = draw(st.integers(0, len(text)))
    cut = draw(st.sampled_from(["whole", "truncate", "bytes"]))
    if cut == "truncate":
        text = text[:at]
    elif cut == "bytes":
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\x00", b"\xed\xa0\x80"]))
        text = text[:at] + bad + text[at:]
    return text


@FUZZ
@given(data=st.data())
def test_a_mutated_selection_file_exits_cleanly(workdir, valid_selection, data):
    path = workdir / "selection.json"
    path.write_bytes(data.draw(mutated_selection(valid_selection)))
    code, err = assert_clean([
        "simulate", "prototype", "--selection", str(path), "--instances", "1",
        "--out-dir", str(workdir / "sim"),
    ])
    if code == 2:  # every rejection of the file names it
        assert err.startswith(f"error: {path}: "), err


# -- numeric flags -----------------------------------------------------------

bad_numbers = st.one_of(
    st.sampled_from(["0", "-1", "-7", str(10**30), "9" * 5000, "1.5", "1e3", "0x10", "", "x"]),
    st.integers(-(10**40), 10**40).map(str),
    st.text(max_size=5),
)
# ``--instances`` runs that many instances per initiator, so it is drawn
# small: a huge count is a valid request whose run time grows with it.
small_or_bad = st.one_of(
    st.sampled_from(["0", "-1", "1.5", "", "x", "9" * 5000]), st.integers(-3, 2).map(str)
)
FLAGS = {
    "select": ("--k", "--capacity", "--port-bandwidth"),
    "simulate": ("--capacity", "--seed", "--port-bandwidth", "--instances"),
    "paths": ("--max-paths",),
}


@FUZZ
@given(data=st.data())
def test_numeric_flags_exit_cleanly(workdir, data):
    command = data.draw(st.sampled_from(sorted(FLAGS)))
    flags = data.draw(st.sets(st.sampled_from(FLAGS[command]), min_size=1))
    if command == "select":
        argv = ["select", "prototype", "--metric", data.draw(st.sampled_from(["fic", "cec", "fc"]))]
    elif command == "paths":
        argv = ["paths", "prototype", load_prototype().flows[0].id]
    else:
        argv = ["simulate", "prototype", "--out-dir", str(workdir / "sim"), "--instances", "1"]
    for flag in sorted(flags):
        value = data.draw(small_or_bad if flag == "--instances" else bad_numbers)
        argv.append(f"{flag}={value}")
    assert_clean(argv)


# -- plan JSON ---------------------------------------------------------------

# A valid value of each plan key and ``workload`` key, small enough that a
# grid of it runs in milliseconds: 3 instances per initiator and 2 seeds.
VALID_PLAN = {
    "spec": "prototype",
    "scope": "CPU0,GFX",
    "selection": "fic",
    "capacities": [8],
    "seeds": [1, 2],
    "port_bandwidth": 1,
    "drain": True,
    "out_dir": "grid",
    "workload": {"instances_per_initiator": 3},
}
VALID_WORKLOAD = {
    "instances_per_initiator": 3,
    "initiation_delay": [1, 10],
    "transition_latency": [1, 5],
}
DIGITS = "9" * 5000


def bad_values(key: str, valid):
    """Of a wrong type, null, zero or negative, nested in a list or an
    object, or heavy with digits.  A count of instances is never a large
    positive number, which would be a valid request that runs long."""
    heavy = [DIGITS, f"fc:{DIGITS}", f"fc:{'0' * 5000}3", f"fc:{10**19}", HUGE, [HUGE]]
    if key != "instances_per_initiator":
        heavy += [10**30, [10**30], [1, 10**30]]
    return st.sampled_from([
        True, 1.5, "x", 2, Pairs(), None,
        0, -1, -(10**20), [0], [-3, 1],
        [valid], Pairs([("k", valid)]), Nested((valid, 2)),
        *heavy,
    ])


def run_plan(workdir: Path, command: str, body: Pairs) -> tuple[int, str]:
    """``command`` on ``body`` written as ``plan.json`` in ``workdir``."""
    path = workdir / "plan.json"
    path.write_text(dump(body), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(workdir)  # a relative ``out_dir`` is written here
    try:
        return assert_clean([command, str(path)])
    finally:
        os.chdir(cwd)


def valid_plan() -> Pairs:
    """``VALID_PLAN`` as pairs, its ``workload`` holding every workload key."""
    body = pairs(copy.deepcopy(VALID_PLAN))
    put(body, [k for k, _ in body].index("workload"), pairs(VALID_WORKLOAD))
    return body


def key_slot(body: Pairs, key: str) -> tuple[Pairs, str]:
    """The object that holds plan key ``key``, the workload's for
    ``workload.<key>``, and the key's name there."""
    outer, _, inner = key.partition(".")
    if inner:
        return body[[k for k, _ in body].index("workload")][1], inner
    return body, outer


def set_key(body: Pairs, key: str, value) -> None:
    """Set plan key ``key`` to ``value``, appending a key the plan lacks."""
    obj, name = key_slot(body, key)
    keys = [k for k, _ in obj]
    if name in keys:
        put(obj, keys.index(name), value)
    else:
        obj.append((name, value))


def assert_one_error_naming(err: str, key: str, other: str | None = None) -> None:
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert repr(key.rpartition(".")[2]) in err, (key, err)
    if other is not None:
        assert repr(other.rpartition(".")[2]) not in err, (key, other, err)


@FUZZ
@given(data=st.data())
def test_a_plan_with_a_bad_value_exits_cleanly_naming_it(workdir, data):
    """``run`` and ``compare`` end with exit code 0 or 2, and a rejection
    is one ``error:`` line that names the key, its value or the plan."""
    command = data.draw(st.sampled_from(["run", "compare"]))
    key = data.draw(st.sampled_from([*VALID_PLAN, *(f"workload.{k}" for k in VALID_WORKLOAD)]))
    outer, _, inner = key.partition(".")
    valid = (VALID_WORKLOAD if inner else VALID_PLAN)[inner or outer]
    value = data.draw(bad_values(inner or outer, valid))
    body = valid_plan()
    set_key(body, key, value)
    code, err = run_plan(workdir, command, body)
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        # The key, the plan, a string value quoted (maybe shortened), or
        # the value or one of its items after "got".
        items = value if isinstance(value, list) else []
        plan = str(workdir / "plan.json")
        named = [inner or outer, plan, *(f"got {v!r}" for v in [value, *items])]
        if isinstance(value, str):
            named.append(repr(value)[:12])
        # A latency or delay that outlives the cycle budget names the instance.
        if inner in ("transition_latency", "initiation_delay"):
            named.append(" still running after ")
        assert any(name in err for name in named), err


# Every plan key and ``workload`` key, and JSON numbers no key accepts:
# ``json`` reads each as a float, 1e400 as infinity.
ALL_PLAN_KEYS = [*_PLAN_KEYS, *(f"workload.{k}" for k in _WORKLOAD_KEYS)]
ODD_NUMBERS = [Raw("NaN"), Raw("Infinity"), Raw("-Infinity"), Raw("1e400")]
# A bad key is reported in this order: an unknown key of the plan, then one
# of its workload, then the plan keys and the workload keys in order.
UNKNOWN_KEYS = ["colour", "workload.instance_count"]
REPORT_ORDER = [*UNKNOWN_KEYS, *ALL_PLAN_KEYS]


@FUZZ
@given(
    command=st.sampled_from(["run", "compare"]),
    key=st.sampled_from([*ALL_PLAN_KEYS, "workload"]),
    value=st.sampled_from(ODD_NUMBERS),
)
def test_a_plan_number_no_key_accepts_exits_two_naming_the_key(workdir, command, key, value):
    body = valid_plan()
    set_key(body, key, value)
    code, err = run_plan(workdir, command, body)
    assert code == 2, err
    assert_one_error_naming(err, key)


@FUZZ
@given(
    command=st.sampled_from(["run", "compare"]),
    key=st.sampled_from(ALL_PLAN_KEYS),
    value=st.sampled_from([None, *ODD_NUMBERS]),
    at=st.integers(0, 10),
)
def test_a_repeated_plan_key_exits_two_naming_it(workdir, command, key, value, at):
    """``json`` alone would keep the last value; ``None`` repeats the key
    with its valid value."""
    body = valid_plan()
    obj, name = key_slot(body, key)
    obj.insert(min(at, len(obj)), (name, dict(obj)[name] if value is None else value))
    code, err = run_plan(workdir, command, body)
    assert code == 2, err
    assert err.startswith(f"error: {workdir / 'plan.json'}: "), err
    assert_one_error_naming(err, key)


@FUZZ
@given(
    command=st.sampled_from(["run", "compare"]),
    keys=st.lists(st.sampled_from(REPORT_ORDER), min_size=2, max_size=2, unique=True),
    values=st.lists(st.sampled_from([*ODD_NUMBERS, Pairs()]), min_size=2, max_size=2),
)
def test_two_bad_plan_keys_exit_two_naming_the_first(workdir, command, keys, values):
    """No plan key accepts these values; the message names the first bad
    key in ``REPORT_ORDER``, whatever order the file lists them in."""
    body = valid_plan()
    for key, value in zip(keys, values):
        set_key(body, key, value)
    first, second = sorted(keys, key=REPORT_ORDER.index)
    code, err = run_plan(workdir, command, body)
    assert code == 2, err
    assert_one_error_naming(err, first, second)


# -- spec text ---------------------------------------------------------------

SPEC_LINES = [line for line in PROTOTYPE_SPEC.split("\n") if not line.startswith("#")]
SPEC_INSERTS = ["9" * 30, "\u00e9", "\ufeff", "{", "->", "channel 1"]


@st.composite
def mutated_spec(draw) -> bytes:
    """The prototype spec with up to three lines dropped, duplicated,
    swapped, given a word swapped or dropped, a space turned into a tab or
    ``\\v``, a token inserted or the line cut short; then written with
    LF, CRLF or CR line endings."""
    lines = list(SPEC_LINES)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line, words = lines[i], lines[i].split(" ")
        kind = draw(st.sampled_from(
            ["drop", "duplicate", "swap", "swap word", "drop word", "separator", "insert", "cut"]
        ))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, line)
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], line
        elif kind == "swap word":
            j, k = draw(st.integers(0, len(words) - 1)), draw(st.integers(0, len(words) - 1))
            words[j], words[k] = words[k], words[j]
            lines[i] = " ".join(words)
        elif kind == "drop word":
            del words[draw(st.integers(0, len(words) - 1))]
            lines[i] = " ".join(words)
        elif kind == "separator":
            if spaces := [at for at, c in enumerate(line) if c == " "]:
                at = draw(st.sampled_from(spaces))
                lines[i] = line[:at] + draw(st.sampled_from(["\t", "\v"])) + line[at + 1:]
        elif kind == "insert":
            at = draw(st.integers(0, len(line)))
            lines[i] = line[:at] + draw(st.sampled_from(SPEC_INSERTS)) + line[at:]
        else:
            lines[i] = line[:draw(st.integers(0, len(line)))]
        if not lines:
            break
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines).encode("utf-8")


@FUZZ
@given(text=mutated_spec())
def test_a_mutated_spec_exits_cleanly(workdir, text):
    """``validate`` accepts a mutant or rejects it with one ``error:`` line
    naming the file and the line.  An accepted one equals the parse of its
    own serialisation, and ``select`` and ``simulate`` end cleanly on it,
    with a rejection on one ``error:`` line."""
    path = workdir / "mutant.spec"
    path.write_bytes(text)
    code, err = assert_clean(["validate", str(path)])
    if code:
        assert re.fullmatch(rf"error: {re.escape(str(path))}: line [0-9]+\b.*\n", err), err
        return
    spec = load_spec_source(str(path))
    assert parse_system(serialize_system(spec)) == spec
    for argv in (
        *(["select", str(path), "--metric", metric] for metric in ("fic", "cec", "fc")),
        ["simulate", str(path), "--instances", "2", "--out-dir", str(workdir / "sim")],
    ):
        code, err = assert_clean(argv)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
