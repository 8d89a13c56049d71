"""Seeded byte-level mutations of the fixtures through `cli.main`, in-process.

Whatever the bytes, each call exits 0 or 1, no exception escapes, and a
failed call prints one diagnostic in README's form: ``error: file:line:
message``, or ``error: file: not UTF-8 text: ...`` for a file that does
not decode. Exit 2 is kept for an OSError, and every file here exists and
can be read, so no call may exit 2.
"""

from __future__ import annotations

import random

import pytest

from adaptmeter.cli import main
from conftest import FIXTURES_DIR

MUTANTS = 400
PROCESSES = [FIXTURES_DIR / name for name in ("travel_booking.bpel", "travel_booking_linear.bpel", "booking_mini.bpel")]
ASPECTS = [FIXTURES_DIR / "verify_request.aspect.xml", *sorted((FIXTURES_DIR / "aspects").glob("*.xml"))]
ASPECTS_DIR = str(FIXTURES_DIR / "aspects")
TRAVEL, LINEAR = (str(path) for path in PROCESSES[:2])
SOURCES = [path.read_bytes() for path in PROCESSES + ASPECTS]

STRAYS = (b"<case>", b"</case>", b"<otherwise/>", b"<onMessage>", b"<sequence>", b"</sequence>", b"<invoke/>",
          b"<scope/>", b'<advice type="after"><invoke/></advice>', b"<pointcut>//invoke</pointcut>",
          b'<process name="x">', b"<partnerLinks/>", b"text", b"<!-- c -->", b"<?pi x?>", b"<![CDATA[<x>]]>")
ENCODINGS = (b"utf-16", b"UTF-16LE", b"latin-1", b"iso-8859-1", b"ascii", b"x-unknown", b"")
KINDS = (b"sequence", b"switch", b"pick", b"flow", b"while", b"invoke", b"receive", b"reply", b"assign", b"case",
         b"scope")
BAD_VALUES = (b"", b"maybe", b" TRUE ", b"Before", b"sideways", b"&#0;", b"\xc3\xa9")


def _at(rng: random.Random, data: bytes) -> int:
    return rng.randrange(len(data) + 1)


def _before_a_tag(rng: random.Random, data: bytes) -> int:
    tags = [i for i, byte in enumerate(data) if byte == ord("<")]
    return rng.choice(tags) if tags else _at(rng, data)


def _delete(rng, data):
    start = _at(rng, data)
    return data[:start] + data[start + rng.randint(1, 40):]


def _truncate(rng, data):
    return data[:_at(rng, data)]


def _splice(rng, data):
    other = rng.choice(SOURCES)
    start = _at(rng, other)
    at = _at(rng, data)
    return data[:at] + other[start:start + rng.randint(1, 200)] + data[at:]


def _doctype(rng, data):
    doctype = rng.choice((b"<!DOCTYPE process>", b'<!DOCTYPE x [<!ENTITY e "boom">]>', b'<!DOCTYPE x SYSTEM "x.dtd">'))
    at = data.find(b"?>") + 2 if b"?>" in data else 0
    return data[:at] + doctype + data[at:]


def _encoding(rng, data):
    declared = b'<?xml version="1.0" encoding="' + rng.choice(ENCODINGS) + b'"?>'
    body = data.split(b"?>", 1)[-1]
    if rng.random() < 0.5:
        return declared + body
    codec = rng.choice(("utf-16", "utf-16-be", "latin-1", "cp1252"))
    # The whole document in another encoding, with a character UTF-8 writes differently.
    return (declared + body).decode("utf-8", "replace").replace("e", "é", 1).encode(codec, "replace")


def _bom(rng, data):
    return rng.choice((b"\xef\xbb\xbf", b"\xff\xfe", b"\xfe\xff", b"\xef\xbb\xbf\xef\xbb\xbf")) + data


def _nul(rng, data):
    at = _at(rng, data)
    return data[:at] + rng.choice((b"\x00", b"\xff", b"\x80", b"\xc3", b"&#0;", b"&#xD800;")) + data[at:]


def _stray(rng, data):
    at = _before_a_tag(rng, data)
    return data[:at] + rng.choice(STRAYS) + data[at:]


def _bad_value(rng, data):
    attribute = rng.choice((b"enabled", b"type"))
    value = rng.choice(BAD_VALUES)
    if attribute == b"type" and b'type="' in data:
        start = data.index(b'type="') + 6
        return data[:start] + value + data[data.index(b'"', start):]
    root = rng.choice((b"<aspect ", b"<process ", b"<sequence"))
    return data.replace(root, root + b" " + attribute + b'="' + value + b'" ', 1)


def _retag(rng, data):
    # Renaming every tag of one kind, say each <sequence> to <invoke>, can make
    # the root activity basic, its children opaque, or a branch unwrapped.
    present = sorted((data.find(b"<" + kind), kind) for kind in KINDS if b"<" + kind in data) or [(0, b"case")]
    # Half the time the first kind in the document: a process's root activity.
    old = present[0][1] if rng.random() < 0.5 else rng.choice(present)[1]
    new = rng.choice([kind for kind in KINDS if kind != old])
    return data.replace(b"<" + old, b"<" + new).replace(b"</" + old, b"</" + new)


MUTATIONS = (_delete, _truncate, _splice, _doctype, _encoding, _bom, _nul, _stray, _bad_value, _retag)


def _mutant(rng: random.Random) -> tuple[int, bytes, list[str]]:
    """A fixture's index, its bytes after one to three mutations, and their names.

    Half the mutants are processes, and most carry one mutation: stacked
    mutations mostly stop at the first malformed byte.
    """
    which = rng.randrange(len(PROCESSES)) if rng.random() < 0.5 else rng.randrange(len(PROCESSES), len(SOURCES))
    data, applied = SOURCES[which], []
    for mutation in rng.choices(MUTATIONS, k=rng.choice((1, 1, 1, 2, 3))):
        data = mutation(rng, data)
        applied.append(mutation.__name__)
    return which, data, applied


def _check(capsys, argv: list[str], mutant: str, data: bytes, context: str) -> tuple[int, str]:
    """Run one call and check its exit code and diagnostics; return the code and stderr."""
    try:
        code = main(argv)
    except Exception as exc:  # noqa: BLE001 - the assertion is that nothing escapes
        pytest.fail(f"{context}: {argv} raised {exc!r}")
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert code in (0, 1), (context, argv, code, err)
    assert all(line.startswith("warning: ") for line in lines[:-1]), (context, argv, err)
    if code == 0:
        assert out and (not lines or lines[-1].startswith("warning: ")), (context, argv, err)
        return code, err
    # Every other input is a valid fixture, so the one diagnostic names the mutant.
    assert out == "" and lines and lines[-1].startswith(f"error: {mutant}:"), (context, argv, err)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        assert lines[-1].startswith(f"error: {mutant}: not UTF-8 text: "), (context, argv, err)
        return code, err
    line, colon, message = lines[-1][len(f"error: {mutant}:"):].partition(": ")
    assert colon and message and line.isdigit(), (context, argv, err)
    # expat counts a lone carriage return as a line end too
    assert 1 <= int(line) <= text.count("\n") + text.count("\r") + 1, (context, argv, err)
    return code, err


def test_mutated_fixtures_exit_cleanly_with_located_diagnostics(tmp_path, capsys):
    rng = random.Random(1977)
    codes = []
    for number in range(MUTANTS):
        which, data, applied = _mutant(rng)
        context = f"mutant {number} of fixture {which}: {', '.join(applied)}"
        if which < len(PROCESSES):
            mutant = str(tmp_path / "mutant.bpel")
            calls = [
                ["analyze", mutant, "--aspects", ASPECTS_DIR],
                ["analyze", mutant, "--aspects", ASPECTS_DIR, "--format", "json"],
                ["sweep", mutant, "--exhaustive"],
                ["compare", TRAVEL, mutant, "--aspects", ASPECTS_DIR],
            ]
        else:
            mutant = str(tmp_path / "mutant.xml")
            calls = [
                ["analyze", TRAVEL, "--aspects", mutant],
                ["analyze", TRAVEL, "--aspects", ASPECTS_DIR, "--aspects", mutant, "--format", "json"],
                ["compare", TRAVEL, LINEAR, "--aspects", ASPECTS_DIR, "--aspects2", mutant],
            ]
        with open(mutant, "wb") as handle:
            handle.write(data)
        codes += [_check(capsys, argv, mutant, data, context)[0] for argv in calls]
    # The mutations break most documents, but not all of them.
    assert 0.2 * len(codes) < codes.count(1) < 0.95 * len(codes)


def test_mutated_files_in_an_aspects_directory_are_skipped_or_located(tmp_path, capsys):
    # In a directory, a file that is not well-formed UTF-8 XML is skipped with
    # a note; one that is well-formed but breaks the aspect grammar fails.
    rng = random.Random(1978)
    directory = tmp_path / "aspects"
    directory.mkdir()
    mutant = str(directory / "mutant.xml")
    outcomes = []
    for number in range(MUTANTS // 4):
        _, data, applied = _mutant(rng)
        (directory / "mutant.xml").write_bytes(data)
        code, err = _check(capsys, ["analyze", TRAVEL, "--aspects", str(directory)], mutant, data,
                           f"directory mutant {number}: {', '.join(applied)}")
        outcomes.append("skipped" if f"warning: skipping {mutant}: " in err else code)
    assert {"skipped", 0, 1} <= set(outcomes)
