"""The streaming parser against a two-pass reader.

Seeded random process and aspect documents, most of them broken in some
way, must give equal models, or the same first error: class, message and
line. The reference reader, `oracles.parse_process_two_pass`, descends the
finished tree; it is the reader the streaming parser replaced, except that
it checks the activities a branch wrapper or an <advice> holds before their
count, so that it too reports the first broken rule in document order.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adaptmeter import AdaptMeterError, parse_aspect, parse_process
from oracles import local_attributes, parse_aspect_two_pass, parse_process_two_pass

DOCUMENTS = 5000
BASIC = ("receive", "invoke", "reply", "assign")
PLAIN = ("sequence", "flow", "while")
BRANCHES = {"switch": ("case", "otherwise"), "pick": ("onMessage", "onAlarm")}
STRANGERS = ("scope", "foo", "case", "advice", "pointcut", "partnerLink")
SELECTORS = ('//invoke', '//process//invoke[@operation="book"]', '//sequence[@name="a"]//reply',
             '//invoke[position()=1]', 'invoke', '//while[@name="b" and @x="y"]')


class Writer:
    """Random markup: mostly well-formed, often outside the grammar."""

    def __init__(self, rng: random.Random):
        self.random = rng.random

    def chance(self, p: float) -> bool:
        return self.random() < p

    def pick(self, options):
        return options[int(self.random() * len(options))]

    def tag(self, name: str) -> str:
        return f"bpel:{name}" if self.chance(0.15) else name

    def attrs(self, *keys: str) -> str:
        parts = []
        for key in keys:
            if self.chance(0.5):
                prefix = "bpel:" if self.chance(0.1) else ""
                parts.append(f' {prefix}{key}="{self.pick(("a", "b", "", "x &amp; y"))}"')
        if self.chance(0.05):
            parts.append(' xmlns:bpel="urn:x"' if self.chance(0.5) else ' xmlns="y"')
        return "".join(parts)

    def gap(self, text: str = "text") -> str:
        return self.pick(("", "", "\n", "\n", text))

    def element(self, name: str, attrs: str, body: list[str], text: str = "text") -> str:
        tag = self.tag(name)
        if not body and self.chance(0.5):
            return f"<{tag}{attrs}/>"
        return f"<{tag}{attrs}>{self.gap(text)}{self.gap(text).join(body)}{self.gap(text)}</{tag}>"

    def count(self, usual: int) -> int:
        return usual if self.chance(0.9) else self.pick((0, 1, 2, 3))

    def opaque(self) -> list[str]:
        return ["<copy><from>$x</from><to/></copy>"] if self.chance(0.1) else []

    def activity(self, depth: int = 0, structured: bool = False) -> str:
        roll = self.random()
        if roll < 0.03:
            return self.element(self.pick(STRANGERS), self.attrs("name"), [self.activity(depth + 1)])
        if not (structured and self.chance(0.9)) and (depth >= 2 or roll < 0.55):
            return self.element(self.pick(BASIC), self.attrs("name", "operation", "partnerLink"), self.opaque())
        kind = self.pick((*PLAIN, *BRANCHES))
        if kind not in BRANCHES:
            return self.element(kind, self.attrs("name"), [self.activity(depth + 1) for _ in range(self.count(2))])
        allowed = BRANCHES[kind] if self.chance(0.95) else BRANCHES["pick" if kind == "switch" else "switch"]
        wrappers = []
        for _ in range(self.count(2)):
            body = [self.activity(depth + 1) for _ in range(self.count(1))]
            wrappers.append(self.element(self.pick(allowed), self.attrs("condition", "name"), body))
        return self.element(kind, self.attrs("name"), wrappers)

    def sections(self) -> list[str]:
        out = []
        for section, entry in (("partnerLinks", "partnerLink"), ("variables", "variable")):
            if self.chance(0.4):
                entries = [self.element(entry if self.chance(0.9) else "role", self.attrs("name", "type"),
                                        self.opaque()) for _ in range(self.count(2))]
                out.append(self.element(section, "", entries))
        return out

    def process(self) -> str:
        body = self.sections() + [self.activity(structured=True) for _ in range(self.count(1))]
        if self.chance(0.05):
            body.insert(int(self.random() * (len(body) + 1)), "<faultHandlers/>")
        root = "process" if self.chance(0.95) else "aspect"
        name = ' name="P"' if self.chance(0.95) else ""
        return self.document(self.element(root, name + self.attrs("targetNamespace"), body))

    def pointcut(self) -> str:
        text = self.pick(SELECTORS)
        cut = int(self.random() * (len(text) + 1))
        split = self.pick(("", "<!-- c -->", "<![CDATA[", "<x>ignored</x>"))
        if split == "<![CDATA[":
            text = f"{text[:cut]}<![CDATA[{text[cut:]}]]>"
        else:
            text = text[:cut] + split + text[cut:]
        return self.element("pointcut", self.attrs("name"), [text], text="")

    def aspect(self) -> str:
        body = self.sections() + [self.pointcut() for _ in range(self.count(1))]
        for _ in range(self.count(1)):
            advice_type = self.pick(("before", "around", "after")) if self.chance(0.9) else "during"
            advice = [self.activity(1) for _ in range(self.count(1))]
            body.insert(int(self.random() * (len(body) + 1)), self.element("advice", f' type="{advice_type}"', advice))
        if self.chance(0.05):
            body.append("<unknown/>")
        enabled = self.pick(("", "", "", ' enabled="false"')) if self.chance(0.95) else ' enabled="maybe"'
        root = "aspect" if self.chance(0.95) else "process"
        name = ' name="A"' if self.chance(0.95) else ""
        return self.document(self.element(root, name + enabled, body))

    def document(self, text: str) -> str:
        if self.chance(0.02):
            text = "<!DOCTYPE process>" + text
        if self.chance(0.1):
            text = text[: int(self.random() * (len(text) + 1))]
        return text


def outcome(parse, text: str):
    try:
        return parse(text)
    except AdaptMeterError as exc:
        return type(exc), str(exc), exc.line


def _differ(kind: str, seed: int, streaming, two_pass) -> list[str]:
    writer = Writer(random.Random(seed))
    write = writer.process if kind == "process" else writer.aspect
    mismatches = []
    for _ in range(DOCUMENTS):
        text = write()
        if outcome(streaming, text) != outcome(two_pass, text):
            mismatches.append(text)
    return mismatches


def test_process_documents_match_the_two_pass_reader():
    assert _differ("process", 8101, parse_process, parse_process_two_pass)[:3] == []


def test_aspect_documents_match_the_two_pass_reader():
    assert _differ("aspect", 8102, parse_aspect, parse_aspect_two_pass)[:3] == []


# Attribute names of every form the parser meets: plain ones (xmlnsx only
# starts like a declaration), prefixed ones, namespace declarations and a
# name with two colons. Prefixed names can strip to the same local name.
LOCAL_NAMES = ("name", "operation", "enabled", "type", "xmlnsx")
ATTRIBUTE_NAMES = st.one_of(
    st.sampled_from(LOCAL_NAMES),
    st.builds("{}:{}".format, st.sampled_from(("p", "q", "bpel", "xmlns")), st.sampled_from(LOCAL_NAMES)),
    st.sampled_from(("xmlns", "a:b:c", "a:b:name")),
)
ATTRIBUTE_SETS = st.dictionaries(ATTRIBUTE_NAMES, st.sampled_from(("", "a", "before", "false", "maybe", 'x & "y" <z>')),
                                 max_size=5)


def _attribute_text(attrs: dict[str, str]) -> str:
    escape = str.maketrans({"&": "&amp;", "<": "&lt;", '"': "&quot;"})
    return "".join(f' {key}="{value.translate(escape)}"' for key, value in attrs.items())


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(ATTRIBUTE_SETS)
def test_attribute_sets_read_as_the_full_rewrite_reads_them(attrs):
    # The parser rewrites an element's attribute names only where some name
    # has a prefix or is xmlns. Every set must read as rewriting every name
    # reads it: the same activities, names, attributes and errors.
    text = _attribute_text(attrs)
    expected = local_attributes(attrs)
    name = expected.pop("name", None)
    process = parse_process(f'<process name="P"><sequence{text}><invoke{text}/></sequence></process>')
    for activity in (process.root, process.root.children[0]):
        assert (activity.name, dict(activity.attributes)) == (name, expected)
    for document, parse, two_pass in (
        (f"<process{text}><sequence><invoke/></sequence></process>", parse_process, parse_process_two_pass),
        (f'<aspect{text}><pointcut>//invoke</pointcut><advice{text}><invoke/></advice></aspect>',
         parse_aspect, parse_aspect_two_pass),
    ):
        assert outcome(parse, document) == outcome(two_pass, document)
