"""The regex scan of `.ppc` text against the character-loop tokenizer
(`dsl_oracle`): token texts and kinds, the line and column of every token
(the end of input included) and the ParseError text."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsl_oracle as oracle
from ppcat.dsl import DIGITS, parse, position, tokenize
from ppcat.errors import ParseError

# Blanks, the characters that start tokens, and characters that str methods
# and regex classes treat differently: NBSP and VT are whitespace to
# str.isspace but not blanks here; superscripts, fractions and roman numerals
# are isalnum but start no token; '𝟘' and '١' are decimal digits but not
# ASCII ones.
ALPHABET = ["->", "#", " ", "\t", "\r", "\n", "\xa0", "\x0b", "é", "ß", "ǅ", "²", "½", "Ⅻ",
            "\U0001d7d8", "١", "a", "Q", "_", "x1", "0", "7", "42", "-", ">", "{", "}",
            "(", ")", "[", "]", ";", ":", ",", "*", "+", "/", ".", "=", "!", "quiver"]
# half the alphabet again, so that many texts scan through to the end
VALID = [c for c in ALPHABET if c not in ("\xa0", "\x0b", "²", "½", "Ⅻ", "\U0001d7d8",
                                          "١", ">", "!")]

texts = st.builds(
    lambda parts, comment: "".join(parts) + comment,
    st.lists(st.sampled_from(ALPHABET + VALID * 3), max_size=40),
    st.sampled_from(["", "", "# a comment with no newline", "#", "  # ²\xa0!"]))


def check(text):
    try:
        want = oracle.tokenize(text)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            tokenize(text)
        assert str(got.value) == str(e)
        assert (got.value.line, got.value.col, got.value.found) == (e.line, e.col, e.found)
        return
    toks = tokenize(text)
    assert toks == [t.text for t in want]
    assert [position(text, k) for k in range(len(toks))] == [(t.line, t.col) for t in want]
    for t in want[:-1]:
        kind = "int" if t.text[0] in DIGITS else \
            "name" if t.text[0].isalpha() or t.text[0] == "_" else "punct"
        assert kind == t.kind, t


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(texts)
def test_scan_matches_the_character_loop(text):
    check(text)


@pytest.mark.parametrize("text, message", [
    ("quiver Q {\n  vertices 1;\n  # x", None),
    ("quiver Q {\n  vertices 1 ²;\n}\n", "2:14: expected a token, found '²'"),
    ("1²", "1:2: expected a token, found '²'"),
    ("a² ½", "1:4: expected a token, found '½'"),
    ("x # ok\n\xa0", "2:1: expected a token, found '\\xa0'"),
    ("#\n#\n  \t", None),
    ("", None),
    ("a -- > b", "1:6: expected a token, found '>'"),
])
def test_scan_edge_cases(text, message):
    check(text)
    if message is not None:
        with pytest.raises(ParseError) as got:
            tokenize(text)
        assert str(got.value) == message


def test_end_of_input_after_a_last_comment():
    # a comment takes no columns: the end of input is reported at its '#'
    with pytest.raises(ParseError) as got:
        parse("quiver Q {\n  vertices 1;\n  # x")
    assert str(got.value) == "3:3: expected '}', found 'end of input'"
