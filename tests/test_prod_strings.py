"""The PROD dialect writes a marking string between quotes, unescaped:
export either writes one that reads back as itself or raises ValueError.
(Kept apart from test_prod.py, which the benchmark imports without
Hypothesis.)"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnets import prod
from gnets.analysis import FlatNet, FlatPlace


def marked(value):
    return FlatNet(places={"p1f": FlatPlace("p1f", ("s",))}, transitions=(),
                   initial={"p1f": [(value,)]}, domains={})


@given(st.text(string.printable) | st.text())
@settings(max_examples=200, deadline=None)
def test_string_token_reads_back_or_export_refuses(value):
    try:
        text = prod.export_prod(marked(value))
    except ValueError as exc:
        assert "p1f" in str(exc) and repr(value) in str(exc)
        # only a quote, a + or a line break can make a string unreadable
        assert '"' in value or "+" in value \
            or len(f"a{value}b".splitlines()) > 1
        return
    assert prod.reparse_prod(text).initial == {"p1f": [(value,)]}


@pytest.mark.parametrize("value", ['x"y', "a\nb", "a\rb", "a\u2028b",
                                   "+<.1.>", "a+ b<.c"])
def test_unreadable_strings_are_refused(value):
    with pytest.raises(ValueError, match="p1f"):
        prod.export_prod(marked(value))


@pytest.mark.parametrize("value", ["", "a b", "a+b", "<.x.>", "x.>+",
                                   "a+>b<.c", "t;<.u", "#place"])
def test_other_strings_read_back(value):
    text = prod.export_prod(marked(value))
    assert prod.reparse_prod(text).initial == {"p1f": [(value,)]}
