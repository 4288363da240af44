"""HTML substrate for the weblint reproduction.

This package contains everything weblint needs to know about HTML as a
language, independent of any particular check:

- :mod:`repro.html.tokens` -- the token model produced by the tokenizer.
- :mod:`repro.html.tokenizer` -- the ad-hoc, heuristic tokenizer described
  in section 5.1 of the paper.
- :mod:`repro.html.entities` -- named and numeric character references.
- :mod:`repro.html.links` -- the links and anchors a token stream holds,
  collected by a filter the engine can lint through.
- :mod:`repro.html.spec` -- the :class:`~repro.html.spec.HTMLSpec` tables
  that drive the checker (the ``Weblint::HTML40`` idea).
- :mod:`repro.html.html32` / :mod:`repro.html.html40` /
  :mod:`repro.html.netscape` / :mod:`repro.html.microsoft` -- concrete
  language definitions.
- :mod:`repro.html.dtdgen` -- generate an ``HTMLSpec`` from a (subset)
  SGML DTD, the paper's "driving weblint with a DTD" future-work item.
"""

from repro.html.spec import HTMLSpec, ElementDef, AttributeDef, get_spec, available_specs
from repro.html.tokens import (
    Token,
    TokenKind,
    Attribute,
    StartTag,
    EndTag,
    Text,
    Comment,
    Declaration,
    ProcessingInstruction,
)
from repro.html.tokenizer import Tokenizer, tokenize

__all__ = [
    "HTMLSpec",
    "ElementDef",
    "AttributeDef",
    "get_spec",
    "available_specs",
    "Token",
    "TokenKind",
    "Attribute",
    "StartTag",
    "EndTag",
    "Text",
    "Comment",
    "Declaration",
    "ProcessingInstruction",
    "Tokenizer",
    "tokenize",
]
