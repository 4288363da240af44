"""The weblint message catalog -- the ``Weblint::Warnings`` tables.

Paper section 4.3: "Weblint 1.020 supports 50 different output messages,
42 of which are enabled by default ... There are three categories of
output message: Errors ... Warnings ... Style comments."  And: "All
output messages have an identifier, which is used when enabling or
disabling it.  Weblint 2 will let users enable and disable all messages
of a given category."

This module reproduces that catalog: exactly 50 messages carry
``since="1.020"`` (the heritage set), of which exactly 42 are enabled by
default; further messages added by "weblint 2" carry ``since="2.0"``.
Experiment E2 asserts those counts.

Message templates are ``str.format`` strings; the wording follows the
paper's sample output where the paper shows it (section 4.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Category(enum.Enum):
    """The three categories of output message (paper section 4.3)."""

    ERROR = "error"
    WARNING = "warning"
    STYLE = "style"

    @classmethod
    def parse(cls, text: str) -> "Category":
        lowered = text.strip().lower()
        if lowered.endswith("s") and lowered != "s":
            lowered_singular = lowered[:-1]
        else:
            lowered_singular = lowered
        for member in cls:
            if member.value in (lowered, lowered_singular):
                return member
        raise ValueError(f"unknown message category: {text!r}")


@dataclass(frozen=True)
class Message:
    """One entry in the message catalog."""

    id: str
    category: Category
    template: str
    enabled_default: bool = True
    since: str = "1.020"
    description: str = ""

    def format(self, **arguments: object) -> str:
        return self.template.format(**arguments)


def _msg(
    id: str,
    category: Category,
    template: str,
    *,
    default: bool = True,
    since: str = "1.020",
    description: str = "",
) -> Message:
    return Message(
        id=id,
        category=category,
        template=template,
        enabled_default=default,
        since=since,
        description=description,
    )


E, W, S = Category.ERROR, Category.WARNING, Category.STYLE

_MESSAGES: tuple[Message, ...] = (
    # ------------------------------------------------------------------ errors
    _msg(
        "unclosed-element", E,
        "no closing </{element}> seen for <{element}> on line {open_line}",
        description="A container element requiring a close tag was never closed.",
    ),
    _msg(
        "illegal-closing", E,
        "unmatched </{element}> (no <{element}> seen)",
        description="A close tag appeared with no corresponding open element.",
    ),
    _msg(
        "unknown-element", E,
        "unknown element <{element}>{suggestion}",
        description="Element is not defined by the HTML version being checked; "
        "mis-typed element names like BLOCKQOUTE are suggested a fix.",
    ),
    _msg(
        "unknown-attribute", E,
        "unknown attribute \"{attribute}\" for element <{element}>",
        description="Attribute is not legal for this element in this HTML version.",
    ),
    _msg(
        "required-attribute", E,
        "the {attribute} attribute is required for the <{element}> element",
        description="A mandatory attribute is missing, e.g. ROWS and COLS on TEXTAREA.",
    ),
    _msg(
        "heading-mismatch", E,
        "malformed heading - open tag is <{open_heading}>, "
        "but closing is </{close_heading}>",
        description="A heading was closed with a different level, e.g. <H1>...</H2>.",
    ),
    _msg(
        "odd-quotes", E,
        "odd number of quotes in element <{tag}>",
        description="An attribute value's closing quote is missing.",
    ),
    _msg(
        "overlapped-element", E,
        "</{closed}> on line {close_line} seems to overlap <{open_element}>, "
        "opened on line {open_line}",
        description="Elements overlap instead of nesting, e.g. <B><A>...</B></A>.",
    ),
    _msg(
        "required-context", E,
        "illegal context for <{element}> - {requirement}",
        description="Element used outside its legal parents, e.g. LI outside a list.",
    ),
    _msg(
        "once-only", E,
        "multiple copies of element <{element}> is not allowed "
        "(first seen on line {first_line})",
        description="HTML, HEAD, BODY and TITLE may appear only once.",
    ),
    _msg(
        "head-element", E,
        "<{element}> can only appear in the HEAD element",
        description="Head-only elements (TITLE, META, BASE, LINK...) found in BODY.",
    ),
    _msg(
        "closing-attribute", E,
        "closing tag </{element}> should not have any attributes specified",
        description="End tags take no attributes.",
    ),
    _msg(
        "attribute-format", E,
        "illegal value for {attribute} attribute of {element} ({value})",
        description="Attribute value does not match its legal format, "
        "e.g. BGCOLOR=\"fffff\".",
    ),
    _msg(
        "nested-element", E,
        "<{element}> cannot be nested - </{element}> not yet seen "
        "for <{element}> on line {open_line}",
        description="Element illegally nested inside itself, e.g. A inside A.",
    ),
    _msg(
        "unclosed-comment", E,
        "unclosed comment, comment opened on line {open_line}",
        description="A comment was still open at end of document.",
    ),
    _msg(
        "unterminated-tag", E,
        "unterminated <{element}> tag - no '>' seen",
        description="End of input (or a new tag) arrived inside a tag.",
    ),
    _msg(
        "bad-link", E,
        "target {target} for link not found ({status})",
        description="A hyperlink target does not exist (file or URL).",
    ),
    _msg(
        "empty-tag", E,
        "empty tag \"<>\" is not valid markup",
        description="A bare <> appeared in the document.",
    ),
    _msg(
        "expected-attribute", E,
        "expected an attribute for <{element}> ({expected})",
        description="Element is useless without one of these attributes, "
        "e.g. an A with neither HREF nor NAME.",
    ),
    # --------------------------------------------------------------- warnings
    _msg(
        "require-doctype", W,
        "first element was not DOCTYPE specification",
        description="Documents should start by declaring their HTML version.",
    ),
    _msg(
        "html-outer", W,
        "outer tags of document should be <HTML> .. </HTML>",
        description="The whole document should be wrapped in HTML tags.",
    ),
    _msg(
        "require-title", W,
        "no <TITLE> in HEAD element",
        description="Every document should have a title.",
    ),
    _msg(
        "img-alt", W,
        "IMG does not have ALT text defined",
        description="Images need alternative text for text-only browsers, "
        "robots and accessibility.",
    ),
    _msg(
        "img-size", W,
        "IMG does not have WIDTH and HEIGHT attributes defined",
        description="WIDTH/HEIGHT let browsers lay out the page before the "
        "image loads (paper section 4.3).",
    ),
    _msg(
        "quote-attribute-value", W,
        "value for attribute {attribute} ({value}) of element {element} "
        "should be quoted (i.e. {attribute}=\"{value}\")",
        description="Unquoted attribute values are fragile.",
    ),
    _msg(
        "attribute-delimiter", W,
        "use of ' for attribute value delimiter is not supported by all "
        "browsers (attribute {attribute} of element {element})",
        description="Single-quoted values break some clients and HTML "
        "processors (paper section 4.3).",
    ),
    _msg(
        "repeated-attribute", W,
        "attribute {attribute} is repeated in element <{element}>",
        description="The same attribute appears more than once in one tag.",
    ),
    _msg(
        "unknown-entity", W,
        "unknown entity reference \"&{entity};\"",
        description="Entity is not defined by this HTML version.",
    ),
    _msg(
        "unterminated-entity", W,
        "entity reference \"&{entity}\" missing trailing semicolon",
        default=False,
        description="Pedantic: entities should end with ';'.",
    ),
    _msg(
        "literal-metacharacter", W,
        "metacharacter \"{char}\" should be represented as \"{entity}\"",
        description="Literal < > & in text confuse parsers.",
    ),
    _msg(
        "heading-order", W,
        "bad style - heading <H{level}> follows <H{previous}>, "
        "skipping level(s)",
        description="Heading levels should not jump, e.g. H1 then H4.",
    ),
    _msg(
        "markup-in-comment", W,
        "markup embedded in a comment can confuse some browsers",
        description="Commented-out markup is legal but incorrectly parsed by "
        "quick-and-dirty parsers (paper section 4.3).",
    ),
    _msg(
        "nested-comment", W,
        "comments cannot be nested - \"<!--\" seen inside a comment",
        description="SGML comments do not nest.",
    ),
    _msg(
        "deprecated-element", W,
        "use of deprecated element <{element}>{replacement}",
        description="Deprecated markup such as LISTING; use PRE instead "
        "(paper section 4.3).",
    ),
    _msg(
        "deprecated-attribute", W,
        "use of deprecated attribute {attribute} for element <{element}>",
        default=False,
        description="Pedantic: presentation attributes deprecated in HTML 4.0.",
    ),
    _msg(
        "netscape-markup", W,
        "<{element}> is Netscape specific markup",
        description="Element only understood by Netscape Navigator.",
    ),
    _msg(
        "microsoft-markup", W,
        "<{element}> is Microsoft specific markup",
        description="Element only understood by Internet Explorer.",
    ),
    _msg(
        "leading-whitespace", W,
        "should not have whitespace between \"<\" and \"{element}\"",
        description="Whitespace after < stops some browsers recognising the tag.",
    ),
    _msg(
        "directory-index", W,
        "directory {directory} does not have an index file ({expected})",
        description="-R site check: every directory should have an index page.",
    ),
    _msg(
        "orphan-page", W,
        "page {page} is not referenced by any other page checked",
        description="-R site check: orphan pages are unreachable by browsing.",
    ),
    _msg(
        "mailto-link", W,
        "text of mailto: link should give the e-mail address ({href})",
        description="Readers of printed or text pages cannot follow a bare "
        "'contact me' mailto link.",
    ),
    _msg(
        "empty-container", W,
        "empty container element <{element}>",
        description="Container element with no content, e.g. <TITLE></TITLE>.",
    ),
    _msg(
        "container-whitespace", W,
        "{position} whitespace in content of container element <{element}>",
        default=False,
        description="Pedantic: whitespace at the edges of container content "
        "renders inconsistently (classically: inside <A>).",
    ),
    # ------------------------------------------------------------------- style
    _msg(
        "here-anchor", S,
        "use of \"{text}\" as anchor text is content-free; "
        "anchor text should be meaningful",
        default=False,
        description="Search engines use anchor text (paper section 4.3).",
    ),
    _msg(
        "physical-font", S,
        "<{element}> is physical font markup - use logical "
        "(e.g. <{logical}>)",
        default=False,
        description="Use STRONG/EM rather than B/I (paper section 4.3).",
    ),
    _msg(
        "upper-case", S,
        "tag <{element}> is not in upper case",
        default=False,
        description="House style: element names in upper case.",
    ),
    _msg(
        "lower-case", S,
        "tag <{element}> is not in lower case",
        default=False,
        description="House style: element names in lower case.",
    ),
    _msg(
        "heading-in-anchor", S,
        "heading <{heading}> inside anchor - the anchor should be in the heading",
        description="<A><H1>..</H1></A> should be <H1><A>..</A></H1>.",
    ),
    _msg(
        "body-colors", S,
        "setting {attribute} on BODY without setting {missing}",
        default=False,
        description="Setting some BODY colours but not all risks unreadable "
        "combinations with user defaults.",
    ),
    _msg(
        "title-length", S,
        "TITLE is {length} characters long - keep it under {limit}",
        description="Long titles are truncated by browsers and search engines.",
    ),
    # --------------------------------------------- weblint 2 additions (2.0)
    _msg(
        "duplicate-id", E,
        "ID \"{id}\" already used on line {first_line} - IDs must be unique",
        since="2.0",
        description="Duplicate ID attributes break fragment links and scripts.",
    ),
    _msg(
        "frame-noframes", W,
        "FRAMESET without NOFRAMES content penalises non-frame browsers",
        since="2.0",
        description="Provide NOFRAMES content for accessibility.",
    ),
    _msg(
        "self-closing-tag", W,
        "XML-style self-closing tag <{element}/> is not HTML",
        default=False,
        since="2.0",
        description="XHTML syntax in an HTML document.",
    ),
    _msg(
        "table-summary", S,
        "TABLE without SUMMARY attribute - summaries help speech clients",
        default=False,
        since="2.0",
        description="Accessibility annotation for tables (the Bobby check the "
        "paper cites in section 3.3).",
    ),
    _msg(
        "form-label", S,
        "form control <{element}> has no associated LABEL",
        default=False,
        since="2.0",
        description="Accessibility: label your form fields.",
    ),
    _msg(
        "meta-description", S,
        "no META description/keywords - search engines use them",
        default=False,
        since="2.0",
        description="Paper section 2: META tags provide the abstract shown by "
        "search engines.",
    ),
    _msg(
        "bad-fragment", W,
        "target {target} exists, but fragment \"#{fragment}\" is not "
        "defined there",
        since="2.0",
        description="The page a link points at has no such anchor "
        "(<A NAME> or ID).",
    ),
    _msg(
        "css-syntax", W,
        "stylesheet syntax: {problem}",
        since="2.0",
        description="Malformed CSS in a STYLE element or style attribute "
        "(the plugin framework of paper section 6.1).",
    ),
    _msg(
        "css-unknown-property", W,
        "unknown style property \"{property}\"{suggestion}",
        since="2.0",
        description="Style property not defined by CSS1/CSS2.",
    ),
    _msg(
        "css-unknown-color", W,
        "unknown colour \"{value}\" for style property \"{property}\"",
        since="2.0",
        description="Colour value is neither #rgb/#rrggbb nor a named colour.",
    ),
    _msg(
        "script-syntax", W,
        "script looks malformed: {problem}",
        since="2.0",
        description="Unbalanced brackets or quotes inside a SCRIPT element.",
    ),
    _msg(
        "link-rev-made", S,
        "no <LINK REV=MADE HREF=\"mailto:...\"> - readers cannot contact the author",
        default=False,
        since="2.0",
        description="Classic authorship metadata.",
    ),
)

CATALOG: dict[str, Message] = {m.id: m for m in _MESSAGES}

if len(CATALOG) != len(_MESSAGES):  # pragma: no cover - build-time sanity
    raise AssertionError("duplicate message identifiers in catalog")


def message(message_id: str) -> Message:
    """Look up a message by identifier, raising ``KeyError`` with help."""
    try:
        return CATALOG[message_id]
    except KeyError:
        raise KeyError(
            f"unknown message id {message_id!r}; "
            f"see repro.core.messages.CATALOG for the full list"
        ) from None


def ids_in_category(category: Category) -> list[str]:
    return [m.id for m in _MESSAGES if m.category is category]


def default_enabled_ids() -> set[str]:
    return {m.id for m in _MESSAGES if m.enabled_default}


def heritage_messages() -> list[Message]:
    """The 50-message weblint 1.020 catalog the paper describes."""
    return [m for m in _MESSAGES if m.since == "1.020"]


def catalog_statistics() -> dict[str, int]:
    """Counts used by experiment E2 (paper: 50 messages, 42 default)."""
    heritage = heritage_messages()
    return {
        "total": len(_MESSAGES),
        "heritage_total": len(heritage),
        "heritage_default_enabled": sum(1 for m in heritage if m.enabled_default),
        "errors": len(ids_in_category(Category.ERROR)),
        "warnings": len(ids_in_category(Category.WARNING)),
        "style": len(ids_in_category(Category.STYLE)),
    }
