"""Language tables that drive the checker.

Section 5.5 of the paper: "These modules encapsulate the information which
is needed by weblint when checking against a specific version of HTML ...
The HTML modules are basically sets of tables which are used to drive the
operation of the Weblint module."  The information listed there is exactly
what :class:`HTMLSpec` holds:

- valid elements, and their content model (are they containers?)
- valid attributes, and legal values for attributes (expressed as
  regular expressions)
- legal context for elements

Concrete specs are built by :mod:`repro.html.html32`,
:mod:`repro.html.html40`, :mod:`repro.html.netscape` and
:mod:`repro.html.microsoft`, or generated from a DTD by
:mod:`repro.html.dtdgen`.  Third parties can register their own with
:func:`register_spec`, mirroring the paper's "for third parties to provide
their own definitions".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class AttributeDef:
    """One legal attribute of an element.

    ``pattern`` is an anchored, case-insensitive regular expression the
    value must match; ``None`` means any CDATA value is legal.  ``required``
    marks attributes whose absence is an error (the paper's TEXTAREA
    ROWS/COLS example); ``deprecated`` marks attributes the spec frowns on.
    """

    name: str
    pattern: Optional[str] = None
    required: bool = False
    deprecated: bool = False
    boolean: bool = False

    _compiled: Optional[re.Pattern[str]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.pattern is not None:
            object.__setattr__(
                self,
                "_compiled",
                re.compile(rf"^(?:{self.pattern})$", re.IGNORECASE),
            )

    def value_ok(self, value: str) -> bool:
        """Does ``value`` satisfy this attribute's legal-value pattern?"""
        if self._compiled is None:
            return True
        return bool(self._compiled.match(value.strip()))


@dataclass
class ElementDef:
    """One element of an HTML version.

    Content-model flags follow weblint's needs rather than full SGML:

    - ``empty`` -- the element has no content and no end tag (BR, IMG).
    - ``optional_end`` -- the end tag may be omitted (P, LI, TD ...).
      Everything that is neither ``empty`` nor ``optional_end`` is a strict
      container whose missing end tag is an error (the paper's ``<A>``
      example).
    - ``allowed_in`` -- legal parent elements; ``None`` means anywhere.
      Used for "element not allowed here" context checks (e.g. LI outside
      a list).
    - ``excludes`` -- elements that may not appear anywhere inside this
      one (e.g. A inside A, FORM inside FORM).
    - ``closes`` -- open elements implicitly terminated when this one
      starts (LI closes LI; TD closes TD and TH ...).
    """

    name: str
    empty: bool = False
    optional_end: bool = False
    attributes: dict[str, AttributeDef] = field(default_factory=dict)
    allowed_in: Optional[frozenset[str]] = None
    excludes: frozenset[str] = frozenset()
    closes: frozenset[str] = frozenset()
    deprecated: bool = False
    obsolete: bool = False
    replacement: Optional[str] = None
    is_block: bool = False
    is_head: bool = False
    once_per_document: bool = False

    @property
    def container(self) -> bool:
        """Does this element take content (hence may need an end tag)?"""
        return not self.empty

    @property
    def strict_container(self) -> bool:
        """Container whose end tag is mandatory."""
        return not self.empty and not self.optional_end

    def required_attributes(self) -> list[str]:
        return [a.name for a in self.attributes.values() if a.required]

    def attribute(self, name: str) -> Optional[AttributeDef]:
        return self.attributes.get(name.lower())


@dataclass
class HTMLSpec:
    """A complete description of one HTML version.

    ``global_attributes`` apply to every element (HTML 4.0 core attrs,
    i18n attrs and intrinsic events).  ``physical_markup`` maps physical
    elements to their logical equivalents for the style check, and
    ``doctype_pattern`` recognises the version's DOCTYPE declarations.
    """

    name: str
    version: str
    elements: dict[str, ElementDef] = field(default_factory=dict)
    global_attributes: dict[str, AttributeDef] = field(default_factory=dict)
    entities: dict[str, str] = field(default_factory=dict)
    physical_markup: dict[str, str] = field(default_factory=dict)
    doctype_pattern: Optional[str] = None
    description: str = ""

    def __post_init__(self) -> None:
        self._doctype_re = (
            re.compile(self.doctype_pattern, re.IGNORECASE)
            if self.doctype_pattern
            else None
        )

    # -- element queries ----------------------------------------------------

    def element(self, name: str) -> Optional[ElementDef]:
        return self.elements.get(name.lower())

    def is_known(self, name: str) -> bool:
        return name.lower() in self.elements

    def is_empty(self, name: str) -> bool:
        elem = self.element(name)
        return bool(elem and elem.empty)

    def end_tag_required(self, name: str) -> bool:
        elem = self.element(name)
        return bool(elem and elem.strict_container)

    def end_tag_legal(self, name: str) -> bool:
        """May ``</name>`` appear at all?"""
        elem = self.element(name)
        return bool(elem and elem.container)

    # -- attribute queries ---------------------------------------------------

    def attribute_def(self, element_name: str, attr_name: str) -> Optional[AttributeDef]:
        """Look up an attribute on an element, falling back to globals."""
        elem = self.element(element_name)
        attr_name = attr_name.lower()
        if elem is not None:
            found = elem.attribute(attr_name)
            if found is not None:
                return found
        return self.global_attributes.get(attr_name)

    def attribute_allowed(self, element_name: str, attr_name: str) -> bool:
        return self.attribute_def(element_name, attr_name) is not None

    def attribute_value_ok(
        self, element_name: str, attr_name: str, value: str
    ) -> bool:
        attr = self.attribute_def(element_name, attr_name)
        if attr is None:
            return True  # unknown attribute reported separately
        return attr.value_ok(value)

    # -- document-level queries ------------------------------------------------

    def doctype_matches(self, declaration_text: str) -> bool:
        """Does a DOCTYPE declaration name this (or any known) HTML version?"""
        if self._doctype_re is None:
            return True
        return bool(self._doctype_re.search(declaration_text))

    def suggest_element(self, name: str) -> Optional[str]:
        """Suggest a known element for a probable typo (BLOCKQOUTE).

        Uses a small edit-distance scan; returns the closest known element
        within distance 2, preferring shorter distances.
        """
        name = name.lower()
        best: Optional[str] = None
        best_distance = 3
        for candidate in self.elements:
            if abs(len(candidate) - len(name)) >= best_distance:
                continue
            distance = _edit_distance(name, candidate, best_distance)
            if distance < best_distance:
                best, best_distance = candidate, distance
        return best


def _edit_distance(a: str, b: str, cutoff: int) -> int:
    """Damerau-Levenshtein distance with a cutoff (small strings only)."""
    if a == b:
        return 0
    previous2: list[int] = []
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            best = min(
                previous[j] + 1,       # deletion
                current[j - 1] + 1,    # insertion
                previous[j - 1] + cost,  # substitution
            )
            if (
                i > 1
                and j > 1
                and ca == b[j - 2]
                and a[i - 2] == cb
            ):
                best = min(best, previous2[j - 2] + cost)  # transposition
            current.append(best)
        if min(current) > cutoff:
            return cutoff + 1
        previous2, previous = previous, current
    return previous[len(b)]


# -- spec registry -------------------------------------------------------------

_REGISTRY: dict[str, Callable[[], HTMLSpec]] = {}
_CACHE: dict[str, HTMLSpec] = {}


def register_spec(name: str, factory: Callable[[], HTMLSpec]) -> None:
    """Register a spec factory under ``name`` (case-insensitive).

    Factories are lazy so that importing :mod:`repro.html` stays cheap.
    """
    _REGISTRY[name.lower()] = factory


def get_spec(name: str) -> HTMLSpec:
    """Fetch a registered spec by name (e.g. ``"html40"``, ``"netscape"``)."""
    key = name.lower()
    if key not in _CACHE:
        if key not in _REGISTRY:
            _ensure_builtin_registered()
        if key not in _REGISTRY:
            raise KeyError(
                f"unknown HTML spec {name!r}; available: {', '.join(available_specs())}"
            )
        _CACHE[key] = _REGISTRY[key]()
    return _CACHE[key]


def available_specs() -> list[str]:
    _ensure_builtin_registered()
    return sorted(_REGISTRY)


def _ensure_builtin_registered() -> None:
    # Imported here to avoid a cycle: the builtin modules import spec.
    import repro.html.html20  # noqa: F401
    import repro.html.html32  # noqa: F401
    import repro.html.html40  # noqa: F401
    import repro.html.microsoft  # noqa: F401
    import repro.html.netscape  # noqa: F401
