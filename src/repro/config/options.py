"""Resolved weblint options.

``Options`` is the single object the engine, rules and front-ends consult.
It supports the paper's configurability requirements:

- "everything in weblint can be turned off" -- per-message enable/disable;
- "Weblint 2 will let users enable and disable all messages of a given
  category" -- :meth:`Options.enable` accepts a category name too;
- "Much greater configurability. For example, to provide additional
  examples of content-free text, custom elements and attributes" (future
  plans, section 6.1) -- ``extra_here_words``, ``custom_elements`` and
  ``custom_attributes`` feed straight into the rules and spec lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core import constants
from repro.core.messages import CATALOG, Category, default_enabled_ids, ids_in_category


class UnknownMessageError(ValueError):
    """Raised when enabling/disabling an identifier that does not exist."""


def _expand_identifier(identifier: str) -> list[str]:
    """Expand a message id or category name to concrete message ids."""
    token = identifier.strip().lower()
    if token in CATALOG:
        return [token]
    if token == "all":
        return list(CATALOG)
    try:
        category = Category.parse(token)
    except ValueError:
        raise UnknownMessageError(
            f"unknown message or category: {identifier!r}"
        ) from None
    return ids_in_category(category)


#: The built-in content-free anchor texts, lower-cased once.
_CONTENT_FREE = frozenset(word.lower() for word in constants.CONTENT_FREE_ANCHOR_TEXT)


@dataclass
class Options:
    """All knobs, with paper defaults."""

    enabled: set[str] = field(default_factory=set)
    spec_name: str = constants.DEFAULT_SPEC
    short_format: bool = False          # -s: terse messages
    verbose: bool = False               # -v: include message ids and help
    recurse: bool = False               # -R: whole-site mode
    follow_links: bool = True           # -R/robot: validate links
    max_title_length: int = constants.MAX_TITLE_LENGTH
    index_filenames: tuple[str, ...] = constants.INDEX_FILENAMES
    extra_here_words: set[str] = field(default_factory=set)
    custom_elements: set[str] = field(default_factory=set)
    custom_attributes: dict[str, set[str]] = field(default_factory=dict)
    case_style: Optional[str] = None    # "upper" | "lower" | None
    stop_after: Optional[int] = None    # cap on diagnostics per document
    #: What :meth:`here_words` last returned, and the extra words it saw.
    _here_words: Optional[tuple[frozenset[str], frozenset[str]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def with_defaults(cls) -> "Options":
        """The out-of-the-box configuration: the 42 default messages."""
        return cls(enabled=default_enabled_ids())

    def copy(self) -> "Options":
        clone = Options(
            enabled=set(self.enabled),
            spec_name=self.spec_name,
            short_format=self.short_format,
            verbose=self.verbose,
            recurse=self.recurse,
            follow_links=self.follow_links,
            max_title_length=self.max_title_length,
            index_filenames=tuple(self.index_filenames),
            extra_here_words=set(self.extra_here_words),
            custom_elements=set(self.custom_elements),
            custom_attributes={k: set(v) for k, v in self.custom_attributes.items()},
            case_style=self.case_style,
            stop_after=self.stop_after,
        )
        return clone

    def fingerprint(self) -> tuple:
        """Hashable digest of every semantic field.

        The dispatch layer caches compiled tables per
        ``(spec, options-fingerprint, ruleset)``; two Options with equal
        fingerprints must behave identically for every rule, so *all*
        fields participate, not just the ones known to affect
        subscriptions today.
        """
        return (
            frozenset(self.enabled),
            self.spec_name,
            self.short_format,
            self.verbose,
            self.recurse,
            self.follow_links,
            self.max_title_length,
            tuple(self.index_filenames),
            frozenset(self.extra_here_words),
            frozenset(self.custom_elements),
            tuple(
                sorted(
                    (name, frozenset(values))
                    for name, values in self.custom_attributes.items()
                )
            ),
            self.case_style,
            self.stop_after,
        )

    # -- message enablement -----------------------------------------------------

    def is_enabled(self, message_id: str) -> bool:
        return message_id in self.enabled

    def enable(self, *identifiers: str) -> None:
        """Enable messages by id or by category name ('errors', 'style'...)."""
        for identifier in identifiers:
            self.enabled.update(_expand_identifier(identifier))
        self._apply_case_side_effects()

    def disable(self, *identifiers: str) -> None:
        for identifier in identifiers:
            self.enabled.difference_update(_expand_identifier(identifier))
        self._apply_case_side_effects()

    def only(self, *identifiers: str) -> None:
        """Enable exactly the given messages, disabling everything else."""
        self.enabled.clear()
        self.enable(*identifiers)

    def _apply_case_side_effects(self) -> None:
        # Enabling exactly one of upper-case/lower-case selects the house
        # case style used by the style rules.
        upper = "upper-case" in self.enabled
        lower = "lower-case" in self.enabled
        if upper and not lower:
            self.case_style = "upper"
        elif lower and not upper:
            self.case_style = "lower"
        elif not upper and not lower:
            self.case_style = None

    # -- custom language additions ---------------------------------------------------

    def add_custom_element(self, name: str) -> None:
        """Accept a non-standard element without unknown-element noise.

        Paper section 4.6: "many editing and generation tools insert
        tool-specific markup ... These result in noise, which hides the
        useful weblint output."
        """
        self.custom_elements.add(name.lower())

    def add_custom_attribute(self, element: str, attribute: str) -> None:
        self.custom_attributes.setdefault(element.lower(), set()).add(
            attribute.lower()
        )

    def is_custom_element(self, name: str) -> bool:
        return name.lower() in self.custom_elements

    def is_custom_attribute(self, element: str, attribute: str) -> bool:
        allowed = self.custom_attributes.get(element.lower())
        if allowed is None:
            return False
        return attribute.lower() in allowed or "*" in allowed

    # -- here-words -------------------------------------------------------------------

    def here_words(self) -> frozenset[str]:
        """The content-free anchor texts, lower-cased: the built-in
        ones plus ``extra_here_words``.

        Built again only when ``extra_here_words`` has changed since the
        last call (callers may add to it in place); every anchor the
        engine closes asks.
        """
        extra = self.extra_here_words
        cached = self._here_words
        if cached is None or cached[0] != extra:
            seen = frozenset(extra)
            words = _CONTENT_FREE.union(word.lower() for word in seen)
            cached = self._here_words = (seen, words)
        return cached[1]

    # -- misc ---------------------------------------------------------------------------

    def set_option(self, key: str, value: str) -> None:
        """Apply a ``set key value`` line from a configuration file."""
        key = key.strip().lower().replace("-", "_")
        if key == "spec" or key == "html_version":
            self.spec_name = value.strip().lower()
        elif key == "short_format":
            self.short_format = _parse_bool(value)
        elif key == "verbose":
            self.verbose = _parse_bool(value)
        elif key == "follow_links":
            self.follow_links = _parse_bool(value)
        elif key == "max_title_length":
            self.max_title_length = int(value)
        elif key == "stop_after":
            self.stop_after = int(value)
        elif key == "index_filenames":
            self.index_filenames = tuple(
                name.strip() for name in value.split(",") if name.strip()
            )
        elif key == "here_words":
            self.extra_here_words.update(
                word.strip().lower() for word in value.split(",") if word.strip()
            )
        else:
            raise UnknownMessageError(f"unknown option: {key!r}")


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


#: Public name for identifier expansion (used by the inline-config rule
#: and the check context).
expand_identifier = _expand_identifier


def enabled_from(identifiers: Iterable[str]) -> set[str]:
    """Expand a list of ids/categories to a concrete enabled set."""
    enabled: set[str] = set()
    for identifier in identifiers:
        enabled.update(_expand_identifier(identifier))
    return enabled
