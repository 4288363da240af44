"""Configuration -- the ``Weblint::Config`` module.

Paper section 4.4 defines three configuration layers, in increasing
precedence:

1. a **site configuration file** ("the style guide for a company"),
2. a **user configuration file** (``.weblintrc``),
3. **command-line switches**.

:class:`~repro.config.options.Options` holds the resolved state;
:mod:`repro.config.rcfile` parses the file format;
:func:`load_configuration` composes the three layers.
"""

from repro.config.options import Options
from repro.config.presets import apply_preset, available_presets
from repro.config.rcfile import ConfigError, apply_rcfile, parse_rcfile

__all__ = [
    "Options",
    "ConfigError",
    "parse_rcfile",
    "apply_rcfile",
    "apply_preset",
    "available_presets",
    "load_configuration",
    "options_from_dict",
]

import os
from pathlib import Path
from typing import Optional


def load_configuration(
    *,
    site_file: Optional[str] = None,
    user_file: Optional[str] = None,
    defaults: Optional[Options] = None,
) -> Options:
    """Build an :class:`Options` from the configuration file layers.

    ``user_file`` defaults to ``$WEBLINTRC`` or ``~/.weblintrc`` when not
    given; missing files are simply skipped.  Command-line overrides are
    applied afterwards by the caller (:mod:`repro.cli`), preserving the
    paper's precedence order (:func:`options_from_dict`).
    """
    options = defaults if defaults is not None else Options.with_defaults()
    if site_file and Path(site_file).is_file():
        apply_rcfile(options, site_file)
    if user_file is None:
        user_file = os.environ.get("WEBLINTRC") or str(Path.home() / ".weblintrc")
    if user_file and Path(user_file).is_file():
        apply_rcfile(options, user_file)
    return options


def options_from_dict(base: Options, raw: dict[str, object]) -> Options:
    """Apply command-line overrides, as a dict, on top of ``base``.

    The one override policy of every front end: ``weblint`` (its
    switches, locally or forwarded by ``--daemon``), the daemon's
    ``POST /lint`` options and the gateway form.  Keys are ``preset``,
    ``pedantic``, ``enable``, ``disable`` and ``spec``, applied in that
    order, so ``--pedantic`` always wins over ``--preset`` whichever
    comes first.  ``enable``/``disable`` hold one identifier or a list
    of comma-separated chunks.  Raises ``ValueError`` for an unknown
    preset and ``UnknownMessageError`` for an unknown message id; an
    unknown spec fails (``KeyError``) when a service is built on the
    result.
    """
    options = base.copy()
    preset = raw.get("preset")
    if preset:
        apply_preset(options, str(preset))
    if raw.get("pedantic"):
        apply_preset(options, "pedantic")
    for key, apply in (("enable", options.enable), ("disable", options.disable)):
        chunks = raw.get(key) or []
        if isinstance(chunks, str):
            chunks = [chunks]
        for chunk in chunks:
            apply(*[part for part in str(chunk).split(",") if part])
    spec = raw.get("spec")
    if spec:
        options.spec_name = str(spec)
    return options
