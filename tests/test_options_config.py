"""Unit tests for Options, rc files, presets and layer precedence."""

from __future__ import annotations

import pytest

from repro.config import load_configuration
from repro.config.options import Options, UnknownMessageError, enabled_from
from repro.config.presets import apply_preset, available_presets
from repro.config.rcfile import ConfigError, apply_rcfile, parse_rcfile
from repro.core.messages import CATALOG, Category, default_enabled_ids, ids_in_category


class TestOptions:
    def test_defaults_are_the_42(self):
        options = Options.with_defaults()
        assert options.enabled == default_enabled_ids()
        assert len(options.enabled & {m.id for m in CATALOG.values()
                                      if m.since == "1.020"}) == 42

    def test_enable_by_id(self):
        options = Options.with_defaults()
        options.enable("physical-font")
        assert options.is_enabled("physical-font")

    def test_disable_by_id(self):
        options = Options.with_defaults()
        options.disable("img-alt")
        assert not options.is_enabled("img-alt")

    def test_enable_by_category(self):
        options = Options.with_defaults()
        options.enable("style")
        for message_id in ids_in_category(Category.STYLE):
            assert options.is_enabled(message_id)

    def test_disable_by_category(self):
        options = Options.with_defaults()
        options.disable("warnings")
        for message_id in ids_in_category(Category.WARNING):
            assert not options.is_enabled(message_id)

    def test_enable_all(self):
        options = Options.with_defaults()
        options.enable("all")
        assert options.enabled == set(CATALOG)

    def test_only(self):
        options = Options.with_defaults()
        options.only("img-alt", "img-size")
        assert options.enabled == {"img-alt", "img-size"}

    def test_unknown_identifier_raises(self):
        options = Options.with_defaults()
        with pytest.raises(UnknownMessageError):
            options.enable("no-such-thing")

    def test_everything_can_be_turned_off(self):
        # Paper requirement: "everything in weblint can be turned off".
        options = Options.with_defaults()
        options.disable("all")
        assert options.enabled == set()

    def test_case_style_side_effect(self):
        options = Options.with_defaults()
        options.enable("upper-case")
        assert options.case_style == "upper"
        options.disable("upper-case")
        assert options.case_style is None

    def test_copy_is_independent(self):
        options = Options.with_defaults()
        clone = options.copy()
        clone.disable("all")
        clone.add_custom_element("x")
        assert options.enabled
        assert not options.is_custom_element("x")

    def test_custom_elements(self):
        options = Options.with_defaults()
        options.add_custom_element("CoolTag")
        assert options.is_custom_element("cooltag")

    def test_custom_attributes(self):
        options = Options.with_defaults()
        options.add_custom_attribute("IMG", "LOWSRC")
        assert options.is_custom_attribute("img", "lowsrc")
        assert not options.is_custom_attribute("img", "other")

    def test_custom_attribute_wildcard(self):
        options = Options.with_defaults()
        options.add_custom_attribute("p", "*")
        assert options.is_custom_attribute("p", "anything")

    def test_here_words_extend(self):
        options = Options.with_defaults()
        options.extra_here_words.add("Start Here")
        assert "start here" in options.here_words()
        assert "here" in options.here_words()

    def test_here_words_follow_changes_after_a_call(self):
        """The set is built once per state of the extra words: a later
        ``set_option`` or a copy's own additions are still seen."""
        options = Options.with_defaults()
        before = options.here_words()
        assert options.here_words() is before  # not rebuilt per call
        options.set_option("here_words", "Go On, Next")
        assert {"go on", "next", "here"} <= options.here_words()
        clone = options.copy()
        clone.extra_here_words.add("Zebra")
        assert "zebra" in clone.here_words()
        assert "zebra" not in options.here_words()
        assert "go on" in clone.here_words()

    def test_set_option_values(self):
        options = Options.with_defaults()
        options.set_option("max-title-length", "100")
        assert options.max_title_length == 100
        options.set_option("spec", "netscape")
        assert options.spec_name == "netscape"
        options.set_option("short-format", "yes")
        assert options.short_format

    def test_set_option_unknown_raises(self):
        options = Options.with_defaults()
        with pytest.raises(UnknownMessageError):
            options.set_option("frobnicate", "1")

    def test_enabled_from_helper(self):
        assert enabled_from(["img-alt"]) == {"img-alt"}


class TestRcFile:
    def test_parse_directives(self):
        directives = parse_rcfile(
            "# comment\n"
            "enable physical-font, here-anchor\n"
            "disable img-size\n"
            "extension netscape\n"
            "set max-title-length 80\n"
        )
        assert [d[1] for d in directives] == [
            "enable", "disable", "extension", "set",
        ]

    def test_unknown_directive(self):
        with pytest.raises(ConfigError, match="unknown directive"):
            parse_rcfile("frobnicate everything\n")

    def test_directive_needs_argument(self):
        with pytest.raises(ConfigError, match="needs an argument"):
            parse_rcfile("enable\n")

    def test_error_carries_position(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_rcfile("enable x\nbogus y\n", filename="site.cfg")
        assert excinfo.value.filename == "site.cfg"
        assert excinfo.value.line_number == 2

    def test_apply_rcfile(self, tmp_path):
        rc = tmp_path / "rc"
        rc.write_text(
            "disable img-alt\n"
            "enable physical-font\n"
            "element COOLTAG\n"
            "attribute IMG LOWSRC SUPPRESS\n"
            "set here-words start here, go\n"
        )
        options = Options.with_defaults()
        apply_rcfile(options, rc)
        assert not options.is_enabled("img-alt")
        assert options.is_enabled("physical-font")
        assert options.is_custom_element("cooltag")
        assert options.is_custom_attribute("img", "suppress")
        assert "go" in options.here_words()

    def test_bad_message_reported_with_location(self, tmp_path):
        rc = tmp_path / "rc"
        rc.write_text("enable no-such-message\n")
        with pytest.raises(ConfigError, match="no-such-message"):
            apply_rcfile(Options.with_defaults(), rc)

    def test_attribute_needs_two_parts(self, tmp_path):
        rc = tmp_path / "rc"
        rc.write_text("attribute IMG\n")
        with pytest.raises(ConfigError):
            apply_rcfile(Options.with_defaults(), rc)


class TestLayerPrecedence:
    """Paper section 4.4: site file < user file < command line."""

    def test_user_overrides_site(self, tmp_path):
        site = tmp_path / "site.cfg"
        site.write_text("disable img-alt\nset max-title-length 10\n")
        user = tmp_path / "user.cfg"
        user.write_text("enable img-alt\n")
        options = load_configuration(site_file=str(site), user_file=str(user))
        assert options.is_enabled("img-alt")       # user wins
        assert options.max_title_length == 10      # site survives elsewhere

    def test_user_extends_site(self, tmp_path):
        site = tmp_path / "site.cfg"
        site.write_text("element COOLTAG\n")
        user = tmp_path / "user.cfg"
        user.write_text("element OTHERTAG\n")
        options = load_configuration(site_file=str(site), user_file=str(user))
        assert options.is_custom_element("cooltag")
        assert options.is_custom_element("othertag")

    def test_missing_files_skipped(self, tmp_path):
        options = load_configuration(
            site_file=str(tmp_path / "absent"),
            user_file=str(tmp_path / "also-absent"),
        )
        assert options.enabled == default_enabled_ids()

    def test_cli_overrides_user(self, tmp_path):
        # The CLI layer is applied by repro.cli after load_configuration;
        # simulate its effect.
        user = tmp_path / "user.cfg"
        user.write_text("disable img-alt\n")
        options = load_configuration(
            site_file=None, user_file=str(user)
        )
        options.enable("img-alt")  # the -e switch
        assert options.is_enabled("img-alt")


class TestPresets:
    def test_available(self):
        assert "pedantic" in available_presets()

    def test_pedantic_enables_everything_but_one_case(self):
        options = Options.with_defaults()
        apply_preset(options, "pedantic")
        missing = set(CATALOG) - options.enabled
        assert missing == {"upper-case"}

    def test_minimal_is_errors_only(self):
        options = Options.with_defaults()
        apply_preset(options, "minimal")
        assert options.enabled == set(ids_in_category(Category.ERROR))

    def test_default_resets(self):
        options = Options.with_defaults()
        options.disable("all")
        apply_preset(options, "default")
        assert options.enabled == default_enabled_ids()

    def test_accessibility_enables_bobby_checks(self):
        options = Options.with_defaults()
        apply_preset(options, "accessibility")
        for message_id in ("img-alt", "table-summary", "form-label"):
            assert options.is_enabled(message_id)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            apply_preset(Options.with_defaults(), "bogus")
