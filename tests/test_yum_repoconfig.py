"""Parser edge cases for /etc/yum.repos.d/*.repo files (repro.yum.repoconfig)."""

import pytest

from repro.errors import RepoConfigError
from repro.yum.repoconfig import (
    XSEDE_REPO_STANZA,
    RepoStanza,
    parse_repo_file,
)

VALID = """\
[xsede]
name=XSEDE National Integration Toolkit
baseurl=http://cb-repo.iu.xsede.org/xsederepo/
enabled=1
gpgcheck=0
priority=50
"""


class TestParsing:
    def test_parses_the_paper_stanza(self):
        (stanza,) = parse_repo_file(VALID)
        assert stanza == XSEDE_REPO_STANZA

    def test_defaults_applied_for_optional_keys(self):
        (stanza,) = parse_repo_file("[r]\nname=R\nbaseurl=http://r/\n")
        assert stanza.enabled is True
        assert stanza.gpgcheck is False
        assert stanza.priority == 99  # yum-plugin-priorities default

    def test_hash_and_semicolon_comments_ignored(self):
        text = (
            "# leading comment\n"
            "; alt comment style\n"
            "[r]\n"
            "# inside a section\n"
            "name=R\n"
            "; between keys\n"
            "baseurl=http://r/\n"
        )
        (stanza,) = parse_repo_file(text)
        assert stanza.repo_id == "r"

    def test_blank_lines_and_whitespace_tolerated(self):
        text = "\n  [r]  \n\n  name = R \n baseurl= http://r/ \n\n"
        (stanza,) = parse_repo_file(text)
        assert stanza.name == "R"
        assert stanza.baseurl == "http://r/"

    def test_multiple_stanzas(self):
        text = VALID + "\n[base]\nname=Base\nbaseurl=http://base/\npriority=90\n"
        stanzas = parse_repo_file(text)
        assert [s.repo_id for s in stanzas] == ["xsede", "base"]
        assert stanzas[1].priority == 90


class TestRejections:
    def test_duplicate_section_ids(self):
        text = VALID + VALID
        with pytest.raises(RepoConfigError, match=r"duplicate section \[xsede\]"):
            parse_repo_file(text)

    def test_missing_name(self):
        with pytest.raises(RepoConfigError, match="missing required key 'name'"):
            parse_repo_file("[r]\nbaseurl=http://r/\n")

    def test_missing_baseurl(self):
        with pytest.raises(RepoConfigError, match="missing required key 'baseurl'"):
            parse_repo_file("[r]\nname=R\n")

    def test_missing_key_in_non_final_stanza(self):
        text = "[a]\nname=A\n[b]\nname=B\nbaseurl=http://b/\n"
        with pytest.raises(RepoConfigError, match=r"\[a\]: missing required key"):
            parse_repo_file(text)

    def test_content_before_any_section(self):
        with pytest.raises(RepoConfigError, match="content before any"):
            parse_repo_file("name=R\n[r]\nbaseurl=http://r/\n")

    def test_empty_section_name(self):
        with pytest.raises(RepoConfigError, match="empty section name"):
            parse_repo_file("[]\nname=R\nbaseurl=http://r/\n")

    def test_duplicate_key_within_section(self):
        with pytest.raises(RepoConfigError, match="duplicate key 'name'"):
            parse_repo_file("[r]\nname=R\nname=Again\nbaseurl=http://r/\n")

    def test_unknown_key(self):
        with pytest.raises(RepoConfigError, match="unknown key 'mirrorlist'"):
            parse_repo_file("[r]\nname=R\nbaseurl=u\nmirrorlist=http://m/\n")

    def test_non_key_value_line(self):
        with pytest.raises(RepoConfigError, match="expected key=value"):
            parse_repo_file("[r]\nname=R\nbaseurl=u\njust words\n")

    def test_bad_boolean(self):
        with pytest.raises(RepoConfigError, match="expected boolean"):
            parse_repo_file("[r]\nname=R\nbaseurl=u\nenabled=maybe\n")

    def test_empty_file(self):
        with pytest.raises(RepoConfigError, match="no repository stanzas"):
            parse_repo_file("# only a comment\n")


class TestRoundTrip:
    def test_parse_render_parse_is_identity(self):
        stanzas = [
            XSEDE_REPO_STANZA,
            RepoStanza(repo_id="base", name="CentOS Base",
                       baseurl="http://mirror/centos/", enabled=False,
                       gpgcheck=True, priority=90),
        ]
        rendered = "\n".join(s.render() for s in stanzas)
        assert parse_repo_file(rendered) == stanzas
        # and rendering what we parsed reproduces the text
        assert "\n".join(s.render() for s in parse_repo_file(rendered)) == rendered
