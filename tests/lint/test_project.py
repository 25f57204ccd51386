"""The cross-module project model: naming, resolution, inheritance."""

import textwrap

from repro.lint.core import parse_module
from repro.lint.project import Project, module_name


def _mod(path: str, source: str):
    return parse_module(path, textwrap.dedent(source))


def _project(*mods):
    return Project(list(mods))


class TestModuleName:
    def test_src_relative(self):
        assert module_name("src/repro/daemon/service.py") == \
            "repro.daemon.service"

    def test_absolute_path_with_src(self):
        assert module_name("/root/repo/src/repro/lint/core.py") == \
            "repro.lint.core"

    def test_package_init_names_the_package(self):
        assert module_name("src/repro/lint/__init__.py") == "repro.lint"

    def test_repro_segment_without_src(self):
        assert module_name("repro/cluster/elastic.py") == \
            "repro.cluster.elastic"

    def test_bare_stem_fallback(self):
        assert module_name("/tmp/xyz/fixture.py") == "fixture"


class TestClassIndex:
    def test_classes_keyed_by_qualname(self):
        proj = _project(_mod("src/pkg/a.py", """
            class Outer:
                class Inner:
                    pass
        """))
        assert "pkg.a.Outer" in proj.classes
        assert "pkg.a.Outer.Inner" in proj.classes

    def test_resolve_same_module_class(self):
        mod = _mod("src/pkg/a.py", """
            class Local:
                pass
        """)
        proj = _project(mod)
        info = proj.resolve_class(mod, "Local")
        assert info is not None and info.qualname == "pkg.a.Local"

    def test_resolve_through_import_alias(self):
        a = _mod("src/pkg/a.py", """
            class Widget:
                pass
        """)
        b = _mod("src/pkg/b.py", """
            from pkg.a import Widget as W
        """)
        proj = _project(a, b)
        info = proj.resolve_class(b, "W")
        assert info is not None and info.qualname == "pkg.a.Widget"

    def test_resolve_through_relative_import(self):
        a = _mod("src/pkg/a.py", """
            class Widget:
                pass
        """)
        b = _mod("src/pkg/b.py", """
            from .a import Widget
        """)
        proj = _project(a, b)
        info = proj.resolve_class(b, "Widget")
        assert info is not None and info.qualname == "pkg.a.Widget"

    def test_unique_bare_name_fallback(self):
        a = _mod("src/pkg/a.py", """
            class OnlyOne:
                pass
        """)
        b = _mod("src/pkg/b.py", "x = 1\n")
        proj = _project(a, b)
        info = proj.resolve_class(b, "OnlyOne")
        assert info is not None and info.qualname == "pkg.a.OnlyOne"

    def test_ambiguous_bare_name_stays_unresolved(self):
        a = _mod("src/pkg/a.py", "class Dup:\n    pass\n")
        b = _mod("src/pkg/b.py", "class Dup:\n    pass\n")
        c = _mod("src/pkg/c.py", "x = 1\n")
        proj = _project(a, b, c)
        assert proj.resolve_class(c, "Dup") is None


class TestInheritance:
    def _fixture(self):
        base = _mod("src/pkg/base.py", """
            class Base:
                def shared(self):
                    pass

                def overridden(self):
                    pass
        """)
        sub = _mod("src/pkg/sub.py", """
            from pkg.base import Base

            class Sub(Base):
                def own(self):
                    pass

                def overridden(self):
                    pass
        """)
        proj = _project(base, sub)
        return proj, proj.classes["pkg.sub.Sub"]

    def test_bases_resolve(self):
        proj, sub = self._fixture()
        assert [b.qualname for b in proj.bases_of(sub)] == \
            ["pkg.base.Base"]

    def test_iter_methods_own_first_override_once(self):
        proj, sub = self._fixture()
        seen = [(owner.name, name)
                for owner, name, _fn in proj.iter_methods(sub)]
        assert ("Sub", "own") in seen
        assert ("Sub", "overridden") in seen
        assert ("Base", "shared") in seen
        assert ("Base", "overridden") not in seen
