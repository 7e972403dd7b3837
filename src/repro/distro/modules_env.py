"""An environment-modules implementation (Tcl modules / Lmod style).

Section 4 credits the Montana State administrators with "investigating how to
implement software from XCBC in environment modules".  Modules are also the
mechanism behind the portability claim: ``module load gromacs`` behaves the
same on an XCBC campus cluster and on Stampede.

A :class:`ModuleFile` describes the environment edits; :class:`ModuleSystem`
holds the installed tree (``/etc/modulefiles`` by convention) and
:class:`ModuleSession` is one user shell's loaded set.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ModuleEnvError

__all__ = ["ModuleFile", "ModuleSystem", "ModuleSession"]


@dataclass(frozen=True)
class ModuleFile:
    """One modulefile: name/version plus environment edits."""

    name: str
    version: str
    prepend_path: tuple[tuple[str, str], ...] = ()  # (ENVVAR, dir)
    setenv: tuple[tuple[str, str], ...] = ()
    conflicts: tuple[str, ...] = ()  # module names that cannot co-load
    #: modules that must be loaded first (e.g. gromacs needs openmpi)
    prerequisites: tuple[str, ...] = ()
    whatis: str = ""

    @property
    def fullname(self) -> str:
        return f"{self.name}/{self.version}"


class ModuleSystem:
    """The installed modulefile tree of one host."""

    def __init__(self) -> None:
        self._modules: dict[str, dict[str, ModuleFile]] = {}
        self._defaults: dict[str, str] = {}

    def install(self, module: ModuleFile, *, default: bool = False) -> None:
        """Install a modulefile; the first version becomes the default."""
        versions = self._modules.setdefault(module.name, {})
        if module.version in versions:
            raise ModuleEnvError(f"modulefile exists: {module.fullname}")
        versions[module.version] = module
        if default or module.name not in self._defaults:
            self._defaults[module.name] = module.version

    def _holds_none(self, names) -> bool:
        """True if no modulefile under any of ``names`` is installed here,
        so :meth:`_install_all` of them replaces nothing."""
        return self._modules.keys().isdisjoint(names)

    def _install_all(
        self,
        modules: dict[str, dict[str, ModuleFile]],
        defaults: dict[str, str],
    ) -> None:
        """Install whole name tables in one step: ``modules`` maps a name to
        its versions, ``defaults`` a name to its default version.  None of
        the names may be installed yet (see :meth:`_holds_none`)."""
        self._modules.update(
            {name: dict(versions) for name, versions in modules.items()}
        )
        self._defaults.update(defaults)

    def remove(self, name: str, version: str) -> None:
        """Remove one modulefile version."""
        versions = self._modules.get(name, {})
        if version not in versions:
            raise ModuleEnvError(f"no such modulefile: {name}/{version}")
        del versions[version]
        if not versions:
            del self._modules[name]
            self._defaults.pop(name, None)
        elif self._defaults.get(name) == version:
            self._defaults[name] = sorted(versions)[-1]

    def avail(self) -> list[str]:
        """``module avail``: every installed name/version, sorted."""
        out = []
        for name in sorted(self._modules):
            for version in sorted(self._modules[name]):
                marker = "(default)" if self._defaults.get(name) == version else ""
                out.append(f"{name}/{version}{marker}")
        return out

    def resolve(self, spec: str) -> ModuleFile:
        """Resolve ``name`` or ``name/version`` to a modulefile."""
        if "/" in spec:
            name, version = spec.split("/", 1)
        else:
            name, version = spec, self._defaults.get(spec, "")
        versions = self._modules.get(name)
        if not versions or version not in versions:
            raise ModuleEnvError(f"unable to locate a modulefile for {spec!r}")
        return versions[version]

    def has(self, spec: str) -> bool:
        """True if ``spec`` resolves (answered by lookup, never raising)."""
        name, sep, version = spec.partition("/")
        if not sep:
            version = self._defaults.get(name, "")
        return version in self._modules.get(name, ())

    def names(self) -> list[str]:
        """Installed module names (without versions), sorted."""
        return sorted(self._modules)

    def set_default(self, name: str, version: str) -> None:
        """Pin a name's default version (the ``.version`` file)."""
        versions = self._modules.get(name, {})
        if version not in versions:
            raise ModuleEnvError(f"no such modulefile: {name}/{version}")
        self._defaults[name] = version

    def whatis(self, query: str) -> list[str]:
        """``module whatis`` / keyword search: case-insensitive match over
        names and whatis strings; returns ``name/version: whatis`` lines."""
        needle = query.lower()
        out = []
        for name in sorted(self._modules):
            for version in sorted(self._modules[name]):
                module = self._modules[name][version]
                haystack = f"{module.fullname} {module.whatis}".lower()
                if needle in haystack:
                    out.append(f"{module.fullname}: {module.whatis or name}")
        return out


class ModuleSession:
    """One shell's module state: ``module load/unload/list`` semantics."""

    def __init__(self, system: ModuleSystem):
        self.system = system
        self.env: dict[str, str] = {"PATH": "/usr/bin:/bin"}
        self._loaded: dict[str, ModuleFile] = {}

    def loaded(self) -> list[str]:
        """``module list``: loaded full names in load order."""
        return [m.fullname for m in self._loaded.values()]

    def load(self, spec: str) -> ModuleFile:
        """``module load``: applies edits, enforcing conflicts and prereqs."""
        module = self.system.resolve(spec)
        if module.name in self._loaded:
            already = self._loaded[module.name]
            if already.version == module.version:
                return already
            raise ModuleEnvError(
                f"{module.name}/{already.version} is already loaded; "
                f"unload it before loading {module.fullname}"
            )
        for conflict in module.conflicts:
            if conflict in self._loaded:
                raise ModuleEnvError(
                    f"{module.fullname} conflicts with loaded module {conflict!r}"
                )
        for loaded_mod in self._loaded.values():
            if module.name in loaded_mod.conflicts:
                raise ModuleEnvError(
                    f"loaded module {loaded_mod.fullname} conflicts with "
                    f"{module.fullname}"
                )
        for prereq in module.prerequisites:
            if prereq not in self._loaded:
                raise ModuleEnvError(
                    f"{module.fullname} requires module {prereq!r} to be "
                    f"loaded first"
                )
        for var, value in module.setenv:
            self.env[var] = value
        for var, directory in module.prepend_path:
            current = self.env.get(var, "")
            self.env[var] = directory + (":" + current if current else "")
        self._loaded[module.name] = module
        return module

    def unload(self, spec: str) -> None:
        """``module unload``: reverse the edits of one loaded module."""
        name = spec.split("/", 1)[0]
        module = self._loaded.get(name)
        if module is None:
            raise ModuleEnvError(f"module {spec!r} is not loaded")
        blockers = [
            m.fullname
            for m in self._loaded.values()
            if name in m.prerequisites
        ]
        if blockers:
            raise ModuleEnvError(
                f"cannot unload {module.fullname}: required by {blockers}"
            )
        for var, directory in module.prepend_path:
            entries = self.env.get(var, "").split(":")
            if directory in entries:
                entries.remove(directory)
            self.env[var] = ":".join(e for e in entries if e)
        for var, _value in module.setenv:
            self.env.pop(var, None)
        del self._loaded[name]

    def swap(self, old_spec: str, new_spec: str) -> ModuleFile:
        """``module swap old new``: unload one, load the other, atomically —
        if the new module cannot load, the old one is restored."""
        old_name = old_spec.split("/", 1)[0]
        held = self._loaded.get(old_name)
        if held is None:
            raise ModuleEnvError(f"module {old_spec!r} is not loaded")
        self.unload(old_spec)
        try:
            return self.load(new_spec)
        except ModuleEnvError:
            self.load(held.fullname)
            raise

    def purge(self) -> None:
        """``module purge``: unload everything (dependents first)."""
        # Unload in reverse load order; prerequisites load before dependents,
        # so reverse order never trips the dependency guard.
        for name in reversed(list(self._loaded)):
            if name in self._loaded:
                self.unload(name)
