"""Known-bad fixture: memos that no mutator drops or updates (SL202)."""

import functools


class Catalog:
    def __init__(self, repos):
        self.repos = repos
        self._providers_cache = {}  # SL202: filled below, never dropped

    def providers(self, name):
        if name not in self._providers_cache:
            self._providers_cache[name] = self.repos.providers_of(name)
        return self._providers_cache[name]

    def add(self, pkg):
        self.repos.add(pkg)  # the content changes; the memo does not

    @functools.lru_cache(maxsize=None)  # SL202: keyed on the instance
    def latest(self, name):
        return self.repos.latest_by_name(name)
