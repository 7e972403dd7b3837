"""Near-miss fixture: memos kept absent or current (SL202)."""

from functools import lru_cache


class Catalog:
    def __init__(self, repos):
        self.repos = repos
        self._providers_cache = {}
        self._latest_memo = {}

    def providers(self, name):
        if name not in self._providers_cache:
            self._providers_cache[name] = self.repos.providers_of(name)
        return self._providers_cache[name]

    def latest(self, name):
        if name not in self._latest_memo:
            self._latest_memo[name] = self.repos.latest_by_name(name)
        return self._latest_memo[name]

    def add(self, pkg):
        self.repos.add(pkg)
        self._providers_cache.clear()  # the mutator drops what it changed
        self._latest_memo.pop(pkg.name, None)

    def reset(self):
        self._providers_cache = {}  # a reassignment outside __init__ also drops

    @staticmethod
    @lru_cache(maxsize=256)
    def normalise(name):  # no instance in the key
        return name.lower()


@lru_cache(maxsize=256)
def resolve(name):  # module-level: keyed on its arguments
    return name.lower()
