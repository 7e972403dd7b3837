"""Near-miss fixture: epoch-keyed memoization (SL202)."""

from functools import lru_cache


class Catalog:
    def __init__(self, repos):
        self.repos = repos
        self._providers_cache = {}
        self._cache_epoch = -1  # marker ties the memo to repo content

    def providers(self, name):
        if self._cache_epoch != self.repos.fingerprint():
            self._providers_cache.clear()
            self._cache_epoch = self.repos.fingerprint()
        if name not in self._providers_cache:
            self._providers_cache[name] = self.repos.providers_of(name)
        return self._providers_cache[name]


@lru_cache(maxsize=256)
def resolve(name, epoch):  # epoch in the key: stale hits impossible
    return (name.lower(), epoch)
