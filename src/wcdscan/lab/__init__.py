"""Deterministic origin/cache lab: simulator, scenario catalog, oracle, server."""
