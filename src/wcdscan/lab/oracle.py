"""Ground-truth exploitability oracle for lab sites.

The oracle brute-forces the attack by direct simulation: craft the payload
URL for the site's protected marker page, push a victim request and then an
attacker request through the caching proxy on a fresh cache, and report
whether a victim marker came back to the attacker. It is a pure function of
(site, technique): the simulation runs on a fresh SiteRuntime, and the
scenario itself is only read.
"""

from __future__ import annotations

import hashlib

from ..url_toolkit import PathConfusionTechnique, make_attack_url, parse_url
from .sim import LabRequest, SimSite, SiteRuntime, proxy_handle


def _deterministic_nonce(site_name: str, technique: PathConfusionTechnique) -> str:
    digest = hashlib.sha1(f"{site_name}|{technique.value}".encode()).hexdigest()
    return digest[:16]  # hex, so it satisfies [a-z0-9]{16}


def oracle_vulnerable(
    site: SimSite, technique: PathConfusionTechnique, extension: str = "css"
) -> bool:
    """True iff the attacker's simulated response contains a victim marker.

    Requires a site with at least one protected, marker-bearing resource.
    """
    pages = site.marker_pages()
    if not pages:
        raise ValueError(f"site {site.name!r} has no protected marker-bearing resource")
    runtime = SiteRuntime(site)

    page = parse_url(f"http://{site.host}{pages[0]}")
    nonce = _deterministic_nonce(site.name, technique)
    attack_url = make_attack_url(page, technique, nonce, extension)
    target = attack_url.split(site.host, 1)[1]

    auth = site.auth
    victim = auth.victim()
    attacker = next(a for a in auth.accounts.values() if not a.is_victim)
    victim_cookie = {auth.cookie_name: runtime.log_in(victim.username)}
    attacker_cookie = {auth.cookie_name: runtime.log_in(attacker.username)}

    proxy_handle(runtime, LabRequest(target=target, cookies=victim_cookie))
    response, _event = proxy_handle(runtime, LabRequest(target=target, cookies=attacker_cookie))
    marker_values = [victim.values[label] for label in auth.marker_labels]
    return any(value.encode() in response.body for value in marker_values)


def enumerate_oracle(
    sites: list[SimSite],
    techniques: tuple[PathConfusionTechnique, ...] = tuple(PathConfusionTechnique),
    extension: str = "css",
) -> dict[tuple[str, PathConfusionTechnique], bool]:
    """Ground truth for every (site, technique) pair in the scenario list."""
    return {
        (site.name, technique): oracle_vulnerable(site, technique, extension)
        for site in sites
        for technique in techniques
    }
