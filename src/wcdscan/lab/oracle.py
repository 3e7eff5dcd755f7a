"""Ground-truth exploitability oracle for lab sites.

The oracle brute-forces the attack by direct simulation: craft the payload
URL for the site's protected marker page, push a victim request and then an
attacker request through the caching proxy on a fresh cache, and report
whether a victim marker came back to the attacker. It is a pure function of
(site, technique): the simulation runs on a deep copy.
"""

from __future__ import annotations

import copy
import hashlib

from ..url_toolkit import PathConfusionTechnique, make_attack_url, parse_url
from .sim import LabRequest, SimClock, SimSite, proxy_handle


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
    sim = copy.deepcopy(site)
    sim.reset()
    clock = SimClock()

    page = parse_url(f"http://{sim.host}{pages[0]}")
    nonce = _deterministic_nonce(sim.name, technique)
    attack_url = make_attack_url(page, technique, nonce, extension)
    target = attack_url.split(sim.host, 1)[1]

    auth = sim.auth
    victim = auth.victim()
    attacker = next(a for a in auth.accounts.values() if not a.is_victim)
    victim_cookie = {auth.cookie_name: auth.issue(victim.username, sim.name)}
    attacker_cookie = {auth.cookie_name: auth.issue(attacker.username, sim.name)}

    proxy_handle(sim, LabRequest(target=target, cookies=victim_cookie), clock)
    response, _event = proxy_handle(
        sim, LabRequest(target=target, cookies=attacker_cookie), clock
    )
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
