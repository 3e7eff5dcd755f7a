"""Identities, cookies, pacing, and fetch behavior against the lab."""

import dataclasses
import http.cookiejar
import inspect
import string
import threading
import time
from datetime import datetime, timezone

import pytest
import requests
from hypothesis import given, settings, strategies as st

from wcdscan import crawler
from wcdscan.cache_policy import builtin_profile
from wcdscan.http_engine import (
    AuthFailure,
    Cookie,
    Identity,
    LoginDescriptor,
    NetworkError,
    RateLimiter,
    Role,
    TooManyRedirects,
    Transport,
    fetch,
    is_logout_link,
    maintain_session,
)
from wcdscan.lab import catalog
from wcdscan.lab.origin import OriginSemantics
from wcdscan.lab.server import LabServer
from wcdscan.lab.sim import LabResource, SimSite
from wcdscan.url_toolkit import parse_url


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def time(self):
        return self.t

    def sleep(self, seconds):
        self.t += seconds


class TestRateLimiter:
    def test_window_contract_single_thread(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=2.0, time_fn=clock.time, sleep_fn=clock.sleep)
        stamps = []
        for _ in range(10):
            limiter.acquire("host")
            stamps.append(clock.t)
        for i, start in enumerate(stamps):
            in_window = [t for t in stamps if start <= t < start + 1.0]
            assert len(in_window) <= 2

    def test_hosts_are_independent(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, time_fn=clock.time, sleep_fn=clock.sleep)
        limiter.acquire("a")
        limiter.acquire("b")
        assert clock.t == 0.0  # second host not throttled by the first

    def test_fractional_rate(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=0.5, time_fn=clock.time, sleep_fn=clock.sleep)
        limiter.acquire("h")
        limiter.acquire("h")
        assert clock.t >= 2.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            RateLimiter(rate=0)


@pytest.mark.parametrize(
    "function",
    [
        fetch,
        maintain_session,
        crawler.probe_host,
        crawler.ingest_domains,
        crawler._load_robots,
        crawler.crawl_domain,
        crawler.filter_marked_pages,
    ],
    ids=lambda function: function.__name__,
)
def test_pacing_and_transport_are_required(function):
    """No request can leave without the run's limiter and transport."""
    parameters = inspect.signature(function).parameters
    for name in ("rate_limiter", "transport"):
        assert parameters[name].default is inspect.Parameter.empty, name


class RecordingLimiter(RateLimiter):
    """A fast limiter that records the host of every token it hands out."""

    def __init__(self):
        super().__init__(rate=10000.0)
        self.hosts: list[str] = []

    def acquire(self, host: str) -> None:
        self.hosts.append(host)
        super().acquire(host)


@pytest.mark.parametrize(
    "url,expected",
    [
        ("http://e.com/logout", True),
        ("http://e.com/account/signout?next=/", True),
        ("http://e.com/blog/why-i-logged-out-of-social-media", False),
        ("http://e.com/session/destroy", True),
        ("http://e.com/sign-out", True),
        ("http://e.com/catalogue", False),
        ("http://e.com/page?go=LOGOUT", True),
    ],
)
def test_is_logout_link(url, expected):
    page = parse_url(url)
    assert is_logout_link(page.raw_path, page.raw_query) is expected


def _victim_login(host: str) -> LoginDescriptor:
    return LoginDescriptor(
        url=f"http://{host}/login",
        fields={"username": "victim", "password": catalog.VICTIM_PASSWORD},
        success_statuses=(200,),
    )


def _log_len(lab, host):
    return len(lab.request_log(host))


_COOKIE_HOSTS = (
    "shop.example", "www.shop.example", "login.shop.example", "a.b.shop.example",
    "myshop.example", "other.example", "10.0.0.1",
)


@pytest.mark.parametrize(
    "set_by, set_cookie, sent_to",
    [
        # No Domain attribute: host-only, sent to the setting host alone.
        ("shop.example", "sid=1", {"shop.example"}),
        ("login.shop.example", "sid=1", {"login.shop.example"}),
        # A Domain the setting host domain-matches: sent to its subdomains too.
        (
            "login.shop.example",
            "sid=1; Domain=.shop.example",
            {"shop.example", "www.shop.example", "login.shop.example", "a.b.shop.example"},
        ),
        (
            "shop.example",
            "sid=1; Domain=SHOP.example",
            {"shop.example", "www.shop.example", "login.shop.example", "a.b.shop.example"},
        ),
        # A Domain the setting host does not domain-match: ignored.
        ("shop.example", "sid=1; Domain=other.example", set()),
        ("www.shop.example", "sid=1; Domain=login.shop.example", set()),
        ("myshop.example", "sid=1; Domain=shop.example", set()),
        ("10.0.0.1", "sid=1; Domain=0.0.1", set()),
        ("10.0.0.1", "sid=1", {"10.0.0.1"}),
    ],
)
def test_cookie_domain_matching(set_by, set_cookie, sent_to):
    victim = Identity(role=Role.VICTIM)
    victim.store_set_cookie(set_by, set_cookie)
    assert {h for h in _COOKIE_HOSTS if victim.cookie_header(h) == "sid=1"} == sent_to


def test_set_cookie_expires_sets_the_expiry():
    victim = Identity(role=Role.VICTIM)
    victim.store_set_cookie("shop.example", "sid=1; Expires=Wed, 21 Oct 2037 07:28:00 GMT")
    cookie = victim.cookie_jar[("shop.example", "sid")]
    assert cookie.expiry == datetime(2037, 10, 21, 7, 28, tzinfo=timezone.utc).timestamp()
    assert not cookie.expired(time.time())


# A cookie name (an RFC 9110 token) and a value that both readers trim alike.
_TOKEN = string.ascii_letters + string.digits + "!#$%&'*+-.^_`|~"
_COOKIE_TEXT = "".join(c for c in string.printable[:95] if c != ";")


def _jar(*set_cookies: str) -> dict[str, str]:
    """name -> value of what a victim stores from ``set_cookies``, in order."""
    victim = Identity(role=Role.VICTIM)
    for value in set_cookies:
        victim.store_set_cookie("shop.example", value)
    return {c.name: c.value for c in victim.cookie_jar.values()}


class TestSetCookieParsing:
    """Set-Cookie values as RFC 6265 §5.2 reads them."""

    @pytest.mark.parametrize(
        "set_cookie, stored",
        [
            # Attributes this client does not know are ignored, not stored.
            ("sid=1; Path=/; Secure; HttpOnly; Partitioned", {"sid": "1"}),
            ("sid=1; Priority=High", {"sid": "1"}),
            # The value is the text up to the first ";", trimmed of spaces.
            ("sid=a b", {"sid": "a b"}),
            ("sid=a;b", {"sid": "a"}),
            (" sid = a=b \t; Path=/", {"sid": "a=b"}),
            # Quotes stay part of the value; nothing inside them is decoded.
            ('sid="a b"', {"sid": '"a b"'}),
            (r'sid="\012"', {"sid": r'"\012"'}),
            ("sid=", {"sid": ""}),
            # No "=" or an empty name: the value is ignored.
            ("sid", {}),
            ("=1", {}),
            ("; sid=1", {}),
        ],
        ids=["partitioned", "priority", "space", "stray-token", "trimmed",
             "quoted", "quoted-octal", "empty-value", "no-equals", "no-name", "empty-pair"],
    )
    def test_name_and_value(self, set_cookie, stored):
        assert _jar(set_cookie) == stored

    @pytest.mark.parametrize(
        "clearing",
        ["sid=; Max-Age=0", "sid=x; max-age=-1",
         "sid=; Expires=Thu, 01 Jan 1970 00:00:00 GMT",
         "sid=; Max-Age=0; Expires=Wed, 21 Oct 2037 07:28:00 GMT",
         "sid=x; Max-Age=3600; Max-Age=0"],
        ids=["max-age-0", "negative", "expires-past", "max-age-wins", "last-wins"],
    )
    def test_an_expired_cookie_evicts_the_stored_one(self, clearing):
        assert _jar("sid=1", "other=2", clearing) == {"other": "2"}
        assert _jar(clearing) == {}

    def test_an_expired_cookie_evicts_only_its_own_domain(self):
        victim = Identity(role=Role.VICTIM)
        victim.store_set_cookie("www.shop.example", "sid=1")
        victim.store_set_cookie("www.shop.example", "sid=2; Domain=shop.example")
        victim.store_set_cookie("www.shop.example", "sid=; Domain=shop.example; Max-Age=0")
        assert [(c.domain, c.value) for c in victim.cookie_jar.values()] == [
            ("www.shop.example", "1")
        ]

    @pytest.mark.parametrize(
        "attributes, lifetime",
        [
            ("Max-Age=60; Expires=Thu, 01 Jan 1970 00:00:00 GMT", 60),
            ("Expires=Thu, 01 Jan 1970 00:00:00 GMT; Max-Age=60", 60),
            ("Max-Age=60; Max-Age=120", 120),
            ("Max-Age=60; Max-Age=2m; Max-Age=+5; Max-Age=", 60),
            ("Max-Age=1.5", None),
            ("Expires=soon", None),
        ],
        ids=["max-age-first", "max-age-last", "last-valid", "invalid-ignored",
             "not-an-integer", "bad-date"],
    )
    def test_max_age(self, attributes, lifetime):
        victim = Identity(role=Role.VICTIM)
        before = time.time()
        victim.store_set_cookie("shop.example", f"sid=1; {attributes}")
        expiry = victim.cookie_jar[("shop.example", "sid")].expiry
        if lifetime is None:
            assert expiry is None
        else:
            assert before + lifetime <= expiry <= time.time() + lifetime

    @pytest.mark.parametrize(
        "date",
        ["Wed, 21 Oct 2037 07:28:00 GMT", "Wed, 21 Oct 2037 07:28:00 -0000",
         "Wed Oct 21 07:28:00 2037", "Wed, 21 Oct 2037 07:28:00 +0200"],
        ids=["gmt", "minus-zero", "asctime", "other-zone"],
    )
    def test_an_expires_date_is_utc_in_any_local_zone(self, monkeypatch, date):
        """RFC 6265 §5.1.1 reads every cookie date as UTC, so the expiry
        depends neither on the zone the scanner runs in nor on one that the
        date names."""
        monkeypatch.setenv("TZ", "America/New_York")
        time.tzset()
        try:
            victim = Identity(role=Role.VICTIM)
            victim.store_set_cookie("shop.example", f"sid=1; Expires={date}")
        finally:
            monkeypatch.undo()
            time.tzset()
        expiry = victim.cookie_jar[("shop.example", "sid")].expiry
        assert expiry == datetime(2037, 10, 21, 7, 28, tzinfo=timezone.utc).timestamp()

    @pytest.mark.parametrize("set_cookie", ["s\nid=1", "sid=a\rb", "sid=a\x00", "sid=a\nb; Path=/"])
    def test_a_control_character_keeps_the_cookie_out(self, set_cookie):
        assert _jar("sid=1", set_cookie) == {"sid": "1"}

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.characters(max_codepoint=0x17F)))
    def test_any_value_is_read_without_raising(self, set_cookie):
        victim = Identity(role=Role.VICTIM)
        for value in (set_cookie, f"sid=1;{set_cookie}", f"sid=1; Expires={set_cookie}"):
            victim.store_set_cookie("shop.example", value)
        for cookie in victim.cookie_jar.values():
            assert not set("\r\n\x00") & set(cookie.name + cookie.value)

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.text(alphabet=_TOKEN, min_size=1),
        value=st.text(alphabet=_COOKIE_TEXT),
        attributes=st.lists(st.one_of(
            st.tuples(st.sampled_from(["Domain", "domain", "DOMAIN"]),
                      st.sampled_from([".shop.example", "Shop.Example", "www.shop.example",
                                       "other.example"])),
            st.tuples(st.sampled_from(["Max-Age", "max-age"]),
                      st.integers(1, 10**9).map(str)),
            st.just(("Path", "/")),
        )),
    )
    def test_agrees_with_the_stdlib_netscape_reader(self, name, value, attributes):
        """Name, value, Domain and Max-Age as ``http.cookiejar`` reads them,
        on values well-formed enough for both."""
        set_cookie = "; ".join([f"{name}={value}", *(f"{k}={v}" for k, v in attributes)])
        (pairs,) = http.cookiejar.parse_ns_headers([set_cookie])
        reference = dict(pairs[1:])  # the last of each attribute counts
        victim = Identity(role=Role.VICTIM)
        before = time.time()
        victim.store_set_cookie("www.shop.example", set_cookie)
        domain = reference.get("domain", "").removeprefix(".").lower()
        if domain == "other.example":  # a Domain that does not cover the host
            assert victim.cookie_jar == {}
            return
        (cookie,) = victim.cookie_jar.values()
        assert (cookie.name, cookie.value) == pairs[0]
        assert cookie.domain == (f".{domain}" if domain else "www.shop.example")
        max_age = reference.get("max-age")
        if max_age is None:
            assert cookie.expiry is None
        else:
            assert before + int(max_age) <= cookie.expiry <= time.time() + int(max_age)


class TestFetchAgainstLab:
    HOST = "classic-pp.test"

    def test_unauthenticated_fetch_sends_no_cookies(self, support_lab, support_transport, limiter):
        unauth = Identity(role=Role.UNAUTHENTICATED)
        before = _log_len(support_lab, self.HOST)
        fetch(unauth, f"http://{self.HOST}/", limiter, support_transport)
        entries = support_lab.request_log(self.HOST)[before:]
        assert entries and not any(e.has_cookie for e in entries)

    def test_unauthenticated_jar_stays_empty(self, support_lab, support_transport, limiter):
        unauth = Identity(role=Role.UNAUTHENTICATED)
        fetch(
            unauth,
            f"http://{self.HOST}/login",
            limiter,
            support_transport,
            method="POST",
            data={"username": "victim", "password": catalog.VICTIM_PASSWORD},
        )
        assert unauth.cookie_jar == {}

    def test_victim_login_then_protected_page(self, support_lab, support_transport, limiter):
        victim = Identity(role=Role.VICTIM, credentials=_victim_login(self.HOST))
        maintain_session(victim, limiter, support_transport)
        exchange = fetch(victim, f"http://{self.HOST}/account.php", limiter, support_transport)
        assert exchange.status == 200
        markers = catalog.victim_markers("classic-pp")
        assert markers["email"].encode() in exchange.body
        assert markers["name"].encode() in exchange.body

    def test_protected_page_without_session_redirects_to_login(
        self, support_lab, support_transport, limiter
    ):
        unauth = Identity(role=Role.UNAUTHENTICATED)
        exchange = fetch(unauth, f"http://{self.HOST}/account.php", limiter, support_transport)
        assert exchange.status == 200  # landed on the login form
        assert exchange.history and exchange.history[0][1] == 302
        assert exchange.url.endswith("/login")

    def test_a_head_stays_a_head_across_a_redirect(self, support_lab, support_transport, limiter):
        before = _log_len(support_lab, self.HOST)
        exchange = fetch(Identity(role=Role.UNAUTHENTICATED), f"http://{self.HOST}/logout",
                         limiter, support_transport, method="HEAD")
        entries = support_lab.request_log(self.HOST)[before:]
        assert [(e.method, e.target) for e in entries] == [("HEAD", "/logout"), ("HEAD", "/")]
        assert (exchange.status, exchange.body) == (200, b"")
        assert exchange.history == ((f"http://{self.HOST}/logout", 302),)

    def test_every_redirect_hop_waits_on_the_limiter(self, support_lab, support_transport):
        limiter = RecordingLimiter()
        unauth = Identity(role=Role.UNAUTHENTICATED)
        exchange = fetch(unauth, f"http://{self.HOST}/account.php", limiter, support_transport)
        assert limiter.hosts == [self.HOST, self.HOST]
        assert exchange.history == ((f"http://{self.HOST}/account.php", 302),)

    def test_set_cookie_records_expiry(self, support_lab, support_transport, limiter):
        victim = Identity(role=Role.VICTIM, credentials=_victim_login(self.HOST))
        maintain_session(victim, limiter, support_transport)
        cookies = list(victim.cookie_jar.values())
        assert cookies and all(c.expiry is not None and c.expiry > time.time() for c in cookies)
        assert all(c.domain == self.HOST for c in cookies)


class TestMaintainSession:
    HOST = "classic-pp.test"

    def test_fresh_jar_is_noop(self, support_lab, support_transport, limiter):
        victim = Identity(role=Role.VICTIM, credentials=_victim_login(self.HOST))
        maintain_session(victim, limiter, support_transport)
        before = _log_len(support_lab, self.HOST)
        maintain_session(victim, limiter, support_transport)
        assert _log_len(support_lab, self.HOST) == before

    def test_expired_cookie_triggers_relogin(self, support_lab, support_transport, limiter):
        victim = Identity(role=Role.VICTIM, credentials=_victim_login(self.HOST))
        victim.cookie_jar[(self.HOST, "sid")] = Cookie(
            self.HOST, "sid", "stale", expiry=time.time() - 10
        )
        before = _log_len(support_lab, self.HOST)
        maintain_session(victim, limiter, support_transport)
        assert _log_len(support_lab, self.HOST) > before
        sid = victim.cookie_jar[(self.HOST, "sid")]
        assert sid.value != "stale" and not sid.expired(time.time())

    def test_rotating_site_issues_new_session_id(self, support_lab, support_transport, limiter):
        host = "rotation.test"
        login = LoginDescriptor(
            url=f"http://{host}/login",
            fields={"username": "victim", "password": catalog.VICTIM_PASSWORD},
        )
        victim = Identity(role=Role.VICTIM, credentials=login)
        maintain_session(victim, limiter, support_transport)
        first = victim.cookie_jar[(host, "sid")].value
        victim.cookie_jar[(host, "sid")] = Cookie(host, "sid", first, expiry=time.time() - 1)
        maintain_session(victim, limiter, support_transport)
        second = victim.cookie_jar[(host, "sid")].value
        assert first != second

    def test_bad_credentials_raise_auth_failure(self, support_lab, support_transport, limiter):
        login = LoginDescriptor(
            url=f"http://{self.HOST}/login",
            fields={"username": "victim", "password": "wrong"},
        )
        victim = Identity(role=Role.VICTIM, credentials=login)
        with pytest.raises(AuthFailure):
            maintain_session(victim, limiter, support_transport)

    @pytest.mark.parametrize("marker,logged_in", [("Your account", True), ("Welcome back", False)])
    def test_success_marker_must_be_in_the_login_response(
        self, support_lab, support_transport, limiter, marker, logged_in
    ):
        login = dataclasses.replace(_victim_login(self.HOST), success_marker=marker)
        victim = Identity(role=Role.VICTIM, credentials=login)
        if logged_in:
            maintain_session(victim, limiter, support_transport)
        else:
            with pytest.raises(AuthFailure, match="status 200"):
                maintain_session(victim, limiter, support_transport)

    def test_no_credentials_raise(self, limiter):
        with pytest.raises(AuthFailure):
            maintain_session(Identity(role=Role.VICTIM), limiter, Transport())


class TestTransportFailures:
    def test_redirect_loop_raises(self, limiter):
        site = SimSite(
            name="loop",
            host="loop.test",
            origin=OriginSemantics(),
            cache_profile=builtin_profile("akamai_default"),
            resources={
                "/loop": LabResource(
                    path="/loop",
                    body_template="going in circles",
                    status=302,
                    headers={"Location": "/loop"},
                )
            },
        )
        server = LabServer([site]).start()
        transport = Transport(resolve_overrides=server.resolve_overrides())
        try:
            unauth = Identity(role=Role.UNAUTHENTICATED)
            with pytest.raises(TooManyRedirects):
                fetch(unauth, "http://loop.test/loop", limiter, transport)
        finally:
            transport.close()
            server.stop()

    def test_dead_host_raises_network_error(self, limiter, transport_limits):
        transport_limits(retries=1, timeout=0.5)
        transport = Transport(resolve_overrides={"dead.test": ("127.0.0.1", 1)})
        unauth = Identity(role=Role.UNAUTHENTICATED)
        with pytest.raises(NetworkError):
            fetch(unauth, "http://dead.test/", limiter, transport)

    @pytest.mark.parametrize("role", [Role.UNAUTHENTICATED, Role.VICTIM])
    def test_unsendable_user_agent_takes_no_pacing_token(self, role):
        limiter = RecordingLimiter()
        identity = Identity(role=role, user_agent="bad\r\nX: y")
        with pytest.raises(NetworkError, match="CR, LF or NUL"):
            fetch(identity, "http://e.test/", limiter, Transport())
        assert limiter.hosts == []

    def test_unsendable_cookie_takes_no_pacing_token(self):
        limiter = RecordingLimiter()
        victim = Identity(role=Role.VICTIM)
        victim.cookie_jar[("e.test", "sid")] = Cookie("e.test", "sid", "a\nb")
        with pytest.raises(NetworkError, match="CR, LF or NUL"):
            fetch(victim, "http://e.test/", limiter, Transport())
        assert limiter.hosts == []


def test_concurrent_workers_share_window(support_lab, support_transport):
    """Several workers hammering one host stay inside the configured
    requests/second when they share the limiter."""
    host = "pacing.test"
    requests.post(  # reset instrumentation directly via the control endpoint
        f"http://{support_transport.resolve_overrides[host][0]}:"
        f"{support_transport.resolve_overrides[host][1]}/_lab/reset",
        headers={"Host": host},
        timeout=5,
    )
    limiter = RateLimiter(rate=5.0)
    errors = []

    def worker():
        identity = Identity(role=Role.UNAUTHENTICATED)
        for _ in range(5):
            try:
                fetch(identity, f"http://{host}/", limiter, support_transport)
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)
        support_transport.close()  # this thread's pooled connections

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    stamps = [e.t for e in support_lab.request_log(host)]
    assert len(stamps) == 20
    for start in stamps:
        assert len([t for t in stamps if start <= t < start + 1.0]) <= 5
