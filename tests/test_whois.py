import datetime as dt
import json
import re
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from domaintriage import whois as whois_mod
from domaintriage.model import DomainTriageError, WhoisRecord, parse_domain
from domaintriage.whois import (
    DEFAULT_SERVERS,
    MAX_RESPONSE_BYTES,
    PROXY_ENV_VAR,
    NoServerForTld,
    RateLimited,
    ResponseTooLarge,
    WhoisCache,
    WhoisClient,
    WhoisConnectionRefused,
    WhoisTimeout,
    _parse_proxy,
    _parse_whois_date,
    _RateLimiter,
    _strptime_date,
    _strptime_pattern,
    parse_whois,
)
from oracles import WHOIS_DATE_FORMATS, whois_cache_per_line, whois_date_every_format

TODAY = dt.date(2020, 5, 16)


class StubServer:
    """Minimal port-43 server: reads one CRLF-terminated query line and
    answers from a response table, recording what it saw."""

    def __init__(self, responses=None, default="no match\r\n", hang=False, drip_s=None):
        self.responses = responses or {}
        self.default = default
        self.hang = hang
        self.drip_s = drip_s
        self.queries = []
        self.times = []
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(16)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn:
                try:
                    data = b""
                    while not data.endswith(b"\r\n"):
                        chunk = conn.recv(1024)
                        if not chunk:
                            break
                        data += chunk
                    query = data.decode("utf-8").strip()
                    self.queries.append(query)
                    self.times.append(time.monotonic())
                    if self.hang:
                        time.sleep(5.0)
                        continue
                    reply = self.responses.get(query, self.default).encode("utf-8")
                    if self.drip_s is None:
                        conn.sendall(reply)
                        continue
                    for i in range(len(reply)):
                        conn.sendall(reply[i:i + 1])
                        time.sleep(self.drip_s)
                except OSError:
                    pass

    def close(self):
        self._sock.close()


@pytest.fixture
def stub():
    server = StubServer()
    yield server
    server.close()


def _client(stub_server, **kwargs):
    defaults = dict(
        server_map={"com": "127.0.0.1", "top": "127.0.0.1"},
        iana_host="127.0.0.1",
        port=stub_server.port,
        timeout=2.0,
        min_interval=0.0,
    )
    defaults.update(kwargs)
    return WhoisClient(**defaults)


VERISIGN_STYLE = """\
   Domain Name: EXAMPLE.COM
   Registrar: NameCheap, Inc.
   Registrar URL: http://www.namecheap.com
   Updated Date: 2020-04-02T07:15:00Z
   Creation Date: 2020-04-01T10:00:00Z
   Registry Expiry Date: 2021-04-01T10:00:00Z
"""


# --- client ----------------------------------------------------------------

def test_query_known_tld(stub):
    stub.responses["example.com"] = VERISIGN_STYLE
    client = _client(stub)
    raw = client.query(parse_domain("example.com"))
    assert "Creation Date: 2020-04-01" in raw
    assert stub.queries == ["example.com"]


def test_query_unknown_tld_uses_one_iana_referral(stub):
    stub.responses["weird"] = "% IANA WHOIS server\nrefer:        127.0.0.1\n"
    # the referred answer itself carries a refer line, which must NOT
    # trigger a second hop
    stub.responses["name.weird"] = "refer: other.example\nCreation Date: 2020-01-02\n"
    stub.responses["other.weird"] = "Creation Date: 2021-03-04\n"
    client = _client(stub, server_map={})
    raw = client.query(parse_domain("name.weird"))
    assert "Creation Date: 2020-01-02" in raw
    assert stub.queries == ["weird", "name.weird"]
    # the referral is remembered: a second domain under the TLD skips IANA
    assert "2021-03-04" in client.query(parse_domain("other.weird"))
    assert stub.queries == ["weird", "name.weird", "other.weird"]
    assert "weird" not in DEFAULT_SERVERS


def test_iana_whois_key_also_accepted(stub):
    stub.responses["odd"] = "whois: 127.0.0.1\n"
    stub.responses["x.odd"] = "Created: 2019-03-04\n"
    client = _client(stub, server_map={})
    raw = client.query(parse_domain("x.odd"))
    assert "Created" in raw


def test_no_server_for_tld(stub):
    stub.responses["nowhere"] = "% no refer line here\nstatus: ACTIVE\n"
    client = _client(stub, server_map={})
    with pytest.raises(NoServerForTld):
        client.query(parse_domain("x.nowhere"))
    # a referral without a server is not remembered
    with pytest.raises(NoServerForTld):
        client.query(parse_domain("y.nowhere"))
    assert stub.queries == ["nowhere", "nowhere"]


def test_connection_refused():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    client = WhoisClient(server_map={"com": "127.0.0.1"}, port=dead_port,
                         timeout=0.5, min_interval=0.0)
    with pytest.raises(WhoisConnectionRefused):
        client.query(parse_domain("x.com"))


def test_timeout():
    server = StubServer(hang=True)
    try:
        client = _client(server, timeout=0.3)
        with pytest.raises(WhoisTimeout):
            client.query(parse_domain("x.com"))
    finally:
        server.close()


@pytest.mark.parametrize("via_proxy", [False, True])
def test_timeout_bounds_the_whole_exchange(via_proxy):
    # one byte every 50 ms never lets a single recv wait 0.3 s, but the
    # 60-byte answer (or proxy reply to CONNECT) would take 3 s in all
    server = StubServer(default="HTTP/1.1 200 " + "x" * 46 + "\n", drip_s=0.05)
    try:
        if via_proxy:
            client = WhoisClient(server_map={"com": "registry.example"}, timeout=0.3,
                                 min_interval=0.0, proxy=f"http://127.0.0.1:{server.port}")
        else:
            client = _client(server, timeout=0.3)
        start = time.monotonic()
        with pytest.raises(WhoisTimeout):
            client.query(parse_domain("x.com"))
        assert time.monotonic() - start < 1.5
    finally:
        server.close()


def test_response_size_cap(tmp_path, stub):
    stub.responses["full.com"] = "x" * MAX_RESPONSE_BYTES
    stub.responses["over.com"] = "x" * (MAX_RESPONSE_BYTES + 1)
    client = _client(stub)
    assert len(client.query(parse_domain("full.com"))) == MAX_RESPONSE_BYTES
    cache = WhoisCache(str(tmp_path / "c.jsonl"))
    with pytest.raises(ResponseTooLarge):
        cache.put("over.com", client.query(parse_domain("over.com")), TODAY)
    assert len(cache) == 0
    assert not (tmp_path / "c.jsonl").exists()


def test_proxy_reply_size_cap():
    # a reply to CONNECT whose header never ends
    proxy = StubServer(default="x" * (MAX_RESPONSE_BYTES + 1))
    try:
        client = WhoisClient(server_map={"com": "registry.example"}, timeout=2.0,
                             min_interval=0.0, proxy=f"http://127.0.0.1:{proxy.port}")
        with pytest.raises(ResponseTooLarge):
            client.query(parse_domain("x.com"))
    finally:
        proxy.close()


def test_rate_limit_signal_detected(stub):
    stub.responses["x.com"] = "Number of allowed queries exceeded the maximum.\n"
    client = _client(stub)
    with pytest.raises(RateLimited):
        client.query(parse_domain("x.com"))


def test_rate_limiter_spaces_queries(stub):
    stub.responses["a.com"] = "first\n"
    stub.responses["b.com"] = "second\n"
    client = _client(stub, min_interval=0.4)
    start = time.monotonic()
    client.query(parse_domain("a.com"))
    client.query(parse_domain("b.com"))
    elapsed = time.monotonic() - start
    assert elapsed >= 0.35  # the second query waited out the interval
    assert stub.times[1] - stub.times[0] >= 0.3


def test_rate_limiter_unit():
    limiter = _RateLimiter(0.2)
    with limiter.lock_for("s"):
        start = time.monotonic()
        limiter.wait("s")  # never marked: returns immediately
        assert time.monotonic() - start < 0.05
        limiter.mark("s")
        limiter.wait("s")
        assert time.monotonic() - start >= 0.18
    assert limiter.lock_for("s") is limiter.lock_for("s")
    assert limiter.lock_for("s") is not limiter.lock_for("t")


# --- proxies ----------------------------------------------------------------

class HttpProxyStub:
    """Accepts one CONNECT, optionally grants it, then serves the WHOIS
    payload over the tunnel."""

    def __init__(self, payload="tunneled reply\n", grant=True):
        self.payload = payload
        self.grant = grant
        self.connect_lines = []
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(4)
        self.port = self._sock.getsockname()[1]
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn:
                try:
                    data = b""
                    while b"\r\n\r\n" not in data:
                        chunk = conn.recv(1024)
                        if not chunk:
                            break
                        data += chunk
                    self.connect_lines.append(data.split(b"\r\n", 1)[0].decode())
                    if not self.grant:
                        conn.sendall(b"HTTP/1.1 403 Forbidden\r\n\r\n")
                        continue
                    conn.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
                    q = b""
                    while not q.endswith(b"\r\n"):
                        chunk = conn.recv(1024)
                        if not chunk:
                            break
                        q += chunk
                    conn.sendall(self.payload.encode())
                except OSError:
                    pass

    def close(self):
        self._sock.close()


class Socks5ProxyStub:
    def __init__(self, payload="socks reply\n", grant=True):
        self.payload = payload
        self.grant = grant
        self.targets = []
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(4)
        self.port = self._sock.getsockname()[1]
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn:
                try:
                    greeting = conn.recv(3)
                    if greeting != b"\x05\x01\x00":
                        conn.sendall(b"\x05\xff")
                        continue
                    if not self.grant:
                        conn.sendall(b"\x05\xff")
                        continue
                    conn.sendall(b"\x05\x00")
                    head = conn.recv(4)
                    assert head[:4] == b"\x05\x01\x00\x03"
                    namelen = conn.recv(1)[0]
                    name = conn.recv(namelen).decode()
                    port = int.from_bytes(conn.recv(2), "big")
                    self.targets.append((name, port))
                    conn.sendall(b"\x05\x00\x00\x01" + bytes(4) + (0).to_bytes(2, "big"))
                    q = b""
                    while not q.endswith(b"\r\n"):
                        chunk = conn.recv(1024)
                        if not chunk:
                            break
                        q += chunk
                    conn.sendall(self.payload.encode())
                except (OSError, AssertionError):
                    pass

    def close(self):
        self._sock.close()


def test_http_connect_proxy():
    proxy = HttpProxyStub(payload="Creation Date: 2020-02-02\n")
    try:
        client = WhoisClient(server_map={"com": "registry.example"},
                             proxy=f"http://127.0.0.1:{proxy.port}",
                             timeout=2.0, min_interval=0.0)
        raw = client.query(parse_domain("thing.com"))
        assert "2020-02-02" in raw
        assert proxy.connect_lines == ["CONNECT registry.example:43 HTTP/1.1"]
    finally:
        proxy.close()


def test_http_proxy_refusal():
    proxy = HttpProxyStub(grant=False)
    try:
        client = WhoisClient(server_map={"com": "registry.example"},
                             proxy=f"http://127.0.0.1:{proxy.port}",
                             timeout=2.0, min_interval=0.0)
        with pytest.raises(WhoisConnectionRefused):
            client.query(parse_domain("thing.com"))
    finally:
        proxy.close()


def test_socks5_proxy():
    proxy = Socks5ProxyStub(payload="Registrar: Dynadot LLC\n")
    try:
        client = WhoisClient(server_map={"top": "registry.example"},
                             proxy=f"socks5://127.0.0.1:{proxy.port}",
                             timeout=2.0, min_interval=0.0)
        raw = client.query(parse_domain("cheap.top"))
        assert "Dynadot" in raw
        assert proxy.targets == [("registry.example", 43)]
    finally:
        proxy.close()


def test_socks5_rejection():
    proxy = Socks5ProxyStub(grant=False)
    try:
        client = WhoisClient(server_map={"top": "registry.example"},
                             proxy=f"socks5://127.0.0.1:{proxy.port}",
                             timeout=2.0, min_interval=0.0)
        with pytest.raises(WhoisConnectionRefused):
            client.query(parse_domain("cheap.top"))
    finally:
        proxy.close()


def test_proxy_from_environment(monkeypatch):
    proxy = HttpProxyStub(payload="env proxied\n")
    try:
        monkeypatch.setenv(PROXY_ENV_VAR, f"http://127.0.0.1:{proxy.port}")
        client = WhoisClient(server_map={"com": "registry.example"},
                             timeout=2.0, min_interval=0.0)
        raw = client.query(parse_domain("x.com"))
        assert raw == "env proxied\n"
    finally:
        proxy.close()


def test_parse_proxy_strings():
    assert _parse_proxy("socks5://host:1080") == ("socks5", "host", 1080)
    assert _parse_proxy("http://10.0.0.1:8080") == ("http", "10.0.0.1", 8080)
    for bad in ("ftp://h:1", "socks5://h", "http://h:port", "h:1080"):
        with pytest.raises(ValueError):
            _parse_proxy(bad)


@pytest.mark.parametrize("host, via_socks5", [
    ("whois..example", False), ("a" * 64 + ".example", False),
    ("whois..example", True), ("a" * 64 + ".example", True), ("a." * 130 + "example", True),
], ids=["empty-label", "long-label", "socks5-empty-label", "socks5-long-label",
        "socks5-long-name"])
def test_host_that_cannot_be_named_is_refused(host, via_socks5):
    # the IDNA codec refuses an empty label or one over 63 characters
    # before any name lookup, so nothing leaves this host; the last name
    # encodes, but is longer than the 255 bytes SOCKS5 can carry
    proxy = Socks5ProxyStub() if via_socks5 else None
    try:
        client = WhoisClient(server_map={"top": host}, timeout=2.0, min_interval=0.0,
                             proxy=f"socks5://127.0.0.1:{proxy.port}" if proxy else None)
        with pytest.raises(WhoisConnectionRefused, match=re.escape(host)) as exc:
            client.query(parse_domain("cheap.top"))
        assert exc.value.kind == "refused"
    finally:
        if proxy:
            proxy.close()


def test_whois_fetch_counts_a_bad_referral_and_goes_on(stub, tmp_path, capsys, monkeypatch):
    # IANA refers the "bad" TLD to a host name with an empty label; its
    # domains fail as "refused", and the domain between them is fetched
    from domaintriage.cli import main

    stub.responses["bad"] = "% IANA WHOIS server\nrefer: whois..example\n"
    stub.responses["good.com"] = VERISIGN_STYLE

    class StubClient(WhoisClient):
        def __init__(self, **kwargs):
            super().__init__(server_map={"com": "127.0.0.1"}, iana_host="127.0.0.1",
                             port=stub.port, **kwargs)

    monkeypatch.setattr(whois_mod, "WhoisClient", StubClient)
    monkeypatch.delenv(PROXY_ENV_VAR, raising=False)
    dataset = tmp_path / "dataset.csv"
    dataset.write_text("domain,label,source,first_seen\n"
                       "a.bad,1,t,\ngood.com,0,t,\nb.bad,1,t,\n")
    cache_path = tmp_path / "cache.jsonl"
    code = main(["whois-fetch", "--in", str(dataset), "--cache", str(cache_path),
                 "--rate", "0", "--timeout", "2"])
    out, err = capsys.readouterr()
    assert code == 0
    (summary,) = [json.loads(line) for line in out.splitlines()]
    assert (summary["fetched"], summary["failures"]) == (1, 2)
    assert summary["failures_by_class"] == {"refused": 2}
    assert stub.queries == ["bad", "good.com"]
    assert err == ("a.bad: whois..example: cannot resolve host\n"
                   "b.bad: whois..example: cannot resolve host\n")
    assert list(WhoisCache(str(cache_path))._entries) == ["good.com"]


# --- response parsing -------------------------------------------------------

def test_parse_whois_verisign_style():
    rec = parse_whois(VERISIGN_STYLE, parse_domain("example.com"), TODAY)
    assert rec.created == dt.date(2020, 4, 1)
    assert rec.expires == dt.date(2021, 4, 1)
    assert rec.updated == dt.date(2020, 4, 2)
    assert rec.registrar_raw == "NameCheap, Inc."
    assert rec.registrar_canonical == "namecheap"
    assert rec.fetched_on == TODAY


def test_parse_whois_key_families():
    raw = (
        "registered on: 03-Feb-2020\n"
        "paid-till: 2021.02.03\n"
        "last-update: 2020/03/04\n"
        "registrar: R01-RU\n"
    )
    rec = parse_whois(raw, parse_domain("thing.ru"), TODAY)
    assert rec.created == dt.date(2020, 2, 3)
    assert rec.expires == dt.date(2021, 2, 3)
    assert rec.updated == dt.date(2020, 3, 4)
    assert rec.registrar_canonical == "r01-ru"


def test_parse_whois_first_match_wins():
    raw = "Creation Date: 2020-01-01\nCreation Date: 2019-01-01\n"
    rec = parse_whois(raw, parse_domain("x.com"), TODAY)
    assert rec.created == dt.date(2020, 1, 1)


def test_parse_whois_registrar_key_exact():
    raw = "Registrar URL: http://example.net\nRegistrar WHOIS Server: whois.example\n"
    rec = parse_whois(raw, parse_domain("x.com"), TODAY)
    assert rec.registrar_raw is None
    assert rec.registrar_canonical is None
    rec2 = parse_whois(raw + "Registrar: Tucows Domains Inc.\n",
                       parse_domain("x.com"), TODAY)
    assert rec2.registrar_raw == "Tucows Domains Inc."


def test_parse_whois_drops_inverted_expiry():
    raw = "Creation Date: 2020-06-01\nRegistry Expiry Date: 2019-06-01\n"
    rec = parse_whois(raw, parse_domain("x.com"), TODAY)
    assert rec.created == dt.date(2020, 6, 1)
    assert rec.expires is None


def test_parse_whois_unparseable_value_left_absent():
    raw = "Creation Date: sometime in spring\nRegistrar: GoDaddy.com, LLC\n"
    rec = parse_whois(raw, parse_domain("x.com"), TODAY)
    assert rec.created is None
    assert rec.registrar_canonical == "godaddy"


def test_parse_whois_date_formats():
    cases = {
        "2020-05-03": dt.date(2020, 5, 3),
        "2020-05-03T11:22:33Z": dt.date(2020, 5, 3),
        "2020-05-03 11:22:33": dt.date(2020, 5, 3),
        "03-May-2020": dt.date(2020, 5, 3),
        "03-may-2020": dt.date(2020, 5, 3),
        "03.05.2020": dt.date(2020, 5, 3),
        "2020.05.03": dt.date(2020, 5, 3),
        "2020/05/03": dt.date(2020, 5, 3),
        "03-05-2020": dt.date(2020, 5, 3),
        "2020-05-03T11:22:33+00:00": dt.date(2020, 5, 3),
        "2020-05-03 11:22:33 UTC": dt.date(2020, 5, 3),
    }
    for text, want in cases.items():
        assert _parse_whois_date(text) == want, text
    # timezone offsets convert to UTC before taking the date
    assert _parse_whois_date("2020-05-04T01:00:00+05:00") == dt.date(2020, 5, 3)
    assert _parse_whois_date("gibberish") is None
    assert _parse_whois_date("") is None


# each date layout the benchmark's registries write, and its redacted forms
@pytest.mark.parametrize("text,want", [
    ("2020-05-03T11:22:33Z", dt.date(2020, 5, 3)),
    ("2020-05-03T23:59:59Z", dt.date(2020, 5, 3)),
    ("03-May-2020", dt.date(2020, 5, 3)),
    ("31-Dec-2019", dt.date(2019, 12, 31)),
    ("2020.05.03", dt.date(2020, 5, 3)),
    ("2021.12.31", dt.date(2021, 12, 31)),
    ("REDACTED FOR PRIVACY", None),
    # "ſ" matches "s" under IGNORECASE but lower-cases to itself, so
    # only the title-cased candidate, "01-Sep-2020", is a date
    ("01-ſep-2020", dt.date(2020, 9, 1)),
    ("2020-05-03T11:22:60", None),  # datetime has no leap second
    ("redacted", None),
    ("hidden", None),
])
def test_parse_whois_date_benchmark_layouts(text, want):
    assert _parse_whois_date(text) == want
    assert whois_date_every_format(text) == want


@pytest.mark.parametrize("text", [
    "0001-01-01T00:00:00+01:00",
    "9999-12-31T23:59:59-01:00",
])
def test_parse_whois_date_out_of_range_instant_is_absent(text):
    # the UTC instant falls outside datetime's range: unparseable, not a crash
    assert _parse_whois_date(text) is None
    assert whois_date_every_format(text) is None
    rec = parse_whois(f"Creation Date: {text}\nRegistry Expiry Date: {text}\n"
                      "Updated Date: 2020-01-02\n", parse_domain("x.com"), TODAY)
    assert rec.created is None and rec.expires is None
    assert rec.updated == dt.date(2020, 1, 2)


def test_fetched_out_of_range_date_is_cached_and_parses_absent(tmp_path, stub):
    stub.responses["old.com"] = "Creation Date: 0001-01-01T00:00:00+01:00\r\n"
    domain = parse_domain("old.com")
    raw = _client(stub).query(domain)
    WhoisCache(str(tmp_path / "c.jsonl")).put(domain.raw, raw, TODAY)
    hit = WhoisCache(str(tmp_path / "c.jsonl")).get("old.com")
    assert hit == (raw, TODAY)
    assert parse_whois(hit[0], domain, hit[1]).created is None


def test_parse_whois_paid_till_layout():
    raw = ("% TCI Whois Service. Terms of use:\r\n"
           "domain:        THING.RU\r\n"
           "state:         REGISTERED, DELEGATED, UNVERIFIED\r\n"
           "registrar:     RU-CENTER-RU\r\n"
           "created:       2019.04.05\r\n"
           "paid-till:     2021.04.05\r\n"
           "source:        TCI\r\n")
    rec = parse_whois(raw, parse_domain("thing.ru"), TODAY)
    assert (rec.created, rec.expires, rec.updated) == (dt.date(2019, 4, 5), dt.date(2021, 4, 5), None)
    hidden = parse_whois(raw.replace("2021.04.05", "hidden"), parse_domain("thing.ru"), TODAY)
    assert (hidden.created, hidden.expires) == (dt.date(2019, 4, 5), None)


# ASCII, Arabic-Indic, Devanagari and fullwidth digits: strptime's \d takes them all
_DIGIT_SETS = ("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
               "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f",
               "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")
_MONTHS = ("jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct", "nov", "dec",
           "june", "sept", "december")
_SEPARATORS = ("-", ".", "/", ":", " ", "T", "t")
_WHITESPACE = " \t\n\r\x0b\x0c\xa0\u2003\u3000"


def _any_case(word):
    return st.tuples(*[st.sampled_from((c.lower(), c.upper())) for c in word]).map("".join)


def _mostly(usual, other, odds=4):
    """``usual``, except about one time in ``odds``: ``other``."""
    return st.sampled_from(range(odds)).flatmap(lambda k: other if k == odds - 1 else usual)


def _number(lo, hi):
    # zero-padded or not, mostly in ASCII digits
    digits = _mostly(st.just(_DIGIT_SETS[0]), st.sampled_from(_DIGIT_SETS[1:]))
    return st.builds(lambda v, pad, digits: (f"{v:02d}" if pad else str(v)).translate(
                         str.maketrans("0123456789", digits)),
                     st.integers(lo, hi), st.booleans(), digits)


_FIELDS = {"%Y": _mostly(_number(1900, 2100), _number(0, 99999)),
           "%m": _mostly(_number(1, 12), _number(0, 99)),
           "%d": _mostly(_number(1, 31), _number(0, 99)),
           "%b": st.sampled_from(_MONTHS).flatmap(_any_case),
           "%H": _mostly(_number(0, 23), _number(0, 99)),
           "%M": _mostly(_number(0, 59), _number(0, 99)),
           "%S": _mostly(_number(0, 59), _number(0, 99))}
_date_token = st.one_of(
    *_FIELDS.values(),
    st.sampled_from(_SEPARATORS),
    st.text(alphabet=_WHITESPACE, min_size=1, max_size=3),
    st.sampled_from(("Z", "z", "+00:00", "-05:30", "+0100", "UTC", "GMT")),
)


def _literal(text):
    # mostly the format's own separator, sometimes another one
    same = st.text(alphabet=_WHITESPACE, min_size=1, max_size=3) if text == " " else st.just(text)
    return _mostly(same, st.sampled_from(_SEPARATORS), odds=8)


# a value laid out by one of the formats, with fields that may be out of
# range, separators that may be swapped and a tail that may be noise
_near_date = st.sampled_from(WHOIS_DATE_FORMATS).flatmap(lambda fmt: st.tuples(
    *[_FIELDS[part] if part in _FIELDS else _literal(part)
      for part in re.split("(%.)", fmt) if part],
    _mostly(st.just(""), st.lists(_date_token, max_size=4).map("".join)),
).map("".join))


@settings(max_examples=600, deadline=None)
@given(st.one_of(_near_date, st.lists(_date_token, max_size=10).map("".join),
                 st.text(alphabet=_WHITESPACE, max_size=2).flatmap(
                     lambda pad: _near_date.map(lambda t: pad + t + pad))))
def test_parse_whois_date_equals_trying_every_format(text):
    assert _parse_whois_date(text) == whois_date_every_format(text)


def test_date_patterns_are_the_ones_strptime_builds():
    import _strptime

    time_re = _strptime.TimeRE()
    for fmt in WHOIS_DATE_FORMATS:
        assert _strptime_pattern(fmt) == time_re.pattern(fmt), fmt


def _month_any_case(name):
    # each letter lower or upper case, and "s" also as the long s "ſ"
    return st.tuples(*[st.sampled_from((c, c.upper()) + (("ſ",) if c == "s" else ()))
                       for c in name]).map("".join)


_digit_run = _mostly(st.text(alphabet=_DIGIT_SETS[0], min_size=1, max_size=5),
                     st.text(alphabet="".join(_DIGIT_SETS), min_size=1, max_size=5))
_shaped_token = st.one_of(
    _digit_run,
    st.sampled_from(("-", ".", "/", "T", ":", " ")),
    st.sampled_from(_MONTHS + ("sep", "SEP")).flatmap(_month_any_case),
)


def _strptime_or_none(text, fmt):
    try:
        return dt.datetime.strptime(text, fmt).date()
    except ValueError:
        return None


@settings(max_examples=1000, deadline=None)
@given(st.lists(_shaped_token, min_size=1, max_size=9).map("".join))
def test_parse_whois_date_of_format_shaped_text_equals_every_format(text):
    assert _parse_whois_date(text) == whois_date_every_format(text)
    for fmt in WHOIS_DATE_FORMATS:
        assert _strptime_date(text, fmt) == _strptime_or_none(text, fmt), fmt


def test_long_s_is_no_month_name():
    assert _strptime_date("01-ſep-2020", "%d-%b-%Y") is None
    assert _strptime_date("01-sEP-2020", "%d-%b-%Y") == dt.date(2020, 9, 1)


_WHOIS_KEYS = ("Creation Date", "created", "Registered On", "Registry Expiry Date",
               "Expiration Date", "paid-till", "Updated Date", "last-update", "Registrar", "")
_whois_text = st.one_of(
    st.text(),
    st.lists(st.tuples(st.sampled_from(_WHOIS_KEYS),
                       st.one_of(st.text(), _near_date, st.lists(_shaped_token).map("".join)))
             .map(": ".join)).map("\n".join),
)


@settings(max_examples=300, deadline=None)
@given(_whois_text)
def test_parse_whois_returns_a_record_for_any_text(raw):
    rec = parse_whois(raw, parse_domain("x.com"), TODAY)
    assert isinstance(rec, WhoisRecord)
    assert rec.created is None or rec.expires is None or rec.created <= rec.expires


# --- cache ------------------------------------------------------------------

def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = WhoisCache(path)
    assert len(cache) == 0
    assert cache.get("x.com") is None
    cache.put("x.com", VERISIGN_STYLE, TODAY)
    assert "x.com" in cache
    raw, fetched = cache.get("x.com")
    assert raw == VERISIGN_STYLE
    assert fetched == TODAY
    # a fresh instance sees the persisted entry
    again = WhoisCache(path)
    assert again.get("x.com") == (VERISIGN_STYLE, TODAY)


def test_cache_last_line_wins(tmp_path):
    path = tmp_path / "cache.jsonl"
    lines = [
        {"domain": "x.com", "fetched_on": "2020-05-01", "raw": "old"},
        {"domain": "x.com", "fetched_on": "2020-05-10", "raw": "new"},
    ]
    path.write_text("\n".join(json.dumps(l) for l in lines) + "\n", encoding="utf-8")
    cache = WhoisCache(str(path))
    assert cache.get("x.com") == ("new", dt.date(2020, 5, 10))
    assert len(cache) == 1


def test_cache_appends_single_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = WhoisCache(str(path))
    cache.put("a.com", "line one\nline two\n", dt.date(2020, 5, 1))
    cache.put("b.com", "other", dt.date(2020, 5, 2))
    text = path.read_text(encoding="utf-8")
    assert len(text.splitlines()) == 2  # newlines in raw stay escaped
    first = json.loads(text.splitlines()[0])
    assert first == {"domain": "a.com", "fetched_on": "2020-05-01",
                     "raw": "line one\nline two\n"}


def test_cache_rejects_bad_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = '{"domain": "a.com", "fetched_on": "2020-05-01", "raw": "ok"}\n'
    for bad in (
        '{"domain": "x.com"}',
        "not json",
        "[1]",
        '"x.com"',
        "null",
        '{"domain": "x.com", "fetched_on": "2020-05-01", "raw": 5}',
        '{"domain": "x.com", "fetched_on": "2020-05-01", "raw": null}',
        '{"domain": 5, "fetched_on": "2020-05-01", "raw": "r"}',
        '{"domain": ["x.com"], "fetched_on": "2020-05-01", "raw": "r"}',
        '{"domain": "x.com", "fetched_on": 20200501, "raw": "r"}',
    ):
        path.write_text(good + bad + "\n" + good, encoding="utf-8")
        with pytest.raises(DomainTriageError, match=r":2: bad cache line"):
            WhoisCache(str(path))


def test_cache_rejects_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = b'{"domain": "a.com", "fetched_on": "2020-05-01", "raw": "ok"}\n'
    for bad in (b"\xff\xfe\n", b'{"domain": "x.com", "fetched_on": "2020-05-01", "raw": "\xe9"}\n'):
        path.write_bytes(good + bad + good)
        with pytest.raises(DomainTriageError, match=r":2: bad cache line"):
            WhoisCache(str(path))
        # also as the last line, since it ends in a newline
        path.write_bytes(good + bad)
        with pytest.raises(DomainTriageError, match=r":2: bad cache line"):
            WhoisCache(str(path))


_GOOD_LINE = '{"domain": "a.com", "fetched_on": "2020-05-01", "raw": "ok"}\n'
_TORN_LINE = '{"domain": "b.com", "fetched_on": "2020-05-0'


# JSON nested deeper than the decoder's recursion limit
_DEEP_LINE = b"[" * 200_000


def test_cache_line_nested_too_deep_is_a_bad_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(_GOOD_LINE.encode() + _DEEP_LINE + b"\n" + _GOOD_LINE.encode())
    with pytest.raises(DomainTriageError, match=r":2: bad cache line"):
        WhoisCache(str(path))


def test_cache_torn_last_line_nested_too_deep_is_dropped_then_cut(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(_GOOD_LINE.encode() + _DEEP_LINE)
    cache = WhoisCache(str(path))
    assert len(cache) == 1
    assert f"{path}:2: dropped a torn last line" in capsys.readouterr().err
    cache.put("c.com", "new", dt.date(2020, 5, 2))
    assert path.read_text(encoding="utf-8") == _GOOD_LINE + (
        '{"domain": "c.com", "fetched_on": "2020-05-02", "raw": "new"}\n')


_cache_line_bytes = st.one_of(
    st.binary(max_size=80),
    st.just(_GOOD_LINE.encode()),
    st.builds(lambda d, f, r: json.dumps({"domain": d, "fetched_on": f, "raw": r}).encode(),
              st.one_of(st.text(max_size=10), st.integers(), st.none()),
              st.one_of(st.just("2020-05-01"), st.text(max_size=12), st.integers()),
              st.one_of(st.text(max_size=10), st.none(), st.lists(st.integers(), max_size=2))),
    st.integers(1, 3000).map(lambda k: b"[" * k + b"]" * (k % 2 * k)),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(_cache_line_bytes, st.sampled_from((b"\n", b"\r\n", b""))),
                max_size=6).map(lambda lines: b"".join(a + b for a, b in lines)))
def test_cache_loads_any_bytes_or_raises_domain_error(tmp_path, data):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(data)
    try:
        cache = WhoisCache(str(path))
    except DomainTriageError:
        return
    for domain in ("a.com", "x.com"):
        hit = cache.get(domain)
        assert hit is None or (isinstance(hit[0], str) and isinstance(hit[1], dt.date))


@pytest.mark.parametrize("torn", [_TORN_LINE.encode(), b'{"domain": "b.com", "raw": "\xc3'],
                         ids=["cut json", "cut utf-8"])
def test_cache_drops_torn_last_line_once(tmp_path, capsys, torn):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(_GOOD_LINE.encode() * 2 + torn)
    cache = WhoisCache(str(path))
    assert len(cache) == 1 and cache.get("a.com") == ("ok", dt.date(2020, 5, 1))
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert f"{path}:3: dropped a torn last line" in err


def test_cache_bad_line_with_newline_still_raises(tmp_path):
    path = tmp_path / "cache.jsonl"
    # the same fragment ended by a newline, or followed by another line
    for text in (_GOOD_LINE + _TORN_LINE + "\n", _TORN_LINE + "\n" + _GOOD_LINE,
                 _TORN_LINE + "\n" + _GOOD_LINE.rstrip("\n")):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DomainTriageError, match=r"bad cache line"):
            WhoisCache(str(path))


def test_cache_put_after_torn_line_cuts_it(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    path.write_text(_GOOD_LINE + _TORN_LINE, encoding="utf-8")
    cache = WhoisCache(str(path))
    cache.put("c.com", "new", dt.date(2020, 5, 2))
    assert path.read_text(encoding="utf-8") == _GOOD_LINE + (
        '{"domain": "c.com", "fetched_on": "2020-05-02", "raw": "new"}\n')
    capsys.readouterr()
    again = WhoisCache(str(path))
    assert capsys.readouterr().err == ""
    assert len(again) == 2 and again.get("c.com") == ("new", dt.date(2020, 5, 2))


def test_cache_put_after_unterminated_entry_keeps_it(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    path.write_text(_GOOD_LINE.rstrip("\n"), encoding="utf-8")
    cache = WhoisCache(str(path))
    assert cache.get("a.com") == ("ok", dt.date(2020, 5, 1))
    cache.put("c.com", "new", dt.date(2020, 5, 2))
    again = WhoisCache(str(path))
    assert capsys.readouterr().err == ""
    assert again.get("a.com") == ("ok", dt.date(2020, 5, 1))
    assert again.get("c.com") == ("new", dt.date(2020, 5, 2))
    assert path.read_text(encoding="utf-8").count("\n") == 2


def _put_line(fields: list, ensure_ascii: bool) -> bytes:
    # the fields as a JSON object in the given key order, duplicates kept
    text = "{" + ", ".join(json.dumps(k) + ": " + json.dumps(v, ensure_ascii=ensure_ascii)
                           for k, v in fields) + "}"
    return text.encode("utf-8", "surrogatepass")


_domains = st.sampled_from(["a.com", "b.com", "bücher.de", "пр.рф", "\U0001f637.com"])
_raws = st.one_of(st.sampled_from(["ok", "", "line\r\nline\r\n", 'say "hi"', "\ud800", "é",
                                   "a\u2028b\x85c", "\x0b\x0c\x1c"]), st.text(max_size=8))

# put's lines, escaped or not; an unescaped "\ud800" is not UTF-8
_good_lines = st.builds(
    lambda domain, date, raw, ensure_ascii: _put_line(
        [("domain", domain), ("fetched_on", date), ("raw", raw)], ensure_ascii),
    _domains, st.sampled_from(["2020-05-01", "2020-05-02", "20200503"]), _raws, st.booleans())

# objects of other shapes: other types, bad dates, shuffled, duplicate
# and extra keys
_entry_lines = st.builds(
    lambda domain, date, raw, extra, ensure_ascii, order: _put_line(
        [f for _, f in sorted(zip(order, [("domain", domain), ("fetched_on", date),
                                          ("raw", raw)] + extra))], ensure_ascii),
    st.one_of(_domains, st.text(max_size=6), st.integers()),
    st.sampled_from(["2020-05-01", "2020-02-30", "2020-5-1", "", 7]),
    st.one_of(_raws, st.none()),
    st.lists(st.tuples(st.sampled_from(["domain", "raw", "fetched_on", "x"]),
                       st.one_of(st.just("b.com"), st.integers(1, 60).map(
                           lambda k: json.loads("[" * k + "]" * k)))), max_size=2),
    st.booleans(),
    st.permutations(range(5)),
)

_objects = st.one_of(_good_lines, _entry_lines)
_spaces = st.sampled_from([b"", b" ", b"\t", b"\r", b" \r\t"])

# a line of an alphabet that tries each way the block scan could part
# from decoding one line at a time
_loader_lines = st.one_of(
    _good_lines,
    _good_lines,
    _objects,
    st.tuples(_spaces, _objects, _spaces).map(b"".join),
    _objects.map(lambda line: b"\xef\xbb\xbf" + line),
    st.sampled_from([b"", b"  ", b"\x0b", b"\x0c", b"\x1c", b"\x0b\x0c", b"\xe2\x80\xa8",
                     b"\xff\xfe", b"\xc3", b"{", b"{}", b"[" * 3000, b'{"a": ' + b"[" * 3000,
                     b'{"domain": "x.com", "fetched_on": "2020-05-01", "raw": "\xe9"}',
                     b'{"domain":\n"a.com", "fetched_on": "2020-05-01", "raw": "r"}']),
    st.binary(max_size=12),
)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(_loader_lines, st.sampled_from((b"\n", b"\n", b"\r\n", b""))),
                max_size=8).map(lambda lines: b"".join(a + b for a, b in lines)),
       st.sampled_from([1, 2, 3, 5, 8, 13, 40, 100, whois_mod._CACHE_BLOCK]))
def test_cache_load_equals_loading_line_by_line(tmp_path, capsys, monkeypatch, data, block):
    # block sizes of a few bytes end the hint inside lines, between them
    # and inside multi-byte characters; readlines completes the line
    monkeypatch.setattr(whois_mod, "_CACHE_BLOCK", block)
    path = tmp_path / "cache.jsonl"
    path.write_bytes(data)
    capsys.readouterr()
    want, error = whois_cache_per_line(str(path))
    want_err = capsys.readouterr().err
    try:
        got = WhoisCache(str(path))._entries
    except DomainTriageError as exc:
        assert type(exc) is DomainTriageError and str(exc) == error
    else:
        assert error is None
        assert list(got.items()) == list(want.items())
    assert capsys.readouterr().err == want_err


def test_cache_line_with_more_keys_is_parsed_line_by_line(tmp_path, monkeypatch):
    # the block scan takes only put's three keys, so a line with any
    # other key, which may nest up to the decoder's recursion limit,
    # goes through _cache_line, as does a line that is not put's shape
    seen = []
    cache_line = whois_mod._cache_line
    monkeypatch.setattr(whois_mod, "_cache_line", lambda line: seen.append(line) or cache_line(line))
    lines = [_GOOD_LINE,
             '{"domain": "b.com", "fetched_on": "2020-05-01", "raw": "ok", "x": [[[]]]}\n',
             ' {"domain": "c.com", "fetched_on": "2020-05-01", "raw": "ok"}\n',
             '{"domain": "d.com", "fetched_on": "2020-05-01", "raw": "ok"}\r\n']
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    cache = WhoisCache(str(path))
    assert list(cache._entries) == ["a.com", "b.com", "c.com", "d.com"]
    assert [line.decode() for line in seen] == lines[1:]


def test_cache_rejects_future_date(tmp_path):
    cache = WhoisCache(str(tmp_path / "c.jsonl"))
    with pytest.raises(ValueError):
        cache.put("x.com", "raw", dt.date.today() + dt.timedelta(days=2))


def test_fetch_or_cache_error_leaves_cache_empty(tmp_path):
    # whois-fetch caches a response only once client.query returns it
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    cache = WhoisCache(str(tmp_path / "c.jsonl"))
    client = WhoisClient(server_map={"com": "127.0.0.1"}, port=dead_port,
                         timeout=0.5, min_interval=0.0)
    domain = parse_domain("gone.com")
    with pytest.raises(WhoisConnectionRefused):
        cache.put(domain.raw, client.query(domain), TODAY)
    assert len(cache) == 0
    assert "gone.com" not in cache
    assert not (tmp_path / "c.jsonl").exists()
