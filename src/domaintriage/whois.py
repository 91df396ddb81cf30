"""WHOIS client, response parser, and an offline cache.

The client speaks the plain TCP port-43 protocol. Server routing is a
static TLD map with an IANA referral fallback (followed at most once);
per-server queries are serialized and spaced out by a rate limiter so
bulk runs stay polite.  Responses are cached verbatim in a JSON-lines
file so later pipeline stages can run fully offline.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import re
import socket
import sys
import threading
import time
from functools import lru_cache

from domaintriage.features import canonicalize_registrar
from domaintriage.model import Domain, DomainTriageError, UsageError, WhoisRecord

PROXY_ENV_VAR = "DOMAINTRIAGE_WHOIS_PROXY"

IANA_HOST = "whois.iana.org"
WHOIS_PORT = 43

# the most bytes one response may have; registry answers are a few KB
MAX_RESPONSE_BYTES = 1 << 20

# registry servers for the TLDs the default lists care about; anything
# else is resolved through IANA at query time
DEFAULT_SERVERS = {
    "com": "whois.verisign-grs.com",
    "net": "whois.verisign-grs.com",
    "org": "whois.publicinterestregistry.org",
    "info": "whois.nic.info",
    "xyz": "whois.nic.xyz",
    "ru": "whois.tcinet.ru",
    "uk": "whois.nic.uk",
    "fr": "whois.nic.fr",
    "it": "whois.nic.it",
    "live": "whois.nic.live",
    "buzz": "whois.nic.buzz",
    "top": "whois.nic.top",
    "work": "whois.nic.work",
    "fit": "whois.nic.fit",
    "rest": "whois.nic.rest",
    "wang": "whois.gtld.knet.cn",
    "tk": "whois.dot.tk",
    "gq": "whois.domino.gq",
    "cf": "whois.dot.cf",
    "ml": "whois.nic.ml",
}


class WhoisError(DomainTriageError):
    """Base class for WHOIS client failures.  Each subclass sets
    ``kind``, the class of failure that ``whois-fetch`` counts it
    under."""

    kind: str


class WhoisTimeout(WhoisError):
    """The exchange with the server did not finish within the configured
    timeout."""

    kind = "timeout"


class ResponseTooLarge(WhoisError):
    """The server sent more than ``MAX_RESPONSE_BYTES``."""

    kind = "too_large"


class WhoisConnectionRefused(WhoisError):
    """The server (or proxy) could not be reached."""

    kind = "refused"


class NoServerForTld(WhoisError):
    """No configured server and no IANA referral for the TLD."""

    kind = "no_server"


class RateLimited(WhoisError):
    """The server said we are querying too fast."""

    kind = "rate_limited"


_RATE_LIMIT_SIGNALS = (
    "rate limit",
    "too many requests",
    "quota exceeded",
    "lookup quota",
    "exceeded the maximum",
    "try again later",
)


class _RateLimiter:
    """Serializes access per server and enforces a minimum spacing
    between consecutive queries to the same server."""

    def __init__(self, min_interval: float):
        self.min_interval = min_interval
        self._guard = threading.Lock()
        self._locks: dict[str, threading.Lock] = {}
        self._last: dict[str, float] = {}

    def lock_for(self, server: str) -> threading.Lock:
        with self._guard:
            if server not in self._locks:
                self._locks[server] = threading.Lock()
            return self._locks[server]

    def wait(self, server: str) -> None:
        # caller must hold lock_for(server)
        last = self._last.get(server)
        if last is not None:
            remaining = self.min_interval - (time.monotonic() - last)
            if remaining > 0:
                time.sleep(remaining)

    def mark(self, server: str) -> None:
        self._last[server] = time.monotonic()


def _parse_proxy(value: str) -> tuple[str, str, int]:
    m = re.match(r"^(socks5|http)://([^:/]+):(\d+)/?$", value.strip())
    if not m:
        raise UsageError(
            f"proxy must look like socks5://host:port or http://host:port, got {value!r}"
        )
    return m.group(1), m.group(2), int(m.group(3))


def _time_left(deadline: float) -> float:
    """Seconds until ``deadline`` (a ``time.monotonic`` value); raises
    ``socket.timeout`` once it has passed."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise socket.timeout("deadline passed")
    return left


def _http_connect(sock: socket.socket, host: str, port: int, deadline: float) -> None:
    req = f"CONNECT {host}:{port} HTTP/1.1\r\nHost: {host}:{port}\r\n\r\n"
    sock.sendall(req.encode("ascii"))
    reply = b""
    while b"\r\n\r\n" not in reply:
        sock.settimeout(_time_left(deadline))
        chunk = sock.recv(1024)
        if not chunk:
            break
        reply = reply + chunk
        if len(reply) > MAX_RESPONSE_BYTES:
            raise ResponseTooLarge(f"proxy's reply to CONNECT exceeds {MAX_RESPONSE_BYTES} bytes")
    status = reply.split(b"\r\n", 1)[0]
    if b" 200" not in status:
        raise WhoisConnectionRefused(
            f"proxy refused CONNECT to {host}:{port}: {status.decode('ascii', 'replace')}"
        )


def _socks5_connect(sock: socket.socket, host: str, port: int, deadline: float) -> None:
    sock.sendall(b"\x05\x01\x00")  # version 5, one method: no auth
    sock.settimeout(_time_left(deadline))
    reply = sock.recv(2)
    if reply != b"\x05\x00":
        raise WhoisConnectionRefused("SOCKS5 proxy rejected the handshake")
    name = host.encode("idna")
    if len(name) > 255:
        raise WhoisConnectionRefused(f"{host}: name too long for SOCKS5")
    sock.sendall(b"\x05\x01\x00\x03" + bytes([len(name)]) + name
                 + port.to_bytes(2, "big"))
    sock.settimeout(_time_left(deadline))
    reply = sock.recv(10)
    if len(reply) < 2 or reply[1] != 0x00:
        raise WhoisConnectionRefused(f"SOCKS5 connect failed (code {reply[1:2].hex()})")


class WhoisClient:
    """Queries WHOIS servers over TCP port 43.

    ``server_map`` routes TLDs to servers; a TLD with no entry triggers
    a single IANA referral lookup, whose answer the client's own copy of
    the map keeps.  ``proxy`` (or the ``DOMAINTRIAGE_WHOIS_PROXY``
    environment variable) tunnels every connection through an HTTP
    CONNECT or SOCKS5 proxy.  ``timeout`` bounds each exchange as a
    whole, connecting and the proxy's handshake included, and a response
    over ``MAX_RESPONSE_BYTES`` raises ``ResponseTooLarge``.  A socket
    failure raises the ``WhoisError`` whose ``kind`` names its class.
    ``timeout`` must be above 0, and
    ``min_interval``, the least spacing of two queries to one server,
    at least 0; both must be at most ``threading.TIMEOUT_MAX``, and
    anything else raises ``UsageError``.
    """

    def __init__(
        self,
        server_map: dict[str, str] | None = None,
        iana_host: str = IANA_HOST,
        port: int = WHOIS_PORT,
        timeout: float = 10.0,
        min_interval: float = 1.0,
        proxy: str | None = None,
    ):
        # socket timeouts and time.sleep take at most threading.TIMEOUT_MAX
        # seconds and raise OverflowError beyond it
        if not (0 < timeout <= threading.TIMEOUT_MAX):
            raise UsageError(f"timeout must be above 0 and at most {threading.TIMEOUT_MAX:.0f} s, "
                             f"got {timeout}")
        if not (0 <= min_interval <= threading.TIMEOUT_MAX):
            raise UsageError(f"min_interval (--rate) must be at least 0 and at most "
                             f"{threading.TIMEOUT_MAX:.0f} s, got {min_interval}")
        self.server_map = dict(DEFAULT_SERVERS if server_map is None else server_map)
        self.iana_host = iana_host
        self.port = port
        self.timeout = timeout
        self._limiter = _RateLimiter(min_interval)
        proxy = proxy if proxy is not None else os.environ.get(PROXY_ENV_VAR) or None
        self._proxy = _parse_proxy(proxy) if proxy else None

    def _connect(self, host: str, deadline: float) -> socket.socket:
        if self._proxy is None:
            return socket.create_connection((host, self.port), timeout=_time_left(deadline))
        scheme, phost, pport = self._proxy
        sock = socket.create_connection((phost, pport), timeout=_time_left(deadline))
        try:
            handshake = _http_connect if scheme == "http" else _socks5_connect
            handshake(sock, host, self.port, deadline)
        except BaseException:
            sock.close()
            raise
        return sock

    def _converse(self, server: str, text: str) -> str:
        query = (text + "\r\n").encode("utf-8")
        with self._limiter.lock_for(server):
            self._limiter.wait(server)
            # ``timeout`` bounds the whole exchange, so a server that
            # drips its answer cannot hold a query for longer
            deadline = time.monotonic() + self.timeout
            try:
                sock = self._connect(server, deadline)
                try:
                    sock.settimeout(_time_left(deadline))
                    sock.sendall(query)
                    chunks = []
                    size = 0
                    while True:
                        sock.settimeout(_time_left(deadline))
                        data = sock.recv(4096)
                        if not data:
                            break
                        size += len(data)
                        if size > MAX_RESPONSE_BYTES:
                            raise ResponseTooLarge(
                                f"{server}: response exceeds {MAX_RESPONSE_BYTES} bytes")
                        chunks.append(data)
                finally:
                    sock.close()
                    self._limiter.mark(server)
            except socket.timeout as exc:
                raise WhoisTimeout(f"{server}: exchange not done within {self.timeout}s") from exc
            # a name the IDNA codec refuses (an empty label, or one over 63
            # characters, as a referral may give) is a UnicodeError
            except (socket.gaierror, UnicodeError) as exc:
                raise WhoisConnectionRefused(f"{server}: cannot resolve host") from exc
            except OSError as exc:
                raise WhoisConnectionRefused(f"{server}: {exc}") from exc
        blob = b"".join(chunks)
        try:
            response = blob.decode("utf-8")
        except UnicodeDecodeError:
            response = blob.decode("latin-1")
        low = response.lower()
        if any(signal in low for signal in _RATE_LIMIT_SIGNALS):
            raise RateLimited(f"{server} signaled a rate limit")
        return response

    def _resolve_server(self, domain: Domain) -> str:
        server = self.server_map.get(domain.tld)
        if server:
            return server
        # one referral hop: ask IANA which server owns the TLD, and
        # route the TLD's later domains there for this client's lifetime
        referral = self._converse(self.iana_host, domain.tld or domain.raw)
        for line in referral.splitlines():
            key, _, value = line.partition(":")
            server = value.strip()
            if key.strip().lower() in ("refer", "whois") and server:
                if domain.tld:
                    self.server_map[domain.tld] = server
                return server
        raise NoServerForTld(f"no WHOIS server known for TLD {domain.tld!r}")

    def query(self, domain: Domain) -> str:
        """Return the raw WHOIS response text for ``domain``."""
        server = self._resolve_server(domain)
        return self._converse(server, domain.raw)


# --- response parsing ---------------------------------------------------

_DATE_FORMATS = (
    "%Y-%m-%d",
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%d %H:%M:%S",
    "%d-%b-%Y",
    "%d.%m.%Y",
    "%Y.%m.%d",
    "%Y/%m/%d",
    "%d-%m-%Y",
)

_KEY_FAMILIES = {
    "created": ("creation date", "created", "registered on"),
    "expires": ("registry expiry date", "expiration date", "paid-till"),
    "updated": ("updated date", "last-update"),
}


# the C locale's month abbreviations, the names %b takes: Python never
# sets LC_TIME, so strptime matches these
_MONTHS = {name: number for number, name in enumerate(
    ("jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct", "nov", "dec"),
    start=1)}

# each directive of _DATE_FORMATS as the group _strptime.TimeRE writes
# for it; \d takes any Unicode decimal digit, as int() does
_DIRECTIVES = {
    "Y": r"(?P<Y>\d\d\d\d)",
    "m": r"(?P<m>1[0-2]|0[1-9]|[1-9])",
    "d": r"(?P<d>3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9])",
    "b": "(?P<b>" + "|".join(_MONTHS) + ")",
    "H": r"(?P<H>2[0-3]|[0-1]\d|\d)",
    "M": r"(?P<M>[0-5]\d|\d)",
    "S": r"(?P<S>6[0-1]|[0-5]\d|\d)",
}


def _strptime_pattern(fmt: str) -> str:
    """The regular expression ``strptime`` matches ``fmt`` with: regex
    characters escaped, each run of whitespace as ``\\s+``, and each
    directive as its group."""
    escaped = re.sub(r"\s+", r"\\s+", re.sub(r"([\\.^$*+?\(\){}\[\]|])", r"\\\1", fmt))
    return re.sub("%(.)", lambda m: _DIRECTIVES[m.group(1)], escaped)


@lru_cache(maxsize=len(_DATE_FORMATS))
def _date_regex(fmt: str) -> re.Pattern:
    # compiled on first use, so that importing the module stays cheap
    return re.compile(_strptime_pattern(fmt), re.IGNORECASE)


def _strptime_date(text: str, fmt: str) -> dt.date | None:
    """``dt.datetime.strptime(text, fmt).date()`` for a format of
    ``_DATE_FORMATS``, or None where that raises ``ValueError``.

    As in ``strptime``, the match starts at the first character and must
    end at the last, and each field is read with ``int()``.  A month
    name is looked up lower-cased, so "ſep", which the pattern matches
    under IGNORECASE, is no month.  ``datetime`` rejects seconds 60 and
    61, which the pattern admits, and ``dt.date`` rejects a day the
    month does not have.
    """
    found = _date_regex(fmt).match(text)
    if found is None or found.end() != len(text):
        return None
    fields = found.groupdict()
    month = _MONTHS.get(fields["b"].lower()) if "b" in fields else int(fields["m"])
    if month is None or int(fields.get("S") or 0) > 59:
        return None
    try:
        return dt.date(int(fields["Y"]), month, int(fields["d"]))
    except ValueError:
        return None


def _parse_whois_date(text: str) -> dt.date | None:
    text = text.strip()
    if not text:
        return None
    iso = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        parsed = dt.datetime.fromisoformat(iso)
        if parsed.tzinfo is not None:
            parsed = parsed.astimezone(dt.timezone.utc)
        return parsed.date()
    except ValueError:
        pass
    except OverflowError:  # the UTC instant is outside datetime's range
        return None
    first = text.split()[0]
    # a candidate equal to an earlier one has already failed every format
    for candidate in dict.fromkeys((text, first, first.title())):
        for fmt in _DATE_FORMATS:
            parsed = _strptime_date(candidate, fmt)
            if parsed is not None:
                return parsed
    return None


def parse_whois(raw: str, domain: Domain, fetched_on: dt.date) -> WhoisRecord:
    """Pull dates and registrar out of a raw WHOIS response.

    For each field the first matching key wins; a value that does not
    parse leaves the field absent.  An expiry earlier than the creation
    date is treated as unparseable and dropped.
    """
    created = expires = updated = None
    registrar_raw = None
    for line in raw.splitlines():
        key, sep, value = line.partition(":")
        if not sep:
            continue
        key = key.strip().lower()
        value = value.strip()
        if not value:
            continue
        if created is None and key.startswith(_KEY_FAMILIES["created"]):
            created = _parse_whois_date(value)
        elif expires is None and key.startswith(_KEY_FAMILIES["expires"]):
            expires = _parse_whois_date(value)
        elif updated is None and key.startswith(_KEY_FAMILIES["updated"]):
            updated = _parse_whois_date(value)
        elif registrar_raw is None and key == "registrar":
            registrar_raw = value
    if created is not None and expires is not None and created > expires:
        expires = None
    canonical = None
    if registrar_raw is not None:
        canonical = canonicalize_registrar(registrar_raw)
    return WhoisRecord(
        domain=domain,
        fetched_on=fetched_on,
        created=created,
        expires=expires,
        updated=updated,
        registrar_raw=registrar_raw,
        registrar_canonical=canonical,
    )


# --- cache ---------------------------------------------------------------

# what _cache_line raises for a bad line: RecursionError for JSON nested
# too deeply for the decoder, whose limit counts the caller's frames too
_BAD_LINE = (KeyError, TypeError, ValueError, RecursionError)

# the cache file is read in blocks of whole lines of about this many
# bytes.  Under glibc's 128 KiB mmap threshold a block's buffers reuse
# heap memory rather than being mapped and unmapped on every read, and
# 64 KiB blocks loaded faster than 1 MiB ones.
_CACHE_BLOCK = 1 << 16

# the C scanner behind json.loads, without its whitespace matches
_scan_json = json.JSONDecoder().raw_decode


def _cache_entry(obj) -> tuple[str, tuple[str, dt.date]]:
    """The domain and its (raw, fetched_on) entry from one decoded cache
    line; an object not of the documented shape raises one of
    ``_BAD_LINE``."""
    if not (isinstance(obj, dict) and isinstance(obj.get("domain"), str)
            and isinstance(obj.get("raw"), str)):
        raise ValueError("not an object with a string domain and raw")
    return obj["domain"], (obj["raw"], dt.date.fromisoformat(obj["fetched_on"]))


def _cache_line(line: bytes) -> tuple[str, tuple[str, dt.date]]:
    """The domain and its (raw, fetched_on) entry from one cache line;
    a line that is not UTF-8 JSON of the documented shape raises one of
    ``_BAD_LINE``."""
    return _cache_entry(json.loads(line.decode("utf-8")))


def _close_last_line(fh) -> bytes:
    """What an append to the cache file ``fh``, whose last line has no
    newline, must start with: a newline if that line is a whole entry;
    nothing if it is the torn remains of a killed append, which is cut
    off here."""
    fh.seek(0)
    data = fh.read()
    start = data.rfind(b"\n") + 1
    try:
        _cache_line(data[start:])
    except _BAD_LINE:
        fh.truncate(start)
        return b""
    return b"\n"


class WhoisCache:
    """JSON-lines store of raw WHOIS responses, one object per line:
    ``{"domain": ..., "fetched_on": "YYYY-MM-DD", "raw": ...}``.

    The newest line for a domain wins on load; each put appends a
    single line, so concurrent readers never see a torn entry.  A bad
    line raises ``DomainTriageError`` with its ``path:lineno``, except
    a bad last line with no newline at its end: that is what an append
    killed part-way leaves, so the load drops it with a warning on
    stderr, and the next put cuts it off before appending.
    """

    def __init__(self, path: str):
        self.path = path
        self._entries: dict[str, tuple[str, dt.date]] = {}
        try:
            with open(path, "rb") as fh:
                lineno = 0
                while lines := fh.readlines(_CACHE_BLOCK):
                    # one decode per block of whole lines; UTF-8 never
                    # has a newline byte inside a character, so each
                    # "\n" of the text ends one of the lines
                    try:
                        text = b"".join(lines).decode("utf-8")
                    except UnicodeDecodeError:
                        text = ""  # each line is decoded on its own below
                    start = 0
                    for line in lines:
                        lineno += 1
                        end = text.find("\n", start)
                        first, start = start, end + 1
                        # put's shape: an object that ends at the newline,
                        # with three keys.  _cache_entry holds those to
                        # strings, so nothing nests, and the decoder's
                        # recursion limit, which counts the caller's
                        # frames, cannot accept here what it rejects in
                        # _cache_line.
                        if text.startswith("{", first):
                            try:
                                obj, stop = _scan_json(text, first)
                                if stop == end and len(obj) == 3:
                                    domain, entry = _cache_entry(obj)
                                    self._entries[domain] = entry
                                    continue
                            except _BAD_LINE:
                                pass
                        # anything else, bad lines included, goes through
                        # _cache_line, so that its errors stay the same
                        if not line.strip():
                            continue
                        try:
                            domain, entry = _cache_line(line)
                        except _BAD_LINE as exc:
                            # only the last line can lack its newline
                            if not line.endswith(b"\n"):
                                print(f"warning: {path}:{lineno}: dropped a torn last line: {exc}",
                                      file=sys.stderr)
                                break
                            raise DomainTriageError(
                                f"{path}:{lineno}: bad cache line: {exc}") from exc
                        self._entries[domain] = entry
        except FileNotFoundError:
            pass

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, domain_raw: str) -> bool:
        return domain_raw in self._entries

    def get(self, domain_raw: str) -> tuple[str, dt.date] | None:
        return self._entries.get(domain_raw)

    def put(self, domain_raw: str, raw: str, fetched_on: dt.date) -> None:
        if fetched_on > dt.date.today():
            raise ValueError(f"fetched_on {fetched_on} is in the future")
        line = json.dumps(
            {"domain": domain_raw, "fetched_on": fetched_on.isoformat(), "raw": raw},
            ensure_ascii=True,
        ).encode("ascii") + b"\n"
        with open(self.path, "ab+") as fh:
            size = fh.seek(0, os.SEEK_END)
            if size:
                fh.seek(size - 1)
                if fh.read(1) != b"\n":
                    line = _close_last_line(fh) + line
            fh.write(line)
        self._entries[domain_raw] = (raw, fetched_on)

