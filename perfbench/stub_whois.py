"""Stub WHOIS service for the benchmark: one listening socket on 127.0.0.1.

Each connection is an HTTP CONNECT tunnel to ``<host>:43`` followed by
one WHOIS query line, which is what ``WhoisClient`` sends when
``DOMAINTRIAGE_WHOIS_PROXY=http://127.0.0.1:<port>``.  The stub answers
as whichever host was named in the CONNECT line:

* ``whois.iana.org`` gets a referral ``refer: whois.nic.<tld>``;
* any other host gets the raw record stored for the queried domain, or
  a registry-style "No match" when there is none.

Every reply waits ``DELAY_S`` first, standing in for the network round
trip.  Every query is appended to the log as ``host<TAB>query`` before
the reply is sent, so the log is complete when the client returns.
Connections are served one at a time.

    python3 stub_whois.py --records records.json --log stub.log \
        --port-file port.txt
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import sys
import time

IANA_HOST = "whois.iana.org"
# kept a small share of a query, so that host speed, which the benchmark's
# clock normalises, dominates query time rather than fixed sleeps
DELAY_S = 0.0002


def _read_until(conn: socket.socket, marker: bytes, limit: int = 65536) -> bytes:
    data = b""
    while marker not in data and len(data) < limit:
        chunk = conn.recv(4096)
        if not chunk:
            break
        data += chunk
    return data


def _answer(host: str, query: str, records: dict[str, str]) -> str:
    if host == IANA_HOST:
        return f"% IANA WHOIS server\r\n\r\ndomain:       {query.upper()}\r\nrefer:        whois.nic.{query}\r\n"
    raw = records.get(query)
    if raw is None:
        return f'No match for "{query.upper()}".\r\n'
    return raw


def serve(sock: socket.socket, records: dict[str, str], log) -> None:
    while True:
        conn, _ = sock.accept()
        with conn:
            try:
                head = _read_until(conn, b"\r\n\r\n").decode("ascii", "replace")
                parts = head.split(" ", 2)
                if len(parts) < 2 or parts[0] != "CONNECT":
                    conn.sendall(b"HTTP/1.1 405 Method Not Allowed\r\n\r\n")
                    continue
                host = parts[1].rsplit(":", 1)[0]
                conn.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
                query = _read_until(conn, b"\r\n").decode("utf-8").strip()
                log.write(f"{host}\t{query}\n")
                log.flush()
                time.sleep(DELAY_S)
                conn.sendall(_answer(host, query, records).encode("utf-8"))
                conn.shutdown(socket.SHUT_WR)
            except OSError:
                continue


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", required=True, help="JSON object: domain -> raw WHOIS text")
    parser.add_argument("--log", required=True, help="append one host<TAB>query line per query")
    parser.add_argument("--port-file", required=True, help="written with the bound port once listening")
    args = parser.parse_args(argv)

    with open(args.records, encoding="utf-8") as fh:
        records = json.load(fh)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(8)
    tmp = args.port_file + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(str(sock.getsockname()[1]))
    os.replace(tmp, args.port_file)
    with open(args.log, "a", encoding="utf-8") as log:
        try:
            serve(sock, records, log)
        finally:
            sock.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
