"""Loopback floor: answers every HTTP/1.1 request with a fixed 200 response.

    python3 perfbench/echo_server.py   # prints "port N", serves until killed

Run against the load generator at the serving workload's reference
rate, it gives the round trip that the generator, the kernel and the
loopback add before the decision service does any work.
"""

from __future__ import annotations

import asyncio
import socket
import sys

_REPLY = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
          b"Content-Length: 2\r\n\r\n{}")


class _Echo(asyncio.Protocol):
    def connection_made(self, transport) -> None:
        self.transport = transport
        self.buf = bytearray()

    def data_received(self, data: bytes) -> None:
        buf = self.buf
        buf += data
        while True:
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                return
            head = bytes(buf[:end]).lower()
            idx = head.find(b"content-length:")
            length = 0
            if idx >= 0:
                stop = head.find(b"\r\n", idx)
                length = int(head[idx + 15:stop if stop >= 0 else len(head)])
            if len(buf) < end + 4 + length:
                return
            del buf[:end + 4 + length]
            self.transport.write(_REPLY)


async def _main() -> None:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    sock.listen(64)
    server = await asyncio.get_running_loop().create_server(_Echo, sock=sock)
    print(f"port {sock.getsockname()[1]}", flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        sys.exit(0)
