"""Reproducer export: a standalone script + raw packet per unique crash.

The analyst handing a bug to a maintainer needs an artifact that runs
without the campaign: ``<bucket>.bin`` is the raw (minimized) provoking
packet, ``<bucket>.py`` replays it against the target under the
sanitizer and prints the ASan-style report, exiting non-zero when the
crash no longer reproduces (i.e. the bug was fixed).
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.sanitizer.report import CrashReport

_SCRIPT_TEMPLATE = '''\
#!/usr/bin/env python3
"""Reproducer: {kind} at {site} (target {target}).

Replays the provoking {payload_kind} under the simulated-heap sanitizer
against NET_URL: None replays in-process, "loopback" serves the target
on an ephemeral port and replays through a real TCP socket, and
tcp://host:port replays against a running `peachstar serve {target}`.
A trace replays as one live session, its response-derived bindings
(sequence numbers, transaction ids) re-derived live as the session
fuzzer ran it.  An endpoint on the command line overrides NET_URL:

    {slug}.py tcp://other-host:2404

Exit status 0 = crash reproduced with the expected signature, 1 = it
did not (bug fixed or endpoint drift), 2 = no verdict: the endpoint is
malformed, unreachable, or does not speak the peachstar envelope.

Generated by `peachstar triage`; needs the repro package importable
(e.g. PYTHONPATH=src when run from the repository root).
"""

import sys

from repro.net.target import NetTargetError, make_socket_target
from repro.protocols import get_target
from repro.runtime.target import Target
from repro.state import TraceBinder, decode_trace

TARGET = {target!r}
NET_URL = {net_url!r}
EXPECTED_KIND = {kind!r}
EXPECTED_SITE = {site!r}
IS_TRACE = {is_trace!r}
PAYLOAD = bytes.fromhex(
    {packet_hex}
)


def no_verdict(exc) -> int:
    print(f"error: {{exc}}", file=sys.stderr)
    return 2


def main() -> int:
    spec = get_target(TARGET)
    url = sys.argv[1] if len(sys.argv) > 1 else NET_URL
    if url is None:
        target = Target(spec.make_server, None)
        where = TARGET
    else:
        try:
            target = make_socket_target(url, target_name=TARGET)
        except ValueError as exc:  # a malformed endpoint
            return no_verdict(exc)
        where = f"{{TARGET}} at {{url}}"
    try:
        if IS_TRACE:
            steps = decode_trace(PAYLOAD)
            result = target.run_trace(
                [(step.packet, step.model_name) for step in steps],
                TraceBinder(spec.make_pit(), steps))
        else:
            result = target.run(PAYLOAD)
    except NetTargetError as exc:  # an unreachable endpoint
        return no_verdict(exc)
    finally:
        target.close()
    if result.crash is None:
        print(f"{payload_kind} no longer crashes {{where}}")
        return 1
    if IS_TRACE:
        print(f"crashed at step {{result.crash_step + 1}}/{{len(steps)}} "
              f"({{steps[result.crash_step].model_name}})")
    print(result.crash.render())
    if result.crash.dedup_key != (EXPECTED_KIND, EXPECTED_SITE):
        print("\\ncrash signature changed (expected "
              f"{{EXPECTED_KIND}} at {{EXPECTED_SITE}})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
'''


_DIVERGENCE_SCRIPT_TEMPLATE = '''\
#!/usr/bin/env python3
"""Divergence reproducer: {kind} at {site} (target {target}).

Re-runs the (minimized) diverging frame through the differential parse
oracles — no server execution involved.  Exit status 0 = the parse
paths still disagree with the expected signature, 1 = they no longer do
(parser fixed or environment drift).

Generated by `peachstar triage`; needs the repro package importable
(e.g. PYTHONPATH=src when run from the repository root).
"""

import sys

from repro.channel.oracle import make_oracle
from repro.protocols import get_target

TARGET = {target!r}
EXPECTED_KIND = {kind!r}
EXPECTED_SITE = {site!r}
MODEL = {model!r}
FRAME = bytes.fromhex(
    {packet_hex}
)


def main() -> int:
    oracle = make_oracle(get_target(TARGET))
    for report in oracle.examine(FRAME, MODEL, 0):
        if report.dedup_key == (EXPECTED_KIND, EXPECTED_SITE):
            print(report.render())
            return 0
    print("frame no longer diverges (expected "
          f"{{EXPECTED_KIND}} at {{EXPECTED_SITE}})")
    return 1


if __name__ == "__main__":
    sys.exit(main())
'''


def _hex_literal(packet: bytes, indent: str = "    ") -> str:
    """The packet as wrapped hex-string source lines."""
    text = packet.hex()
    chunks = [text[i:i + 64] for i in range(0, len(text), 64)] or ['']
    return ("\n" + indent).join(f'"{chunk}"' for chunk in chunks)


def reproducer_script(target_name: str, report: CrashReport,
                      packet: Optional[bytes] = None,
                      net_url: Optional[str] = None,
                      slug: str = "reproducer") -> str:
    """Render the standalone reproducer script for one crash.

    Divergence findings get the oracle-replaying variant — no server
    runs at all.  Every server crash gets one script: session crashes
    (``report.trace`` set) replay the trace, and *packet* then holds
    the (minimized) encoded trace.  *net_url* sets the script's default
    endpoint (``None`` = in-process); its argv can override it.
    """
    if getattr(report, "oracle", None) is not None:
        packet = packet if packet is not None else report.packet
        return _DIVERGENCE_SCRIPT_TEMPLATE.format(
            target=target_name,
            kind=report.kind,
            site=report.site,
            model=report.model_name,
            packet_hex=_hex_literal(packet),
        )
    is_trace = bool(report.is_session)
    if packet is None:
        packet = report.trace if is_trace else report.packet
    return _SCRIPT_TEMPLATE.format(
        target=target_name,
        net_url=net_url,
        kind=report.kind,
        site=report.site,
        is_trace=is_trace,
        payload_kind="trace" if is_trace else "packet",
        slug=slug,
        packet_hex=_hex_literal(packet),
    )


def export_reproducer(out_dir: str, slug: str, target_name: str,
                      report: CrashReport,
                      packet: Optional[bytes] = None,
                      net_url: Optional[str] = None
                      ) -> Tuple[str, str]:
    """Write ``<slug>.bin`` and ``<slug>.py``; returns their paths.

    *net_url* is the default endpoint of server-crash scripts
    (``peachstar triage --net-url tcp://host:port``).
    """
    packet = packet if packet is not None else report.packet
    os.makedirs(out_dir, exist_ok=True)
    bin_path = os.path.join(out_dir, f"{slug}.bin")
    script_path = os.path.join(out_dir, f"{slug}.py")
    with open(bin_path, "wb") as handle:
        handle.write(packet)
    with open(script_path, "w", encoding="utf-8") as handle:
        handle.write(reproducer_script(target_name, report, packet,
                                       net_url=net_url, slug=slug))
    os.chmod(script_path, 0o755)
    return bin_path, script_path
