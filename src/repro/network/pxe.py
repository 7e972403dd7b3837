"""PXE network boot.

Rocks installs compute nodes by PXE-booting them into a kickstart install
served by the frontend.  The boot sequence modelled here:

1. the node broadcasts DHCP DISCOVER (handled by :class:`DhcpServer`);
2. the offer carries next-server + boot filename;
3. the node TFTPs the boot image and chains into the installer.

A node with no NIC on the boot segment, or a server with no boot image
registered for it, fails with :class:`PxeError` — these are the failure
modes the provisioning tests inject.  Transient boot timeouts (half-dead
NICs, slow switches coming up) are injectable per MAC with
:meth:`PxeServer.inject_boot_timeouts`; give the server a kernel and a
:class:`~repro.faults.RetryPolicy` and :meth:`PxeServer.boot` rides them
out with seeded exponential backoff instead of failing the install.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PxeError
from ..faults.retry import RetryPolicy, call_with_retry
from .dhcp import DhcpLease, DhcpServer

__all__ = ["BootImage", "PxeServer", "PxeBootResult"]


@dataclass(frozen=True)
class BootImage:
    """A bootable installer image (vmlinuz + initrd + kickstart pointer)."""

    name: str
    kickstart_profile: str  # name of the kickstart graph profile to run
    size_bytes: int = 64 * 1024 * 1024


@dataclass(frozen=True)
class PxeBootResult:
    """A successful PXE handshake."""

    lease: DhcpLease
    image: BootImage
    tftp_server_ip: str


class PxeServer:
    """The frontend's PXE service (dhcpd options + tftpd).

    ``kernel`` and ``retry`` are optional: without them :meth:`boot` is a
    single attempt (the original behaviour); with them, injected boot
    timeouts are retried with backoff spent on the shared timeline.
    """

    def __init__(
        self,
        dhcp: DhcpServer,
        *,
        kernel=None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.dhcp = dhcp
        self.kernel = kernel
        self.retry = retry
        self._default_image: BootImage | None = None
        #: MAC -> remaining injected DISCOVER timeouts ("*" hits every MAC)
        self._boot_timeouts: dict[str, int] = {}
        self.boot_log: list[str] = []

    def set_default_image(self, image: BootImage) -> None:
        """Image offered to every MAC."""
        self._default_image = image

    def inject_boot_timeouts(self, mac: str, count: int = 1) -> None:
        """Make the next ``count`` handshakes for ``mac`` time out.

        ``mac="*"`` charges the timeouts to whichever MACs boot next — a
        flapping uplink rather than one bad NIC.
        """
        if count < 0:
            raise PxeError(f"timeout count must be non-negative, got {count}")
        if count == 0:
            self._boot_timeouts.pop(mac, None)
        else:
            self._boot_timeouts[mac] = count

    def _consume_timeout(self, mac: str) -> bool:
        for key in (mac, "*"):
            remaining = self._boot_timeouts.get(key, 0)
            if remaining > 0:
                if remaining == 1:
                    del self._boot_timeouts[key]
                else:
                    self._boot_timeouts[key] = remaining - 1
                return True
        return False

    def _boot_once(self, mac: str, hostname: str) -> PxeBootResult:
        if self._consume_timeout(mac):
            raise PxeError(
                f"PXE boot timeout for MAC {mac}: no DHCP offer received "
                f"({len(self.dhcp.leases())} known host(s) on this server)"
            )
        image = self._default_image
        if image is None:
            raise PxeError(
                f"no boot image registered for MAC {mac} and no default set "
                f"({len(self.dhcp.leases())} known host(s) on this server)"
            )
        lease = self.dhcp.offer(mac, hostname=hostname)
        self.boot_log.append(f"{mac} -> {lease.ip} image={image.name}")
        return PxeBootResult(
            lease=lease, image=image, tftp_server_ip=self.dhcp.server_ip
        )

    def boot(self, mac: str, *, hostname: str = "") -> PxeBootResult:
        """Run the PXE handshake for one node (retrying if so configured)."""
        if self.retry is None or self.kernel is None:
            return self._boot_once(mac, hostname)
        return call_with_retry(
            self.kernel,
            lambda: self._boot_once(mac, hostname),
            policy=self.retry,
            op=f"pxe.boot:{mac}",
            subsystem="network",
            retry_on=(PxeError,),
        )

    def boot_batch(self, macs: list[str]) -> list[PxeBootResult]:
        """PXE one install wave: handshake every MAC in order.

        Same per-MAC semantics as :meth:`boot` (including injected
        timeouts and retry policy); the batch exists so wave installs make
        one call per wave instead of one per node.
        """
        return [self.boot(mac) for mac in macs]
