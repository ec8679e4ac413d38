//! Kernel readiness for the event loop: the crate's only foreign call,
//! `poll(2)`.
//!
//! This is the one module of `impir-server` allowed to use `unsafe` (the
//! crate denies it everywhere else); every block carries a `SAFETY:`
//! note. It needs no dependency: `poll` is in the C library `std` already
//! links.

use std::ffi::{c_int, c_short};
use std::os::fd::RawFd;

/// Ask to be woken when the descriptor has bytes (or EOF) to read.
pub(crate) const POLLIN: c_short = 0x001;
/// Ask to be woken when the descriptor accepts more bytes.
pub(crate) const POLLOUT: c_short = 0x004;
/// Reported whether asked for or not: an error, a hang-up or a closed
/// descriptor. A read or write then surfaces what happened.
const POLLERR_HUP_NVAL: c_short = 0x008 | 0x010 | 0x020;

/// One `struct pollfd`. A negative `fd` is skipped by the kernel, which
/// is how the loop leaves a descriptor out of one round.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for `events`; no events at all leaves it out.
    pub(crate) fn new(fd: RawFd, events: c_short) -> Self {
        PollFd {
            fd: if events == 0 { -1 } else { fd },
            events,
            revents: 0,
        }
    }

    /// Whether the last wait reported anything for this descriptor.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }

    /// Whether a read would not block (errors and hang-ups included).
    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR_HUP_NVAL) != 0
    }
}

/// Linux's `nfds_t`.
type NfdsT = std::ffi::c_ulong;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Blocks until at least one descriptor in `fds` is ready, or for at most
/// `timeout_ms` milliseconds (a negative timeout waits indefinitely), and
/// fills in what each one reported. Returns how many are ready; 0 means
/// the wait timed out.
///
/// # Errors
///
/// The OS error of a failed `poll`, `EINTR` included.
pub(crate) fn wait(fds: &mut [PollFd], timeout_ms: c_int) -> std::io::Result<usize> {
    let nfds = NfdsT::try_from(fds.len())
        .map_err(|_| std::io::Error::from(std::io::ErrorKind::InvalidInput))?;
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // records laid out as `struct pollfd`, valid for `nfds` elements; the
    // kernel only writes their `revents` fields and keeps no pointer past
    // the call.
    let ready = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
    usize::try_from(ready).map_err(|_| std::io::Error::last_os_error())
}
