//! The crate's one foreign call: `poll(2)`, the readiness source under
//! the server's event loop.
//!
//! std has no wait over several sockets and no `libc` crate is
//! vendored, so the declaration lives here, behind the safe [`wait`].
//! This is the only module `lib.rs` allows `unsafe_code` in, and it
//! holds exactly one block.

#[cfg(not(unix))]
compile_error!("seu-net's event loop waits in poll(2): unix targets only");

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short};
use std::time::Duration;

/// A set of the event bits below.
pub(crate) type Events = c_short;

/// Data to read, a pending accept, or end of stream.
pub(crate) const POLLIN: Events = 0x001;
/// Room to write.
pub(crate) const POLLOUT: Events = 0x004;
/// Reported whether asked for or not: a socket error is pending.
pub(crate) const POLLERR: Events = 0x008;
/// Reported whether asked for or not: the connection is gone.
pub(crate) const POLLHUP: Events = 0x010;

/// One `struct pollfd`: the descriptor, the events asked for, and the
/// events `poll` reported.
#[repr(C)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: Events,
    revents: Events,
}

impl PollFd {
    pub(crate) fn new(socket: &impl AsRawFd, events: Events) -> PollFd {
        PollFd {
            fd: socket.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported any of `events`.
    pub(crate) fn reported(&self, events: Events) -> bool {
        self.revents & events != 0
    }
}

#[cfg(any(target_os = "linux", target_os = "android"))]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type Nfds = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks until a descriptor in `fds` has an event, or `timeout` (rounded
/// up to a millisecond; `None` waits without limit) passes. Returns how
/// many entries reported something; a signal (`EINTR`) reads as nothing
/// ready.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let millis = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // `pollfd`s, valid for reads and writes of `fds.len()` entries for
    // the whole call; `poll` writes only their `revents` fields and
    // keeps no pointer past its return. A stale or closed descriptor is
    // reported as `POLLNVAL`, not dereferenced.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, millis) };
    if ready >= 0 {
        return Ok(ready as usize);
    }
    let error = io::Error::last_os_error();
    // Nothing was reported, whatever the entries held before the call.
    fds.iter_mut().for_each(|fd| fd.revents = 0);
    match error.kind() {
        io::ErrorKind::Interrupted => Ok(0),
        _ => Err(error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn reports_the_readable_end_and_times_out_on_silence() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(&a, POLLIN), PollFd::new(&b, POLLIN)];

        let started = Instant::now();
        assert_eq!(wait(&mut fds, Some(Duration::from_millis(30))).unwrap(), 0);
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert!(!fds[0].reported(POLLIN) && !fds[1].reported(POLLIN));

        a.write_all(b"x").unwrap();
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(!fds[0].reported(POLLIN) && fds[1].reported(POLLIN));

        // A sub-millisecond timeout rounds up instead of spinning at 0.
        let mut quiet = [PollFd::new(&a, POLLIN)];
        let started = Instant::now();
        assert_eq!(wait(&mut quiet, Some(Duration::from_micros(1))).unwrap(), 0);
        assert!(started.elapsed() >= Duration::from_millis(1));

        // A hung-up peer is reported without being asked for.
        drop(b);
        let mut fds = [PollFd::new(&a, 0)];
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(fds[0].reported(POLLHUP));
    }
}
