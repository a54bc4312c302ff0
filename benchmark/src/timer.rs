//! A `timerfd` the generator's poller can wait on.
//!
//! `netpoll::Poller::wait` takes its timeout in whole milliseconds, but
//! an open loop at tens of thousands of requests per second has a send
//! due every few microseconds. Arming a high-resolution timer fd and
//! registering it like a socket lets the one generator thread block
//! until "a reply is readable or the next send is due", whichever is
//! first, without spinning a core the daemon needs.

use std::fs::File;
use std::io::{self, Read};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::time::Duration;

const CLOCK_MONOTONIC: i32 = 1;
const TFD_NONBLOCK: i32 = 0o4000;
const TFD_CLOEXEC: i32 = 0o2000000;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Itimerspec {
    it_interval: Timespec,
    it_value: Timespec,
}

extern "C" {
    fn timerfd_create(clockid: i32, flags: i32) -> i32;
    fn timerfd_settime(fd: i32, flags: i32, new: *const Itimerspec, old: *mut Itimerspec) -> i32;
}

/// A one-shot monotonic timer readable through its fd.
pub struct TimerFd(File);

impl TimerFd {
    /// Creates a disarmed, nonblocking timer.
    ///
    /// # Errors
    ///
    /// The `timerfd_create` failure.
    pub fn new() -> io::Result<TimerFd> {
        // SAFETY: plain syscall wrapper taking two integers.
        let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by the kernel and is owned by
        // nothing else; `File` closes it on drop.
        Ok(TimerFd(unsafe { File::from_raw_fd(fd) }))
    }

    /// The fd to register for read readiness.
    #[must_use]
    pub fn fd(&self) -> RawFd {
        self.0.as_raw_fd()
    }

    /// Arms the timer to fire once, `after` from now (at least 1 ns: a
    /// zero value would disarm it instead).
    ///
    /// # Errors
    ///
    /// The `timerfd_settime` failure.
    pub fn arm(&self, after: Duration) -> io::Result<()> {
        let after = after.max(Duration::from_nanos(1));
        let spec = Itimerspec {
            it_interval: Timespec {
                tv_sec: 0,
                tv_nsec: 0,
            },
            it_value: Timespec {
                tv_sec: after.as_secs() as i64,
                tv_nsec: i64::from(after.subsec_nanos()),
            },
        };
        // SAFETY: `spec` is a live, correctly laid out itimerspec; the
        // old-value pointer may be null.
        let rc = unsafe { timerfd_settime(self.fd(), 0, &spec, std::ptr::null_mut()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Consumes a pending expiry so the (edge-triggered) poller reports
    /// the next one.
    pub fn clear(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.0).read(&mut buf);
    }
}
