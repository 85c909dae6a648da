//! Readiness primitives without a `libc` crate: raw `epoll(7)` on
//! Linux and portable `poll(2)` everywhere else, both reached through
//! thin `extern "C"` declarations. `std` already links the platform C
//! library, so declaring the three epoll entry points (plus `poll`,
//! and `listen` for [`listen_max_backlog`]) ourselves adds **zero** dependencies — the symbols resolve against
//! what is already in the address space.
//!
//! Everything unsafe in this crate lives in this module, behind the
//! safe [`Poller`] facade: a level-triggered readiness queue with
//! `u64` tokens, an explicit backend choice, and `io::Error`
//! reporting straight from `errno` (via
//! [`std::io::Error::last_os_error`]).
//!
//! Level-triggered is a deliberate correctness choice over
//! edge-triggered: a connection handler that stops mid-work (bounded
//! batch, paused reads) is re-notified on the next wait instead of
//! needing a drain-until-`EAGAIN` contract at every call site.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// Bytes (or an accept, or EOF) can be read without blocking.
    pub readable: bool,
    /// The socket's send buffer has room again.
    pub writable: bool,
    /// Error or hangup condition; the owner should read to collect
    /// the actual error/EOF rather than guessing.
    pub closed: bool,
}

/// Which readiness backend a [`Poller`] is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollerBackend {
    /// Raw `epoll(7)` — Linux only, O(ready) wakeups.
    Epoll,
    /// Portable `poll(2)` — O(registered) per wait, used as the
    /// non-Linux fallback and for differential testing on Linux.
    Poll,
}

impl PollerBackend {
    /// The backend's human-readable name (diagnostics, bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            PollerBackend::Epoll => "epoll",
            PollerBackend::Poll => "poll",
        }
    }
}

/// Interest flags for a registered descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Watch for readability.
    pub readable: bool,
    /// Watch for writability.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Neither direction (descriptor stays registered; hangup/error
    /// conditions are still reported by both backends).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod epoll {
    //! The three raw entry points plus the ABI structs they need.
    //! `epoll_event` is packed on x86-64 (the kernel ABI predates the
    //! arch's 8-byte alignment rules) and naturally aligned elsewhere
    //! — the same dance glibc's `__EPOLL_PACKED` does.

    use super::*;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    const EPOLL_CLOEXEC: i32 = 0o2000000;

    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    /// An owned epoll instance; closed on drop via [`OwnedFd`].
    #[derive(Debug)]
    pub struct Epoll {
        fd: std::os::fd::OwnedFd,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: plain syscall, no pointers.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `fd` is a freshly created descriptor we own.
            let fd = unsafe { std::os::fd::OwnedFd::from_raw_fd(fd) };
            Ok(Epoll { fd })
        }

        fn raw(&self) -> i32 {
            use std::os::fd::AsRawFd as _;
            self.fd.as_raw_fd()
        }

        pub fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.raw(), op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn wait(&self, buf: &mut Vec<EpollEvent>, timeout_ms: i32) -> io::Result<usize> {
            // SAFETY: the buffer's spare length is passed as
            // `maxevents`; the kernel writes at most that many
            // entries, and we only `set_len` to what it reported.
            let n = unsafe {
                epoll_wait(
                    self.raw(),
                    buf.as_mut_ptr(),
                    buf.capacity() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            // SAFETY: the kernel initialized the first `n` entries.
            unsafe { buf.set_len(n as usize) };
            Ok(n as usize)
        }
    }

    use std::os::fd::FromRawFd as _;
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod pollsys {
    //! `poll(2)` — POSIX, so one declaration covers every Unix.

    use super::*;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
    }

    pub fn relisten(fd: RawFd, backlog: i32) -> io::Result<()> {
        // SAFETY: plain syscall on a descriptor the caller keeps open;
        // no pointers.
        if unsafe { listen(fd, backlog) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `fds` is a valid slice for the duration of the call;
        // the kernel writes only `revents` within it.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

/// Linux's `SOMAXCONN` (4096 since kernel 5.4). The kernel caps a
/// larger backlog at `net.core.somaxconn`.
pub const SOMAXCONN: i32 = 4096;

/// Calls `listen(2)` again on a listening socket with a [`SOMAXCONN`]
/// backlog. `std` listens with a backlog of 128, so a burst of more
/// connects than that overflows the accept queue, and the kernel drops
/// each overflowing SYN: that client waits out a 1 s retransmit.
///
/// # Errors
///
/// The `listen(2)` failure, from `errno`.
pub fn listen_max_backlog(listener: &std::net::TcpListener) -> io::Result<()> {
    pollsys::relisten(std::os::fd::AsRawFd::as_raw_fd(listener), SOMAXCONN)
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll {
        ep: epoll::Epoll,
        buf: Vec<epoll::EpollEvent>,
    },
    Poll {
        /// Registered descriptors with their tokens and interest;
        /// rebuilt into a `pollfd` array on each wait.
        entries: Vec<(RawFd, u64, Interest)>,
    },
}

/// A safe, backend-agnostic readiness queue.
///
/// Register descriptors with a `u64` token, then [`Poller::wait`] for
/// [`Event`]s carrying those tokens back. Both backends are
/// level-triggered and both report error/hangup conditions even under
/// [`Interest::NONE`].
pub struct Poller {
    backend: Backend,
    which: PollerBackend,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("backend", &self.which.name())
            .finish()
    }
}

/// How many events one epoll_wait call can deliver. Level-triggered
/// semantics make the cap harmless: anything still ready reappears on
/// the next wait.
const WAIT_CAPACITY: usize = 1024;

impl Poller {
    /// Creates a poller on the best backend: epoll on Linux, `poll(2)`
    /// elsewhere. `force_poll` selects the fallback even on Linux (the
    /// differential tests run both backends against the same traffic).
    pub fn new(force_poll: bool) -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        if !force_poll {
            return Ok(Poller {
                backend: Backend::Epoll {
                    ep: epoll::Epoll::new()?,
                    buf: Vec::with_capacity(WAIT_CAPACITY),
                },
                which: PollerBackend::Epoll,
            });
        }
        let _ = force_poll;
        Ok(Poller {
            backend: Backend::Poll {
                entries: Vec::new(),
            },
            which: PollerBackend::Poll,
        })
    }

    /// Which backend this poller runs.
    pub fn backend(&self) -> PollerBackend {
        self.which
    }

    /// Starts watching `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { ep, .. } => {
                ep.ctl(epoll::EPOLL_CTL_ADD, fd, epoll_mask(interest), token)
            }
            Backend::Poll { entries } => {
                entries.push((fd, token, interest));
                Ok(())
            }
        }
    }

    /// Updates `fd`'s token and interest.
    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { ep, .. } => {
                ep.ctl(epoll::EPOLL_CTL_MOD, fd, epoll_mask(interest), token)
            }
            Backend::Poll { entries } => {
                for entry in entries.iter_mut() {
                    if entry.0 == fd {
                        *entry = (fd, token, interest);
                        return Ok(());
                    }
                }
                Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "fd was never registered",
                ))
            }
        }
    }

    /// Stops watching `fd`. Must be called **before** the descriptor
    /// is closed (a closed fd silently vanishes from epoll but would
    /// poison a `poll(2)` set with POLLNVAL).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { ep, .. } => ep.ctl(epoll::EPOLL_CTL_DEL, fd, 0, 0),
            Backend::Poll { entries } => {
                entries.retain(|(f, _, _)| *f != fd);
                Ok(())
            }
        }
    }

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout` elapses, appending the ready set to `events`
    /// (cleared first). A spurious empty return (signal interruption)
    /// is reported as success with zero events.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        events.clear();
        let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { ep, buf } => {
                buf.clear();
                ep.wait(buf, timeout_ms)?;
                for ev in buf.iter() {
                    let bits = ev.events;
                    events.push(Event {
                        token: ev.data,
                        readable: bits & (epoll::EPOLLIN | epoll::EPOLLRDHUP) != 0,
                        writable: bits & epoll::EPOLLOUT != 0,
                        closed: bits & (epoll::EPOLLERR | epoll::EPOLLHUP) != 0,
                    });
                }
                Ok(())
            }
            Backend::Poll { entries } => {
                let mut fds: Vec<pollsys::PollFd> = entries
                    .iter()
                    .map(|(fd, _, interest)| pollsys::PollFd {
                        fd: *fd,
                        events: poll_mask(*interest),
                        revents: 0,
                    })
                    .collect();
                let n = pollsys::poll_fds(&mut fds, timeout_ms)?;
                if n == 0 {
                    return Ok(());
                }
                for (slot, (_, token, _)) in fds.iter().zip(entries.iter()) {
                    let re = slot.revents;
                    if re == 0 {
                        continue;
                    }
                    events.push(Event {
                        token: *token,
                        readable: re & pollsys::POLLIN != 0,
                        writable: re & pollsys::POLLOUT != 0,
                        closed: re & (pollsys::POLLERR | pollsys::POLLHUP) != 0,
                    });
                }
                Ok(())
            }
        }
    }
}

#[cfg(target_os = "linux")]
fn epoll_mask(interest: Interest) -> u32 {
    let mut mask = epoll::EPOLLRDHUP;
    if interest.readable {
        mask |= epoll::EPOLLIN;
    }
    if interest.writable {
        mask |= epoll::EPOLLOUT;
    }
    mask
}

fn poll_mask(interest: Interest) -> i16 {
    let mut mask = 0;
    if interest.readable {
        mask |= pollsys::POLLIN;
    }
    if interest.writable {
        mask |= pollsys::POLLOUT;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::os::fd::AsRawFd as _;
    use std::os::unix::net::UnixStream;

    fn backends() -> Vec<bool> {
        if cfg!(target_os = "linux") {
            vec![false, true]
        } else {
            vec![true]
        }
    }

    #[test]
    fn both_backends_report_readability_and_tokens() {
        for force_poll in backends() {
            let mut poller = Poller::new(force_poll).unwrap();
            let (mut a, mut b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

            let mut events = Vec::new();
            poller.wait(&mut events, Duration::from_millis(0)).unwrap();
            assert!(events.is_empty(), "idle socket must not be readable");

            a.write_all(b"x").unwrap();
            poller.wait(&mut events, Duration::from_secs(5)).unwrap();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);

            // Level-triggered: unread bytes keep reporting.
            poller.wait(&mut events, Duration::from_millis(10)).unwrap();
            assert_eq!(events.len(), 1, "level-triggered re-notification");

            let mut byte = [0u8; 1];
            b.read_exact(&mut byte).unwrap();
            poller.wait(&mut events, Duration::from_millis(0)).unwrap();
            assert!(events.is_empty(), "drained socket goes quiet");

            poller.deregister(b.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn reregister_toggles_write_interest() {
        for force_poll in backends() {
            let mut poller = Poller::new(force_poll).unwrap();
            let (_a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 1, Interest::READ).unwrap();

            let mut events = Vec::new();
            poller.wait(&mut events, Duration::from_millis(0)).unwrap();
            assert!(events.is_empty(), "no write interest yet");

            poller
                .reregister(b.as_raw_fd(), 2, Interest::READ_WRITE)
                .unwrap();
            poller.wait(&mut events, Duration::from_secs(5)).unwrap();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].token, 2, "token updated by reregister");
            assert!(events[0].writable, "empty send buffer is writable");
        }
    }

    #[test]
    fn relisten_accepts_a_burst_past_std_backlog() {
        // Nobody accepts, so every completed handshake stays in the
        // accept queue. With std's backlog of 128 the kernel drops the
        // SYNs past it and those connects wait out a 1 s retransmit;
        // with the raised backlog all of them complete at once.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listen_max_backlog(&listener).unwrap();
        let addr = listener.local_addr().unwrap();
        let burst: Vec<_> = (0..256)
            .map(|i| {
                std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500))
                    .unwrap_or_else(|e| panic!("connect {i} of the burst: {e}"))
            })
            .collect();
        assert_eq!(burst.len(), 256);
    }

    #[test]
    fn hangup_is_reported() {
        for force_poll in backends() {
            let mut poller = Poller::new(force_poll).unwrap();
            let (a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 3, Interest::READ).unwrap();
            drop(a);
            let mut events = Vec::new();
            poller.wait(&mut events, Duration::from_secs(5)).unwrap();
            assert_eq!(events.len(), 1);
            assert!(
                events[0].readable || events[0].closed,
                "peer close must surface as readable EOF or hangup"
            );
        }
    }
}
