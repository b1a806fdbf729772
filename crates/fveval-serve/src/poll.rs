//! Thin std-only readiness polling over `epoll` — the event substrate
//! of the sharded server.
//!
//! The workspace builds offline with no external crates, so instead of
//! `mio`/`libc` this module declares the three `epoll` entry points
//! itself (`std` already links the C library, the symbols are present
//! at link time — the same philosophy as `crates/shims/`). The surface
//! is the minimal readiness API the event loop needs:
//!
//! - [`Poller::register`] / [`Poller::rearm`] / [`Poller::deregister`]
//!   attach file descriptors with an [`Interest`] and a caller `u64`
//!   token;
//! - [`Poller::wait`] blocks (with a timeout) until at least one
//!   registered descriptor is ready, and reports the ready set as
//!   [`Event`]s;
//! - [`Waker`] lets another thread end a wait: its read end is
//!   registered like any descriptor, and [`Waker::wake`] makes it
//!   readable.
//!
//! Level-triggered semantics are used throughout: a descriptor stays
//! ready until it is drained, so the loop never needs to worry about
//! missed edges — a stalled peer simply stops producing events without
//! blocking anyone else.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;

/// What to watch a descriptor for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Wake when the descriptor is readable (or the peer closed).
    Read,
    /// Wake when the descriptor is writable.
    Write,
    /// Wake on either direction.
    ReadWrite,
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token supplied at registration.
    pub token: u64,
    /// Data can be read (or the read side saw EOF).
    pub readable: bool,
    /// The socket accepts writes.
    pub writable: bool,
    /// Error or hang-up: the connection is dead and should be dropped.
    pub closed: bool,
}

// The subset of <sys/epoll.h> the poller uses.
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// `struct epoll_event`; packed on x86-64, where the kernel ABI has no
/// padding between the mask and the payload.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// A readiness poller over one `epoll` instance.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates a fresh `epoll` instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// Returns the OS error if the kernel refuses the instance (fd
    /// exhaustion).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // the documented error signal.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn mask(interest: Interest) -> u32 {
        // EPOLLRDHUP distinguishes "peer closed" from "no data yet"
        // without a read() probe.
        let base = EPOLLRDHUP;
        match interest {
            Interest::Read => base | EPOLLIN,
            Interest::Write => base | EPOLLOUT,
            Interest::ReadWrite => base | EPOLLIN | EPOLLOUT,
        }
    }

    fn ctl(&self, op: i32, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events: mask,
            data: token,
        };
        // SAFETY: `event` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Starts watching `fd` with `interest`, reporting it as `token`.
    ///
    /// # Errors
    ///
    /// Returns the OS error (e.g. the fd is already registered).
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, Self::mask(interest), token)
    }

    /// Changes an already-registered descriptor's interest set.
    ///
    /// # Errors
    ///
    /// Returns the OS error (e.g. the fd was never registered).
    pub fn rearm(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, Self::mask(interest), token)
    }

    /// Stops watching `fd`. Harmless to call on an fd the kernel
    /// already dropped (closing an fd deregisters it implicitly).
    pub fn deregister(&self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Blocks until readiness or `timeout_ms`, appending the ready set
    /// to `out` (cleared first). Interrupted waits (`EINTR`) retry.
    ///
    /// # Errors
    ///
    /// Returns the OS error on an unrecoverable wait failure.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        const CAPACITY: usize = 64;
        let mut events = [EpollEvent { events: 0, data: 0 }; CAPACITY];
        let n = loop {
            // SAFETY: the buffer is valid for CAPACITY entries and the
            // kernel writes at most `maxevents` of them.
            let rc =
                unsafe { epoll_wait(self.epfd, events.as_mut_ptr(), CAPACITY as i32, timeout_ms) };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for event in &events[..n] {
            let bits = event.events;
            out.push(Event {
                token: event.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: the fd is owned by this poller and closed once.
        unsafe { close(self.epfd) };
    }
}

/// A cross-thread wake-up for a [`Poller`]: a non-blocking Unix socket
/// pair. Register the read end ([`AsRawFd`]) for [`Interest::Read`];
/// any thread may then call [`Waker::wake`] to end the poller's wait,
/// and the polling thread calls [`Waker::drain`] when it sees the
/// event. Wakes coalesce: while one is pending, more add nothing.
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    /// Creates the socket pair, both ends non-blocking.
    ///
    /// # Errors
    ///
    /// Returns the OS error if the pair cannot be created.
    pub fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// Makes the read end readable. Never blocks: a full buffer
    /// (`WouldBlock`) means a wake is already pending.
    pub fn wake(&self) {
        loop {
            match (&self.tx).write(&[1]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                _ => return,
            }
        }
    }

    /// Empties the read end, so the next wait blocks until the next
    /// [`Waker::wake`].
    pub fn drain(&self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(n) if n > 0 => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                _ => return,
            }
        }
    }
}

impl AsRawFd for Waker {
    /// The read end, to register with a [`Poller`].
    fn as_raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    #[test]
    fn readiness_tracks_a_loopback_pair() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        listener.set_nonblocking(true).unwrap();
        poller
            .register(listener.as_raw_fd(), 1, Interest::Read)
            .unwrap();

        // Nothing pending: the wait times out empty.
        let mut events = Vec::new();
        poller.wait(&mut events, 10).unwrap();
        assert!(events.is_empty());

        // A connect makes the listener readable.
        let mut client = TcpStream::connect(addr).unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        let (mut server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller
            .register(server_side.as_raw_fd(), 2, Interest::Read)
            .unwrap();

        // Client bytes make the accepted socket readable.
        client.write_all(b"ping").unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.readable));
        let mut buf = [0u8; 8];
        let n = server_side.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");

        // Rearmed for writes, an idle socket is immediately writable.
        poller
            .rearm(server_side.as_raw_fd(), 2, Interest::Write)
            .unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.writable));

        // A dropped peer reports readable (EOF) readiness.
        poller
            .rearm(server_side.as_raw_fd(), 2, Interest::Read)
            .unwrap();
        drop(client);
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.readable));
        poller.deregister(server_side.as_raw_fd());
    }

    #[test]
    fn a_wake_from_another_thread_ends_a_long_wait() {
        const WAKE: u64 = 9;
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller
            .register(waker.as_raw_fd(), WAKE, Interest::Read)
            .unwrap();
        let mut events = Vec::new();
        let started = Instant::now();
        std::thread::scope(|scope| {
            // The pause makes the wake land while the wait blocks; the
            // assertions hold in either order.
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                waker.wake();
            });
            poller.wait(&mut events, 10_000).unwrap();
        });
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the wake, not the 10 s timeout, ended the wait"
        );
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, WAKE);
        assert!(events[0].readable);

        // Many wakes (enough to fill the socket buffer, which must not
        // block the waker) coalesce into one event.
        for _ in 0..10_000 {
            waker.wake();
        }
        poller.wait(&mut events, 0).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, WAKE);

        // Draining empties the pair: the next wait times out empty.
        waker.drain();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "drained waker is quiet");
        waker.wake();
        poller.wait(&mut events, 0).unwrap();
        assert_eq!(events.len(), 1, "and wakes again after the drain");
    }
}
