//! Minimal `shutdown(2)` shim over [`std::os::fd`].
//!
//! The front-end ([`crate::server`]) needs exactly one syscall the Rust
//! standard library does not expose: half-closing a *listening* socket
//! to wake a blocked `accept(2)`. Consistent with the repo's
//! zero-dependency policy (`shims/README.md`), this module declares the
//! symbol via `extern "C"` instead of pulling in the `libc` crate — std
//! already links the C library, so the symbol resolves with no new
//! dependency.
//!
//! `SHUT_RDWR` below is the Linux ABI value; the module is `cfg(unix)`
//! and the repo's CI targets Linux only.

#![cfg(unix)]

use std::ffi::c_int;
use std::io;
use std::os::fd::RawFd;

const SHUT_RDWR: c_int = 2;

extern "C" {
    fn shutdown(sockfd: c_int, how: c_int) -> c_int;
}

/// `shutdown(fd, SHUT_RDWR)`. On Linux this works on a *listening*
/// socket too, failing any `accept(2)` blocked on it — the race-free way
/// to wake the acceptor at server shutdown (the old trick of
/// self-connecting could be consumed by a real client instead).
///
/// # Errors
/// Propagates `shutdown(2)` failures.
pub fn shutdown_socket(fd: RawFd) -> io::Result<()> {
    // SAFETY: `shutdown(2)` takes two integers by value and touches no
    // memory of ours; a bad descriptor comes back as `EBADF`/`ENOTSOCK`.
    let rc = unsafe { shutdown(fd, SHUT_RDWR) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::os::fd::AsRawFd;

    #[test]
    fn shutdown_wakes_a_blocked_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let fd = listener.as_raw_fd();
        let acceptor = std::thread::spawn(move || listener.accept().is_err());
        std::thread::sleep(std::time::Duration::from_millis(50));
        shutdown_socket(fd).unwrap();
        assert!(
            acceptor.join().unwrap(),
            "accept returns an error once the listener is shut down"
        );
    }
}
