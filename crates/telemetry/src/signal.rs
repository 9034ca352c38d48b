//! The workspace's one `signal(2)` shim and signal-name table.
//!
//! The workspace is dependency-free, so instead of a signal crate this
//! module declares libc's `signal` directly. Three users share it: the
//! black box's fatal-signal handlers, `mab-serve`'s SIGTERM/SIGINT drain,
//! and `mab-inspect postmortem`'s signal names. It is the only place in
//! the workspace that needs `unsafe`. On non-unix targets installing a
//! handler is a no-op.

#![allow(unsafe_code)]

/// Interrupt from the terminal (`mab-serve` drains on it).
pub const SIGINT: i32 = 2;
/// Illegal instruction.
pub const SIGILL: i32 = 4;
/// `abort()`.
pub const SIGABRT: i32 = 6;
/// Bus error (Linux numbering).
pub const SIGBUS: i32 = 7;
/// Arithmetic fault. Nothing installs a handler for it: safe Rust checks
/// integer division and overflow, so it is only named here.
pub const SIGFPE: i32 = 8;
/// Segmentation fault.
pub const SIGSEGV: i32 = 11;
/// Termination request (`mab-serve` drains on it).
pub const SIGTERM: i32 = 15;

/// Every signal number the workspace uses, with its conventional name.
const NAMES: [(i32, &str); 7] = [
    (SIGINT, "SIGINT"),
    (SIGILL, "SIGILL"),
    (SIGABRT, "SIGABRT"),
    (SIGBUS, "SIGBUS"),
    (SIGFPE, "SIGFPE"),
    (SIGSEGV, "SIGSEGV"),
    (SIGTERM, "SIGTERM"),
];

/// The conventional name of signal `sig`, or `"signal"` for numbers the
/// workspace does not use.
pub fn name(sig: i64) -> &'static str {
    NAMES
        .iter()
        .find(|&&(number, _)| i64::from(number) == sig)
        .map_or("signal", |&(_, name)| name)
}

#[cfg(unix)]
mod ffi {
    /// `SIG_DFL`: the default disposition.
    pub const SIG_DFL: usize = 0;

    extern "C" {
        pub fn signal(signum: i32, handler: usize) -> usize;
    }
}

/// Runs `handler` when signal `sig` arrives.
pub fn set_handler(sig: i32, handler: extern "C" fn(i32)) {
    #[cfg(unix)]
    // SAFETY: `signal(2)` only swaps the process's disposition for `sig`;
    // `handler` is a valid `extern "C" fn(i32)` for the life of the
    // process, and every caller passes a POSIX signal number from this
    // module. Whether the handler body is async-signal-safe is the
    // caller's contract, documented at each handler.
    unsafe {
        ffi::signal(sig, handler as usize);
    }
    #[cfg(not(unix))]
    let _ = (sig, handler);
}

/// Restores the default disposition of signal `sig`.
pub fn set_default(sig: i32) {
    #[cfg(unix)]
    // SAFETY: as in `set_handler`; `SIG_DFL` is the constant 0 on every
    // unix libc.
    unsafe {
        ffi::signal(sig, ffi::SIG_DFL);
    }
    #[cfg(not(unix))]
    let _ = sig;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_the_signals_the_workspace_uses() {
        assert_eq!(name(SIGSEGV.into()), "SIGSEGV");
        assert_eq!(name(SIGFPE.into()), "SIGFPE");
        assert_eq!(name(SIGTERM.into()), "SIGTERM");
        assert_eq!(name(64), "signal");
    }
}
