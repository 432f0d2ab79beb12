//! Std-only SIGTERM/SIGINT handling: `rt_sigaction(2)` through a
//! direct syscall, mirroring [`crate::poll`]'s approach.
//!
//! A production backend must not die mid-request when its supervisor
//! sends SIGTERM — it should stop accepting, finish what it owes, and
//! exit (the PR-9 graceful drain). The standard library exposes no
//! signal API and the workspace is dependency-free by design, so this
//! module installs a minimal handler directly: the handler body is a
//! single atomic store (the only thing that is async-signal-safe
//! anyway), and the serving event loops check [`take`] once per
//! iteration — their poll timeout bounds the reaction latency to at
//! most one tick.
//!
//! On x86_64 the kernel requires userspace to supply the signal-return
//! trampoline (`SA_RESTORER`): a two-instruction stub issuing
//! `rt_sigreturn` is assembled below. On aarch64 the kernel falls back
//! to its own vDSO trampoline when no restorer is given, so none is
//! installed there.

use std::io;
use std::sync::atomic::{AtomicI32, Ordering};

/// `SIGINT` — interactive interrupt (Ctrl-C).
pub const SIGINT: i32 = 2;
/// `SIGTERM` — the polite supervisor shutdown request.
pub const SIGTERM: i32 = 15;

/// Restart interrupted syscalls so in-flight reads/writes on other
/// threads don't surface spurious `EINTR` failures.
const SA_RESTART: usize = 0x1000_0000;

/// The last delivery, 0 when none is pending.
static PENDING: AtomicI32 = AtomicI32::new(0);

/// The handler: an atomic store and nothing else (async-signal-safe).
extern "C" fn on_signal(signo: i32) {
    PENDING.store(signo, Ordering::SeqCst);
}

/// Consumes a pending signal, if one arrived since the last call.
pub fn take() -> Option<i32> {
    match PENDING.swap(0, Ordering::SeqCst) {
        0 => None,
        signo => Some(signo),
    }
}

/// The kernel's `struct sigaction` as `rt_sigaction` expects it on
/// x86_64 and aarch64: handler, flags, restorer, then an 8-byte mask.
#[repr(C)]
struct KernelSigaction {
    handler: usize,
    flags: usize,
    restorer: usize,
    mask: u64,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod arch {
    /// x86_64 userspace owns the signal trampoline: `SA_RESTORER` must
    /// be set and point at a stub that issues `rt_sigreturn` (NR 15).
    pub const SA_RESTORER: usize = 0x0400_0000;

    core::arch::global_asm!(
        ".global __rwq_sigrestore",
        "__rwq_sigrestore:",
        "mov rax, 15",
        "syscall",
    );

    extern "C" {
        pub fn __rwq_sigrestore();
    }

    /// Raw `rt_sigaction`: negative return values are `-errno`.
    pub fn sys_rt_sigaction(
        signum: i32,
        act: *const super::KernelSigaction,
        oldact: *mut super::KernelSigaction,
        sigsetsize: usize,
    ) -> isize {
        const SYS_RT_SIGACTION: usize = 13;
        let ret: isize;
        // SAFETY: `rt_sigaction(signum, act, oldact, 8)` with `act`
        // pointing at a fully initialized `KernelSigaction` whose
        // restorer is the stub above. The kernel only reads `act` and
        // writes `oldact` (null here). rcx/r11 are clobbered by
        // `syscall` itself.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") SYS_RT_SIGACTION as isize => ret,
                in("rdi") signum as usize,
                in("rsi") act,
                in("rdx") oldact,
                in("r10") sigsetsize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod arch {
    /// aarch64 leaves the trampoline to the kernel's vDSO: no
    /// `SA_RESTORER` flag, restorer field zero.
    pub const SA_RESTORER: usize = 0;

    /// Raw `rt_sigaction`: negative return values are `-errno`.
    pub fn sys_rt_sigaction(
        signum: i32,
        act: *const super::KernelSigaction,
        oldact: *mut super::KernelSigaction,
        sigsetsize: usize,
    ) -> isize {
        const SYS_RT_SIGACTION: usize = 134;
        let ret: isize;
        // SAFETY: as in the x86_64 variant; aarch64 passes the syscall
        // number in x8 and arguments in x0..x3.
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") SYS_RT_SIGACTION,
                inlateout("x0") signum as isize => ret,
                in("x1") act,
                in("x2") oldact,
                in("x3") sigsetsize,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "rw-server's drain-on-signal needs the rt_sigaction syscall; \
     only linux x86_64/aarch64 are wired up (add the syscall stanza for this target)"
);

fn install_one(signo: i32) -> io::Result<()> {
    #[cfg(target_arch = "x86_64")]
    let (restorer, restorer_flag) = (
        arch::__rwq_sigrestore as *const () as usize,
        arch::SA_RESTORER,
    );
    #[cfg(target_arch = "aarch64")]
    let (restorer, restorer_flag) = (0usize, arch::SA_RESTORER);

    let act = KernelSigaction {
        handler: on_signal as *const () as usize,
        flags: SA_RESTART | restorer_flag,
        restorer,
        mask: 0,
    };
    let ret = arch::sys_rt_sigaction(signo, &act, std::ptr::null_mut(), 8);
    if ret < 0 {
        return Err(io::Error::from_raw_os_error(-ret as i32));
    }
    Ok(())
}

/// Installs the drain handler for SIGTERM and SIGINT. Idempotent;
/// call once per serving process before entering the event loop.
pub fn install() -> io::Result<()> {
    install_one(SIGTERM)?;
    install_one(SIGINT)
}

/// The human-readable name of a handled signal (for drain banners).
pub fn name(signo: i32) -> &'static str {
    match signo {
        SIGTERM => "SIGTERM",
        SIGINT => "SIGINT",
        _ => "signal",
    }
}
