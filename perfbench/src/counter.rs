//! Process-wide counters: user-space retired instructions, through the
//! `perf_event_open` system call of the C library that std already
//! links, and peak resident set size.
//!
//! The instruction counter is opened with `inherit` before the
//! benchmark starts any thread, so it also counts every thread spawned
//! afterwards — rayon workers, server workers, client threads —
//! including threads that have already exited when it is read.

use std::fs::File;
use std::io::Read;
use std::os::fd::FromRawFd;
use std::os::raw::{c_int, c_long};

extern "C" {
    fn syscall(number: c_long, ...) -> c_long;
}

#[cfg(target_arch = "x86_64")]
const SYS_PERF_EVENT_OPEN: c_long = 298;
#[cfg(target_arch = "aarch64")]
const SYS_PERF_EVENT_OPEN: c_long = 241;

const PERF_TYPE_HARDWARE: u32 = 0;
const PERF_COUNT_HW_INSTRUCTIONS: u64 = 1;
const FLAG_INHERIT: u64 = 1 << 1;
const FLAG_EXCLUDE_KERNEL: u64 = 1 << 5;
const FLAG_EXCLUDE_HV: u64 = 1 << 6;
const FORMAT_TOTAL_TIME_ENABLED: u64 = 1 << 0;
const FORMAT_TOTAL_TIME_RUNNING: u64 = 1 << 1;

/// `struct perf_event_attr` up to `config1` (`PERF_ATTR_SIZE_VER0`).
#[repr(C)]
#[derive(Default)]
struct PerfEventAttr {
    kind: u32,
    size: u32,
    config: u64,
    sample_period: u64,
    sample_type: u64,
    read_format: u64,
    flags: u64,
    wakeup_events: u32,
    bp_type: u32,
    config1: u64,
}

/// A counter of user-space instructions retired by this process and
/// every thread it starts after [`Instructions::open`].
pub struct Instructions {
    file: File,
}

impl Instructions {
    /// Opens the counter. Call before any thread is spawned.
    ///
    /// # Errors
    ///
    /// The OS error when the kernel refuses the counter (no PMU in the
    /// guest, `perf_event_paranoid` too strict, or a seccomp filter).
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    pub fn open() -> std::io::Result<Instructions> {
        let attr = PerfEventAttr {
            kind: PERF_TYPE_HARDWARE,
            size: std::mem::size_of::<PerfEventAttr>() as u32,
            config: PERF_COUNT_HW_INSTRUCTIONS,
            read_format: FORMAT_TOTAL_TIME_ENABLED | FORMAT_TOTAL_TIME_RUNNING,
            flags: FLAG_INHERIT | FLAG_EXCLUDE_KERNEL | FLAG_EXCLUDE_HV,
            ..PerfEventAttr::default()
        };
        let (this_process, any_cpu, no_group, no_flags) =
            (0 as c_int, -1 as c_int, -1 as c_int, 0 as c_long);
        // SAFETY: perf_event_open reads `attr` (a live, correctly sized
        // struct) and returns a new file descriptor or -1.
        let fd = unsafe {
            syscall(
                SYS_PERF_EVENT_OPEN,
                &attr as *const PerfEventAttr,
                this_process,
                any_cpu,
                no_group,
                no_flags,
            )
        };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: `fd` is a fresh descriptor owned by nobody else.
        let file = unsafe { File::from_raw_fd(fd as c_int) };
        let counter = Instructions { file };
        counter.read();
        Ok(counter)
    }

    /// Opens the counter (unsupported on this architecture).
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    pub fn open() -> std::io::Result<Instructions> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "perf_event_open is wired up for x86_64 and aarch64 only",
        ))
    }

    /// Instructions retired so far. When the kernel multiplexed the
    /// counter with others, the count is scaled to the enabled time.
    pub fn read(&self) -> u64 {
        let mut buf = [0u8; 24];
        (&self.file)
            .read_exact(&mut buf)
            .expect("read the instruction counter");
        let word = |i: usize| u64::from_ne_bytes(buf[8 * i..8 * i + 8].try_into().unwrap());
        let (value, enabled, running) = (word(0), word(1), word(2));
        if running == 0 || running == enabled {
            value
        } else {
            (value as f64 * enabled as f64 / running as f64) as u64
        }
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
/// `getrusage`'s `ru_maxrss` would not do: it keeps the peak of the
/// process image that `exec` replaced, e.g. `cargo run`'s own.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}
