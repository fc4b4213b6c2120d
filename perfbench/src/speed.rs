//! Machine-speed probe.
//!
//! The benchmark shares its cores with other tenants of the machine, and
//! their load changes how fast the same code runs by up to half over a few
//! minutes. A fixed probe, owned by the benchmark and independent of the
//! repository's code, is timed between slices of the measured work; every
//! end-to-end time or rate is scaled to the speed at which the probe takes
//! its reference time. The raw figures are printed above the result line.

use std::time::Instant;

/// The probe's duration at the reference machine speed, in ns (a typical
/// reading on the 2-core host the benchmark was written on).
pub const PROBE_REF_NS: f64 = 56_000.0;

/// Independent lanes of the probe: enough independent work to keep the
/// core's execution units as busy as the measured code does, so the probe
/// slows down when another thread competes for the same core.
const LANES: usize = 8;
const ROUNDS: u64 = 100;

/// The probe's working set: 4 KiB of pseudo-random words, small enough to
/// stay in the first-level cache, so the probe measures the core and not
/// how much cache the measured work left it.
pub struct Probe {
    buf: Vec<u64>,
}

impl Probe {
    pub fn new() -> Self {
        let mut x = 1u64;
        let buf = (0..1 << 9)
            .map(|_| {
                x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
                x
            })
            .collect();
        Probe { buf }
    }

    /// Run the probe — integer hashing and float multiply-adds over the
    /// working set, in independent lanes — twice, and return the duration
    /// of the second, warm run in ns.
    pub fn run(&self) -> f64 {
        self.once();
        self.once()
    }

    fn once(&self) -> f64 {
        let t = Instant::now();
        let mut h = [0xcbf2_9ce4_8422_2325u64; LANES];
        let mut acc = [0.0f32; LANES];
        for round in 0..ROUNDS {
            for chunk in self.buf.chunks_exact(LANES) {
                for lane in 0..LANES {
                    let v = chunk[lane] ^ round;
                    h[lane] = (h[lane] ^ v).wrapping_mul(0x0100_0000_01b3);
                    acc[lane] = acc[lane] * 0.999 + (v & 0xffff) as f32;
                }
            }
        }
        std::hint::black_box((h, acc));
        t.elapsed().as_nanos() as f64
    }
}

impl Probe {
    /// A time measured while the probe took `probe_ns`, at reference speed.
    pub fn ref_time(&self, value: f64, probe_ns: f64) -> f64 {
        value * PROBE_REF_NS / probe_ns
    }

    /// A rate measured while the probe took `probe_ns`, at reference speed.
    pub fn ref_rate(&self, value: f64, probe_ns: f64) -> f64 {
        value * probe_ns / PROBE_REF_NS
    }
}

/// Pin the calling thread, and every thread it starts afterwards, to the
/// first CPU it may run on; returns that CPU, or `None` where pinning is
/// unsupported. A probe can only speak for the core it runs on: pinning
/// puts the probe and every thread of a multi-threaded workload on one
/// core.
pub fn pin_to_one_core() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu: usize = allowed
        .trim()
        .split([',', '-'])
        .next()?
        .trim()
        .parse()
        .ok()?;
    set_affinity(cpu).then_some(cpu)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_affinity(cpu: usize) -> bool {
    const SYS_SCHED_SETAFFINITY: isize = 203;
    let mut mask = [0u64; 16];
    if cpu >= 64 * mask.len() {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    let ret: isize;
    // SAFETY: `sched_setaffinity(0, len, mask)` only reads `len` bytes from
    // `mask`, a live local array of exactly that size, and changes nothing
    // but the calling thread's CPU mask. The `syscall` instruction clobbers
    // rcx and r11, declared as outputs, and touches no stack.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_affinity(_cpu: usize) -> bool {
    false
}
