//! Process-wide resource counters: CPU time and context switches from
//! `getrusage(RUSAGE_SELF)`, which sums every thread the process ever ran
//! (the per-query threads `TwoServerPir` spawns and joins included, which
//! a walk over the live `/proc/self/task/*` entries would miss), and the
//! thread count and peak resident set from `/proc/self/status`.

/// A snapshot of the process's CPU time and context switches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User plus system CPU seconds, summed over all threads.
    pub cpu_seconds: f64,
    /// Voluntary plus involuntary context switches, summed over all threads.
    pub ctx_switches: u64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct rusage` on 64-bit Linux: two `timeval`s (seconds,
    /// microseconds) followed by fourteen `long` counters.
    pub type RUsage = [i64; 18];
    pub const RUSAGE_SELF: i32 = 0;
    pub const NVCSW: usize = 16;
    pub const NIVCSW: usize = 17;

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
}

impl Usage {
    /// The counters now; zero where the platform has no `getrusage`.
    #[must_use]
    pub fn now() -> Usage {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        {
            let mut raw: sys::RUsage = [0; 18];
            // SAFETY: `raw` is a writable buffer with the size and layout
            // of `struct rusage` on 64-bit Linux, which is all getrusage
            // writes; RUSAGE_SELF is a valid `who`.
            let rc = unsafe { sys::getrusage(sys::RUSAGE_SELF, &mut raw) };
            if rc == 0 {
                return Usage {
                    cpu_seconds: (raw[0] + raw[2]) as f64 + (raw[1] + raw[3]) as f64 * 1e-6,
                    ctx_switches: (raw[sys::NVCSW] + raw[sys::NIVCSW]) as u64,
                };
            }
        }
        Usage::default()
    }

    /// The counters accumulated since `earlier`.
    #[must_use]
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_seconds: self.cpu_seconds - earlier.cpu_seconds,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

/// A numeric field of `/proc/self/status` (e.g. `Threads`, `VmHWM` in
/// kB); 0 when unavailable.
#[must_use]
pub fn status_field(name: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix(name)?.strip_prefix(':')?;
                rest.split_whitespace().next()?.parse().ok()
            })
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_move_forward() {
        let before = Usage::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        let spent = Usage::now().since(before);
        assert!(spent.cpu_seconds >= 0.0);
        assert!(spent.ctx_switches >= 1, "a sleep is a voluntary switch");
        assert!(status_field("Threads") >= 1);
        assert!(status_field("VmHWM") > 0);
        assert_eq!(status_field("NoSuchField"), 0);
    }
}
