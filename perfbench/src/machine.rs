//! Machine diagnostics from `/proc`: the calling thread's on-CPU time and
//! run-queue wait (`/proc/thread-self/schedstat`) and the host's steal
//! time (`/proc/stat`). They explain a drifted run; no code change moves
//! them on purpose.

/// Clock ticks per second of the `/proc/stat` counters (`USER_HZ`, 100 on
/// every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// Cumulative counters at one instant; all zero where `/proc` is absent.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    cpu_ns: u64,
    wait_ns: u64,
    steal_ticks: u64,
}

/// What happened between two [`Sample`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Seconds this thread ran on a CPU.
    pub cpu_s: f64,
    /// Milliseconds this thread was runnable but waiting for a CPU.
    pub runqueue_wait_ms: f64,
    /// Milliseconds the hypervisor gave the host's CPUs to someone else.
    pub steal_ms: f64,
}

impl Sample {
    /// Reads the counters now.
    pub fn now() -> Sample {
        let sched = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut sched = sched.split_whitespace().map(|f| f.parse().unwrap_or(0));
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        // First line: "cpu user nice system idle iowait irq softirq steal …".
        let steal_ticks = stat
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(8))
            .and_then(|f| f.parse().ok())
            .unwrap_or(0);
        Sample {
            cpu_ns: sched.next().unwrap_or(0),
            wait_ns: sched.next().unwrap_or(0),
            steal_ticks,
        }
    }

    /// Usage from `earlier` to `self`.
    pub fn since(&self, earlier: &Sample) -> Usage {
        Usage {
            cpu_s: self.cpu_ns.saturating_sub(earlier.cpu_ns) as f64 / 1e9,
            runqueue_wait_ms: self.wait_ns.saturating_sub(earlier.wait_ns) as f64 / 1e6,
            steal_ms: self.steal_ticks.saturating_sub(earlier.steal_ticks) as f64 * 1e3 / USER_HZ,
        }
    }
}
