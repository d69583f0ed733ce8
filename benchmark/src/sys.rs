//! What the harness reads from `/proc`: this process's CPU time and
//! peak memory, the host's steal share, and the count of loopback
//! sockets still in TIME_WAIT.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The C library's `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// The C library's `struct sched_param` on Linux.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// Linux clock ids and the idle scheduling class.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

fn cpu_clock_seconds(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` of the layout
    // 64-bit Linux defines, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// CPU seconds the [`KeepAwake`] spinners have used so far.
static SPINNER_CPU_NANOS: AtomicU64 = AtomicU64::new(0);

/// User + system CPU seconds this process has used, threads that
/// already exited included and [`KeepAwake`] spinners excluded, at the
/// scheduler's nanosecond resolution (`/proc/self/stat` only counts
/// 10 ms ticks, which is a percent of a slice).
pub fn process_cpu_seconds() -> f64 {
    cpu_clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
        - SPINNER_CPU_NANOS.load(Ordering::Relaxed) as f64 * 1e-9
}

/// Keeps every virtual CPU from halting while it lives: one spinning
/// thread per CPU in the kernel's idle scheduling class, which runs only
/// when nothing else wants the CPU. In a virtual machine a CPU that
/// halts must be rescheduled by the host before it can take the next
/// request, and on a busy host that wait (reported as steal) is most of
/// the run-to-run noise of a request/reply workload — with the spinners,
/// back-to-back runs on a noisy host showed a steal share of 0.04–0.18
/// instead of 0.20–0.39. It is what booting with `idle=poll` does. If
/// the kernel refuses the scheduling class, nothing spins.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let spinners = (0..nproc())
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: pid 0 names the calling thread, and `param`
                    // is a live `struct sched_param` the call only reads.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                        return;
                    }
                    let mut booked = 0.0;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..2_000 {
                            std::hint::spin_loop();
                        }
                        // Book this thread's CPU time so far, so that it
                        // can be kept out of the process's.
                        let used = cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID);
                        SPINNER_CPU_NANOS
                            .fetch_add(((used - booked) * 1e9) as u64, Ordering::Relaxed);
                        booked = used;
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            // A spinner cannot panic; nothing to report from drop.
            let _ = spinner.join();
        }
    }
}

/// `(steal, total)` jiffies summed over all CPUs since boot.
pub fn host_steal_jiffies() -> (f64, f64) {
    let stat = read("/proc/stat");
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0.0, 0.0);
    };
    let fields: Vec<f64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let total: f64 = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0.0), total)
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`host_steal_jiffies`] readings.
pub fn steal_share(before: (f64, f64), after: (f64, f64)) -> f64 {
    let total = after.1 - before.1;
    if total > 0.0 {
        (after.0 - before.0) / total
    } else {
        0.0
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// TCP sockets in TIME_WAIT, from `/proc/net/sockstat`.
pub fn time_wait_sockets() -> u64 {
    read("/proc/net/sockstat")
        .lines()
        .find(|l| l.starts_with("TCP:"))
        .and_then(|l| {
            let mut fields = l.split_whitespace();
            fields.find(|f| *f == "tw")?;
            fields.next()?.parse().ok()
        })
        .unwrap_or(0)
}

/// Whether the kernel recycles loopback TIME_WAIT sockets for new
/// connections (`net.ipv4.tcp_tw_reuse` = 2, or 1 for all interfaces).
fn time_wait_is_reused() -> bool {
    matches!(read("/proc/sys/net/ipv4/tcp_tw_reuse").trim(), "1" | "2")
}

/// Makes sure a window does not start behind the debris of the one
/// before it: every request leaves a socket in TIME_WAIT for a minute,
/// and once the loopback port space fills, connects slow down and then
/// fail. Where the kernel recycles such sockets that cannot happen (a
/// probe with 40 000 of them showed no slower connects) and this only
/// reads the count; elsewhere it waits until fewer than `limit` are left
/// or `budget` has passed. Returns the count it last saw.
pub fn wait_for_time_wait_below(limit: u64, budget: Duration) -> u64 {
    let start = Instant::now();
    loop {
        let tw = time_wait_sockets();
        if tw < limit || time_wait_is_reused() || start.elapsed() >= budget {
            return tw;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
