//! The load generator: a closed loop of [`CLIENTS`] threads, each with
//! one connection open at a time — callers of a broker wait for their
//! reply. The window is cut into short slices of a fixed request count,
//! each read with the share of host CPU time the hypervisor stole during
//! it. A slice's timings are taken on a clock that stops while a virtual
//! CPU is stolen, and the window reports the median slice.

use crate::deploy::{Deployment, Fixture, Workload, Writer};
use crate::stats::{median, percentile};
use crate::{http, sys};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Concurrent clients: two per core of the 2-core box, so that a core
/// always has a request to work on. With one per core the cores idle
/// between requests, and the numbers then follow how fast a waiting
/// thread is woken (±10 % from run to run on an otherwise quiet host)
/// rather than what the product does.
pub const CLIENTS: usize = 4;
/// Slices sent before measuring starts: caches fill, pools and worker
/// threads spin up.
const WARMUP_SLICES: usize = 2;
/// In `zipf_churn`, client 0 writes after every this many of its own
/// requests while the other clients keep reading.
const REQUESTS_PER_WRITE: usize = 250;

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Position in the request stream.
    index: usize,
    latency_ms: f64,
    ok: bool,
    reply_bytes: usize,
}

/// Readings taken by the client that starts a slice.
#[derive(Debug, Clone, Copy)]
struct Boundary {
    at: Instant,
    cpu_seconds: f64,
    steal: (f64, f64),
}

impl Boundary {
    fn now() -> Boundary {
        Boundary {
            at: Instant::now(),
            cpu_seconds: sys::process_cpu_seconds(),
            steal: sys::host_steal_jiffies(),
        }
    }
}

/// Steal above this share of a slice is not compensated further: the
/// linear model below is for bursts, not for a machine that is mostly
/// gone.
const MAX_COMPENSATED: f64 = 0.9;

/// One measured slice.
#[derive(Debug, Clone)]
pub struct Slice {
    pub requests: usize,
    pub failed: usize,
    pub seconds: f64,
    /// Process CPU (user + system, client threads included).
    pub cpu_seconds: f64,
    /// Share of host CPU time stolen by the hypervisor (`/proc/stat`,
    /// all CPUs).
    pub steal_share: f64,
    /// Client-side round trips; a failed request counts as the slice's
    /// worst.
    pub latencies_ms: Vec<f64>,
}

/// The timings of one slice, or of a window (its median slice).
#[derive(Debug, Clone, Copy)]
pub struct Timings {
    /// Successful requests per second.
    pub rps: f64,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub cpu_ms_per_req: f64,
}

impl Slice {
    /// The slice's timings as the clock read them.
    pub fn raw(&self) -> Timings {
        Timings {
            rps: (self.requests - self.failed) as f64 / self.seconds,
            latency_p50_ms: percentile(&self.latencies_ms, 0.50),
            latency_p95_ms: percentile(&self.latencies_ms, 0.95),
            cpu_ms_per_req: self.cpu_seconds * 1e3 / self.requests.max(1) as f64,
        }
    }

    /// The slice's timings with stolen time taken out. A request crosses
    /// threads on every core, so the pipeline stands still while *any*
    /// virtual CPU is stolen: of the slice's wall time the share
    /// `nproc × steal` did not count (steal is averaged over the CPUs).
    /// That holds for the rate, and for the tail — the slow requests are
    /// the ones that waited for a stolen CPU. The median request is on
    /// one CPU at a time and, if short, often runs between two bursts:
    /// it is inflated by about one CPU's share, `steal`, as is CPU time,
    /// which is booked per CPU. (With `nproc × steal` on the median too,
    /// `zipf_churn`'s spread went from 0.14 to 0.28.)
    ///
    /// Measured on ten seeds per workload against pooling the quietest
    /// quarter of the slices, this roughly halves the run-to-run spread
    /// (`rps` 0.07–0.17 → 0.03–0.07, `latency_p95_ms` 0.11–0.33 →
    /// 0.04–0.10), and a quiet host (steal 0) reads the same either way.
    pub fn compensated(&self) -> Timings {
        let raw = self.raw();
        let all_cpus = 1.0 - (sys::nproc() as f64 * self.steal_share).min(MAX_COMPENSATED);
        let one_cpu = 1.0 - self.steal_share.min(MAX_COMPENSATED);
        Timings {
            rps: raw.rps / all_cpus,
            latency_p50_ms: raw.latency_p50_ms * one_cpu,
            latency_p95_ms: raw.latency_p95_ms * all_cpus,
            cpu_ms_per_req: raw.cpu_ms_per_req * one_cpu,
        }
    }
}

/// Everything a window measured. The warm-up slices are not in `slices`.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub slices: Vec<Slice>,
    pub reply_bytes: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Latency of every write performed during the window.
    pub write_ms: Vec<f64>,
    pub time_wait_before: u64,
}

impl Window {
    /// The window's reported timings: for each, the median over the
    /// slices of its steal-compensated value. Steal comes in bursts of
    /// seconds; the median slice is one the bursts left mostly alone.
    pub fn timings(&self) -> Timings {
        let slices: Vec<Timings> = self.slices.iter().map(Slice::compensated).collect();
        let over_slices =
            |value: fn(&Timings) -> f64| median(&slices.iter().map(value).collect::<Vec<_>>());
        Timings {
            rps: over_slices(|t| t.rps),
            latency_p50_ms: over_slices(|t| t.latency_p50_ms),
            latency_p95_ms: over_slices(|t| t.latency_p95_ms),
            cpu_ms_per_req: over_slices(|t| t.cpu_ms_per_req),
        }
    }

    /// Every measured round trip as the clock read it.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.slices
            .iter()
            .flat_map(|s| s.latencies_ms.iter().copied())
            .collect()
    }
}

/// Sends one request of the stream through the HTTP door.
fn send(addr: SocketAddr, fx: &Fixture, index: usize) -> Sample {
    let body = http::search_body(fx.request(index));
    let start = Instant::now();
    let reply = http::post_search(addr, &body);
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    match reply {
        Ok(reply) => Sample {
            index,
            latency_ms,
            ok: reply.is_complete(),
            reply_bytes: reply.body.len(),
        },
        Err(_) => Sample {
            index,
            latency_ms,
            ok: false,
            reply_bytes: 0,
        },
    }
}

/// Runs the closed loop against `deployment`: [`WARMUP_SLICES`] discarded
/// slices, then whole slices until `seconds` of measuring have passed and
/// at least `min_slices` are complete. `writer` is given for
/// `zipf_churn`, where client 0 writes while the others read.
pub fn run_window(
    fx: &Fixture,
    deployment: &Deployment,
    seconds: f64,
    min_slices: usize,
    mut writer: Option<&mut Writer>,
) -> Window {
    let time_wait_before = sys::wait_for_time_wait_below(10_000, Duration::from_secs(20));
    let slice_len = fx.workload.slice_requests(fx.size);
    let addr = deployment.addr();
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let boundaries: Mutex<Vec<Boundary>> = Mutex::new(Vec::new());
    let churn = fx.workload == Workload::ZipfChurn;

    let client = |mut writer: Option<&mut Writer>| {
        let mut samples: Vec<Sample> = Vec::new();
        let mut write_ms: Vec<f64> = Vec::new();
        loop {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let index = next.fetch_add(1, Ordering::SeqCst);
            if index % slice_len == 0 {
                // This client opens slice index / slice_len (the first
                // ones are the warm-up) and decides whether the window
                // is over.
                let mut marks = boundaries.lock().expect("boundary lock");
                marks.push(Boundary::now());
                let measured = marks.len().saturating_sub(WARMUP_SLICES + 1);
                if measured >= min_slices
                    && marks[WARMUP_SLICES].at.elapsed().as_secs_f64() >= seconds
                {
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
            }
            samples.push(send(addr, fx, index));
            if let Some(w) = writer.as_deref_mut() {
                if samples.len() % REQUESTS_PER_WRITE == 0 {
                    write_ms.extend(w.write(&deployment.door));
                }
            }
        }
        (samples, write_ms)
    };

    let client = &client;
    let (mut samples, write_ms) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let writer = if churn && c == 0 { writer.take() } else { None };
                scope.spawn(move || client(writer))
            })
            .collect();
        let mut samples = Vec::new();
        let mut write_ms = Vec::new();
        for handle in handles {
            let (s, w) = handle.join().expect("client thread");
            samples.extend(s);
            write_ms.extend(w);
        }
        (samples, write_ms)
    });
    samples.sort_by_key(|s| s.index);

    let marks = boundaries.into_inner().expect("boundary lock");
    let mut window = Window {
        write_ms,
        time_wait_before,
        ..Window::default()
    };
    // marks[k] opens slice k; the last mark closes the last slice.
    for k in WARMUP_SLICES..marks.len().saturating_sub(1) {
        let (open, close) = (marks[k], marks[k + 1]);
        let in_slice: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.index / slice_len == k)
            .collect();
        let failed = in_slice.iter().filter(|s| !s.ok).count();
        // A failed request counts as the slice's worst latency.
        let worst = in_slice.iter().map(|s| s.latency_ms).fold(0.0, f64::max);
        let latencies: Vec<f64> = in_slice
            .iter()
            .map(|s| if s.ok { s.latency_ms } else { worst })
            .collect();
        let requests = in_slice.len();
        window.attempted += requests;
        window.failed += failed;
        window
            .reply_bytes
            .extend(in_slice.iter().map(|s| s.reply_bytes as f64));
        window.slices.push(Slice {
            requests,
            failed,
            seconds: close.at.duration_since(open.at).as_secs_f64(),
            cpu_seconds: close.cpu_seconds - open.cpu_seconds,
            steal_share: sys::steal_share(open.steal, close.steal),
            latencies_ms: latencies,
        });
    }
    window
}
