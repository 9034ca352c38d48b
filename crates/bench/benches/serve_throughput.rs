//! `mab-serve` end-to-end throughput benchmark.
//!
//! Drives a real daemon — HTTP server, fair scheduler, worker pool,
//! content-addressed cache — with 8 concurrent clients, each submitting
//! its own sweep over HTTP and polling to completion. The arms run a
//! synthetic deterministic spin workload (calibrated to ~[`TARGET_ARM_MS`]
//! each) instead of real simulations, so the bench measures the serving
//! plane, not the simulator.
//!
//! Two gates, both written to BENCH_serve_throughput.json:
//!
//! - **Cache speedup**: after the cold pass, every client resubmits the
//!   identical sweep; the median submit→done latency must drop by at
//!   least [`MIN_SPEEDUP`]x, proving cached hits skip execution entirely.
//! - **Fairness**: within the cold pass all clients submit equal-sized
//!   sweeps while a ninth client's blocker arms hold every worker. The
//!   blockers are released only once all submissions have returned, so
//!   every measured arm is queued before the scheduler picks the first one
//!   (otherwise the first client to submit would take all idle workers).
//!   The round-robin scheduler must then keep the per-client
//!   completion-time spread (slowest/fastest) within [`MAX_SPREAD`]x. A
//!   FIFO scheduler would serialize whole sweeps and push the spread
//!   toward the client count.
//!
//! Run with: `cargo bench -p mab-bench --bench serve_throughput`

use mab_monitor::client;
use mab_monitor::http;
use mab_serve::{api, Executor, ServeConfig, ServeState};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Concurrent clients, per the serve acceptance gate.
const CLIENTS: usize = 8;

/// Arms per client sweep (distinct seeds per client: no cross-client
/// dedup in the cold pass).
const ARMS_PER_CLIENT: usize = 4;

/// Executor worker threads — fewer than the submitted parallelism so the
/// queue actually queues and the scheduler's fairness matters.
const WORKERS: usize = 4;

/// Calibrated cold cost of one arm, milliseconds.
const TARGET_ARM_MS: f64 = 25.0;

/// Gate: median cold latency over median cached latency.
const MIN_SPEEDUP: f64 = 10.0;

/// Gate: slowest/fastest per-client cold completion time.
const MAX_SPREAD: f64 = 2.0;

/// Connect and read timeout of every HTTP request.
const TIMEOUT: Duration = Duration::from_secs(10);

/// Seeds at or above this are the blocker client's arms.
const BLOCKER_SEED: u64 = 1_000_000;

/// Deterministic spin executor: FNV-1a mixing for a calibrated iteration
/// count; the report depends only on the spec, so reruns are
/// byte-identical. A blocker arm spins nothing: it waits at `held` until
/// every blocker runs, then at `open` until every client has submitted.
struct SpinExecutor {
    iters: u64,
    held: Arc<Barrier>,
    open: Arc<Barrier>,
}

fn fnv_mix(iters: u64, seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for i in 0..iters {
        h ^= i;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl Executor for SpinExecutor {
    fn run(
        &self,
        spec: &mab_experiments::spec::RunSpec,
        _crash_dir: &std::path::Path,
    ) -> Result<String, String> {
        if spec.seed >= BLOCKER_SEED {
            self.held.wait();
            self.open.wait();
            return Ok(format!("blocker seed={}\n", spec.seed));
        }
        let value = fnv_mix(self.iters, spec.seed);
        Ok(format!(
            "spin {} seed={} value={value:016x}\n",
            spec.experiment, spec.seed
        ))
    }
}

/// Picks an iteration count whose spin takes ~[`TARGET_ARM_MS`].
fn calibrate() -> u64 {
    let probe = 4_000_000u64;
    let start = Instant::now();
    std::hint::black_box(fnv_mix(probe, 1));
    let ns_per_iter = start.elapsed().as_nanos() as f64 / probe as f64;
    ((TARGET_ARM_MS * 1e6) / ns_per_iter) as u64
}

/// Submits a sweep of `seeds` for `client`; returns the job id.
fn submit(url: &str, client: &str, seeds: &[u64], pass: &str) -> u64 {
    let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
    let body = format!(
        "{{\"experiment\":\"fig08_singlecore\",\"client\":\"{client}\",\
         \"seeds\":[{}],\"quick\":true}}",
        seeds.join(",")
    );
    let resp = client::post(&format!("{url}/jobs"), &body, TIMEOUT).expect("POST /jobs");
    assert_eq!(resp.status, 200, "{pass} submit failed: {}", resp.body);
    mab_telemetry::json::parse(resp.body.trim())
        .expect("job json")
        .get("id")
        .and_then(|v| v.as_u64())
        .expect("job id")
}

/// Submits one sweep for `client_id`, waits at `open` (when given) and
/// polls the sweep to completion; returns the submit→done wall time in
/// milliseconds.
fn run_client(url: &str, client_id: usize, pass: &str, open: Option<&Barrier>) -> f64 {
    let seeds: Vec<u64> = (0..ARMS_PER_CLIENT)
        .map(|a| (client_id * 100 + a + 1) as u64)
        .collect();
    let start = Instant::now();
    let id = submit(url, &format!("client-{client_id}"), &seeds, pass);
    if let Some(open) = open {
        open.wait();
    }
    loop {
        let resp = client::get(&format!("{url}/jobs/{id}"), TIMEOUT).expect("GET /jobs/:id");
        let doc = mab_telemetry::json::parse(resp.body.trim()).expect("status json");
        match doc.get("status").and_then(|v| v.as_str()) {
            Some("done") => break,
            Some("failed") => panic!("{pass} job {id} failed: {}", resp.body),
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// One pass: all clients submit concurrently; returns per-client wall
/// times in client order. With `open`, the blocker arms holding every
/// worker pass it together with the clients, once all have submitted.
fn run_pass(url: &str, pass: &str, open: Option<&Barrier>) -> Vec<f64> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || run_client(url, c, pass, open)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

fn main() {
    let iters = calibrate();
    let dir = std::env::temp_dir().join(format!("mab-serve-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = ServeConfig {
        workers: WORKERS,
        queue_cap: CLIENTS * ARMS_PER_CLIENT * 2,
        cache_dir: dir.join("cache"),
        ledger_dir: None,
        quiet: true,
    };
    let held = Arc::new(Barrier::new(WORKERS + 1));
    let open = Arc::new(Barrier::new(WORKERS + CLIENTS));
    let executor = SpinExecutor {
        iters,
        held: Arc::clone(&held),
        open: Arc::clone(&open),
    };
    let state = ServeState::start(config, Arc::new(executor)).expect("serve start");
    let handler_state = Arc::clone(&state);
    let mut server = http::serve_with(
        "127.0.0.1:0",
        "serve-bench",
        Arc::clone(&state.http),
        Arc::new(AtomicBool::new(false)),
        Arc::new(move |req, conn| api::route(&handler_state, req, conn)),
    )
    .expect("http bind");
    let url = format!("http://{}", server.addr());
    println!(
        "{CLIENTS} clients x {ARMS_PER_CLIENT} arms on {WORKERS} workers; \
         ~{TARGET_ARM_MS:.0}ms/arm cold ({iters} spin iters)"
    );

    let blockers: Vec<u64> = (0..WORKERS as u64).map(|w| BLOCKER_SEED + w).collect();
    submit(&url, "blocker", &blockers, "cold");
    held.wait();
    let cold = run_pass(&url, "cold", Some(&open));
    let cached = run_pass(&url, "cached", None);

    let cold_med = median(&cold);
    let cached_med = median(&cached);
    let speedup = cold_med / cached_med;
    let spread = cold.iter().cloned().fold(f64::MIN, f64::max)
        / cold.iter().cloned().fold(f64::MAX, f64::min);
    println!(
        "cold   median {cold_med:>8.1} ms/client (spread {spread:.2}x across clients)\n\
         cached median {cached_med:>8.1} ms/client -> {speedup:.1}x speedup"
    );

    state.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    let pass = speedup >= MIN_SPEEDUP && spread <= MAX_SPREAD;
    write_report(cold_med, cached_med, speedup, spread, pass);
    if pass {
        println!(
            "PASS: cache speedup {speedup:.1}x >= {MIN_SPEEDUP}x and \
             fairness spread {spread:.2}x <= {MAX_SPREAD}x"
        );
    } else {
        println!(
            "FAIL: need cache speedup >= {MIN_SPEEDUP}x (got {speedup:.1}x) and \
             spread <= {MAX_SPREAD}x (got {spread:.2}x)"
        );
        std::process::exit(1);
    }
}

/// Writes BENCH_serve_throughput.json at the repo root (ingest with
/// `mab-inspect ingest`, gate with `mab-inspect regress`).
fn write_report(cold_med: f64, cached_med: f64, speedup: f64, spread: f64, pass: bool) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_serve_throughput.json"
    );
    let json = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \"clients\": {CLIENTS},\n  \
         \"arms_per_client\": {ARMS_PER_CLIENT},\n  \"workers\": {WORKERS},\n  \
         \"cold_median_ms\": {cold_med:.1},\n  \"cached_median_ms\": {cached_med:.1},\n  \
         \"cache_speedup\": {speedup:.2},\n  \"cold_spread\": {spread:.3},\n  \
         \"min_speedup\": {MIN_SPEEDUP},\n  \"max_spread\": {MAX_SPREAD},\n  \
         \"pass\": {pass}\n}}\n"
    );
    print!("{json}");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
