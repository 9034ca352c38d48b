//! Sweep-as-a-service daemon: HTTP front end over the fair scheduler, its
//! worker threads and the content-addressed result cache.
//!
//! ```text
//! mab-serve [--addr HOST:PORT] [--cache-dir DIR] [--ledger DIR]
//!           [--bin-dir DIR] [--workers N] [--queue-cap N] [--quiet]
//! ```
//!
//! Runs until SIGTERM/SIGINT, then shuts down gracefully: stops accepting
//! submissions (503), drains in-flight arms into the cache, and persists
//! unfinished jobs so the next start resumes them instead of recomputing.

use mab_monitor::http;
use mab_serve::{api, signal, BinaryExecutor, ServeConfig, ServeState};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: mab-serve [options]
  --addr HOST:PORT   listen address            (default 127.0.0.1:8640)
  --cache-dir DIR    content-addressed cache   (default cache/serve)
  --ledger DIR       run-ledger directory      (default: no ledger)
  --bin-dir DIR      experiment binaries       (default: mab-serve's own dir)
  --workers N        executor threads          (default: available cores)
  --queue-cap N      max admitted open arms    (default 256)
  --quiet            suppress stderr progress lines
  --help             print this help

DIR values must be non-empty.
";

struct Flags {
    addr: String,
    config: ServeConfig,
    bin_dir: Option<std::path::PathBuf>,
}

/// A directory flag's value. An empty path resolves to the working
/// directory, which no directory flag means, so it is a usage error.
fn dir(value: String, name: &str) -> Result<std::path::PathBuf, String> {
    if value.is_empty() {
        Err(format!("{name} needs a non-empty directory"))
    } else {
        Ok(value.into())
    }
}

fn parse_flags() -> Result<Flags, String> {
    let mut flags = Flags {
        addr: "127.0.0.1:8640".to_string(),
        config: ServeConfig::default(),
        bin_dir: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => flags.addr = value("--addr")?,
            "--cache-dir" => flags.config.cache_dir = dir(value("--cache-dir")?, "--cache-dir")?,
            "--ledger" => flags.config.ledger_dir = Some(dir(value("--ledger")?, "--ledger")?),
            "--bin-dir" => flags.bin_dir = Some(dir(value("--bin-dir")?, "--bin-dir")?),
            "--workers" => {
                flags.config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers expects an integer".to_string())?;
            }
            "--queue-cap" => {
                flags.config.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|_| "--queue-cap expects an integer".to_string())?;
            }
            "--quiet" => flags.config.quiet = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(flags)
}

fn main() {
    let flags = match parse_flags() {
        Ok(flags) => flags,
        Err(message) => {
            eprintln!("mab-serve: {message}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    let quiet = flags.config.quiet;
    // Arm the daemon's own flight recorder: a panic or fatal signal in
    // the daemon itself leaves a report in the crash root (executed arms
    // get per-job subdirectories through --crash-dir).
    mab_telemetry::blackbox::install(
        "mab-serve",
        "",
        &[],
        &flags.config.cache_dir.join("crashes"),
    );
    let executor = match &flags.bin_dir {
        Some(dir) => BinaryExecutor {
            bin_dir: dir.clone(),
        },
        None => BinaryExecutor::next_to_current_exe(),
    };
    let state = match ServeState::start(flags.config, Arc::new(executor)) {
        Ok(state) => state,
        Err(e) => {
            eprintln!("mab-serve: failed to start: {e}");
            std::process::exit(1);
        }
    };

    signal::install();
    let stop = Arc::new(AtomicBool::new(false));
    let handler_state = Arc::clone(&state);
    let mut server = match http::serve_with(
        &flags.addr,
        "mab-serve-http",
        Arc::clone(&state.http),
        Arc::clone(&stop),
        Arc::new(move |req, conn| api::route(&handler_state, req, conn)),
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("mab-serve: cannot bind {}: {e}", flags.addr);
            std::process::exit(1);
        }
    };
    if !quiet {
        eprintln!(
            "[mab-serve] listening on http://{} (cache {}, {} workers)",
            server.addr(),
            state.config.cache_dir.display(),
            state.config.workers.max(1),
        );
        eprintln!("[mab-serve] POST /jobs to submit; GET /queue for the global view");
    }

    while !signal::requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    if !quiet {
        eprintln!("[mab-serve] shutdown requested; draining in-flight arms");
    }
    // Drain the scheduler first — the HTTP plane keeps answering status
    // queries (submissions get 503) while arms finish — then stop the
    // listener.
    state.shutdown();
    server.shutdown();
    if !quiet {
        eprintln!("[mab-serve] bye");
    }
}
