//! A client streaming an endless request line is refused with an error
//! status instead of growing the server's buffer, clients trickling a
//! request hold a connection slot no longer than the request deadline, and
//! the server keeps answering other clients.

use mab_monitor::{client, Monitor, RunInfo, DEFAULT_ADDR, MAX_CONNECTIONS, REQUEST_DEADLINE};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(10);

#[test]
fn unterminated_request_line_is_refused_and_healthz_still_answers() {
    let monitor = Monitor::start(DEFAULT_ADDR, RunInfo::default()).unwrap();
    let mut stream = TcpStream::connect(monitor.addr()).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    // 1 MiB with no line break; the server refuses it after the cap.
    let line = vec![b'a'; 1 << 20];
    stream.write_all(b"GET /").unwrap();
    let _ = stream.write_all(&line);
    let mut answer = String::new();
    let _ = stream.read_to_string(&mut answer);
    assert!(
        answer.starts_with("HTTP/1.1 414 "),
        "unexpected answer: {answer:?}"
    );

    let health = client::get(&format!("{}/healthz", monitor.url()), TIMEOUT).unwrap();
    assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));
    monitor.shutdown();
}

/// Sends one byte of an endless request line a second (far inside the
/// per-read timeout) until the server closes the connection; returns how
/// long after connecting that was.
fn trickle(stream: &mut TcpStream, connected: Instant) -> Duration {
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let mut byte = [0u8; 1];
    for &b in b"GET /".iter().chain(std::iter::repeat(&b'a')) {
        if stream.write_all(&[b]).is_err() {
            break;
        }
        match stream.read(&mut byte) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            // End of stream or a reset: the server hung up.
            _ => break,
        }
        assert!(connected.elapsed() < 3 * REQUEST_DEADLINE, "never dropped");
    }
    connected.elapsed()
}

#[test]
fn trickling_clients_are_dropped_at_the_request_deadline() {
    let monitor = Monitor::start(DEFAULT_ADDR, RunInfo::default()).unwrap();
    let url = format!("{}/healthz", monitor.url());
    let all_connected = Barrier::new(MAX_CONNECTIONS + 1);
    let held = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..MAX_CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut stream = TcpStream::connect(monitor.addr()).unwrap();
                    let connected = Instant::now();
                    all_connected.wait();
                    trickle(&mut stream, connected)
                })
            })
            .collect();
        all_connected.wait();
        // Every slot is held: the server turns the next client away.
        let _ = client::get(&url, TIMEOUT);
        let rejected = monitor.state().http.rejected_conns.load(Ordering::Relaxed);
        assert_eq!(rejected, 1, "the trickling clients hold every slot");
        clients
            .into_iter()
            .map(|c| c.join().unwrap())
            .collect::<Vec<_>>()
    });
    for held in held {
        assert!(
            held >= REQUEST_DEADLINE && held < REQUEST_DEADLINE + Duration::from_secs(3),
            "a trickling client held its slot for {held:?}"
        );
    }
    let health = client::get(&url, TIMEOUT).unwrap();
    assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));
    monitor.shutdown();
}
