//! A client streaming an endless request line is refused with an error
//! status instead of growing the server's buffer, and the server keeps
//! answering other clients.

use mab_monitor::{client, Monitor, RunInfo, DEFAULT_ADDR};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

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
