//! Slow-consumer behavior of the SSE broadcast ring: a client that reads
//! slower than the run publishes must lose events (the publisher never
//! blocks), and the loss must be *accounted* — added to the shared
//! `sse_dropped` counter and announced in-stream with a `: dropped N`
//! comment so the client knows its view has a gap.

use mab_monitor::client::SseClient;
use mab_monitor::http::{serve_with, Handler, HttpStats};
use mab_monitor::sse::stream_ring;
use mab_monitor::EventRing;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(10);

#[test]
fn slow_consumer_drops_are_counted_and_announced() {
    let ring = Arc::new(EventRing::default());
    let clients = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicU64::new(0));

    let handler: Handler = {
        let ring = Arc::clone(&ring);
        let clients = Arc::clone(&clients);
        let dropped = Arc::clone(&dropped);
        Arc::new(move |_req, conn| stream_ring(conn, &ring, &clients, &dropped))
    };
    let mut server = serve_with(
        "127.0.0.1:0",
        "sse-slow-test",
        Arc::new(HttpStats::default()),
        Arc::new(AtomicBool::new(false)),
        handler,
    )
    .unwrap();
    let url = format!("{}/events", server.addr());

    // A deliberately slow reader: it naps between frames, so the socket
    // buffer fills, the streamer blocks on write, and the publisher laps
    // the bounded ring. It stops at the first `: dropped N` announcement.
    let announced = Arc::new(AtomicU64::new(0));
    let reader = {
        let announced = Arc::clone(&announced);
        std::thread::spawn(move || -> u64 {
            let mut client = SseClient::connect(&url, TIMEOUT).unwrap();
            let mut received = 0u64;
            loop {
                match client.next_frame() {
                    Ok(Some(frame)) => {
                        if frame.event == "comment" {
                            if let Some(n) = frame.data.strip_prefix("dropped ") {
                                announced.store(n.trim().parse().unwrap(), Ordering::SeqCst);
                                return received;
                            }
                            continue; // heartbeat
                        }
                        received += 1;
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Ok(None) => return received,
                    Err(e) => panic!("stream died before announcing drops: {e}"),
                }
            }
        })
    };

    // Wait for the subscription so nothing below races the handshake.
    let deadline = Instant::now() + TIMEOUT;
    while clients.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "client never subscribed");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Flood the ring with fat payloads until the streamer records a gap.
    // `publish` must never block, no matter how far behind the reader is.
    let payload = format!("{{\"fill\":\"{}\"}}", "x".repeat(32 * 1024));
    let mut published = 0u64;
    while dropped.load(Ordering::SeqCst) == 0 {
        assert!(
            published < 400_000,
            "published {published} events without the streamer reporting a drop"
        );
        ring.publish("spam", payload.clone());
        published += 1;
    }

    let received = reader.join().unwrap();
    let counted = dropped.load(Ordering::SeqCst);
    let told = announced.load(Ordering::SeqCst);
    assert!(counted > 0, "shared sse_dropped counter never moved");
    assert!(told > 0, "no `: dropped N` comment reached the client");
    assert!(
        told <= counted,
        "announced {told} drops but counter holds {counted}"
    );
    // Lossy by design: the slow client saw strictly fewer events than were
    // published, and the gap it was told about covers the shortfall bound.
    assert!(
        received < published,
        "slow client somehow received all {published} events"
    );
    server.shutdown();
}
