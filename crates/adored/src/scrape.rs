//! The `/metrics` scrape endpoint: read-only Prometheus text over TCP.
//!
//! The *only* layer of the runtime where a wall clock and ad-hoc
//! socket I/O are acceptable: scraping observes, it never participates.
//! The engine loop owns the metrics registry, so the endpoint asks it
//! for a snapshot over the inbox and renders what comes back with
//! [`adore_obs::render_prometheus`] (pure, byte-pinned). It answers any
//! request on the socket with one exposition — there is exactly one
//! resource, so the request line is read for politeness and otherwise
//! ignored.
//!
//! A scrape never queues behind the cluster's own traffic: the request
//! is offered with `try_send`, the snapshot is awaited for at most
//! [`SCRAPE_DEADLINE`], and a full inbox or a wedged loop is a `503`.
//! The loop journals a `MetricsScrape` event as it hands the snapshot
//! over — the journal keeps its single writer, and scrapes stay
//! auditable.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::{self, SyncSender};
use std::thread;
use std::time::Duration;

use adore_obs::render_prometheus;

use crate::node::Event;

/// Per-request deadline, on the socket and on the engine loop's answer:
/// a stalled scraper is dropped and a stalled loop is a `503`, neither
/// is waited on.
const SCRAPE_DEADLINE: Duration = Duration::from_secs(2);

/// Binds the scrape listener and serves expositions until the process
/// exits. Returns the bound address. Crate-internal: the endpoint
/// reports into the node's private event loop, so only [`crate::node`]
/// can wire it up.
///
/// # Errors
///
/// Socket bind failure.
pub(crate) fn serve(addr: &str, tx: SyncSender<Event>) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let _ = stream.set_read_timeout(Some(SCRAPE_DEADLINE));
            let _ = stream.set_write_timeout(Some(SCRAPE_DEADLINE));
            // One resource: read (and discard) the request line, then
            // answer with the exposition.
            let mut req = [0u8; 1024];
            let _ = stream.read(&mut req);
            let (reply, snapshot) = mpsc::sync_channel(1);
            let snap = match tx.try_send(Event::Scrape { reply }) {
                Ok(()) => snapshot.recv_timeout(SCRAPE_DEADLINE).ok(),
                Err(_) => None,
            };
            let (status, body) = match snap {
                Some(snap) => ("200 OK", render_prometheus(&snap)),
                None => ("503 Service Unavailable", String::new()),
            };
            let head = format!(
                "HTTP/1.1 {status}\r\ncontent-type: text/plain; version=0.0.4; charset=utf-8\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
                body.len()
            );
            let _ = stream
                .write_all(head.as_bytes())
                .and_then(|()| stream.write_all(body.as_bytes()));
        }
    });
    Ok(local)
}
