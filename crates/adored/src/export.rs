//! Streaming trace export: a node's journal files, live over TCP.
//!
//! The journal files are the stream. A node can serve them on a
//! side-channel socket, one `[len][crc32][JSON]` frame per journal line
//! — the data plane's wire codec around the very bytes the journal
//! wrote. Every subscriber gets its own thread, which sends each
//! `journal-*.jsonl` in the node's data dir in boot order:
//!
//! - an earlier boot's file in full, every line that parses — all of
//!   them but a last line torn by a kill -9, which is exactly what
//!   [`adore_obs::merge_journals`] keeps;
//! - then this boot's file, followed as it grows, complete lines only.
//!
//! So whenever a subscriber connects, and to whichever boot, its stream
//! is the node's journal files concatenated: nothing is shed and
//! nothing is held in memory. A slow subscriber stalls only its own
//! thread, and the lines a killed node wrote but never sent are in its
//! file for the next boot to send.
//!
//! The consumer half ([`ExportReader`]) reads frames through its own
//! buffer with a poll timeout, so a silent stream (a SIGSTOPped node)
//! is distinguishable from a dead one.

use std::fs;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::thread;
use std::time::Duration;

use adore_obs::TraceEvent;

use crate::det::msg::decode_msg;
use crate::det::wire;

/// How long a subscriber thread waits at the end of this boot's file
/// before looking for new lines.
const FOLLOW_POLL: Duration = Duration::from_millis(20);

/// Read-poll timeout on the consumer side.
const READ_POLL: Duration = Duration::from_millis(200);

/// The journal file of the boot that started at `boot_us`.
#[must_use]
pub fn journal_path(dir: &Path, boot_us: u64) -> PathBuf {
    dir.join(format!("journal-{boot_us}.jsonl"))
}

/// Every journal file in `dir`, in boot order (by name: boot stamps of
/// one era have the same number of digits).
///
/// # Errors
///
/// The directory cannot be read.
pub fn journal_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("journal-") && n.ends_with(".jsonl"))
        })
        .collect();
    files.sort();
    Ok(files)
}

/// Binds the export listener and serves every subscriber the journal
/// files of `dir`, following this boot's ([`journal_path`] of
/// `boot_us`) as it grows. Returns the bound address.
///
/// # Errors
///
/// Socket bind failure.
pub fn serve(dir: &Path, boot_us: u64, addr: &str) -> io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let (dir, current) = (dir.to_path_buf(), journal_path(dir, boot_us));
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let (dir, current) = (dir.clone(), current.clone());
            // A subscriber that hangs up ends its thread; nothing else
            // is owed it.
            thread::spawn(move || drop(send_journals(stream, &dir, &current)));
        }
    });
    Ok(local)
}

/// One subscriber: the earlier boots' files, then `current` followed
/// until the subscriber hangs up (or the node exits).
fn send_journals(mut stream: TcpStream, dir: &Path, current: &Path) -> io::Result<()> {
    stream.set_nodelay(true)?;
    // The subscriber never writes: a read is the follow loop's pause
    // and its hang-up detector at once.
    stream.set_read_timeout(Some(FOLLOW_POLL))?;
    for file in journal_files(dir)?
        .iter()
        .filter(|f| f.as_path() != current)
    {
        let mut text = fs::read(file)?;
        text.push(b'\n'); // the last line counts whether or not it ended
        send_lines(&mut stream, &mut text)?;
    }
    let mut file = fs::File::open(current)?;
    let mut pending = Vec::new();
    loop {
        if file.read_to_end(&mut pending)? > 0 {
            send_lines(&mut stream, &mut pending)?;
            continue;
        }
        match stream.read(&mut [0u8; 64]) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Frames and sends every complete line of `buf` that parses as an
/// event, leaving the unterminated rest in `buf`.
fn send_lines(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<()> {
    let Some(end) = buf.iter().rposition(|&b| b == b'\n') else {
        return Ok(());
    };
    let mut frames = Vec::new();
    for line in buf[..end].split(|&b| b == b'\n').map(<[u8]>::trim_ascii) {
        if decode_msg::<TraceEvent>(line).is_ok() {
            let frame = wire::encode_frame(line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            frames.extend_from_slice(&frame);
        }
    }
    buf.drain(..=end);
    stream.write_all(&frames)
}

/// The consumer half: connects to a node's export socket and yields
/// decoded [`TraceEvent`]s.
#[derive(Debug)]
pub struct ExportReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl ExportReader {
    /// Dials an export socket.
    ///
    /// # Errors
    ///
    /// Connection failure (the node may not be up yet — redial).
    pub fn connect(addr: &str) -> io::Result<ExportReader> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(READ_POLL));
        Ok(ExportReader {
            stream,
            buf: Vec::new(),
        })
    }

    /// The next event, if one is available within the poll timeout.
    ///
    /// `Ok(None)` means "nothing yet, stream alive" — a silent or
    /// paused node, not a dead one.
    ///
    /// # Errors
    ///
    /// A dead link (EOF, reset) or an undecodable frame; either way
    /// the stream is done and the caller should redial (a restarted
    /// node serves its journal files from the first boot again).
    pub fn poll_event(&mut self) -> io::Result<Option<TraceEvent>> {
        loop {
            match wire::split_frame(&self.buf) {
                Ok(Some((payload, used))) => {
                    let ev = decode_msg::<TraceEvent>(payload)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                    self.buf.drain(..used);
                    return Ok(Some(ev));
                }
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "export stream closed",
                    ));
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det::msg::encode_msg;
    use adore_obs::EventKind;

    fn ev(at_us: u64, nid: u32) -> TraceEvent {
        TraceEvent::root(at_us, EventKind::WalSync { nid })
    }

    /// The export frame is the data-plane codec applied to the pinned
    /// event JSON — pin the exact bytes so an exporter drift breaks
    /// loudly.
    #[test]
    fn export_frame_bytes_are_pinned() {
        let event = TraceEvent::root(7, EventKind::MetricsScrape { nid: 2, series: 3 });
        let frame = encode_msg(&event).expect("encodes");
        let payload =
            br#"{"seq":0,"at_us":7,"parent":null,"kind":{"MetricsScrape":{"nid":2,"series":3}}}"#;
        assert_eq!(&frame[wire::HEADER..], payload.as_slice());
        let header: [u8; wire::HEADER] = frame[..wire::HEADER].try_into().expect("header width");
        let (len, crc) = wire::decode_header(&header).expect("header");
        assert_eq!(len, payload.len());
        wire::verify_payload(payload, crc).expect("crc of pinned payload");
        let back: TraceEvent = decode_msg(&frame[wire::HEADER..]).expect("decodes");
        assert_eq!(back, event);
    }

    /// A late subscriber gets the boot's history from the file, then
    /// its live tail as whole lines appear.
    #[test]
    fn served_stream_replays_history_then_streams_live() {
        let dir = std::env::temp_dir().join(format!("adored-export-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let line = |e: &TraceEvent| serde_json::to_string(e).expect("encodes") + "\n";
        let path = journal_path(&dir, 5);
        fs::write(&path, line(&ev(10, 3)) + &line(&ev(20, 3))).expect("history");
        let addr = serve(&dir, 5, "127.0.0.1:0").expect("bind").to_string();

        let mut reader = ExportReader::connect(&addr).expect("connect");
        let mut next = || loop {
            if let Some(e) = reader.poll_event().expect("alive") {
                return e;
            }
        };
        assert_eq!(
            (next(), next()),
            (ev(10, 3), ev(20, 3)),
            "the boot's history"
        );
        // A line lands in two writes: nothing is sent until it ends.
        let tail = line(&ev(30, 3));
        let (head, rest) = tail.split_at(9);
        let mut file = fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("open");
        file.write_all(head.as_bytes()).expect("append");
        thread::sleep(FOLLOW_POLL * 3);
        file.write_all(rest.as_bytes()).expect("append");
        assert_eq!(next(), ev(30, 3), "the live tail, whole");
        let _ = fs::remove_dir_all(&dir);
    }
}
