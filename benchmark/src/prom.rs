//! Reading a node's `/metrics` endpoint from outside.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// `<name>_sum` and `<name>_count` of one histogram in a Prometheus text
/// exposition.
pub fn histogram_sum_count(text: &str, name: &str) -> Option<(u64, u64)> {
    let sample = |suffix: &str| {
        let key = format!("{name}{suffix}");
        text.lines().find_map(|line| {
            let (k, v) = line.split_once(' ')?;
            (k == key).then(|| v.trim().parse::<u64>().ok())?
        })
    };
    Some((sample("_sum")?, sample("_count")?))
}

/// One scrape of `addr`: the exposition body.
pub fn scrape(addr: &str) -> Result<String, String> {
    let fail = |e: std::io::Error| format!("scrape {addr}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(fail)?;
    let deadline = Some(Duration::from_secs(2));
    stream.set_read_timeout(deadline).map_err(fail)?;
    stream.set_write_timeout(deadline).map_err(fail)?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .map_err(fail)?;
    let mut text = String::new();
    stream.read_to_string(&mut text).map_err(fail)?;
    text.split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .ok_or_else(|| format!("scrape {addr}: no HTTP body"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "# TYPE node_commit_index gauge\n\
        node_commit_index 2001\n\
        # TYPE request_latency_us histogram\n\
        request_latency_us_bucket{le=\"3200\"} 1500\n\
        request_latency_us_bucket{le=\"+Inf\"} 2000\n\
        request_latency_us_sum 7654321\n\
        request_latency_us_count 2000\n";

    #[test]
    fn sum_and_count_of_a_histogram() {
        assert_eq!(
            histogram_sum_count(TEXT, "request_latency_us"),
            Some((7_654_321, 2000))
        );
        assert_eq!(histogram_sum_count(TEXT, "request_latency"), None);
        assert_eq!(histogram_sum_count(TEXT, "node_commit_index"), None);
    }
}
