// Fixture for the suppression pragma: both placement forms, plus the
// malformed variants that become P0 findings.
pub fn recover(buf: &[u8]) {
    let start = head(buf).unwrap(); // adore-lint: allow(L2, reason = "header length checked by the caller")
    // adore-lint: allow(L2, reason = "body was CRC-verified above")
    let m = body(buf).unwrap();
    let s = tail(buf).unwrap();
    consume(start, m, s);
}

pub fn replay(buf: &[u8]) {
    let a = head(buf).unwrap(); // adore-lint: allow(L2)
    // adore-lint: allow(reason = "no rules listed")
    let b = body(buf).unwrap();
    let c = tail(buf).unwrap(); // adore-lint: allow(L2, reason = "")
    consume(a, b, c);
}
