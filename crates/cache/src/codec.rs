//! Minimal little-endian binary codec for cache payloads.
//!
//! Every multi-byte value is little-endian and `usize`-free, so payloads
//! written on one host decode identically on any other. [`Reader`] is
//! fully `Option`-based: a truncated or malformed payload decodes to
//! `None` and the caller treats the entry as a miss — defense in depth on
//! top of the store's whole-payload checksum.

/// Append-only payload builder.
#[derive(Default, Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Consumes the writer, returning the encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `u64`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// Cursor over an encoded payload; every getter returns `None` past the
/// end or on malformed data instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// True once every byte has been consumed.
    pub fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Option<u64> {
        let s = self.take(8)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(s);
        Some(u64::from_le_bytes(w))
    }

    /// Reads an `f64` by bit pattern.
    pub fn get_f64(&mut self) -> Option<f64> {
        self.get_u64().map(f64::from_bits)
    }

    /// Reads a `u64` that must fit a `usize` on this host.
    pub fn get_len(&mut self) -> Option<usize> {
        usize::try_from(self.get_u64()?).ok()
    }

    /// Reads a `u64`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Option<&'a str> {
        let len = self.get_len()?;
        std::str::from_utf8(self.take(len)?).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = Writer::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-0.5);
        w.put_str("text");
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8(), Some(0xAB));
        assert_eq!(r.get_u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.get_u64(), Some(0x0123_4567_89AB_CDEF));
        assert_eq!(r.get_f64(), Some(-0.5));
        assert_eq!(r.get_str(), Some("text"));
        assert!(r.finished());
    }

    #[test]
    fn truncated_reads_return_none() {
        let mut w = Writer::new();
        w.put_u64(7);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert_eq!(r.get_u64(), None);
    }

    #[test]
    fn oversized_length_prefix_is_malformed() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_str(), None);
    }
}
