//! Unsigned LEB128 varints: compact length prefixes inside lampickle frames.

/// Append `value` to `out` as a LEB128 varint. Returns bytes written (1–10).
pub(crate) fn write_u64(out: &mut Vec<u8>, mut value: u64) -> usize {
    let mut n = 0;
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        n += 1;
        if value == 0 {
            out.push(byte);
            return n;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a varint from the front of `input`. Returns `(value, bytes_read)`.
///
/// Fails on truncated input and on encodings longer than 10 bytes (which
/// cannot occur for a `u64` and indicate corruption).
pub(crate) fn read_u64(input: &[u8]) -> Option<(u64, usize)> {
    let mut value: u64 = 0;
    for (i, &byte) in input.iter().enumerate() {
        if i == 10 {
            return None;
        }
        let payload = (byte & 0x7F) as u64;
        // The 10th byte may only contribute one bit.
        if i == 9 && payload > 1 {
            return None;
        }
        value |= payload << (7 * i);
        if byte & 0x80 == 0 {
            return Some((value, i + 1));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_edges() {
        for v in [0u64, 1, 127, 128, 300, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            let n = write_u64(&mut buf, v);
            assert_eq!(buf.len(), n);
            let (back, read) = read_u64(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(read, n);
        }
    }

    #[test]
    fn single_byte_values() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 127);
        assert_eq!(buf, vec![0x7F]);
    }

    #[test]
    fn truncated_fails() {
        assert_eq!(read_u64(&[0x80]), None);
        assert_eq!(read_u64(&[]), None);
    }

    #[test]
    fn overlong_fails() {
        // 11 continuation bytes can never be a valid u64.
        let bad = vec![0xFF; 11];
        assert_eq!(read_u64(&bad), None);
        // 10th byte carrying more than 1 bit overflows u64.
        let mut bad2 = vec![0xFF; 9];
        bad2.push(0x7F);
        assert_eq!(read_u64(&bad2), None);
    }

    #[test]
    fn reads_only_prefix() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 300);
        buf.extend_from_slice(b"tail");
        let (v, n) = read_u64(&buf).unwrap();
        assert_eq!(v, 300);
        assert_eq!(&buf[n..], b"tail");
    }
}
