//! Newline-delimited wire frames.
//!
//! One request or response per line. Payloads that may contain newlines
//! (CSV text, multi-line error renderings) travel through [`escape`], which
//! maps `\` → `\\`, LF → `\n` and CR → `\r`, so a frame is always exactly
//! one line and framing can never desynchronise on data.

use std::io::{self, BufRead};

/// Escape a payload so it fits on one line.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + s.len() / 16);
    escape_into(&mut out, s);
    out
}

/// [`escape`], appended to a frame under construction.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    // The three escaped bytes are ASCII, so they never fall inside a
    // multi-byte character: the runs between them are whole `str`s and are
    // copied as such.
    let mut run = 0;
    for (at, byte) in s.bytes().enumerate() {
        let escaped = match byte {
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            _ => continue,
        };
        out.push_str(&s[run..at]);
        out.push_str(escaped);
        run = at + 1;
    }
    out.push_str(&s[run..]);
}

/// Invert [`escape`]. Errors on a dangling or unknown escape.
pub fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => return Err(format!("unknown escape \\{other}")),
            None => return Err("dangling escape at end of frame".to_string()),
        }
    }
    Ok(out)
}

/// Outcome of one [`read_frame`] poll.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete line arrived (without its terminator).
    Frame(String),
    /// The read timed out before a full line arrived; any partial bytes are
    /// retained in the caller's buffer — poll again.
    TimedOut,
    /// The peer closed the connection.
    Closed,
    /// The line exceeded the size limit; framing is lost, close the
    /// connection after reporting.
    TooLong,
}

/// Read one `\n`-terminated frame, tolerating read timeouts (so callers can
/// poll a shutdown flag between attempts) and capping the frame length at
/// `max` bytes. `partial` accumulates bytes across `TimedOut` returns and
/// must be reused verbatim on the next call for the same connection.
pub fn read_frame<R: BufRead>(
    reader: &mut R,
    partial: &mut Vec<u8>,
    max: usize,
) -> io::Result<FrameRead> {
    loop {
        if partial.len() > max {
            return Ok(FrameRead::TooLong);
        }
        let (line_done, used) = {
            let available = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(FrameRead::TimedOut)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                return Ok(FrameRead::Closed);
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    partial.extend_from_slice(&available[..pos]);
                    (true, pos + 1)
                }
                None => {
                    partial.extend_from_slice(available);
                    (false, available.len())
                }
            }
        };
        reader.consume(used);
        if line_done {
            if partial.len() > max {
                return Ok(FrameRead::TooLong);
            }
            let bytes = std::mem::take(partial);
            let mut line = String::from_utf8(bytes).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "frame is not valid UTF-8")
            })?;
            if line.ends_with('\r') {
                line.pop();
            }
            return Ok(FrameRead::Frame(line));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    /// The `char`-by-`char` escape the byte scan replaced, kept as the
    /// reference it is compared against.
    fn reference_escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                c => out.push(c),
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Multi-byte characters sit right beside every escaped byte, and an
        /// `n` or `r` behind a backslash must not read back as an escape.
        #[test]
        fn escape_is_the_reference_escape_and_unescape_inverts_it(
            picks in prop::collection::vec(0usize..10, 0..24),
        ) {
            const PALETTE: [char; 10] = ['\\', '\n', '\r', 'n', 'r', 'a', ',', 'é', '→', '𝄞'];
            let s: String = picks.into_iter().map(|k| PALETTE[k]).collect();
            let escaped = escape(&s);
            prop_assert_eq!(&escaped, &reference_escape(&s));
            prop_assert!(!escaped.contains(['\n', '\r']));
            prop_assert_eq!(unescape(&escaped), Ok(s));
        }
    }

    #[test]
    fn escape_round_trips() {
        for s in ["", "plain", "a,b\nc,d\n", "back\\slash", "\r\n\\n", "q\\nx"] {
            let esc = escape(s);
            assert!(!esc.contains('\n'), "{esc:?} must be one line");
            assert!(!esc.contains('\r'));
            assert_eq!(unescape(&esc).unwrap(), s);
        }
    }

    #[test]
    fn bad_escapes_are_rejected() {
        assert!(unescape("dangling\\").is_err());
        assert!(unescape("bad\\q").is_err());
    }

    #[test]
    fn frames_split_on_newlines() {
        let mut r = BufReader::new(&b"first\nsecond\r\nthird"[..]);
        let mut partial = Vec::new();
        assert!(matches!(
            read_frame(&mut r, &mut partial, 1024).unwrap(),
            FrameRead::Frame(ref f) if f == "first"
        ));
        assert!(matches!(
            read_frame(&mut r, &mut partial, 1024).unwrap(),
            FrameRead::Frame(ref f) if f == "second"
        ));
        // Trailing bytes without a newline: connection closed mid-frame.
        assert!(matches!(
            read_frame(&mut r, &mut partial, 1024).unwrap(),
            FrameRead::Closed
        ));
    }

    #[test]
    fn oversized_frames_are_flagged() {
        let mut r = BufReader::new(&b"0123456789\n"[..]);
        let mut partial = Vec::new();
        assert!(matches!(
            read_frame(&mut r, &mut partial, 4).unwrap(),
            FrameRead::TooLong
        ));
    }
}
