//! JSON-lines trace serialization.
//!
//! One trace per line, so collections stream and append naturally — the
//! format an instrumented client would log to disk. Lines go through the
//! workspace's record codec ([`bt_obs::records`]), as every other stream
//! does: a final line cut mid-write is skipped, and a complete line that
//! does not parse is `ErrorKind::InvalidData`.

use std::io::{BufRead, Write};

use bt_obs::records::{read_lines, write_line};

use crate::record::Trace;
use crate::Result;

/// Writes traces as JSON lines. A `&mut` reference can be passed as the
/// writer.
///
/// # Errors
///
/// I/O or serialization failures.
///
/// # Example
///
/// ```
/// use bt_traces::io::{read_traces, write_traces};
/// use bt_traces::{Trace, TraceSample};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let traces = vec![Trace {
///     client: "c1".into(),
///     swarm: "alpha".into(),
///     piece_bytes: 262_144,
///     pieces: 200,
///     completed: true,
///     samples: vec![TraceSample { t: 0.0, bytes: 0, potential: 0 }],
/// }];
/// let mut buf = Vec::new();
/// write_traces(&mut buf, &traces)?;
/// let back = read_traces(buf.as_slice())?;
/// assert_eq!(traces, back);
/// # Ok(())
/// # }
/// ```
pub fn write_traces<W: Write>(mut writer: W, traces: &[Trace]) -> Result<()> {
    for trace in traces {
        write_line(&mut writer, trace)?;
    }
    writer.flush()?;
    Ok(())
}

/// Reads the complete traces of a JSON-lines stream, validating each.
/// Blank lines and a final unterminated line are skipped. A `&mut`
/// reference can be passed as the reader.
///
/// # Errors
///
/// I/O failures; a complete line that does not parse is an
/// `ErrorKind::InvalidData` [`Error::Io`](crate::Error::Io); a trace
/// that fails [`Trace::validate`] is [`Error::InvalidTrace`](crate::Error::InvalidTrace).
pub fn read_traces<R: BufRead>(reader: R) -> Result<Vec<Trace>> {
    let traces: Vec<Trace> = read_lines(reader, "traces")?;
    for trace in &traces {
        trace.validate()?;
    }
    Ok(traces)
}

/// Writes traces to a file path.
///
/// # Errors
///
/// Same conditions as [`write_traces`].
pub fn write_traces_to_path<P: AsRef<std::path::Path>>(path: P, traces: &[Trace]) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_traces(std::io::BufWriter::new(file), traces)
}

/// Reads traces from a file path.
///
/// # Errors
///
/// Same conditions as [`read_traces`].
pub fn read_traces_from_path<P: AsRef<std::path::Path>>(path: P) -> Result<Vec<Trace>> {
    let file = std::fs::File::open(path)?;
    read_traces(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceSample;

    fn trace(client: &str) -> Trace {
        Trace {
            client: client.into(),
            swarm: "test".into(),
            piece_bytes: 10,
            pieces: 5,
            completed: false,
            samples: vec![
                TraceSample {
                    t: 0.0,
                    bytes: 0,
                    potential: 1,
                },
                TraceSample {
                    t: 1.0,
                    bytes: 20,
                    potential: 2,
                },
            ],
        }
    }

    #[test]
    fn round_trip_multiple() {
        let traces = vec![trace("a"), trace("b"), trace("c")];
        let mut buf = Vec::new();
        write_traces(&mut buf, &traces).unwrap();
        assert_eq!(read_traces(buf.as_slice()).unwrap(), traces);
    }

    #[test]
    fn blank_lines_skipped() {
        let mut buf = Vec::new();
        write_traces(&mut buf, &[trace("a")]).unwrap();
        buf.extend_from_slice(b"\n\n");
        write_traces(&mut buf, &[trace("b")]).unwrap();
        assert_eq!(read_traces(buf.as_slice()).unwrap().len(), 2);
    }

    #[test]
    fn malformed_line_errors() {
        let result = read_traces(b"{not json}\n".as_slice());
        assert!(
            matches!(&result, Err(crate::Error::Io(e)) if e.kind() == std::io::ErrorKind::InvalidData),
            "{result:?}"
        );
    }

    #[test]
    fn torn_final_line_is_skipped() {
        let mut buf = Vec::new();
        write_traces(&mut buf, &[trace("a"), trace("b")]).unwrap();
        let torn = &buf[..buf.len() - 10];
        assert_eq!(read_traces(torn).unwrap(), vec![trace("a")]);
    }

    #[test]
    fn invalid_trace_rejected_on_read() {
        // Bytes regress; serialization succeeds but validation must fail.
        let mut bad = trace("bad");
        bad.samples[1].bytes = 0;
        bad.samples[0].bytes = 20;
        let mut buf = Vec::new();
        write_traces(&mut buf, &[bad]).unwrap();
        assert!(matches!(
            read_traces(buf.as_slice()),
            Err(crate::Error::InvalidTrace(_))
        ));
    }

    #[test]
    fn path_round_trip() {
        let dir = std::env::temp_dir().join("bt-traces-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("traces.jsonl");
        let traces = vec![trace("x")];
        write_traces_to_path(&path, &traces).unwrap();
        assert_eq!(read_traces_from_path(&path).unwrap(), traces);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_input_reads_empty() {
        assert!(read_traces(b"".as_slice()).unwrap().is_empty());
    }
}
