//! The one record codec every JSON artifact reads and writes through:
//! JSON-lines streams (telemetry, cohort traces, heartbeat, ledger,
//! series exports, diagnosis trails, bt-traces) via [`write_line`] / [`read_lines`], and whole
//! documents (manifests, profile reports, `run.status.json`, bundle
//! files) via [`write_doc`] / [`read_doc`]. A line is written in one
//! `write_all`, so a crash can cut a record short but never glue two
//! together; readers take complete lines only. Malformed input is
//! `ErrorKind::InvalidData`, which the CLI maps to exit 2. Format rules
//! (a stream's header, a document's schema version) stay with each
//! format's module.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

fn invalid(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// Writes `record` as one compact JSON line (record plus `\n`) in a
/// single `write_all`.
///
/// # Errors
///
/// Propagates writer failures; serializer errors map to
/// `ErrorKind::InvalidData`.
pub fn write_line<W: Write + ?Sized, T: Serialize + ?Sized>(
    writer: &mut W,
    record: &T,
) -> std::io::Result<()> {
    let mut line = serde_json::to_string(record)
        .map_err(|e| invalid(e.to_string()))?
        .into_bytes();
    line.push(b'\n');
    writer.write_all(&line)
}

/// Reads every complete record of a JSON-lines stream, in order.
/// `stream` names the stream in error messages (`"ledger"`,
/// `"telemetry"`, …).
///
/// # Errors
///
/// Propagates reader failures; a complete line that does not parse as a
/// `T` is `ErrorKind::InvalidData` naming `stream` and the 1-based line
/// number. A trailing partial line is never an error.
pub fn read_lines<T: Deserialize, R: BufRead>(
    mut reader: R,
    stream: &str,
) -> std::io::Result<Vec<T>> {
    let mut records = Vec::new();
    let mut line = Vec::new();
    let mut number = 0usize;
    loop {
        line.clear();
        reader.read_until(b'\n', &mut line)?;
        // No terminating newline: end of input, or an in-flight write.
        if line.last() != Some(&b'\n') {
            return Ok(records);
        }
        number += 1;
        if line.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        let record = serde_json::from_slice(&line)
            .map_err(|e| invalid(format!("{stream} line {number}: {e}")))?;
        records.push(record);
    }
}

/// Writes `doc` as pretty JSON plus `\n` to `path`, creating parent
/// directories, via a `<path>.tmp` sibling renamed into place.
///
/// # Errors
///
/// Propagates filesystem failures; serializer errors map to
/// `ErrorKind::InvalidData`.
pub fn write_doc<T: Serialize + ?Sized>(path: &Path, doc: &T) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut text = serde_json::to_string_pretty(doc).map_err(|e| invalid(e.to_string()))?;
    text.push('\n');
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Reads a whole JSON document from `path`.
///
/// # Errors
///
/// A missing file is `ErrorKind::NotFound`; a torn, empty or otherwise
/// unparsable document is `ErrorKind::InvalidData`. Every error names
/// the path.
pub fn read_doc<T: Deserialize>(path: &Path) -> std::io::Result<T> {
    let named = |kind, e: &dyn std::fmt::Display| {
        std::io::Error::new(kind, format!("{}: {e}", path.display()))
    };
    let bytes = std::fs::read(path).map_err(|e| named(e.kind(), &e))?;
    serde_json::from_slice(&bytes).map_err(|e| named(std::io::ErrorKind::InvalidData, &e))
}
