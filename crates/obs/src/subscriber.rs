//! Global subscriber installation: human, JSON-lines, or quiet.

use std::io::Write;
use std::str::FromStr;
use std::time::Duration;

use tracing::{FieldValue, Level, Subscriber};

use crate::filter::EnvFilter;

/// How diagnostics are rendered. Result/figure output on stdout is
/// unaffected by the choice — all diagnostics go to stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogMode {
    /// `[LEVEL target] message key=value ...` lines on stderr.
    #[default]
    Human,
    /// One JSON object per event on stderr (machine-consumable).
    Json,
    /// No diagnostics at all; instrumentation reduces to one atomic
    /// load per call site.
    Quiet,
}

impl FromStr for LogMode {
    type Err = String;

    fn from_str(text: &str) -> Result<LogMode, String> {
        match text.to_ascii_lowercase().as_str() {
            "human" | "text" => Ok(LogMode::Human),
            "json" => Ok(LogMode::Json),
            "quiet" | "off" => Ok(LogMode::Quiet),
            other => Err(format!(
                "unknown log mode `{other}` (expected human, json, or quiet)"
            )),
        }
    }
}

/// Installs the global subscriber. `filter` falls back to the
/// `RUST_LOG` environment variable, then to `info`. Safe to call more
/// than once; only the first install wins (later calls are no-ops, as
/// in integration tests that construct several runs in one process).
///
/// # Errors
///
/// Returns a message if `filter` (or `RUST_LOG`) is malformed.
pub fn init(mode: LogMode, filter: Option<&str>) -> Result<(), String> {
    let text = match filter {
        Some(text) => text.to_string(),
        None => std::env::var("RUST_LOG").unwrap_or_default(),
    };
    let filter = EnvFilter::parse(&text, Some(Level::Info))?;
    let max_level = match mode {
        LogMode::Quiet => None,
        LogMode::Human | LogMode::Json => filter.max_level(),
    };
    let subscriber: Box<dyn Subscriber> = match mode {
        LogMode::Human => Box::new(HumanSubscriber { filter }),
        LogMode::Json => Box::new(JsonSubscriber { filter }),
        LogMode::Quiet => Box::new(QuietSubscriber),
    };
    tracing::set_global_subscriber(subscriber, max_level);
    Ok(())
}

/// [`init`] driven purely by the environment: `BT_LOG` selects the mode
/// (`human` when unset), `RUST_LOG` the filter. Used by bench binaries
/// which take no CLI flags of their own.
///
/// # Errors
///
/// Returns a message if `BT_LOG` or `RUST_LOG` is malformed.
pub fn init_from_env() -> Result<(), String> {
    let mode = match std::env::var("BT_LOG") {
        Ok(text) => text.parse()?,
        Err(_) => LogMode::Human,
    };
    init(mode, None)
}

struct HumanSubscriber {
    filter: EnvFilter,
}

impl Subscriber for HumanSubscriber {
    fn enabled(&self, level: Level, target: &str) -> bool {
        self.filter.enabled(level, target)
    }

    fn event(
        &self,
        level: Level,
        target: &str,
        message: &str,
        fields: &[(&'static str, FieldValue)],
    ) {
        let mut line = format!("[{level:<5} {target}] {message}");
        for (key, value) in fields {
            line.push_str(&format!(" {key}={value}"));
        }
        line.push('\n');
        let _ = std::io::stderr().write_all(line.as_bytes());
    }

    fn span_close(&self, level: Level, target: &str, name: &str, elapsed: Duration) {
        let line = format!(
            "[{level:<5} {target}] {name} closed elapsed_ms={:.3}\n",
            elapsed.as_secs_f64() * 1e3
        );
        let _ = std::io::stderr().write_all(line.as_bytes());
    }
}

struct JsonSubscriber {
    filter: EnvFilter,
}

impl JsonSubscriber {
    fn emit(&self, object: serde_json::Value) {
        let mut line = serde_json::to_string(&object).unwrap_or_default();
        line.push('\n');
        let _ = std::io::stderr().write_all(line.as_bytes());
    }
}

impl Subscriber for JsonSubscriber {
    fn enabled(&self, level: Level, target: &str) -> bool {
        self.filter.enabled(level, target)
    }

    fn event(
        &self,
        level: Level,
        target: &str,
        message: &str,
        fields: &[(&'static str, FieldValue)],
    ) {
        use serde_json::Value;
        let rendered: Vec<(String, Value)> = fields
            .iter()
            .map(|(key, value)| ((*key).to_string(), field_to_json(value)))
            .collect();
        self.emit(Value::Object(vec![
            ("level".to_string(), Value::Str(level.as_str().to_string())),
            ("target".to_string(), Value::Str(target.to_string())),
            ("message".to_string(), Value::Str(message.to_string())),
            ("fields".to_string(), Value::Object(rendered)),
        ]));
    }

    fn span_close(&self, level: Level, target: &str, name: &str, elapsed: Duration) {
        use serde_json::Value;
        self.emit(Value::Object(vec![
            ("level".to_string(), Value::Str(level.as_str().to_string())),
            ("target".to_string(), Value::Str(target.to_string())),
            ("span".to_string(), Value::Str(name.to_string())),
            (
                "elapsed_ms".to_string(),
                Value::Float(elapsed.as_secs_f64() * 1e3),
            ),
        ]));
    }
}

fn field_to_json(value: &FieldValue) -> serde_json::Value {
    use serde_json::Value;
    match value {
        FieldValue::Bool(v) => Value::Bool(*v),
        FieldValue::I64(v) => Value::Int(*v),
        FieldValue::U64(v) => Value::UInt(*v),
        FieldValue::F64(v) => {
            if v.is_finite() {
                Value::Float(*v)
            } else {
                Value::Null
            }
        }
        FieldValue::Str(v) => Value::Str(v.clone()),
    }
}

struct QuietSubscriber;

impl Subscriber for QuietSubscriber {
    fn enabled(&self, _level: Level, _target: &str) -> bool {
        false
    }

    fn event(
        &self,
        _level: Level,
        _target: &str,
        _message: &str,
        _fields: &[(&'static str, FieldValue)],
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_mode_parses() {
        assert_eq!("human".parse::<LogMode>().unwrap(), LogMode::Human);
        assert_eq!("JSON".parse::<LogMode>().unwrap(), LogMode::Json);
        assert_eq!("quiet".parse::<LogMode>().unwrap(), LogMode::Quiet);
        assert!("loud".parse::<LogMode>().is_err());
    }

    #[test]
    fn field_values_render_as_json() {
        assert_eq!(
            field_to_json(&FieldValue::U64(3)),
            serde_json::Value::UInt(3)
        );
        assert_eq!(
            field_to_json(&FieldValue::F64(f64::NAN)),
            serde_json::Value::Null
        );
        assert_eq!(
            field_to_json(&FieldValue::Str("x".into())),
            serde_json::Value::Str("x".into())
        );
    }

    // The quiet subscriber must reject everything so stdout/stderr stay
    // untouched in benchmark runs.
    #[test]
    fn quiet_subscriber_rejects_all() {
        let quiet = QuietSubscriber;
        assert!(!quiet.enabled(Level::Error, "bt_swarm"));
    }
}
