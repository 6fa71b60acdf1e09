//! `RUST_LOG`-style level filtering.

use tracing::Level;

/// A parsed filter of the form `directive[,directive...]` where each
/// directive is either a bare level (`info`, `off`, ...) setting the
/// default, or `target-prefix=level` overriding it for one module tree
/// (longest matching prefix wins).
///
/// Examples: `info`, `debug,bt_obs=off`, `warn,bt_swarm::round=debug`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvFilter {
    default: Option<Level>,
    directives: Vec<(String, Option<Level>)>,
}

impl EnvFilter {
    /// Parses a filter string. Empty input means "use `default_level`".
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed directive.
    pub fn parse(text: &str, default_level: Option<Level>) -> Result<EnvFilter, String> {
        let mut filter = EnvFilter {
            default: default_level,
            directives: Vec::new(),
        };
        for raw in text.split(',') {
            let directive = raw.trim();
            if directive.is_empty() {
                continue;
            }
            match directive.split_once('=') {
                Some((target, level_text)) => {
                    let target = target.trim();
                    if target.is_empty() {
                        return Err(format!("empty target in log directive `{directive}`"));
                    }
                    let level = parse_level(level_text.trim())
                        .ok_or_else(|| format!("unknown log level in `{directive}`"))?;
                    filter.directives.push((target.to_string(), level));
                }
                None => {
                    filter.default = parse_level(directive)
                        .ok_or_else(|| format!("unknown log level `{directive}`"))?;
                }
            }
        }
        // Longest prefix first, so the first match below is the winner.
        filter
            .directives
            .sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(&b.0)));
        Ok(filter)
    }

    /// The coarsest level any directive admits — the global fast-path
    /// gate handed to `tracing`. `None` means everything is off.
    #[must_use]
    pub fn max_level(&self) -> Option<Level> {
        self.directives
            .iter()
            .filter_map(|(_, level)| *level)
            .chain(self.default)
            .max()
    }

    /// Whether an event at `level` from `target` passes the filter.
    #[must_use]
    pub fn enabled(&self, level: Level, target: &str) -> bool {
        let effective = self
            .directives
            .iter()
            .find(|(prefix, _)| target_matches(target, prefix))
            .map_or(self.default, |(_, lvl)| *lvl);
        effective.is_some_and(|max| level <= max)
    }
}

/// A directive prefix matches a target on module-path boundaries:
/// `bt_swarm` matches `bt_swarm` and `bt_swarm::round` but not
/// `bt_swarmx`.
fn target_matches(target: &str, prefix: &str) -> bool {
    target
        .strip_prefix(prefix)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with("::"))
}

fn parse_level(text: &str) -> Option<Option<Level>> {
    Level::parse(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_level_sets_default() {
        let filter = EnvFilter::parse("debug", Some(Level::Info)).unwrap();
        assert!(filter.enabled(Level::Debug, "anything"));
        assert!(!filter.enabled(Level::Trace, "anything"));
        assert_eq!(filter.max_level(), Some(Level::Debug));
    }

    #[test]
    fn empty_uses_fallback_default() {
        let filter = EnvFilter::parse("", Some(Level::Warn)).unwrap();
        assert!(filter.enabled(Level::Warn, "x"));
        assert!(!filter.enabled(Level::Info, "x"));
    }

    #[test]
    fn per_target_overrides() {
        let filter = EnvFilter::parse("info,bt_swarm=off,bt_swarm::round=trace", None).unwrap();
        assert!(!filter.enabled(Level::Error, "bt_swarm"));
        assert!(!filter.enabled(Level::Error, "bt_swarm::doctor"));
        assert!(filter.enabled(Level::Trace, "bt_swarm::round"));
        assert!(filter.enabled(Level::Info, "btlab"));
        assert!(!filter.enabled(Level::Debug, "btlab"));
        assert_eq!(filter.max_level(), Some(Level::Trace));
    }

    #[test]
    fn prefix_matching_respects_path_boundaries() {
        let filter = EnvFilter::parse("off,bt_swarm=info", None).unwrap();
        assert!(filter.enabled(Level::Info, "bt_swarm::round"));
        assert!(!filter.enabled(Level::Error, "bt_swarmx"));
    }

    #[test]
    fn longest_prefix_wins() {
        let filter = EnvFilter::parse("bt_swarm=warn,bt_swarm::round=debug", None).unwrap();
        assert!(filter.enabled(Level::Debug, "bt_swarm::round::exchange"));
        assert!(!filter.enabled(Level::Debug, "bt_swarm::metrics"));
    }

    #[test]
    fn all_off_has_no_max_level() {
        let filter = EnvFilter::parse("off", Some(Level::Info)).unwrap();
        assert_eq!(filter.max_level(), None);
        assert!(!filter.enabled(Level::Error, "x"));
    }

    #[test]
    fn malformed_directives_error() {
        assert!(EnvFilter::parse("verbose", None).is_err());
        assert!(EnvFilter::parse("bt_swarm=loud", None).is_err());
        assert!(EnvFilter::parse("=info", None).is_err());
    }
}
