//! The w3newer threshold configuration (Table 1 of the paper).
//!
//! ```text
//! # Comments start with a sharp sign.
//! # perl syntax requires that "." be escaped
//! # Default is equivalent to ending the file with ".*"
//! Default                                          2d
//! file:.*                                          0
//! http://www\.yahoo\.com/.*                        7d
//! http://.*\.att\.com/.*                           0
//! http://www\.ncsa\.uiuc\.edu/SDG/Software/Mosaic/Docs/whats-new\.html  12h
//! http://snapple\.cs\.washington\.edu:600/mobile/  1d
//! # this is in my hotlist but will be different every day
//! http://www\.unitedmedia\.com/comics/dilbert/     never
//! ```
//!
//! "Thresholds are specified as combinations of days (d) and hours (h),
//! with 0 indicating that a page should be checked on every run of
//! w3newer and never indicating that it should never be checked...
//! The first matching pattern is used."

use aide_util::pattern::{Pattern, PatternError};
use aide_util::time::{Duration, DurationParseError};
use std::fmt;

/// A per-pattern polling threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threshold {
    /// Check at most every `Duration` (zero = every run).
    Every(Duration),
    /// Never check this URL.
    Never,
}

impl Threshold {
    /// The "check on every run" threshold.
    pub const ALWAYS: Threshold = Threshold::Every(Duration::ZERO);
}

impl fmt::Display for Threshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Threshold::Every(d) => write!(f, "{d}"),
            Threshold::Never => write!(f, "never"),
        }
    }
}

/// One configuration rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// The URL pattern.
    pub pattern: Pattern,
    /// The threshold applied when the pattern matches.
    pub threshold: Threshold,
}

/// Error from [`ThresholdConfig::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A pattern failed to compile; carries the line number (1-based).
    BadPattern(usize, PatternError),
    /// A threshold failed to parse; carries the line number.
    BadThreshold(usize, DurationParseError),
    /// A line had no threshold column.
    MissingThreshold(usize),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadPattern(n, e) => write!(f, "line {n}: {e}"),
            ConfigError::BadThreshold(n, e) => write!(f, "line {n}: {e}"),
            ConfigError::MissingThreshold(n) => write!(f, "line {n}: missing threshold"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The ordered rule list plus default.
#[derive(Debug, Clone)]
pub struct ThresholdConfig {
    rules: Vec<Rule>,
    default: Threshold,
}

impl Default for ThresholdConfig {
    /// The out-of-the-box default: check everything every run (plain
    /// w3new behaviour — no savings).
    fn default() -> Self {
        ThresholdConfig {
            rules: Vec::new(),
            default: Threshold::ALWAYS,
        }
    }
}

impl ThresholdConfig {
    /// Builds a config programmatically.
    pub fn new(default: Threshold) -> ThresholdConfig {
        ThresholdConfig {
            rules: Vec::new(),
            default,
        }
    }

    /// Appends a rule (builder style). Rules match in insertion order.
    pub fn rule(mut self, pattern: &str, threshold: Threshold) -> Result<Self, PatternError> {
        self.rules.push(Rule {
            pattern: Pattern::new(pattern)?,
            threshold,
        });
        Ok(self)
    }

    /// Parses the configuration file format.
    ///
    /// # Examples
    ///
    /// ```
    /// use aide_w3newer::config::{Threshold, ThresholdConfig};
    /// use aide_util::time::Duration;
    ///
    /// let cfg = ThresholdConfig::parse(
    ///     "# comment\nDefault 2d\nfile:.* 0\nhttp://www\\.yahoo\\.com/.* 7d\n",
    /// ).unwrap();
    /// assert_eq!(cfg.threshold_for("file:/etc/motd"), Threshold::ALWAYS);
    /// assert_eq!(
    ///     cfg.threshold_for("http://www.yahoo.com/x"),
    ///     Threshold::Every(Duration::days(7))
    /// );
    /// assert_eq!(
    ///     cfg.threshold_for("http://other.com/"),
    ///     Threshold::Every(Duration::days(2))
    /// );
    /// ```
    pub fn parse(text: &str) -> Result<ThresholdConfig, ConfigError> {
        let mut cfg = ThresholdConfig::default();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw.find('#') {
                Some(i) => &raw[..i],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let Some(pattern_src) = parts.next() else {
                continue; // unreachable: the trimmed line is non-empty
            };
            let threshold_src = parts.next().ok_or(ConfigError::MissingThreshold(lineno))?;
            let threshold = if threshold_src.eq_ignore_ascii_case("never") {
                Threshold::Never
            } else {
                Threshold::Every(
                    Duration::parse(threshold_src)
                        .map_err(|e| ConfigError::BadThreshold(lineno, e))?,
                )
            };
            if pattern_src == "Default" {
                cfg.default = threshold;
            } else {
                cfg.rules.push(Rule {
                    pattern: Pattern::new(pattern_src)
                        .map_err(|e| ConfigError::BadPattern(lineno, e))?,
                    threshold,
                });
            }
        }
        Ok(cfg)
    }

    /// The threshold for `url`: first matching rule, else the default.
    pub fn threshold_for(&self, url: &str) -> Threshold {
        for rule in &self.rules {
            if rule.pattern.matches(url) {
                return rule.threshold;
            }
        }
        self.default
    }

    /// The default threshold.
    pub fn default_threshold(&self) -> Threshold {
        self.default
    }

    /// Number of explicit rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if only the default applies.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The exact configuration of Table 1, as a parsable string.
    pub fn table1_text() -> &'static str {
        "# Comments start with a sharp sign.\n\
         # perl syntax requires that \".\" be escaped\n\
         # Default is equivalent to ending the file with \".*\"\n\
         Default 2d\n\
         file:.* 0\n\
         http://www\\.yahoo\\.com/.* 7d\n\
         http://.*\\.att\\.com/.* 0\n\
         http://www\\.ncsa\\.uiuc\\.edu/SDG/Software/Mosaic/Docs/whats-new\\.html 12h\n\
         http://snapple\\.cs\\.washington\\.edu:600/mobile/ 1d\n\
         # this is in my hotlist but will be different every day\n\
         http://www\\.unitedmedia\\.com/comics/dilbert/ never\n"
    }

    /// The parsed Table 1 configuration.
    ///
    /// # Panics
    ///
    /// Never in practice: the embedded text is tested to parse.
    #[expect(
        clippy::expect_used,
        reason = "the embedded Table 1 text is static and covered by tests; see the documented panic contract"
    )]
    pub fn table1() -> ThresholdConfig {
        ThresholdConfig::parse(Self::table1_text()).expect("Table 1 config parses")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_thresholds_match_the_paper() {
        let cfg = ThresholdConfig::table1();
        assert_eq!(cfg.default_threshold(), Threshold::Every(Duration::days(2)));
        assert_eq!(
            cfg.threshold_for("file:/home/douglis/x.html"),
            Threshold::ALWAYS
        );
        assert_eq!(
            cfg.threshold_for("http://www.yahoo.com/headlines/current/"),
            Threshold::Every(Duration::days(7))
        );
        assert_eq!(
            cfg.threshold_for("http://www.research.att.com/orgs/ssr/"),
            Threshold::ALWAYS
        );
        assert_eq!(
            cfg.threshold_for("http://www.ncsa.uiuc.edu/SDG/Software/Mosaic/Docs/whats-new.html"),
            Threshold::Every(Duration::hours(12))
        );
        assert_eq!(
            cfg.threshold_for("http://snapple.cs.washington.edu:600/mobile/"),
            Threshold::Every(Duration::days(1))
        );
        assert_eq!(
            cfg.threshold_for("http://www.unitedmedia.com/comics/dilbert/"),
            Threshold::Never
        );
        // Unmatched URLs take the default.
        assert_eq!(
            cfg.threshold_for("http://www.usenix.org/"),
            Threshold::Every(Duration::days(2))
        );
    }

    #[test]
    fn first_match_wins() {
        let cfg = ThresholdConfig::new(Threshold::Never)
            .rule("http://a\\.com/.*", Threshold::Every(Duration::days(1)))
            .unwrap()
            .rule("http://a\\.com/special\\.html", Threshold::ALWAYS)
            .unwrap();
        // The broad rule precedes the specific one, so it wins.
        assert_eq!(
            cfg.threshold_for("http://a.com/special.html"),
            Threshold::Every(Duration::days(1))
        );
    }

    #[test]
    fn default_line_anywhere() {
        let cfg = ThresholdConfig::parse("http://x/.* 1d\nDefault 3d\n").unwrap();
        assert_eq!(
            cfg.threshold_for("http://y/"),
            Threshold::Every(Duration::days(3))
        );
    }

    #[test]
    fn comments_and_blanks() {
        let cfg = ThresholdConfig::parse("\n# full comment\nhttp://x/ 1d # trailing\n\n").unwrap();
        assert_eq!(cfg.len(), 1);
        assert_eq!(
            cfg.threshold_for("http://x/"),
            Threshold::Every(Duration::days(1))
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        assert!(matches!(
            ThresholdConfig::parse("http://x/\n"),
            Err(ConfigError::MissingThreshold(1))
        ));
        assert!(matches!(
            ThresholdConfig::parse("# ok\nhttp://x/ 2q\n"),
            Err(ConfigError::BadThreshold(2, _))
        ));
        assert!(matches!(
            ThresholdConfig::parse("(unclosed 1d\n"),
            Err(ConfigError::BadPattern(1, _))
        ));
    }

    #[test]
    fn never_is_case_insensitive() {
        let cfg = ThresholdConfig::parse("http://x/ NEVER\n").unwrap();
        assert_eq!(cfg.threshold_for("http://x/"), Threshold::Never);
    }

    #[test]
    fn empty_config_checks_everything() {
        let cfg = ThresholdConfig::default();
        assert!(cfg.is_empty());
        assert_eq!(cfg.threshold_for("http://anything/"), Threshold::ALWAYS);
    }

    #[test]
    fn threshold_display() {
        assert_eq!(Threshold::Every(Duration::days(2)).to_string(), "2d");
        assert_eq!(Threshold::Never.to_string(), "never");
        assert_eq!(Threshold::ALWAYS.to_string(), "0");
    }
}
