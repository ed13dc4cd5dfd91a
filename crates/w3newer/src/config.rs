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
//!
//! The file is a [`Rules`] list over [`Threshold`] values: the pattern
//! syntax, comments, `Default` line and first-match lookup are the
//! shared `aide_util::pattern::Rules` ones, and this module adds only
//! the threshold column (`2d`, `12h`, `0`, or `never` in any case).

use aide_util::pattern::Rules;
use aide_util::time::{Duration, DurationParseError};
use std::fmt;
use std::str::FromStr;

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

impl Default for Threshold {
    /// Check every run (plain w3new behaviour — no savings).
    fn default() -> Self {
        Threshold::ALWAYS
    }
}

impl FromStr for Threshold {
    type Err = DurationParseError;

    /// Parses `never` (any case) or a duration such as `2d` or `12h`.
    fn from_str(s: &str) -> Result<Threshold, DurationParseError> {
        if s.eq_ignore_ascii_case("never") {
            Ok(Threshold::Never)
        } else {
            Duration::parse(s).map(Threshold::Every)
        }
    }
}

impl fmt::Display for Threshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Threshold::Every(d) => write!(f, "{d}"),
            Threshold::Never => write!(f, "never"),
        }
    }
}

/// The threshold file: ordered pattern rules plus the `Default`
/// threshold. `ThresholdConfig::default()` checks everything every run.
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
/// assert_eq!(cfg.lookup("file:/etc/motd"), Threshold::ALWAYS);
/// assert_eq!(cfg.lookup("http://www.yahoo.com/x"), Threshold::Every(Duration::days(7)));
/// assert_eq!(cfg.lookup("http://other.com/"), Threshold::Every(Duration::days(2)));
/// ```
pub type ThresholdConfig = Rules<Threshold>;

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
    ThresholdConfig::parse(table1_text()).expect("Table 1 config parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_thresholds_match_the_paper() {
        let cfg = table1();
        assert_eq!(cfg.fallback(), Threshold::Every(Duration::days(2)));
        assert_eq!(cfg.lookup("file:/home/douglis/x.html"), Threshold::ALWAYS);
        assert_eq!(
            cfg.lookup("http://www.yahoo.com/headlines/current/"),
            Threshold::Every(Duration::days(7))
        );
        assert_eq!(
            cfg.lookup("http://www.research.att.com/orgs/ssr/"),
            Threshold::ALWAYS
        );
        assert_eq!(
            cfg.lookup("http://www.ncsa.uiuc.edu/SDG/Software/Mosaic/Docs/whats-new.html"),
            Threshold::Every(Duration::hours(12))
        );
        assert_eq!(
            cfg.lookup("http://snapple.cs.washington.edu:600/mobile/"),
            Threshold::Every(Duration::days(1))
        );
        assert_eq!(
            cfg.lookup("http://www.unitedmedia.com/comics/dilbert/"),
            Threshold::Never
        );
        // Unmatched URLs take the default.
        assert_eq!(
            cfg.lookup("http://www.usenix.org/"),
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
            cfg.lookup("http://a.com/special.html"),
            Threshold::Every(Duration::days(1))
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        use aide_util::pattern::RuleErrorKind;
        let err = |text| ThresholdConfig::parse(text).map_err(|e| (e.line, e.kind));
        assert_eq!(
            err("http://x/\n").err(),
            Some((1, RuleErrorKind::MissingValue))
        );
        assert!(matches!(
            err("# ok\nhttp://x/ 2q\n"),
            Err((2, RuleErrorKind::BadValue(_)))
        ));
        assert!(matches!(
            err("(unclosed 1d\n"),
            Err((1, RuleErrorKind::BadPattern(_)))
        ));
    }

    #[test]
    fn never_is_case_insensitive() {
        let cfg = ThresholdConfig::parse("http://x/ NEVER\n").unwrap();
        assert_eq!(cfg.lookup("http://x/"), Threshold::Never);
    }

    #[test]
    fn empty_config_checks_everything() {
        let cfg = ThresholdConfig::default();
        assert!(cfg.is_empty());
        assert_eq!(cfg.lookup("http://anything/"), Threshold::ALWAYS);
    }

    #[test]
    fn threshold_display() {
        assert_eq!(Threshold::Every(Duration::days(2)).to_string(), "2d");
        assert_eq!(Threshold::Never.to_string(), "never");
        assert_eq!(Threshold::ALWAYS.to_string(), "0");
    }
}
