//! The CGI keep-alive dance (§4.2).
//!
//! "When a CGI script is invoked, httpd sets up a default timeout, and if
//! the script does not generate output for a full timeout interval, httpd
//! will return an error to the browser... In order to keep the HTTP
//! connection alive, snapshot forks a child process that generates one
//! space character (ignored by the W3 browser) every several seconds
//! while the parent is retrieving a page or executing HtmlDiff."
//!
//! This module models that race deterministically: given httpd's timeout,
//! the work duration, and a heartbeat interval, [`run`] decides whether
//! the connection survives and how many padding bytes the client saw.

use aide_util::time::Duration;

/// Configuration of one CGI invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeepaliveConfig {
    /// httpd's no-output timeout.
    pub server_timeout: Duration,
    /// Interval between heartbeat characters; `None` disables the child.
    pub heartbeat: Option<Duration>,
}

/// Outcome of a CGI invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepaliveOutcome {
    /// The script produced its output; `padding` spaces were emitted
    /// first.
    Completed {
        /// Heartbeat characters the client received before the real body.
        padding: u64,
    },
    /// httpd killed the connection after this much silence.
    TimedOut {
        /// How long into the work the connection died.
        after: Duration,
    },
}

/// Simulates one invocation whose real work takes `work` time.
///
/// # Examples
///
/// ```
/// use aide_snapshot::keepalive::{run, KeepaliveConfig, KeepaliveOutcome};
/// use aide_util::time::Duration;
///
/// // A 5-minute HtmlDiff against a 60s httpd timeout dies without a
/// // heartbeat…
/// let cfg = KeepaliveConfig { server_timeout: Duration::seconds(60), heartbeat: None };
/// assert!(matches!(run(&cfg, Duration::minutes(5)), KeepaliveOutcome::TimedOut { .. }));
///
/// // …and survives with one space every 10s.
/// let cfg = KeepaliveConfig {
///     server_timeout: Duration::seconds(60),
///     heartbeat: Some(Duration::seconds(10)),
/// };
/// assert!(matches!(run(&cfg, Duration::minutes(5)), KeepaliveOutcome::Completed { .. }));
/// ```
pub fn run(cfg: &KeepaliveConfig, work: Duration) -> KeepaliveOutcome {
    let timeout = cfg.server_timeout.as_secs();
    let heartbeat = cfg.heartbeat.map(|hb| hb.as_secs().max(1));
    // A space every `hb` seconds means httpd never sees `timeout` seconds
    // of silence; a heartbeat that slow or slower saves nothing.
    let kept_alive = heartbeat.is_some_and(|hb| hb < timeout);
    if !kept_alive && work.as_secs() >= timeout {
        return KeepaliveOutcome::TimedOut {
            after: Duration::seconds(timeout),
        };
    }
    KeepaliveOutcome::Completed {
        padding: heartbeat.map_or(0, |hb| work.as_secs() / hb),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T60: Duration = Duration::seconds(60);

    #[test]
    fn fast_work_needs_no_heartbeat() {
        let cfg = KeepaliveConfig {
            server_timeout: T60,
            heartbeat: None,
        };
        assert_eq!(
            run(&cfg, Duration::seconds(5)),
            KeepaliveOutcome::Completed { padding: 0 }
        );
    }

    #[test]
    fn slow_work_without_heartbeat_dies() {
        let cfg = KeepaliveConfig {
            server_timeout: T60,
            heartbeat: None,
        };
        assert_eq!(
            run(&cfg, Duration::seconds(61)),
            KeepaliveOutcome::TimedOut { after: T60 }
        );
    }

    #[test]
    fn boundary_work_equal_to_timeout_dies() {
        let cfg = KeepaliveConfig {
            server_timeout: T60,
            heartbeat: None,
        };
        assert!(matches!(run(&cfg, T60), KeepaliveOutcome::TimedOut { .. }));
    }

    #[test]
    fn heartbeat_saves_long_work() {
        let cfg = KeepaliveConfig {
            server_timeout: T60,
            heartbeat: Some(Duration::seconds(10)),
        };
        assert_eq!(
            run(&cfg, Duration::minutes(10)),
            KeepaliveOutcome::Completed { padding: 60 }
        );
    }

    #[test]
    fn heartbeat_slower_than_timeout_does_not_help() {
        let cfg = KeepaliveConfig {
            server_timeout: T60,
            heartbeat: Some(Duration::seconds(90)),
        };
        assert!(matches!(
            run(&cfg, Duration::minutes(5)),
            KeepaliveOutcome::TimedOut { .. }
        ));
    }

    #[test]
    fn zero_timeout_always_dies() {
        let cfg = KeepaliveConfig {
            server_timeout: Duration::ZERO,
            heartbeat: Some(Duration::seconds(1)),
        };
        assert!(matches!(
            run(&cfg, Duration::seconds(1)),
            KeepaliveOutcome::TimedOut { .. }
        ));
    }

    #[test]
    fn padding_scales_with_work() {
        let cfg = KeepaliveConfig {
            server_timeout: T60,
            heartbeat: Some(Duration::seconds(5)),
        };
        let KeepaliveOutcome::Completed { padding: p1 } = run(&cfg, Duration::minutes(1)) else {
            panic!("should complete");
        };
        let KeepaliveOutcome::Completed { padding: p2 } = run(&cfg, Duration::minutes(2)) else {
            panic!("should complete");
        };
        assert!(p2 > p1);
    }
}
