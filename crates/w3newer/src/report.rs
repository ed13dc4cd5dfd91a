//! The w3newer HTML status report (Figure 1 of the paper).
//!
//! "W3newer associates three links with each document in the hotlist:
//! Remember... Diff... History" (§6). Entries are grouped — changed pages
//! first (sorted by modification date, newest first), then errors, then
//! unchecked and unchanged pages — because "merely sorting URLs by most
//! recent modification dates is not satisfactory when the number of URLs
//! grows into the hundreds" (§7).

use crate::checker::{RunReport, SkipReason, UrlStatus};
use aide_htmlkit::entity::encode_entities;

/// The snapshot CGI path the three action links name; aide-serve
/// answers it.
pub const SNAPSHOT_CGI: &str = "/cgi-bin/snapshot";

/// How to render the action links.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// The user the report is for. When set, each action link carries
    /// `&user=<id>`, so the server answering it knows whose Remember,
    /// Diff and History it is.
    pub user: Option<String>,
    /// Include the Remember/Diff/History links.
    pub action_links: bool,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            user: None,
            action_links: true,
        }
    }
}

/// Percent-encodes a URL for inclusion in a query string.
fn urlencode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(b as char)
            }
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

fn action_links(url: &str, opts: &ReportOptions) -> String {
    if !opts.action_links {
        return String::new();
    }
    let enc = urlencode(url);
    let user = opts
        .user
        .as_deref()
        .map(|id| format!("&user={}", urlencode(id)))
        .unwrap_or_default();
    format!(
        " [<A HREF=\"{SNAPSHOT_CGI}?op=remember&url={enc}{user}\">Remember</A>]\
         [<A HREF=\"{SNAPSHOT_CGI}?op=diff&url={enc}{user}\">Diff</A>]\
         [<A HREF=\"{SNAPSHOT_CGI}?op=history&url={enc}{user}\">History</A>]"
    )
}

fn status_note(status: &UrlStatus) -> String {
    match status {
        UrlStatus::Changed {
            modified: Some(t), ..
        } => {
            format!("<B>changed</B> {}", t.to_http_date())
        }
        UrlStatus::Changed { modified: None, .. } => "<B>changed</B> (content differs)".to_string(),
        UrlStatus::Unchanged { .. } => "seen".to_string(),
        UrlStatus::NotChecked { reason } => match reason {
            SkipReason::NeverThreshold => "not checked (configured never)".to_string(),
            SkipReason::RecentlyVisited => "not checked (visited recently)".to_string(),
            SkipReason::CheckedRecently => "not checked (checked recently)".to_string(),
            SkipReason::HostError => "not checked (host error)".to_string(),
            SkipReason::RunAborted => "not checked (run aborted)".to_string(),
            SkipReason::BelowExpectedGain => "not checked (unlikely to have changed)".to_string(),
        },
        UrlStatus::RobotExcluded => "not checked (robot exclusion)".to_string(),
        UrlStatus::Error { message } => format!("<B>error</B>: {}", encode_entities(message)),
        UrlStatus::Degraded {
            message,
            last_known_modified,
        } => {
            let mut note = format!(
                "<B>stale</B> (check incomplete: {})",
                encode_entities(message)
            );
            if let Some(t) = last_known_modified {
                note.push_str(&format!("; last known modification {}", t.to_http_date()));
            }
            note
        }
    }
}

/// Renders the full report page.
///
/// # Examples
///
/// ```
/// use aide_w3newer::checker::{RunReport, UrlReport, UrlStatus, CheckSource};
/// use aide_w3newer::report::{render_report, ReportOptions};
/// use aide_w3newer::retry::RetrySnapshot;
/// use aide_util::time::Timestamp;
///
/// let report = RunReport {
///     entries: vec![UrlReport {
///         url: "http://www.usenix.org/".to_string(),
///         title: "USENIX".to_string(),
///         status: UrlStatus::Changed {
///             modified: Some(Timestamp(812345678)),
///             source: CheckSource::Head,
///         },
///         last_visited: None,
///     }],
///     started: Timestamp(812400000),
///     aborted: false,
///     net: RetrySnapshot::default(),
/// };
/// let html = render_report(&report, &ReportOptions::default());
/// assert!(html.contains("USENIX"));
/// assert!(html.contains("Remember"));
/// ```
pub fn render_report(report: &RunReport, opts: &ReportOptions) -> String {
    let mut out = String::new();
    out.push_str("<HTML><HEAD><TITLE>What's New: w3newer report</TITLE></HEAD><BODY>\n");
    out.push_str(&format!(
        "<H1>What's New</H1>\n<P>Run of {}.",
        report.started.to_http_date()
    ));
    if report.aborted {
        out.push_str(" <B>The run aborted early on repeated network errors; try again later.</B>");
    }
    out.push('\n');

    // Changed pages, newest modification first (unknown dates last).
    let mut changed: Vec<&crate::checker::UrlReport> = report
        .entries
        .iter()
        .filter(|e| e.status.is_changed())
        .collect();
    changed.sort_by_key(|e| match &e.status {
        UrlStatus::Changed { modified, .. } => std::cmp::Reverse(*modified),
        _ => std::cmp::Reverse(None),
    });
    let errors: Vec<_> = report
        .entries
        .iter()
        .filter(|e| matches!(e.status, UrlStatus::Error { .. }))
        .collect();
    let stale: Vec<_> = report
        .entries
        .iter()
        .filter(|e| matches!(e.status, UrlStatus::Degraded { .. }))
        .collect();
    let rest: Vec<_> = report
        .entries
        .iter()
        .filter(|e| {
            !e.status.is_changed()
                && !matches!(
                    e.status,
                    UrlStatus::Error { .. } | UrlStatus::Degraded { .. }
                )
        })
        .collect();

    for (heading, group) in [
        ("Changed pages", changed),
        ("Problems", errors),
        ("Stale pages", stale),
        ("Everything else", rest),
    ] {
        if group.is_empty() {
            continue;
        }
        out.push_str(&format!("<H2>{heading}</H2>\n<UL>\n"));
        for e in group {
            out.push_str(&format!(
                "<LI><A HREF=\"{}\">{}</A> &#183; {}{}\n",
                e.url,
                encode_entities(&e.title),
                status_note(&e.status),
                action_links(&e.url, opts)
            ));
        }
        out.push_str("</UL>\n");
    }

    // Robustness-layer accounting, only when anything was recorded —
    // with the layer off (the default) the footer vanishes and the
    // report stays byte-identical to the original format.
    if !report.net.is_zero() {
        let n = &report.net;
        out.push_str(&format!(
            "<P><SMALL>Network health: {} attempt(s), {} retried, \
             {} recovered, {} exhausted; {} net / {} HTTP / {} truncated \
             failure(s); {} denied by open circuits; {} page(s) reported \
             stale; {}s spent backing off.</SMALL>\n",
            n.attempts,
            n.retries,
            n.recovered,
            n.exhausted,
            n.net_failures,
            n.http_failures,
            n.truncated,
            n.breaker_denied,
            n.degraded,
            n.slept_secs,
        ));
    }
    // Observability footer, only when a metrics subscriber is
    // installed — same contract as the robustness footer above: with
    // none (the default) the report stays byte-identical.
    if let Some(registry) = aide_obs::current() {
        out.push_str("<H2>Observability</H2>\n<PRE>\n");
        out.push_str(&encode_entities(&registry.render_text()));
        out.push_str("</PRE>\n");
    }
    out.push_str("</BODY></HTML>\n");
    out
}

/// Renders the prioritized variant of the report: changed pages grouped
/// by [`Priority`](crate::priority::Priority) class (the §7 Tapestry
/// direction), suppressed noise at the very bottom, everything else as
/// in [`render_report`].
pub fn render_prioritized_report(
    report: &RunReport,
    priorities: &crate::priority::PriorityConfig,
    opts: &ReportOptions,
) -> String {
    use crate::priority::{rank_changed, Priority};
    let (ranked, suppressed) = rank_changed(&report.entries, priorities);
    let mut out = String::new();
    out.push_str("<HTML><HEAD><TITLE>What's New (prioritized)</TITLE></HEAD><BODY>\n");
    out.push_str(&format!(
        "<H1>What's New</H1>\n<P>Run of {}.\n",
        report.started.to_http_date()
    ));
    let mut current: Option<Priority> = None;
    for r in &ranked {
        if current != Some(r.priority) {
            if current.is_some() {
                out.push_str("</UL>\n");
            }
            out.push_str(&format!("<H2>{:?} priority</H2>\n<UL>\n", r.priority));
            current = Some(r.priority);
        }
        out.push_str(&format!(
            "<LI><A HREF=\"{}\">{}</A> &#183; {}{}\n",
            r.entry.url,
            encode_entities(&r.entry.title),
            status_note(&r.entry.status),
            action_links(&r.entry.url, opts)
        ));
    }
    if current.is_some() {
        out.push_str("</UL>\n");
    }
    if !suppressed.is_empty() {
        out.push_str(&format!(
            "<P><SMALL>{} suppressed change(s) hidden.</SMALL>\n",
            suppressed.len()
        ));
    }
    // Errors and everything else, unranked, as in the plain report.
    let rest: Vec<&crate::checker::UrlReport> = report
        .entries
        .iter()
        .filter(|e| !e.status.is_changed())
        .collect();
    if !rest.is_empty() {
        out.push_str("<H2>Everything else</H2>\n<UL>\n");
        for e in rest {
            out.push_str(&format!(
                "<LI><A HREF=\"{}\">{}</A> &#183; {}\n",
                e.url,
                encode_entities(&e.title),
                status_note(&e.status)
            ));
        }
        out.push_str("</UL>\n");
    }
    out.push_str("</BODY></HTML>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{CheckSource, UrlReport};
    use aide_util::time::Timestamp;

    fn entry(url: &str, status: UrlStatus) -> UrlReport {
        UrlReport {
            url: url.to_string(),
            title: format!("Title <{url}>"),
            status,
            last_visited: None,
        }
    }

    fn report(entries: Vec<UrlReport>) -> RunReport {
        RunReport {
            entries,
            started: Timestamp(800_000_000),
            aborted: false,
            net: crate::retry::RetrySnapshot::default(),
        }
    }

    #[test]
    fn changed_sorted_newest_first() {
        let r = report(vec![
            entry(
                "http://old/",
                UrlStatus::Changed {
                    modified: Some(Timestamp(100)),
                    source: CheckSource::Head,
                },
            ),
            entry(
                "http://new/",
                UrlStatus::Changed {
                    modified: Some(Timestamp(900)),
                    source: CheckSource::Head,
                },
            ),
            entry(
                "http://nodate/",
                UrlStatus::Changed {
                    modified: None,
                    source: CheckSource::GetChecksum,
                },
            ),
        ]);
        let html = render_report(&r, &ReportOptions::default());
        let new_pos = html.find("http://new/").unwrap();
        let old_pos = html.find("http://old/").unwrap();
        let nodate_pos = html.find("http://nodate/").unwrap();
        assert!(new_pos < old_pos);
        assert!(old_pos < nodate_pos, "unknown dates sort last");
    }

    #[test]
    fn groups_rendered_in_order() {
        let r = report(vec![
            entry(
                "http://ok/",
                UrlStatus::Unchanged {
                    source: CheckSource::Cache,
                },
            ),
            entry(
                "http://err/",
                UrlStatus::Error {
                    message: "HTTP 404".to_string(),
                },
            ),
            entry(
                "http://ch/",
                UrlStatus::Changed {
                    modified: Some(Timestamp(5)),
                    source: CheckSource::Head,
                },
            ),
        ]);
        let html = render_report(&r, &ReportOptions::default());
        let c = html.find("Changed pages").unwrap();
        let p = html.find("Problems").unwrap();
        let e = html.find("Everything else").unwrap();
        assert!(c < p && p < e);
    }

    #[test]
    fn three_action_links_per_entry() {
        let r = report(vec![entry(
            "http://x/page?a=1",
            UrlStatus::Changed {
                modified: Some(Timestamp(5)),
                source: CheckSource::Head,
            },
        )]);
        let html = render_report(&r, &ReportOptions::default());
        assert!(html.contains("op=remember&url=http%3A%2F%2Fx%2Fpage%3Fa%3D1"));
        assert!(html.contains(">Diff</A>"));
        assert!(html.contains(">History</A>"));
    }

    #[test]
    fn action_links_can_be_disabled() {
        let r = report(vec![entry(
            "http://x/",
            UrlStatus::Unchanged {
                source: CheckSource::Head,
            },
        )]);
        let opts = ReportOptions {
            action_links: false,
            ..ReportOptions::default()
        };
        let html = render_report(&r, &opts);
        assert!(!html.contains("Remember"));
    }

    #[test]
    fn titles_are_entity_encoded() {
        let r = report(vec![entry(
            "http://x/",
            UrlStatus::Unchanged {
                source: CheckSource::Head,
            },
        )]);
        let html = render_report(&r, &ReportOptions::default());
        assert!(html.contains("Title &lt;http://x/&gt;"));
    }

    #[test]
    fn statuses_described() {
        let cases = vec![
            (UrlStatus::RobotExcluded, "robot exclusion"),
            (
                UrlStatus::NotChecked {
                    reason: SkipReason::NeverThreshold,
                },
                "configured never",
            ),
            (
                UrlStatus::NotChecked {
                    reason: SkipReason::RecentlyVisited,
                },
                "visited recently",
            ),
            (
                UrlStatus::Error {
                    message: "timeout".to_string(),
                },
                "timeout",
            ),
            (
                UrlStatus::Changed {
                    modified: None,
                    source: CheckSource::GetChecksum,
                },
                "content differs",
            ),
        ];
        for (status, needle) in cases {
            let r = report(vec![entry("http://x/", status)]);
            let html = render_report(&r, &ReportOptions::default());
            assert!(html.contains(needle), "missing {needle:?}");
        }
    }

    #[test]
    fn aborted_run_warns() {
        let mut r = report(vec![]);
        r.aborted = true;
        let html = render_report(&r, &ReportOptions::default());
        assert!(html.contains("aborted early"));
    }

    #[test]
    fn prioritized_report_groups_by_class() {
        use crate::priority::{Priority, PriorityConfig};
        let cfg = PriorityConfig::default()
            .rule(r"http://work\..*", Priority::Urgent)
            .unwrap()
            .rule(r"http://noise\..*", Priority::Suppress)
            .unwrap();
        let r = report(vec![
            entry(
                "http://fun.example/",
                UrlStatus::Changed {
                    modified: Some(Timestamp(900)),
                    source: CheckSource::Head,
                },
            ),
            entry(
                "http://work.example/",
                UrlStatus::Changed {
                    modified: Some(Timestamp(100)),
                    source: CheckSource::Head,
                },
            ),
            entry(
                "http://noise.example/",
                UrlStatus::Changed {
                    modified: None,
                    source: CheckSource::GetChecksum,
                },
            ),
            entry(
                "http://quiet.example/",
                UrlStatus::Unchanged {
                    source: CheckSource::Cache,
                },
            ),
        ]);
        let html = render_prioritized_report(&r, &cfg, &ReportOptions::default());
        let urgent = html.find("Urgent priority").unwrap();
        let normal = html.find("Normal priority").unwrap();
        assert!(urgent < normal, "urgent section first");
        assert!(
            html.find("http://work.example/").unwrap() < html.find("http://fun.example/").unwrap()
        );
        assert!(html.contains("1 suppressed change(s) hidden"));
        assert!(html.contains("Everything else"));
    }

    #[test]
    fn degraded_entries_get_their_own_stale_group() {
        let r = report(vec![
            entry(
                "http://ok/",
                UrlStatus::Unchanged {
                    source: CheckSource::Cache,
                },
            ),
            entry(
                "http://flaky/",
                UrlStatus::Degraded {
                    message: "timeout".to_string(),
                    last_known_modified: Some(Timestamp(812_345_678)),
                },
            ),
            entry(
                "http://err/",
                UrlStatus::Error {
                    message: "HTTP 404".to_string(),
                },
            ),
        ]);
        let html = render_report(&r, &ReportOptions::default());
        let p = html.find("Problems").unwrap();
        let s = html.find("Stale pages").unwrap();
        let e = html.find("Everything else").unwrap();
        assert!(p < s && s < e, "Stale pages between Problems and the rest");
        assert!(html.contains("<B>stale</B> (check incomplete: timeout)"));
        assert!(
            html.contains("last known modification"),
            "stale entries fall back to cached knowledge"
        );
    }

    #[test]
    fn net_footer_only_when_stats_recorded() {
        let quiet = report(vec![entry(
            "http://x/",
            UrlStatus::Unchanged {
                source: CheckSource::Cache,
            },
        )]);
        let html = render_report(&quiet, &ReportOptions::default());
        assert!(
            !html.contains("Network health"),
            "no footer with the robustness layer off"
        );
        let mut busy = quiet.clone();
        busy.net.attempts = 12;
        busy.net.retries = 3;
        busy.net.recovered = 2;
        let html = render_report(&busy, &ReportOptions::default());
        assert!(html.contains("Network health: 12 attempt(s), 3 retried, 2 recovered"));
    }

    #[test]
    fn urlencode_roundtrip_safety() {
        assert_eq!(urlencode("abc-._~XYZ09"), "abc-._~XYZ09");
        assert_eq!(urlencode("a b"), "a%20b");
        assert_eq!(urlencode("http://h/"), "http%3A%2F%2Fh%2F");
    }
}
