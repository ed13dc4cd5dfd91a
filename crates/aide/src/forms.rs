//! Tracking POST services: stored forms (§8.4's sketched design).
//!
//! "Services that use POST cannot be accessed, because the input to the
//! services is not stored... A user could manually save the source to an
//! HTML form and change the URL the form invokes to be something
//! provided by AIDE. It, in turn, would have to make a copy of its input
//! to pass along to the actual service."
//!
//! This module implements that design: a [`FormRegistry`] stores the
//! filled-out form body under a user-chosen alias; polling an alias
//! re-POSTs the stored input to the real service and checksums the
//! result (POST output never carries `Last-Modified`), and the result
//! body can be fed into the snapshot service for archival and HtmlDiff
//! like any page.

use aide_simweb::http::{NetError, Request, Status};
use aide_simweb::net::Web;
use aide_util::checksum::PageChecksum;
use aide_util::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt;

/// One saved form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredForm {
    /// The `ACTION` URL of the original form.
    pub action: String,
    /// The saved, filled-out input (urlencoded body).
    pub input: String,
    /// Checksum of the last polled result.
    pub last_checksum: Option<PageChecksum>,
}

/// Outcome of polling a stored form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormStatus {
    /// First poll; baseline recorded.
    Baseline,
    /// Output identical to last poll.
    Unchanged,
    /// Output differs from last poll.
    Changed,
}

/// Errors from the registry.
#[derive(Debug)]
pub enum FormError {
    /// No such alias.
    UnknownAlias(String),
    /// The POST failed at the network level.
    Net(NetError),
    /// The service answered with a non-success status.
    Http(Status),
}

impl fmt::Display for FormError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormError::UnknownAlias(a) => write!(f, "no stored form named {a:?}"),
            FormError::Net(e) => write!(f, "{e}"),
            FormError::Http(s) => write!(f, "HTTP {s} from form service"),
        }
    }
}

impl std::error::Error for FormError {}

/// The registry of stored forms.
pub struct FormRegistry {
    web: Web,
    forms: Mutex<BTreeMap<String, StoredForm>>,
}

impl FormRegistry {
    /// Creates a registry against `web`.
    pub fn new(web: Web) -> FormRegistry {
        FormRegistry {
            web,
            forms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Saves a filled-out form under `alias` (replacing any previous
    /// form with that alias).
    pub fn register(&self, alias: &str, action_url: &str, input: &str) {
        self.forms.lock().insert(
            alias.to_string(),
            StoredForm {
                action: action_url.to_string(),
                input: input.to_string(),
                last_checksum: None,
            },
        );
    }

    /// Removes a stored form; returns whether one existed.
    pub fn unregister(&self, alias: &str) -> bool {
        self.forms.lock().remove(alias).is_some()
    }

    /// All aliases, sorted.
    pub fn aliases(&self) -> Vec<String> {
        self.forms.lock().keys().cloned().collect()
    }

    /// The stored form for `alias`.
    pub fn get(&self, alias: &str) -> Option<StoredForm> {
        self.forms.lock().get(alias).cloned()
    }

    /// Re-POSTs the stored input and returns the result body — the
    /// "fetch" that snapshot's Remember needs for a POST service.
    pub fn fetch(&self, alias: &str) -> Result<String, FormError> {
        let form = self
            .get(alias)
            .ok_or_else(|| FormError::UnknownAlias(alias.to_string()))?;
        let resp = self
            .web
            .request(&Request::post(&form.action, &form.input))
            .map_err(FormError::Net)?;
        if resp.status != Status::Ok {
            return Err(FormError::Http(resp.status));
        }
        Ok(resp.body)
    }

    /// Polls the service: POSTs the stored input, checksums the output,
    /// compares against the previous poll. Returns the status and the
    /// fresh body.
    pub fn poll(&self, alias: &str) -> Result<(FormStatus, String), FormError> {
        let body = self.fetch(alias)?;
        let checksum = PageChecksum::of(body.as_bytes());
        let mut forms = self.forms.lock();
        let form = forms
            .get_mut(alias)
            .ok_or_else(|| FormError::UnknownAlias(alias.to_string()))?;
        let status = match form.last_checksum.replace(checksum) {
            None => FormStatus::Baseline,
            Some(prev) if prev == checksum => FormStatus::Unchanged,
            Some(_) => FormStatus::Changed,
        };
        Ok((status, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_simweb::resource::Resource;
    use aide_util::time::{Clock, Timestamp};

    fn setup() -> (Web, FormRegistry) {
        let web = Web::new(Clock::starting_at(Timestamp(1_000)));
        // A search service whose output depends on the POSTed input.
        web.set_resource(
            "http://search.example/cgi-bin/query",
            Resource::Cgi {
                template: "<HTML>Results for [{INPUT}]: three documents found.</HTML>".to_string(),
                hits: 0,
            },
        )
        .unwrap();
        let reg = FormRegistry::new(web.clone());
        (web, reg)
    }

    #[test]
    fn stored_input_reaches_the_service() {
        let (_, reg) = setup();
        reg.register(
            "my-search",
            "http://search.example/cgi-bin/query",
            "q=mobile+computing",
        );
        let body = reg.fetch("my-search").unwrap();
        assert!(body.contains("q=mobile+computing"), "{body}");
    }

    #[test]
    fn poll_baseline_then_unchanged_then_changed() {
        let (web, reg) = setup();
        reg.register("my-search", "http://search.example/cgi-bin/query", "q=web");
        let (s, _) = reg.poll("my-search").unwrap();
        assert_eq!(s, FormStatus::Baseline);
        let (s, _) = reg.poll("my-search").unwrap();
        assert_eq!(s, FormStatus::Unchanged);
        // The service's answer for this query changes.
        web.set_resource(
            "http://search.example/cgi-bin/query",
            Resource::Cgi {
                template: "<HTML>Results for [{INPUT}]: five documents found!</HTML>".to_string(),
                hits: 0,
            },
        )
        .unwrap();
        let (s, body) = reg.poll("my-search").unwrap();
        assert_eq!(s, FormStatus::Changed);
        assert!(body.contains("five documents"));
    }

    #[test]
    fn distinct_aliases_same_service() {
        let (_, reg) = setup();
        reg.register("search-a", "http://search.example/cgi-bin/query", "q=alpha");
        reg.register("search-b", "http://search.example/cgi-bin/query", "q=beta");
        let a = reg.fetch("search-a").unwrap();
        let b = reg.fetch("search-b").unwrap();
        assert_ne!(a, b);
        assert_eq!(reg.aliases(), vec!["search-a", "search-b"]);
    }

    #[test]
    fn unknown_alias_errors() {
        let (_, reg) = setup();
        assert!(matches!(
            reg.fetch("ghost"),
            Err(FormError::UnknownAlias(_))
        ));
        assert!(!reg.unregister("ghost"));
    }

    #[test]
    fn network_and_http_errors() {
        let (web, reg) = setup();
        reg.register("s", "http://search.example/cgi-bin/query", "q=x");
        web.set_network_up(false);
        assert!(matches!(reg.poll("s"), Err(FormError::Net(_))));
        web.set_network_up(true);
        reg.register("missing", "http://search.example/cgi-bin/other", "q=x");
        assert!(matches!(
            reg.poll("missing"),
            Err(FormError::Http(Status::NotFound))
        ));
    }

    #[test]
    fn reregister_resets_baseline() {
        let (_, reg) = setup();
        reg.register("s", "http://search.example/cgi-bin/query", "q=x");
        reg.poll("s").unwrap();
        reg.register("s", "http://search.example/cgi-bin/query", "q=y");
        let (status, _) = reg.poll("s").unwrap();
        assert_eq!(status, FormStatus::Baseline, "new input, new baseline");
    }

    #[test]
    fn archival_of_form_output_via_snapshot() {
        // The §8.4 end state: POST output stored under RCS and diffable.
        use aide_rcs::repo::MemRepository;
        use aide_snapshot::service::{SnapshotService, UserId};
        let (web, reg) = setup();
        let service = SnapshotService::new(MemRepository::new(), web.clock().clone(), 1 << 20);
        let user = UserId::new("u@x");
        reg.register("s", "http://search.example/cgi-bin/query", "q=web");
        let (_, body) = reg.poll("s").unwrap();
        // Archive under a synthetic aide-form: URL.
        let pseudo_url = "aide-form:s";
        service.remember(&user, pseudo_url, &body).unwrap();
        web.set_resource(
            "http://search.example/cgi-bin/query",
            Resource::Cgi {
                template: "<HTML>Results for [{INPUT}]: none found today.</HTML>".to_string(),
                hits: 0,
            },
        )
        .unwrap();
        let (status, body2) = reg.poll("s").unwrap();
        assert_eq!(status, FormStatus::Changed);
        let out = service
            .diff_since_last(&user, pseudo_url, &body2, &Default::default())
            .unwrap();
        assert!(out.html.contains("none found today"));
    }
}
