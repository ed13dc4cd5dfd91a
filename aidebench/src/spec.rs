//! Workloads: the fixture each one serves and the seeded request list
//! the client replays against it.
//!
//! The server process receives only a [`FixtureSpec`]; the request list
//! ([`Plan`]) is generated on the client side from the same seed. Both
//! are pure functions of their arguments, so one seed always gives the
//! same fixture, the same list and, for a fixed-order replay, the same
//! final archive state.

use aide_util::rng::Rng;
use aide_util::time::{Duration, Timestamp};
use aide_workloads::{EditModel, Page};
use std::collections::HashMap;

/// The one AIDE user every request acts for.
pub const USER: &str = "reader@bench.example";

/// Sentences rewritten by one seeded edit.
const EDIT_SENTENCES: usize = 2;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Deep archives, uniform requests: every answer is rendered cold.
    ColdDig,
    /// A small hot set revisited with conditional requests.
    HotRevisit,
    /// Remembers interleaved with reads on the disk store.
    WriteChurn,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-dig" => Some(Workload::ColdDig),
            "hot-revisit" => Some(Workload::HotRevisit),
            "write-churn" => Some(Workload::WriteChurn),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdDig => "cold-dig",
            Workload::HotRevisit => "hot-revisit",
            Workload::WriteChurn => "write-churn",
        }
    }

    /// Whether the archives live in a `DiskRepository`.
    pub fn disk(self) -> bool {
        self == Workload::WriteChurn
    }

    /// Client connections (one client thread each). Hot-revisit's
    /// requests take about 0.1 ms: over one connection the CPUs went
    /// idle and woke again around every request, and on a shared host
    /// those wake-ups, not the server, set its latency. Two connections
    /// keep them busy.
    pub fn connections(self) -> usize {
        match self {
            Workload::ColdDig => 1,
            _ => 2,
        }
    }

    /// Server set-ups per run; `setup_s` is their median. The first
    /// server is the measured one; the others are spawned between the
    /// measured passes, so the set-ups sample the whole run. The shorter
    /// a set-up, the more its time swings, so the shorter ones are
    /// repeated more often: cold-dig's archives 3,840 revisions and
    /// takes seconds; hot-revisit's archives 960 and write-churn's
    /// stores 64 archives with fsync, each in tenths of a second.
    pub fn setups(self) -> usize {
        match self {
            Workload::ColdDig => 5,
            _ => 11,
        }
    }

    /// Requests per measured second the list is sized for, roughly what
    /// one run completes per second on a 2-vCPU host. The list length is
    /// fixed by `--seconds`, not by how fast the run goes.
    fn nominal_rps(self) -> usize {
        match self {
            Workload::ColdDig => 300,
            Workload::HotRevisit => 12000,
            Workload::WriteChurn => 1200,
        }
    }
}

/// Everything the server needs to build its fixture.
#[derive(Debug, Clone, Copy)]
pub struct FixtureSpec {
    /// Which workload the fixture serves.
    pub workload: Workload,
    /// Seed of the pages and their edits.
    pub seed: u64,
    /// Archived URLs.
    pub urls: usize,
    /// Revisions per URL when set-up ends.
    pub revisions: u32,
    /// Approximate size of each page.
    pub page_bytes: usize,
}

impl FixtureSpec {
    /// The fixture of `workload`; `tiny` shrinks it for self-tests.
    pub fn new(workload: Workload, seed: u64, tiny: bool) -> FixtureSpec {
        let (urls, revisions) = match (workload, tiny) {
            (Workload::ColdDig, false) => (32, 120),
            (Workload::HotRevisit, false) => (16, 60),
            (Workload::WriteChurn, false) => (64, 8),
            (Workload::ColdDig, true) => (4, 12),
            (Workload::HotRevisit, true) => (4, 10),
            (Workload::WriteChurn, true) => (6, 4),
        };
        FixtureSpec {
            workload,
            seed,
            urls,
            revisions,
            page_bytes: if tiny { 2048 } else { 8192 },
        }
    }

    /// Command-line form, parsed back by [`FixtureSpec::from_args`].
    pub fn to_args(self) -> Vec<String> {
        vec![
            self.workload.name().to_string(),
            self.seed.to_string(),
            self.urls.to_string(),
            self.revisions.to_string(),
            self.page_bytes.to_string(),
        ]
    }

    /// Inverse of [`FixtureSpec::to_args`].
    pub fn from_args(args: &[String]) -> Option<FixtureSpec> {
        match args {
            [w, seed, urls, revs, bytes] => Some(FixtureSpec {
                workload: Workload::parse(w)?,
                seed: seed.parse().ok()?,
                urls: urls.parse().ok()?,
                revisions: revs.parse().ok()?,
                page_bytes: bytes.parse().ok()?,
            }),
            _ => None,
        }
    }
}

/// The archived URL with index `i`.
pub fn url(i: usize) -> String {
    format!("http://www.bench.example/doc{i:03}.html")
}

/// Inverse of [`url`].
pub fn url_index(url: &str) -> Option<usize> {
    url.strip_prefix("http://www.bench.example/doc")?
        .strip_suffix(".html")?
        .parse()
        .ok()
}

/// Check-in date of fixture revision `rev` (1-based): one hour apart.
pub fn rev_date(rev: u32) -> Timestamp {
    Timestamp::from_ymd_hms(1995, 9, 1, 12, 0, 0) + Duration::hours(u64::from(rev) - 1)
}

/// The clock reading the server answers at once set-up is done.
pub fn serve_time(spec: &FixtureSpec) -> Timestamp {
    rev_date(spec.revisions) + Duration::hours(1)
}

/// One URL's origin page and the seeded edits that evolve it.
pub struct Origin {
    page: Page,
    rng: Rng,
    step: u64,
    body: String,
}

impl Origin {
    /// The initial page of URL `i`.
    pub fn new(spec: &FixtureSpec, i: usize) -> Origin {
        let mut rng = Rng::new(spec.seed).fork(1 + i as u64);
        let page = Page::generate(&mut rng, spec.page_bytes);
        let body = page.render();
        Origin {
            page,
            rng,
            step: 0,
            body,
        }
    }

    /// The page as the origin serves it now.
    pub fn body(&self) -> &str {
        &self.body
    }

    /// Applies the URL's next seeded in-place edit. An edit that leaves
    /// the page byte-identical is followed by another, so every advance
    /// yields a new revision.
    pub fn advance(&mut self) -> &str {
        loop {
            self.step += 1;
            EditModel::InPlaceEdit {
                sentences: EDIT_SENTENCES,
            }
            .apply(&mut self.page, &mut self.rng, self.step);
            let body = self.page.render();
            if body != self.body {
                self.body = body;
                return &self.body;
            }
        }
    }
}

/// One request of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `/diff` of two fixed revisions.
    Diff { url: usize, from: u32, to: u32 },
    /// `/diff` of the newest acknowledged pair, named at send time.
    DiffNewest { url: usize },
    /// `/view` of one revision.
    View { url: usize, rev: u32 },
    /// `/history` for the benchmark user.
    History { url: usize },
    /// `/timemap/<url>`.
    Timemap { url: usize },
    /// `/timegate/<url>`, negotiating for revision `rev`'s date, or for
    /// "now" when `None`.
    Timegate { url: usize, rev: Option<u32> },
    /// `/report`: a w3newer run over the user's hotlist.
    Report,
    /// The snapshot Remember of `url`'s next edit.
    Remember { url: usize },
}

/// What the client checks an answer against besides its status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Digest {
    /// Nothing: the page depends on mutable state.
    None,
    /// The body, which is a pure function of immutable archive state.
    Body,
    /// The `Location` of a redirect into immutable archive state.
    Location,
}

impl Op {
    /// Whether the request goes to the remember route.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Remember { .. })
    }

    /// The status a correct server answers with, given whether an
    /// `If-None-Match` was sent.
    pub fn expected_status(&self, conditional: bool) -> u16 {
        match self {
            Op::Timegate { .. } => 302,
            _ if conditional => 304,
            _ => 200,
        }
    }

    /// What besides the status is checked.
    pub fn digest(&self) -> Digest {
        match self {
            Op::Diff { .. } | Op::DiffNewest { .. } | Op::View { .. } => Digest::Body,
            Op::Timegate { rev: Some(_), .. } => Digest::Location,
            _ => Digest::None,
        }
    }

    /// Request target; `newest` names the acknowledged head for
    /// [`Op::DiffNewest`].
    pub fn target(&self, newest: u32) -> String {
        match *self {
            Op::Diff { url: u, from, to } => {
                format!("/diff?url={}&from=1.{from}&to=1.{to}", url(u))
            }
            Op::DiffNewest { url: u } => {
                format!("/diff?url={}&from=1.{}&to=1.{newest}", url(u), newest - 1)
            }
            Op::View { url: u, rev } => format!("/view?url={}&rev=1.{rev}", url(u)),
            Op::History { url: u } => format!("/history?url={}&user={USER}", url(u)),
            Op::Timemap { url: u } => format!("/timemap/{}", url(u)),
            Op::Timegate { url: u, .. } => format!("/timegate/{}", url(u)),
            Op::Report => format!("/report?user={USER}"),
            Op::Remember { url: u } => format!("/remember?url={}", url(u)),
        }
    }

    /// Writes the full request into `out` (cleared first).
    pub fn write_request(&self, newest: u32, etag: Option<&[u8]>, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(b"GET ");
        out.extend_from_slice(self.target(newest).as_bytes());
        out.extend_from_slice(b" HTTP/1.1\r\nHost: bench.example\r\n");
        if let Op::Timegate { rev: Some(rev), .. } = self {
            out.extend_from_slice(b"Accept-Datetime: ");
            out.extend_from_slice(rev_date(*rev).to_http_date().as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        if let Some(tag) = etag {
            out.extend_from_slice(b"If-None-Match: ");
            out.extend_from_slice(tag);
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
    }

    /// The URL the request concerns, if any.
    pub fn url(&self) -> Option<usize> {
        match *self {
            Op::Diff { url, .. }
            | Op::DiffNewest { url }
            | Op::View { url, .. }
            | Op::History { url }
            | Op::Timemap { url }
            | Op::Timegate { url, .. }
            | Op::Remember { url } => Some(url),
            Op::Report => None,
        }
    }
}

/// One entry of a plan.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    /// The request.
    pub op: Op,
    /// Slot remembering the ETag of this request's last answer, for
    /// requests that may repeat conditionally.
    pub key: Option<usize>,
    /// Send `If-None-Match` with the remembered tag, if one is held.
    pub conditional: bool,
}

/// A fixed-length request list: an untimed warm-up prefix, then the
/// measured requests.
pub struct Plan {
    /// Every request, in list order.
    pub reqs: Vec<Req>,
    /// Requests before the measured phase.
    pub warmup: usize,
    /// ETag slots used by [`Req::key`].
    pub keys: usize,
}

impl Plan {
    /// The list of `spec`'s workload for `seed`, sized for `seconds`.
    pub fn new(spec: &FixtureSpec, seed: u64, seconds: u64, tiny: bool) -> Plan {
        let w = spec.workload;
        let measured = if tiny {
            60
        } else {
            w.nominal_rps() * seconds.max(1) as usize
        };
        let warmup = if tiny { 20 } else { (measured / 20).max(50) };
        // A stream of its own, apart from the per-URL page streams.
        let mut rng = Rng::new(seed).fork(0x5EED);
        let mut keys: HashMap<Op, usize> = HashMap::new();
        let mut reqs = Vec::with_capacity(warmup + measured);
        for _ in 0..warmup + measured {
            let op = match w {
                Workload::ColdDig => cold_dig(spec, &mut rng),
                Workload::HotRevisit => hot_revisit(spec, &mut rng),
                Workload::WriteChurn => write_churn(spec, &mut rng),
            };
            let (key, conditional) = match (w, op) {
                (
                    Workload::HotRevisit,
                    Op::History { .. } | Op::Diff { .. } | Op::Timemap { .. },
                ) => {
                    let next = keys.len();
                    let seen = keys.contains_key(&op);
                    let key = *keys.entry(op).or_insert(next);
                    (Some(key), seen && rng.below(5) < 4)
                }
                _ => (None, false),
            };
            reqs.push(Req {
                op,
                key,
                conditional,
            });
        }
        Plan {
            warmup,
            keys: keys.len(),
            reqs,
        }
    }
}

/// Uniform over URL and depth: ¾ adjacent-revision diffs, ¼ views.
fn cold_dig(spec: &FixtureSpec, rng: &mut Rng) -> Op {
    let url = rng.index(spec.urls);
    if rng.below(4) < 3 {
        let to = rng.range(2, u64::from(spec.revisions)) as u32;
        Op::Diff {
            url,
            from: to - 1,
            to,
        }
    } else {
        Op::View {
            url,
            rev: rng.range(1, u64::from(spec.revisions)) as u32,
        }
    }
}

/// Zipf over URLs, the 8 newest revisions only; one in 20 a report.
fn hot_revisit(spec: &FixtureSpec, rng: &mut Rng) -> Op {
    if rng.below(20) == 0 {
        return Op::Report;
    }
    // `zipf(n)` draws ranks 1..n; shift to URL indexes 0..n-1.
    let url = rng.zipf(spec.urls + 1) - 1;
    let newest = u64::from(spec.revisions);
    let recent = (newest - rng.below(8.min(newest - 1))) as u32;
    match rng.below(4) {
        0 => Op::History { url },
        1 => Op::Diff {
            url,
            from: recent - 1,
            to: recent,
        },
        2 => Op::Timemap { url },
        _ => Op::Timegate {
            url,
            rev: Some(recent),
        },
    }
}

/// One remember in every five requests, URLs uniform; reads name only
/// acknowledged revisions.
fn write_churn(spec: &FixtureSpec, rng: &mut Rng) -> Op {
    let url = rng.index(spec.urls);
    if rng.below(5) == 0 {
        return Op::Remember { url };
    }
    match rng.below(3) {
        0 => Op::History { url },
        1 => Op::DiffNewest { url },
        _ => Op::Timegate { url, rev: None },
    }
}
