//! The traced run: the same plan, replayed in list order on one thread
//! against a freshly built in-process fixture, with a span around every
//! call the benchmark makes into a layer's public function.
//!
//! Each request is first answered by the real path (`AideServer::respond`,
//! caches included, or the remember route), between `wire.parse` and
//! `wire.serialize`. When the counters show the answer was rendered cold,
//! the request is replayed through the lower layers' public functions
//! under a `replay` span, which splits its time by layer. The aide-obs
//! registry is installed for this run only; no counter or span is added
//! to the program.
//!
//! Spans are kept in memory and written to `spans.tsv` in the scratch
//! directory at exit.

use crate::fixture::Fixture;
use crate::report::{quantile, ratio, Metric};
use crate::server::remember_route;
use crate::spec::{rev_date, url, FixtureSpec, Op, Plan, USER};
use crate::verify::parse;
use aide::fetcher::fetch_page;
use aide_htmldiff::{compare_tokens, tokenize, Options as DiffOptions};
use aide_htmlkit::url::Url;
use aide_htmlkit::{lex, rewrite_base, serialize};
use aide_obs::MetricsRegistry;
use aide_rcs::archive::{Archive, RevId};
use aide_rcs::repo::{MemRepository, Repository};
use aide_serve::{AideServer, ServeConfig};
use aide_store::repo::{spawn_compactor, DiskRepository, StoreOptions};
use aide_store::vfs::RealVfs;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Outcome of a traced run.
pub struct TraceResult {
    /// Requests replayed.
    pub attempted: usize,
    /// Requests answered with an unexpected status.
    pub failed: usize,
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
}

/// One timed call.
struct Span {
    req: usize,
    parent: Option<usize>,
    name: &'static str,
    start: u64,
    end: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Spans of the whole run, in memory.
struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    req: usize,
}

impl Tracer {
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.base.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            req: self.req,
            parent,
            name,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.base.elapsed().as_nanos() as u64;
    }

    /// Runs `f` under a span named `name`; returns its result and the
    /// span's duration.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.open(name, Some(parent));
        let out = black_box(f());
        self.close(id);
        (out, self.spans[id].ns())
    }
}

/// Store counters a remember moves, read around its real path only.
fn store_counters(reg: &MetricsRegistry) -> [u64; 3] {
    let s = reg.snapshot();
    let get = |n: &str| s.counters.get(n).copied().unwrap_or(0);
    [
        get("store.append"),
        get("store.wal.fsync"),
        get("store.wal.append.bytes"),
    ]
}

/// Runs the traced replay of `plan`.
pub fn run(spec: &FixtureSpec, plan: &Plan, scratch: &Path) -> Result<TraceResult, String> {
    let pid = std::process::id();
    let live = scratch.join(format!("trace-store-{pid}"));
    let shadow = scratch.join(format!("trace-replay-{pid}"));
    for dir in [&live, &shadow] {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clear {dir:?}: {e}"))?;
        }
    }
    let result = if spec.workload.disk() {
        let open = |dir: &Path, opts| {
            DiskRepository::open(Arc::new(RealVfs::new(dir)), "", opts)
                .map_err(|e| format!("open store: {e}"))
        };
        let repo = Arc::new(open(&live, StoreOptions::default())?);
        let compactor = spawn_compactor(&repo);
        // Replayed stores go to a second store that never checkpoints
        // or compacts, so those counters stay the live store's own.
        let replay = open(
            &shadow,
            StoreOptions {
                checkpoint_wal_bytes: u64::MAX,
                compact_min_dead_bytes: u64::MAX,
                max_segments: usize::MAX,
                ..StoreOptions::default()
            },
        )?;
        let r = traced(spec, plan, repo, &replay, Some(&live), scratch);
        drop(compactor);
        r
    } else {
        traced(
            spec,
            plan,
            Arc::new(MemRepository::new()),
            &MemRepository::new(),
            None,
            scratch,
        )
    };
    let _ = std::fs::remove_dir_all(&live);
    let _ = std::fs::remove_dir_all(&shadow);
    result
}

/// Per-request accounting beyond the spans.
#[derive(Default)]
struct Tally {
    failed: usize,
    reads: u64,
    bytes_out: u64,
    /// Real-path time (parse + respond + serialize) per request.
    real_ns: Vec<u64>,
    /// Real-path time of measured-phase reads.
    read_ms: Vec<f64>,
    /// `respond` time by snapshot operation, when it reached the
    /// snapshot layer.
    respond_us: BTreeMap<&'static str, Vec<f64>>,
    /// `diff_tokens` time minus `compare_tokens` time, per cold diff.
    render_us: Vec<f64>,
    /// Tokens of both sides, per cold diff.
    tokens: Vec<f64>,
    remembers: u64,
    page_bytes: u64,
    store_deltas: [u64; 3],
    reports: u64,
    polls: u64,
}

fn traced<R: Repository, S: Repository>(
    spec: &FixtureSpec,
    plan: &Plan,
    repo: Arc<R>,
    replay_repo: &S,
    store_dir: Option<&Path>,
    scratch: &Path,
) -> Result<TraceResult, String> {
    let fixture = Fixture::build(spec, repo.clone());
    let engine = fixture.engine.clone();
    let server = AideServer::with_config(engine.clone(), ServeConfig::default());
    let registry = Arc::new(MetricsRegistry::new());
    aide_obs::install(registry.clone());

    let mut tr = Tracer {
        base: Instant::now(),
        spans: Vec::with_capacity(plan.reqs.len() * 8),
        req: 0,
    };
    let mut t = Tally::default();
    let mut etags: Vec<Option<String>> = vec![None; plan.keys];
    let mut acked = vec![spec.revisions; spec.urls];
    let mut request = Vec::new();
    let opts = DiffOptions::default();

    for (idx, req) in plan.reqs.iter().enumerate() {
        tr.req = idx;
        let newest = match req.op {
            Op::DiffNewest { url } => acked[url],
            _ => 0,
        };
        let etag = match (req.conditional, req.key) {
            (true, Some(k)) => etags[k].clone(),
            _ => None,
        };
        req.op
            .write_request(newest, etag.as_deref().map(str::as_bytes), &mut request);
        let expected = req.op.expected_status(etag.is_some());
        let u = req.op.url().map(url).unwrap_or_default();

        let root = tr.open("request", None);
        let (wire_req, parse_ns) = tr.time("wire.parse", root, || parse(&request));
        let Some(wire_req) = wire_req else {
            t.failed += 1;
            tr.close(root);
            continue;
        };
        let misses = server.cache_stats().misses();
        let pre = match req.op {
            Op::Remember { .. } => repo.load(&u).ok().flatten(),
            _ => None,
        };
        let polls = engine.web().stats().requests;
        let counters = match req.op {
            Op::Remember { .. } => store_counters(&registry),
            _ => [0; 3],
        };
        let (resp, respond_ns) = match req.op {
            Op::Remember { .. } => tr.time("adapter.remember", root, || {
                remember_route(&fixture, &wire_req)
            }),
            // With a metrics registry installed the report page embeds
            // it, spans and all; answer reports without one so the page
            // and its cost are the untraced run's.
            Op::Report => {
                aide_obs::uninstall();
                let answer = tr.time("serve.respond", root, || server.respond(&wire_req));
                aide_obs::install(registry.clone());
                answer
            }
            _ => tr.time("serve.respond", root, || server.respond(&wire_req)),
        };
        let (bytes, serialize_ns) = tr.time("wire.serialize", root, || resp.serialize(false));
        let cold = server.cache_stats().misses() > misses;
        t.real_ns.push(parse_ns + respond_ns + serialize_ns);
        if resp.status != expected {
            t.failed += 1;
        }
        if let (Some(k), Some(tag)) = (req.key, resp.find_header("ETag")) {
            etags[k] = Some(format!("\"{}\"", tag.trim_matches('"')));
        }
        let respond_us = respond_ns as f64 / 1e3;
        let mut note = |op: &'static str| t.respond_us.entry(op).or_default().push(respond_us);
        match req.op {
            Op::Remember { url } => {
                note("snapshot.remember");
                let after = store_counters(&registry);
                for (d, (a, b)) in t.store_deltas.iter_mut().zip(after.iter().zip(counters)) {
                    *d += a - b;
                }
                t.remembers += 1;
                if let Some(rev) = crate::fixture::remembered_rev(&resp.body) {
                    acked[url] = acked[url].max(rev);
                }
            }
            Op::Report => {
                note("w3newer.report");
                t.reports += 1;
                t.polls += engine.web().stats().requests - polls;
            }
            Op::History { .. } => note("snapshot.history"),
            Op::Diff { .. } | Op::DiffNewest { .. } if cold => note("snapshot.diff"),
            Op::View { .. } if cold => note("snapshot.view"),
            _ => {}
        }
        if !req.op.is_write() {
            t.reads += 1;
            t.bytes_out += bytes.len() as u64;
            if idx >= plan.warmup {
                t.read_ms
                    .push((parse_ns + respond_ns + serialize_ns) as f64 / 1e6);
            }
        }

        // Split the cold answers by layer.
        let replay_needed = cold || matches!(req.op, Op::Timegate { .. } | Op::Remember { .. });
        if replay_needed && resp.status < 400 {
            let parent = tr.open("replay", Some(root));
            let load = |tr: &mut Tracer| {
                tr.time("store.load", parent, || repo.load(&u).ok().flatten())
                    .0
            };
            match req.op {
                Op::Diff { from, to, .. } => {
                    replay_diff(&mut tr, parent, load, from, to, &opts, &mut t)
                }
                Op::DiffNewest { .. } => {
                    replay_diff(&mut tr, parent, load, newest - 1, newest, &opts, &mut t)
                }
                Op::View { rev, .. } => replay_view(&mut tr, parent, load, &u, |_| RevId(rev)),
                Op::Timegate { rev, .. } => {
                    let when = rev.map(rev_date).unwrap_or_else(|| engine.clock().now());
                    replay_view(&mut tr, parent, load, &u, |a| a.closest_to(when).0);
                }
                Op::History { .. } | Op::Timemap { .. } => {
                    load(&mut tr);
                }
                Op::Remember { .. } => {
                    let (page, _) = tr.time("simweb.fetch", parent, || {
                        fetch_page(engine.web(), None, &u)
                    });
                    load(&mut tr);
                    if let (Ok(page), Some(pre)) = (page, pre) {
                        t.page_bytes += page.body.len() as u64;
                        let now = engine.clock().now();
                        let log = format!("checked in by {USER}");
                        let (archive, _) = tr.time("rcs.checkin", parent, || {
                            let mut a = (*pre).clone();
                            let _ = a.checkin(&page.body, USER, &log, now);
                            a
                        });
                        let (stored, _) =
                            tr.time("store.store", parent, || replay_repo.store(&u, &archive));
                        if stored.is_err() {
                            t.failed += 1;
                        }
                    }
                }
                Op::Report => {}
            }
            tr.close(parent);
        }
        tr.close(root);
    }
    aide_obs::uninstall();

    write_spans(&tr.spans, &scratch.join("spans.tsv"))?;
    Ok(summarize(
        spec,
        plan,
        &tr,
        &t,
        &server,
        &registry,
        repo.as_ref(),
        store_dir,
    ))
}

/// Replays a cold `/diff`: load, two checkouts, two tokenizations, the
/// alignment alone, then `diff_tokens` (which aligns again and renders).
fn replay_diff(
    tr: &mut Tracer,
    parent: usize,
    load: impl Fn(&mut Tracer) -> Option<Arc<Archive>>,
    from: u32,
    to: u32,
    opts: &DiffOptions,
    t: &mut Tally,
) {
    let Some(archive) = load(tr) else { return };
    let (old, _) = tr.time("rcs.checkout", parent, || {
        archive.checkout(RevId(from)).unwrap_or_default()
    });
    let (new, _) = tr.time("rcs.checkout", parent, || {
        archive.checkout(RevId(to)).unwrap_or_default()
    });
    let (old_t, _) = tr.time("htmldiff.tokenize", parent, || tokenize(&old));
    let (new_t, _) = tr.time("htmldiff.tokenize", parent, || tokenize(&new));
    let mut labeled = opts.clone();
    labeled.old_label = RevId(from).to_string();
    labeled.new_label = RevId(to).to_string();
    let (_, align_ns) = tr.time("htmldiff.align", parent, || {
        compare_tokens(&old_t, &new_t, &labeled.compare)
    });
    let (_, diff_ns) = tr.time("htmldiff.diff_tokens", parent, || {
        aide_htmldiff::present::diff_tokens(&old_t, &new_t, &labeled)
    });
    t.render_us
        .push(diff_ns.saturating_sub(align_ns) as f64 / 1e3);
    t.tokens.push((old_t.len() + new_t.len()) as f64);
}

/// Replays a BASE-rewritten page (`/view`, and the memento lookup every
/// `/timegate` performs): load, checkout of the revision `pick` names,
/// lex, rewrite, serialize.
fn replay_view(
    tr: &mut Tracer,
    parent: usize,
    load: impl Fn(&mut Tracer) -> Option<Arc<Archive>>,
    u: &str,
    pick: impl FnOnce(&Archive) -> RevId,
) {
    let Some(archive) = load(tr) else { return };
    let rev = pick(&archive);
    let (body, _) = tr.time("rcs.checkout", parent, || {
        archive.checkout(rev).unwrap_or_default()
    });
    let Ok(base) = Url::parse(u) else { return };
    let (tokens, _) = tr.time("htmlkit.lex", parent, || lex(&body));
    let (rewritten, _) = tr.time("htmlkit.rewrite_base", parent, || {
        rewrite_base(&tokens, &base)
    });
    tr.time("htmlkit.serialize", parent, || serialize(&rewritten));
}

fn write_spans(spans: &[Span], path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("spans: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    let mut write = || -> std::io::Result<()> {
        writeln!(out, "req\tspan\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".to_string());
            writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{}\t{}",
                s.req, s.name, s.start, s.end
            )?;
        }
        out.flush()
    };
    write().map_err(|e| format!("spans: {e}"))
}

/// Bytes of every file under `dir`.
fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => disk_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Spans timed in the replay, in the order the summary lists them.
const LAYER_SPANS: &[&str] = &[
    "simweb.fetch",
    "store.load",
    "rcs.checkout",
    "rcs.checkin",
    "store.store",
    "htmlkit.lex",
    "htmlkit.rewrite_base",
    "htmlkit.serialize",
    "htmldiff.tokenize",
    "htmldiff.align",
    "htmldiff.diff_tokens",
];

#[allow(clippy::too_many_arguments)]
fn summarize<R: Repository>(
    spec: &FixtureSpec,
    plan: &Plan,
    tr: &Tracer,
    t: &Tally,
    server: &AideServer<Arc<R>>,
    registry: &MetricsRegistry,
    repo: &R,
    store_dir: Option<&Path>,
) -> TraceResult {
    // Self time: a span's duration minus its children's.
    let mut child_ns = vec![0u64; tr.spans.len()];
    for s in &tr.spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    let mut self_us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut self_sum: BTreeMap<&str, u64> = BTreeMap::new();
    for (s, kids) in tr.spans.iter().zip(&child_ns) {
        let own = s.ns().saturating_sub(*kids);
        self_us.entry(s.name).or_default().push(own as f64 / 1e3);
        *self_sum.entry(s.name).or_default() += own;
    }
    let real_total: u64 = t.real_ns.iter().sum();
    let sum = |name: &str| self_sum.get(name).copied().unwrap_or(0);
    // `diff_tokens` aligns again before rendering; only its excess over
    // the pair's own alignment is render time.
    let render_ns = (t.render_us.iter().sum::<f64>() * 1e3) as u64;
    let effective = |name: &str| {
        if name == "htmldiff.diff_tokens" {
            render_ns
        } else {
            sum(name)
        }
    };
    let report_ns = (t
        .respond_us
        .get("w3newer.report")
        .map(|v| v.iter().sum::<f64>())
        .unwrap_or(0.0)
        * 1e3) as u64;
    let attributed = sum("wire.parse")
        + sum("wire.serialize")
        + report_ns
        + LAYER_SPANS.iter().map(|n| effective(n)).sum::<u64>();
    let median = |name: &str| quantile(&mut self_us.get(name).cloned().unwrap_or_default(), 0.5);
    let respond = |op: &str| quantile(&mut t.respond_us.get(op).cloned().unwrap_or_default(), 0.5);

    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "# traced {}: {} requests, {} spans; request time {:.3} s",
        spec.workload.name(),
        plan.reqs.len(),
        tr.spans.len(),
        real_total as f64 / 1e9
    );
    let _ = writeln!(
        out,
        "# {:<22} {:>8} {:>14} {:>8}",
        "span", "calls", "median self us", "share"
    );
    let rows = [
        "wire.parse",
        "serve.respond",
        "adapter.remember",
        "wire.serialize",
        "replay",
    ];
    for name in rows.iter().chain(LAYER_SPANS) {
        let calls = self_us.get(name).map(Vec::len).unwrap_or(0);
        let (label, med) = if *name == "htmldiff.diff_tokens" {
            ("htmldiff.render", quantile(&mut t.render_us.clone(), 0.5))
        } else {
            (*name, median(name))
        };
        let share = if rows[..4].contains(name) || *name == "replay" {
            ratio(sum(name) as f64, real_total as f64)
        } else {
            ratio(effective(name) as f64, real_total as f64)
        };
        let _ = writeln!(out, "# {label:<22} {calls:>8} {med:>14.2} {share:>8.4}");
    }
    let _ = writeln!(
        out,
        "# {:<22} {:>8} {:>14.2} {:>8.4}",
        "w3newer.report",
        t.reports,
        respond("w3newer.report"),
        ratio(report_ns as f64, real_total as f64)
    );
    let unattributed = 1.0 - ratio(attributed as f64, real_total as f64);
    let _ = writeln!(
        out,
        "# unattributed share {unattributed:.4} (routing, locks, cache probes, ETags)"
    );

    let snap = registry.snapshot();
    let count = |n: &str| snap.counters.get(n).copied().unwrap_or(0) as f64;
    let mean = |n: &str| {
        snap.histograms
            .get(n)
            .map(|h| ratio(h.sum as f64, h.count as f64))
            .unwrap_or(0.0)
    };
    let cache = server.cache_stats();
    let diff_cache = server.engine().snapshot().diff_cache_stats();
    let live = repo.stats().map(|s| s.bytes as f64).unwrap_or(0.0);
    let disk = store_dir.map(disk_bytes).unwrap_or(0) as f64;
    let compares = count("htmldiff.compare");
    let mut read_ms = t.read_ms.clone();
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m("wire.parse_us", median("wire.parse"), "us"),
        m("wire.serialize_us", median("wire.serialize"), "us"),
        m("serve.respond_us", median("serve.respond"), "us"),
        m(
            "serve.not_modified_ratio",
            ratio(server.stats().not_modified() as f64, t.reads as f64),
            "ratio",
        ),
        m(
            "serve.render_cache_hit_ratio",
            ratio(cache.hits() as f64, (cache.hits() + cache.misses()) as f64),
            "ratio",
        ),
        m(
            "serve.bytes_out_per_req",
            ratio(t.bytes_out as f64, t.reads as f64),
            "B",
        ),
        m("snapshot.diff_us", respond("snapshot.diff"), "us"),
        m("snapshot.view_us", respond("snapshot.view"), "us"),
        m("snapshot.history_us", respond("snapshot.history"), "us"),
        m("snapshot.remember_us", respond("snapshot.remember"), "us"),
        m(
            "snapshot.diff_cache_hit_ratio",
            diff_cache.hit_ratio(),
            "ratio",
        ),
        m("rcs.checkout_us", median("rcs.checkout"), "us"),
        m("rcs.checkout_chain", mean("rcs.checkout.chain"), "count"),
        m("rcs.checkin_us", median("rcs.checkin"), "us"),
        m("htmlkit.lex_us", median("htmlkit.lex"), "us"),
        m(
            "htmlkit.rewrite_base_us",
            median("htmlkit.rewrite_base"),
            "us",
        ),
        m("htmldiff.tokenize_us", median("htmldiff.tokenize"), "us"),
        m("htmldiff.align_us", median("htmldiff.align"), "us"),
        m(
            "htmldiff.render_us",
            quantile(&mut t.render_us.clone(), 0.5),
            "us",
        ),
        m(
            "htmldiff.tokens_per_diff",
            quantile(&mut t.tokens.clone(), 0.5),
            "count",
        ),
        m(
            "diffcore.gap_cells_per_diff",
            mean("htmldiff.anchor.gap_cells"),
            "count",
        ),
        m(
            "diffcore.anchor_coverage_permille",
            mean("htmldiff.anchor.coverage_permille"),
            "permille",
        ),
        m(
            "diffcore.fallback.dense",
            ratio(count("diff.fallback.dense"), compares),
            "count",
        ),
        m(
            "diffcore.fallback.banded",
            ratio(count("diff.fallback.banded"), compares),
            "count",
        ),
        m(
            "diffcore.fallback.hirschberg",
            ratio(count("diff.fallback.hirschberg"), compares),
            "count",
        ),
        m("store.load_us", median("store.load"), "us"),
        m("store.store_us", median("store.store"), "us"),
        m(
            "store.fsyncs_per_write",
            ratio(t.store_deltas[1] as f64, t.remembers as f64),
            "count",
        ),
        m(
            "store.wal_bytes_per_page_byte",
            ratio(t.store_deltas[2] as f64, t.page_bytes as f64),
            "ratio",
        ),
        m("store.checkpoints", count("store.checkpoint"), "count"),
        m("store.compactions", count("store.compaction"), "count"),
        m("store.disk_bytes_per_live_byte", ratio(disk, live), "ratio"),
        m("w3newer.report_us", respond("w3newer.report"), "us"),
        m(
            "w3newer.polls_per_report",
            ratio(t.polls as f64, t.reports as f64),
            "count",
        ),
        m("simweb.fetch_us", median("simweb.fetch"), "us"),
        m("trace.p50_ms", quantile(&mut read_ms, 0.5), "ms"),
        m("trace.unattributed_share", unattributed, "ratio"),
    ];
    TraceResult {
        attempted: plan.reqs.len(),
        failed: t.failed,
        metrics,
    }
}
