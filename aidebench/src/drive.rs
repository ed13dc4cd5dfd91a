//! The end-to-end run: spawn the server process, replay the plan over
//! real TCP in a closed loop, read the server's CPU time and peak RSS
//! from `/proc`, then check every answer against an in-process
//! reference.

use crate::client::Conn;
use crate::fixture::remembered_rev;
use crate::report::{quantile, ratio, Metric};
use crate::spec::{Digest, FixtureSpec, Plan};
use crate::verify;
use aide_util::checksum::fnv1a64;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Longest ETag the client remembers.
const MAX_ETAG: usize = 64;

/// Consecutive passes the measured requests are split into. Each time
/// metric is the mean of its per-pass values. On a shared host the
/// cores switch between faster and slower phases every few seconds; a
/// median over passes jumps with whichever phase held most passes,
/// while the mean follows the share of time spent in each.
const PASSES: usize = 10;

/// Units of the CPU times in `/proc/<pid>/stat`: Linux reports them in
/// USER_HZ, which it fixes at 100 per second for user space.
const CLK_TCK: f64 = 100.0;

/// Options of one end-to-end run.
pub struct DriveOpts {
    /// The fixture.
    pub spec: FixtureSpec,
    /// The request list.
    pub plan: Plan,
    /// Directory for the disk store.
    pub scratch: PathBuf,
    /// Single set-up instead of the workload's several (self-tests).
    pub tiny: bool,
    /// Corrupt one expected digest (self-test of the checker).
    pub poison: bool,
}

/// What became of one request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the plan.
    pub idx: usize,
    /// Send to last response byte, reconnect included.
    pub ns: u64,
    /// Transport succeeded and the status was the expected one.
    pub ok: bool,
    /// FNV-1a of what [`crate::spec::Op::digest`] names, when the answer
    /// carried it (a 304 has no body to check).
    pub digest: Option<u64>,
    /// Head revision named by a `DiffNewest`.
    pub newest: u32,
}

/// A spawned server process; killed and reaped on drop.
struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    reads: SocketAddr,
    writes: SocketAddr,
}

impl ServerProc {
    /// Spawns the server and waits until it is ready; returns it with
    /// the set-up wall time in seconds.
    fn spawn(spec: &FixtureSpec, store: &Path) -> Result<(ServerProc, f64), String> {
        if store.exists() {
            std::fs::remove_dir_all(store).map_err(|e| format!("clear store: {e}"))?;
        }
        std::fs::create_dir_all(store).map_err(|e| format!("create store: {e}"))?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let mut child = Command::new(exe)
            .arg("serve")
            .args(spec.to_args())
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout not piped".to_string());
        };
        let mut proc = ServerProc {
            child,
            stdout: BufReader::new(stdout),
            reads: SocketAddr::from(([127, 0, 0, 1], 0)),
            writes: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = proc.line()?;
        let secs = t0.elapsed().as_secs_f64();
        let ports: Vec<u16> = line
            .strip_prefix("READY ")
            .ok_or_else(|| format!("server said {line:?}"))?
            .split(' ')
            .filter_map(|p| p.parse().ok())
            .collect();
        let [reads, writes] = ports[..] else {
            return Err(format!("server said {line:?}"));
        };
        proc.reads.set_port(reads);
        proc.writes.set_port(writes);
        Ok((proc, secs))
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(n) if n > 0 => Ok(line.trim_end().to_string()),
            _ => Err("server exited early".to_string()),
        }
    }

    fn proc_file(&self, name: &str) -> String {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id())).unwrap_or_default()
    }

    /// User plus system CPU of every thread, in clock ticks.
    fn cpu_ticks(&self) -> u64 {
        let stat = self.proc_file("stat");
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let after = stat.rsplit_once(')').map(|(_, a)| a).unwrap_or("");
        let fields: Vec<&str> = after.split_whitespace().collect();
        let field = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        field(11).unwrap_or(0) + field(12).unwrap_or(0)
    }

    /// Peak resident set (`VmHWM`) in KiB.
    fn peak_rss_kib(&self) -> u64 {
        self.proc_file("status")
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    /// Closes the server's stdin and collects its `STATS` line.
    fn stop(mut self) -> Result<(u64, u64), String> {
        drop(self.child.stdin.take());
        let line = self.line()?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        let nums: Vec<u64> = line
            .strip_prefix("STATS ")
            .ok_or_else(|| format!("server said {line:?}"))?
            .split(' ')
            .filter_map(|p| p.parse().ok())
            .collect();
        match nums[..] {
            [stored, pages] => Ok((stored, pages)),
            _ => Err(format!("server said {line:?}")),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// An ETag: its length and bytes.
type Tag = (usize, [u8; MAX_ETAG]);

/// What the client threads share, like one browser's connections: the
/// head revision acknowledged for each URL, and the ETag last received
/// for each repeatable request. Both are read before a request's clock
/// starts and written after it stops.
struct Shared {
    acked: Vec<AtomicU32>,
    etags: Vec<Mutex<Tag>>,
}

/// One client thread: a read connection and a remember connection.
struct Client {
    reads: Conn,
    writes: Conn,
    request: Vec<u8>,
    tag: Tag,
    samples: Vec<Sample>,
}

impl Client {
    fn new(server: &ServerProc, plan: &Plan) -> Client {
        Client {
            reads: Conn::new(server.reads),
            writes: Conn::new(server.writes),
            request: Vec::with_capacity(512),
            tag: (0, [0u8; MAX_ETAG]),
            samples: Vec::with_capacity(plan.reqs.len()),
        }
    }

    /// Sends plan entry `idx` and records the outcome.
    fn step(&mut self, plan: &Plan, idx: usize, shared: &Shared) {
        let req = plan.reqs[idx];
        let newest = match req.op {
            crate::spec::Op::DiffNewest { url } => shared.acked[url].load(Ordering::Acquire),
            _ => 0,
        };
        self.tag.0 = 0;
        if let (true, Some(k)) = (req.conditional, req.key) {
            self.tag = *lock(&shared.etags[k]);
        }
        let etag = (self.tag.0 > 0).then_some(&self.tag.1[..self.tag.0]);
        let expected = req.op.expected_status(etag.is_some());
        req.op.write_request(newest, etag, &mut self.request);
        let conn = if req.op.is_write() {
            &mut self.writes
        } else {
            &mut self.reads
        };
        let t0 = Instant::now();
        let answer = conn.exchange(&self.request);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut sample = Sample {
            idx,
            ns,
            ok: false,
            digest: None,
            newest,
        };
        if let Ok(a) = answer {
            sample.ok = a.status == expected;
            sample.digest = match req.op.digest() {
                Digest::Body if a.status == 200 => Some(fnv1a64(conn.body(&a))),
                Digest::Location => Some(a.location.map(|l| fnv1a64(conn.slice(l))).unwrap_or(0)),
                _ => None,
            };
            if let (Some(k), Some(tag)) = (req.key, a.etag) {
                remember_etag(&mut lock(&shared.etags[k]), conn.slice(tag));
            }
            if let (crate::spec::Op::Remember { url }, true) = (req.op, sample.ok) {
                match remembered_rev(conn.body(&a)) {
                    Some(rev) => {
                        shared.acked[url].fetch_max(rev, Ordering::AcqRel);
                    }
                    None => sample.ok = false,
                }
            }
        }
        self.samples.push(sample);
    }
}

fn lock(tag: &Mutex<Tag>) -> std::sync::MutexGuard<'_, Tag> {
    tag.lock().unwrap_or_else(|e| e.into_inner())
}

fn remember_etag(slot: &mut Tag, tag: &[u8]) {
    if tag.len() <= MAX_ETAG {
        slot.1[..tag.len()].copy_from_slice(tag);
        slot.0 = tag.len();
    }
}

/// Replays plan entries `range` over `clients`, one thread each, taking
/// entries in list order from a shared index (closed loop, zero think
/// time).
fn replay(clients: &mut [Client], plan: &Plan, range: std::ops::Range<usize>, shared: &Shared) {
    let next = AtomicUsize::new(range.start);
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            let next = &next;
            let end = range.end;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= end {
                    break;
                }
                client.step(plan, i, shared);
            });
        }
    });
}

/// The outcome of one end-to-end run.
pub struct DriveResult {
    /// Every check passed.
    pub correct: bool,
    /// Requests sent.
    pub attempted: usize,
    /// Requests with a wrong status, a wrong digest or a dropped
    /// connection.
    pub failed: usize,
    /// End-to-end metrics.
    pub metrics: Vec<Metric>,
}

/// One measured pass: a consecutive slice of the measured requests.
struct Pass {
    range: std::ops::Range<usize>,
    wall: f64,
    cpu_ms: f64,
}

/// Everything measured over one server process.
struct Measured {
    samples: Vec<Sample>,
    passes: Vec<Pass>,
    /// Set-up times of the spare servers spawned between passes.
    spare_setups: Vec<f64>,
    rss_kib: u64,
    stored: u64,
    pages: u64,
}

/// Replays the warm-up untimed, then [`PASSES`] passes with the
/// server's CPU read around each, and stops the server. Between passes
/// it spawns `spares` more servers, spread evenly, only to time their
/// set-up; their store is `spare_store`.
fn measure(
    server: ServerProc,
    opts: &DriveOpts,
    spares: usize,
    spare_store: &Path,
) -> Result<Measured, String> {
    let (spec, plan) = (&opts.spec, &opts.plan);
    let shared = Shared {
        acked: (0..spec.urls)
            .map(|_| AtomicU32::new(spec.revisions))
            .collect(),
        etags: (0..plan.keys)
            .map(|_| Mutex::new((0, [0; MAX_ETAG])))
            .collect(),
    };
    let mut clients: Vec<Client> = (0..spec.workload.connections())
        .map(|_| Client::new(&server, plan))
        .collect();
    replay(&mut clients, plan, 0..plan.warmup, &shared);
    let measured = plan.reqs.len() - plan.warmup;
    let mut passes = Vec::with_capacity(PASSES);
    let mut spare_setups = Vec::with_capacity(spares);
    for k in 0..PASSES {
        let range = plan.warmup + measured * k / PASSES..plan.warmup + measured * (k + 1) / PASSES;
        let cpu0 = server.cpu_ticks();
        let t0 = Instant::now();
        replay(&mut clients, plan, range.clone(), &shared);
        let wall = t0.elapsed().as_secs_f64();
        let cpu_ms = (server.cpu_ticks() - cpu0) as f64 * 1000.0 / CLK_TCK;
        passes.push(Pass {
            range,
            wall,
            cpu_ms,
        });
        for _ in spares * k / PASSES..spares * (k + 1) / PASSES {
            let (spare, secs) = ServerProc::spawn(&opts.spec, spare_store)?;
            spare_setups.push(secs);
            spare.stop()?;
        }
    }
    let rss_kib = server.peak_rss_kib();
    let (stored, pages) = server.stop()?;
    Ok(Measured {
        samples: clients.into_iter().flat_map(|c| c.samples).collect(),
        passes,
        spare_setups,
        rss_kib,
        stored,
        pages,
    })
}

/// The mean of `f` over the passes.
fn mean_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    passes.iter().map(f).sum::<f64>() / passes.len() as f64
}

/// Runs the end-to-end benchmark.
pub fn run(opts: &DriveOpts) -> Result<DriveResult, String> {
    let spec = &opts.spec;
    let plan = &opts.plan;
    // Per process, so runs sharing a checkout cannot collide.
    let store = opts.scratch.join(format!("store-{}", std::process::id()));
    let spare_store = opts.scratch.join(format!("spare-{}", std::process::id()));
    let spares = if opts.tiny {
        0
    } else {
        spec.workload.setups() - 1
    };
    let (server, first_setup) = ServerProc::spawn(spec, &store)?;
    let mut run = measure(server, opts, spares, &spare_store)?;
    for dir in [&store, &spare_store] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut samples = std::mem::take(&mut run.samples);
    let mismatches = verify::check(spec, plan, &mut samples, opts.poison);

    // Read latencies in ms by plan index; NaN elsewhere.
    let mut ms = vec![f64::NAN; plan.reqs.len()];
    for s in samples.iter().filter(|s| s.idx >= plan.warmup) {
        ms[s.idx] = s.ns as f64 / 1e6;
    }
    let reads = |pass: &Pass| -> Vec<f64> {
        pass.range
            .clone()
            .filter(|&i| !plan.reqs[i].op.is_write())
            .map(|i| ms[i])
            .collect()
    };
    let p50_of = |p: &Pass| quantile(&mut reads(p), 0.5);
    let p90_of = |p: &Pass| quantile(&mut reads(p), 0.9);
    let cpu_of = |p: &Pass| ratio(p.cpu_ms, p.range.len() as f64);
    let failed = samples.iter().filter(|s| !s.ok).count();
    let measured_n = plan.reqs.len() - plan.warmup;
    let wall: f64 = run.passes.iter().map(|p| p.wall).sum();
    let mut setup_secs = vec![first_setup];
    setup_secs.extend(&run.spare_setups);
    let setup = quantile(&mut setup_secs.clone(), 0.5);
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> String {
        let v: Vec<String> = run.passes.iter().map(|p| format!("{:.4}", f(p))).collect();
        v.join(" ")
    };

    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "# {}: {} urls x {} revisions, list {} = warm-up {} + measured {} in {PASSES} passes, {} connection(s)",
        spec.workload.name(),
        spec.urls,
        spec.revisions,
        plan.reqs.len(),
        plan.warmup,
        measured_n,
        spec.workload.connections(),
    );
    let _ = writeln!(
        out,
        "# measured {wall:.3} s, {:.1} req/s; set-ups {setup_secs:.3?} s; digest mismatches {mismatches}",
        measured_n as f64 / wall
    );
    let _ = writeln!(
        out,
        "# per pass: p50_ms {}; p90_ms {}; cpu_ms_per_req {}",
        per_pass(&p50_of),
        per_pass(&p90_of),
        per_pass(&cpu_of),
    );
    Ok(DriveResult {
        correct: failed == 0,
        attempted: samples.len(),
        failed,
        metrics: vec![
            Metric {
                name: "setup_s",
                value: setup,
                unit: "s",
            },
            Metric {
                name: "p50_ms",
                value: mean_of(&run.passes, p50_of),
                unit: "ms",
            },
            Metric {
                name: "p90_ms",
                value: mean_of(&run.passes, p90_of),
                unit: "ms",
            },
            Metric {
                name: "cpu_ms_per_req",
                value: mean_of(&run.passes, cpu_of),
                unit: "ms",
            },
            Metric {
                name: "rss_mb",
                value: run.rss_kib as f64 / 1024.0,
                unit: "MB",
            },
            Metric {
                name: "store_bytes_per_page_byte",
                value: ratio(run.stored as f64, run.pages as f64),
                unit: "ratio",
            },
        ],
    })
}
