//! The in-process reference: the same fixture, served by an in-process
//! `AideServer`, answers every request whose page is a pure function of
//! immutable archive state; the client's digests must match.

use crate::drive::Sample;
use crate::fixture::Fixture;
use crate::spec::{Digest, FixtureSpec, Op, Plan};
use aide_rcs::repo::MemRepository;
use aide_serve::AideServer;
use aide_simweb::wire::{RequestParser, WireRequest};
use aide_util::checksum::fnv1a64;
use std::collections::HashMap;
use std::sync::Arc;

/// Parses one serialized request.
pub fn parse(bytes: &[u8]) -> Option<WireRequest> {
    let mut parser = RequestParser::new();
    parser.push(bytes);
    parser.take_request().ok().flatten()
}

/// Marks every sample whose digest differs from the reference's as
/// failed and returns how many did. With `poison`, the first expected
/// digest is corrupted, which must surface as a failure.
pub fn check(spec: &FixtureSpec, plan: &Plan, samples: &mut [Sample], poison: bool) -> usize {
    let fixture = Fixture::build(spec, Arc::new(MemRepository::new()));
    // Writes first, in list order: each URL then holds every revision
    // any read of the run could name, with the same text.
    if spec.workload.disk() {
        for req in &plan.reqs {
            if let Op::Remember { url } = req.op {
                fixture.remember(url);
            }
        }
    }
    let server = AideServer::new(fixture.engine.clone());

    let mut jobs: Vec<(Op, u32)> = Vec::new();
    let mut job_of: HashMap<(Op, u32), usize> = HashMap::new();
    let mut sample_job: Vec<Option<usize>> = vec![None; samples.len()];
    for (si, s) in samples.iter().enumerate() {
        let op = plan.reqs[s.idx].op;
        if !s.ok || s.digest.is_none() {
            continue;
        }
        let key = (op, s.newest);
        let next = jobs.len();
        let job = *job_of.entry(key).or_insert_with(|| {
            jobs.push(key);
            next
        });
        sample_job[si] = Some(job);
    }

    let workers = crate::server::workers();
    let mut expected = vec![0u64; jobs.len()];
    let chunk = jobs.len().div_ceil(workers).max(1);
    std::thread::scope(|s| {
        for (slots, work) in expected.chunks_mut(chunk).zip(jobs.chunks(chunk)) {
            let server = &server;
            s.spawn(move || {
                let mut buf = Vec::new();
                for (slot, (op, newest)) in slots.iter_mut().zip(work) {
                    op.write_request(*newest, None, &mut buf);
                    let Some(req) = parse(&buf) else { continue };
                    let resp = server.respond(&req);
                    *slot = match op.digest() {
                        Digest::Body => fnv1a64(&resp.body),
                        Digest::Location => resp
                            .find_header("Location")
                            .map(|l| fnv1a64(l.as_bytes()))
                            .unwrap_or(0),
                        Digest::None => 0,
                    };
                }
            });
        }
    });
    if poison {
        if let Some(first) = expected.first_mut() {
            *first ^= 1;
        }
    }

    let mut mismatches = 0;
    for (s, job) in samples.iter_mut().zip(sample_job) {
        if let Some(j) = job {
            if s.digest != Some(expected[j]) {
                eprintln!("aidebench: digest mismatch on {:?}", plan.reqs[s.idx].op);
                s.ok = false;
                mismatches += 1;
            }
        }
    }
    mismatches
}
