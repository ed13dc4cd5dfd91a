//! `aide-rcs` — ci / co / rlog / rcsdiff over `,v` archive files
//! (the operations behind the paper's §8.1 CGI scripts).

use aide_cli::args::{parse_rcs, RcsCommand, RCS_USAGE};
use aide_diffcore::lines::diff_lines;
use aide_htmldiff::{html_diff, Options as DiffOptions};
use aide_rcs::archive::{Archive, RevId};
use aide_rcs::format::{emit, parse};
use aide_util::time::{Duration, Timestamp};
use std::io::Write;
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("aide-rcs: {msg}");
    ExitCode::from(2)
}

/// Writes to stdout; a closed pipe (e.g. `| head`) ends the program
/// quietly instead of panicking.
fn emit_stdout(s: &str) {
    if std::io::stdout().write_all(s.as_bytes()).is_err() {
        std::process::exit(0);
    }
}

fn load(path: &str) -> Result<Archive, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn rev_of(s: &str) -> Result<RevId, String> {
    RevId::parse(s).ok_or_else(|| format!("bad revision {s:?} (expected 1.N)"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_rcs(&argv) {
        Ok(c) => c,
        Err(_) => {
            eprintln!("{RCS_USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(cmd) {
        Ok(code) => code,
        Err(msg) => fail(&msg),
    }
}

fn run(cmd: RcsCommand) -> Result<ExitCode, String> {
    match cmd {
        RcsCommand::Checkin {
            archive,
            file,
            log,
            author,
            date,
        } => {
            let body = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
            let when = match &date {
                Some(d) => Timestamp::parse_rcs_date(d).ok_or_else(|| format!("bad date {d:?}"))?,
                None => Timestamp::EPOCH, // adjusted below when appending
            };
            let text = match std::fs::read_to_string(&archive) {
                Ok(existing) => {
                    let mut a = parse(&existing).map_err(|e| format!("{archive}: {e}"))?;
                    let head_date = a.metas().last().expect("nonempty").date;
                    let when = if date.is_some() {
                        when
                    } else {
                        head_date + Duration::seconds(1)
                    };
                    let out = a
                        .checkin(&body, &author, &log, when)
                        .map_err(|e| e.to_string())?;
                    eprintln!(
                        "{archive}  <--  {file}\nnew revision: {}{}",
                        out.rev(),
                        if out.is_new() {
                            ""
                        } else {
                            " (unchanged; nothing stored)"
                        }
                    );
                    emit(&a)
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    let a = Archive::create(&file, &body, &author, &log, when);
                    eprintln!("{archive}  <--  {file}\ninitial revision: 1.1");
                    emit(&a)
                }
                Err(e) => return Err(format!("{archive}: {e}")),
            };
            std::fs::write(&archive, text).map_err(|e| format!("{archive}: {e}"))?;
            Ok(ExitCode::SUCCESS)
        }
        RcsCommand::Checkout { archive, rev, date } => {
            let a = load(&archive)?;
            let body = match (rev, date) {
                (Some(r), _) => a.checkout(rev_of(&r)?).map_err(|e| e.to_string())?,
                (None, Some(d)) => {
                    let when =
                        Timestamp::parse_rcs_date(&d).ok_or_else(|| format!("bad date {d:?}"))?;
                    a.checkout_at(when).map_err(|e| e.to_string())?.1
                }
                (None, None) => a.head_text().to_string(),
            };
            emit_stdout(&body);
            Ok(ExitCode::SUCCESS)
        }
        RcsCommand::Log { archive } => {
            let a = load(&archive)?;
            let mut out = format!(
                "RCS file: {archive}\nhead: {}\ndescription: {}\ntotal revisions: {}\n{}\n",
                a.head(),
                a.description,
                a.len(),
                "-".repeat(28)
            );
            for meta in a.log() {
                out.push_str(&format!(
                    "revision {}\ndate: {};  author: {};  bytes: {}\n{}\n{}\n",
                    meta.id,
                    meta.date.to_rcs_date(),
                    meta.author,
                    meta.text_len,
                    meta.log,
                    "-".repeat(28)
                ));
            }
            emit_stdout(&out);
            Ok(ExitCode::SUCCESS)
        }
        RcsCommand::Diff {
            archive,
            from,
            to,
            html,
        } => {
            let a = load(&archive)?;
            let old = a.checkout(rev_of(&from)?).map_err(|e| e.to_string())?;
            let new = a.checkout(rev_of(&to)?).map_err(|e| e.to_string())?;
            if html {
                let opts = DiffOptions {
                    old_label: from.clone(),
                    new_label: to.clone(),
                    ..DiffOptions::default()
                };
                emit_stdout(&html_diff(&old, &new, &opts).html);
            } else {
                emit_stdout(&diff_lines(&old, &new).unified(&from, &to, 3));
            }
            Ok(if old == new {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
    }
}
