//! Virtual time: timestamps, durations and a shared simulated clock.
//!
//! All AIDE components are written against [`Clock`], so an entire
//! multi-month "deployment" (the paper reports on roughly half a year of
//! use, §7) runs deterministically in milliseconds of real time.
//!
//! [`Timestamp`] counts whole seconds since the Unix epoch, which is the
//! resolution HTTP `Last-Modified` and RCS datestamps share. Formatting
//! helpers produce the two 1995-era renderings the tools exchange:
//! RFC-1123 dates for HTTP headers and `YYYY.MM.DD.hh.mm.ss` for RCS.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point in time, in whole seconds since `1970-01-01T00:00:00Z`.
///
/// # Examples
///
/// ```
/// use aide_util::time::Timestamp;
///
/// let t = Timestamp::from_ymd_hms(1995, 9, 29, 12, 0, 0);
/// assert_eq!(t.to_rcs_date(), "1995.09.29.12.00.00");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

/// A span of time, in whole seconds.
///
/// Parses and displays in the `w3newer` threshold syntax: combinations of
/// days (`d`), hours (`h`), minutes (`m`) and seconds (`s`), e.g. `2d`,
/// `12h`, or `1d12h`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Duration {
    /// Zero-length duration (w3newer's "check on every run").
    pub const ZERO: Duration = Duration(0);

    /// Constructs a duration from a number of seconds.
    pub const fn seconds(s: u64) -> Duration {
        Duration(s)
    }

    /// Constructs a duration from a number of minutes.
    pub const fn minutes(m: u64) -> Duration {
        Duration(m * 60)
    }

    /// Constructs a duration from a number of hours.
    pub const fn hours(h: u64) -> Duration {
        Duration(h * 3600)
    }

    /// Constructs a duration from a number of days.
    pub const fn days(d: u64) -> Duration {
        Duration(d * 86_400)
    }

    /// Returns the duration in whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Parses the w3newer threshold syntax.
    ///
    /// Accepts a concatenation of `<n>d`, `<n>h`, `<n>m`, `<n>s` components
    /// (at least one), or a bare integer meaning seconds. `0` therefore
    /// parses as [`Duration::ZERO`].
    ///
    /// # Examples
    ///
    /// ```
    /// use aide_util::time::Duration;
    ///
    /// assert_eq!(Duration::parse("2d").unwrap(), Duration::days(2));
    /// assert_eq!(
    ///     Duration::parse("1d12h").unwrap(),
    ///     Duration::seconds(36 * 3600)
    /// );
    /// assert_eq!(Duration::parse("0").unwrap(), Duration::ZERO);
    /// assert!(Duration::parse("abc").is_err());
    /// ```
    pub fn parse(s: &str) -> Result<Duration, DurationParseError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(DurationParseError::Empty);
        }
        let mut total: u64 = 0;
        let mut num: Option<u64> = None;
        for ch in s.chars() {
            match ch {
                '0'..='9' => {
                    let d = (ch as u8 - b'0') as u64;
                    num = Some(
                        num.unwrap_or(0)
                            .checked_mul(10)
                            .and_then(|n| n.checked_add(d))
                            .ok_or(DurationParseError::Overflow)?,
                    );
                }
                'd' | 'D' | 'h' | 'H' | 'm' | 'M' | 's' | 'S' => {
                    let n = num.take().ok_or(DurationParseError::MissingNumber)?;
                    let unit = match ch.to_ascii_lowercase() {
                        'd' => 86_400,
                        'h' => 3600,
                        'm' => 60,
                        _ => 1,
                    };
                    total = n
                        .checked_mul(unit)
                        .and_then(|x| total.checked_add(x))
                        .ok_or(DurationParseError::Overflow)?;
                }
                c if c.is_whitespace() => {}
                c => return Err(DurationParseError::BadChar(c)),
            }
        }
        if let Some(n) = num {
            // A trailing bare number counts as seconds ("90" == 90s).
            total = total.checked_add(n).ok_or(DurationParseError::Overflow)?;
        }
        Ok(Duration(total))
    }
}

/// Error from [`Duration::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurationParseError {
    /// The input was empty or all whitespace.
    Empty,
    /// A unit letter appeared with no preceding number.
    MissingNumber,
    /// A character outside the `[0-9dhms]` alphabet appeared.
    BadChar(char),
    /// The value does not fit in 64 bits of seconds.
    Overflow,
}

impl fmt::Display for DurationParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurationParseError::Empty => write!(f, "empty duration"),
            DurationParseError::MissingNumber => write!(f, "unit letter without a number"),
            DurationParseError::BadChar(c) => write!(f, "unexpected character {c:?} in duration"),
            DurationParseError::Overflow => write!(f, "duration too large"),
        }
    }
}

impl std::error::Error for DurationParseError {}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut left = self.0;
        if left == 0 {
            return write!(f, "0");
        }
        let days = left / 86_400;
        left %= 86_400;
        let hours = left / 3600;
        left %= 3600;
        let mins = left / 60;
        let secs = left % 60;
        let mut wrote = false;
        for (n, u) in [(days, 'd'), (hours, 'h'), (mins, 'm'), (secs, 's')] {
            if n > 0 {
                write!(f, "{n}{u}")?;
                wrote = true;
            }
        }
        if !wrote {
            write!(f, "0")?;
        }
        Ok(())
    }
}

impl std::ops::Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Sub<Timestamp> for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

const DAYS_IN_MONTH: [u64; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
const MONTH_NAMES: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];
const DAY_NAMES: [&str; 7] = ["Thu", "Fri", "Sat", "Sun", "Mon", "Tue", "Wed"];

fn is_leap(year: u64) -> bool {
    (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400)
}

/// The largest year the date parsers accept. Parsed dates come from
/// clients; four digits is all RFC 1123 and RCS stamps spell.
const MAX_PARSED_YEAR: u64 = 9999;

/// Days from 1970-01-01 to `year-month-day` (a valid date, year 1970 or
/// later), in closed form (Howard Hinnant's `days_from_civil`, counted in
/// 400-year eras from 0000-03-01). `None` on overflow.
fn days_from_civil(year: u64, month: u64, day: u64) -> Option<u64> {
    let y = if month <= 2 { year - 1 } else { year };
    let (era, yoe) = (y / 400, y % 400);
    let doy = (153 * ((month + 9) % 12) + 2) / 5 + day - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era.checked_mul(146_097)?
        .checked_add(doe)?
        .checked_sub(719_468)
}

/// The `(year, month, day)` `days` after 1970-01-01: the inverse of
/// [`days_from_civil`] (Hinnant's `civil_from_days`).
fn civil_from_days(days: u64) -> (u64, u64, u64) {
    let z = days + 719_468;
    let (era, doe) = (z / 146_097, z % 146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    (era * 400 + yoe + u64::from(month <= 2), month, day)
}

/// The timestamp of valid UTC calendar fields; `None` if a field is out
/// of range, the year is before 1970, or the seconds overflow.
fn from_fields([year, month, day, hour, min, sec]: [u64; 6]) -> Option<Timestamp> {
    if !(1..=12).contains(&month) || hour >= 24 || min >= 60 || sec >= 60 || year < 1970 {
        return None;
    }
    let dim = DAYS_IN_MONTH[(month - 1) as usize] + u64::from(month == 2 && is_leap(year));
    if !(1..=dim).contains(&day) {
        return None;
    }
    let secs = days_from_civil(year, month, day)?
        .checked_mul(86_400)?
        .checked_add(hour * 3600 + min * 60 + sec)?;
    Some(Timestamp(secs))
}

/// Calendar fields of a [`Timestamp`], in UTC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalendarDate {
    /// Full year, e.g. `1995`.
    pub year: u64,
    /// Month `1..=12`.
    pub month: u64,
    /// Day of month `1..=31`.
    pub day: u64,
    /// Hour `0..=23`.
    pub hour: u64,
    /// Minute `0..=59`.
    pub minute: u64,
    /// Second `0..=59`.
    pub second: u64,
    /// Day of week, `0` = Thursday (the epoch's weekday).
    pub weekday: u64,
}

impl Timestamp {
    /// The Unix epoch.
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Builds a timestamp from UTC calendar fields.
    ///
    /// # Panics
    ///
    /// Panics if `month` is outside `1..=12`, `day` outside the month, a
    /// time field is out of range, the year is before 1970, or the
    /// seconds since the epoch overflow `u64`; these indicate programmer
    /// error in test fixtures rather than runtime input.
    pub fn from_ymd_hms(year: u64, month: u64, day: u64, hour: u64, min: u64, sec: u64) -> Self {
        let t = from_fields([year, month, day, hour, min, sec]);
        assert!(
            t.is_some(),
            "calendar fields out of range: {year}-{month}-{day} {hour}:{min}:{sec}"
        );
        t.unwrap_or(Timestamp::EPOCH)
    }

    /// Decomposes into UTC calendar fields.
    pub fn calendar(self) -> CalendarDate {
        let days = self.0 / 86_400;
        let rem = self.0 % 86_400;
        let (year, month, day) = civil_from_days(days);
        CalendarDate {
            year,
            month,
            day,
            hour: rem / 3600,
            minute: (rem % 3600) / 60,
            second: rem % 60,
            weekday: days % 7,
        }
    }

    /// Formats as an RFC-1123 HTTP date: `Fri, 29 Sep 1995 12:00:00 GMT`.
    pub fn to_http_date(self) -> String {
        let c = self.calendar();
        format!(
            "{}, {:02} {} {} {:02}:{:02}:{:02} GMT",
            DAY_NAMES[c.weekday as usize],
            c.day,
            MONTH_NAMES[(c.month - 1) as usize],
            c.year,
            c.hour,
            c.minute,
            c.second
        )
    }

    /// Formats as an RCS datestamp: `1995.09.29.12.00.00`.
    pub fn to_rcs_date(self) -> String {
        let c = self.calendar();
        format!(
            "{:04}.{:02}.{:02}.{:02}.{:02}.{:02}",
            c.year, c.month, c.day, c.hour, c.minute, c.second
        )
    }

    /// Parses an RFC-1123 HTTP date produced by [`Timestamp::to_http_date`]
    /// (`Fri, 29 Sep 1995 12:00:00 GMT`). The weekday name is ignored —
    /// senders get it wrong often enough that RFC 7231 tells recipients
    /// to use only the date fields — but the shape must match exactly:
    /// this is the strict `IMF-fixdate` form, not the obsolete RFC-850
    /// or asctime variants.
    pub fn parse_http_date(s: &str) -> Option<Timestamp> {
        let s = s.trim();
        let rest = s.split_once(", ").map(|(_, r)| r)?;
        let rest = rest.strip_suffix(" GMT")?;
        // rest = "29 Sep 1995 12:00:00"
        let mut parts = rest.split(' ');
        let day: u64 = parts.next()?.parse().ok()?;
        let mon_name = parts.next()?;
        let month = MONTH_NAMES.iter().position(|m| *m == mon_name)? as u64 + 1;
        let year: u64 = parts.next()?.parse().ok()?;
        let hms = parts.next()?;
        if parts.next().is_some() {
            return None;
        }
        let mut t = hms.split(':');
        let hour: u64 = t.next()?.parse().ok()?;
        let min: u64 = t.next()?.parse().ok()?;
        let sec: u64 = t.next()?.parse().ok()?;
        if t.next().is_some() {
            return None;
        }
        if year > MAX_PARSED_YEAR {
            return None;
        }
        from_fields([year, month, day, hour, min, sec])
    }

    /// Parses an RCS datestamp produced by [`Timestamp::to_rcs_date`].
    pub fn parse_rcs_date(s: &str) -> Option<Timestamp> {
        let nums: Vec<u64> = s
            .trim()
            .split('.')
            .map(|p| p.parse().ok())
            .collect::<Option<_>>()?;
        let fields = <[u64; 6]>::try_from(nums).ok()?;
        if fields[0] > MAX_PARSED_YEAR {
            return None;
        }
        from_fields(fields)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_http_date())
    }
}

/// A shared, monotonically advancing virtual clock.
///
/// Cloning a `Clock` yields a handle onto the same underlying time source,
/// so the simulated web, the tracker, and the snapshot service all observe
/// one timeline.
///
/// # Examples
///
/// ```
/// use aide_util::time::{Clock, Duration};
///
/// let clock = Clock::new();
/// let t0 = clock.now();
/// clock.advance(Duration::days(1));
/// assert_eq!(clock.now() - t0, Duration::days(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: Arc<AtomicU64>,
}

impl Clock {
    /// Creates a clock starting at the Unix epoch.
    pub fn new() -> Clock {
        Clock::default()
    }

    /// Creates a clock starting at `t`.
    pub fn starting_at(t: Timestamp) -> Clock {
        Clock {
            now: Arc::new(AtomicU64::new(t.0)),
        }
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> Timestamp {
        // SeqCst: the virtual clock is the causal backbone of every
        // simulation — all reads and advances share one total order
        // rather than relying on per-site reasoning
        Timestamp(self.now.load(Ordering::SeqCst))
    }

    /// The current virtual time as raw seconds since the epoch — the
    /// form the observability layer's span API takes (`aide_obs` sits
    /// below this crate in the dependency graph and cannot see
    /// [`Timestamp`]).
    pub fn now_secs(&self) -> u64 {
        // SeqCst: see `now`
        self.now.load(Ordering::SeqCst)
    }

    /// Advances the clock by `d`.
    pub fn advance(&self, d: Duration) {
        // SeqCst: see `now`
        self.now.fetch_add(d.0, Ordering::SeqCst);
    }

    /// Sets the clock to `t`. Time never moves backwards: setting an
    /// earlier time is a no-op.
    pub fn set(&self, t: Timestamp) {
        // SeqCst: see `now`
        self.now.fetch_max(t.0, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_parse_basic_units() {
        assert_eq!(Duration::parse("2d").unwrap(), Duration::days(2));
        assert_eq!(Duration::parse("12h").unwrap(), Duration::hours(12));
        assert_eq!(Duration::parse("30m").unwrap(), Duration::minutes(30));
        assert_eq!(Duration::parse("45s").unwrap(), Duration::seconds(45));
    }

    #[test]
    fn duration_parse_compound() {
        assert_eq!(
            Duration::parse("1d12h").unwrap(),
            Duration::hours(36),
            "1d12h should be 36 hours"
        );
        assert_eq!(
            Duration::parse("1d 2h 3m 4s").unwrap(),
            Duration::seconds(86_400 + 7200 + 180 + 4)
        );
    }

    #[test]
    fn duration_parse_bare_number_is_seconds() {
        assert_eq!(Duration::parse("0").unwrap(), Duration::ZERO);
        assert_eq!(Duration::parse("90").unwrap(), Duration::seconds(90));
    }

    #[test]
    fn duration_parse_errors() {
        assert_eq!(Duration::parse(""), Err(DurationParseError::Empty));
        assert_eq!(Duration::parse("d"), Err(DurationParseError::MissingNumber));
        assert_eq!(Duration::parse("2x"), Err(DurationParseError::BadChar('x')));
    }

    #[test]
    fn duration_display_roundtrip() {
        for s in ["2d", "12h", "1d12h", "3m", "2d3h4m5s", "0"] {
            let d = Duration::parse(s).unwrap();
            let shown = d.to_string();
            assert_eq!(Duration::parse(&shown).unwrap(), d, "roundtrip of {s}");
        }
    }

    #[test]
    fn epoch_calendar() {
        let c = Timestamp::EPOCH.calendar();
        assert_eq!((c.year, c.month, c.day), (1970, 1, 1));
        assert_eq!(
            Timestamp::EPOCH.to_http_date(),
            "Thu, 01 Jan 1970 00:00:00 GMT"
        );
    }

    #[test]
    fn known_dates() {
        // 1995-09-29 was a Friday.
        let t = Timestamp::from_ymd_hms(1995, 9, 29, 12, 0, 0);
        assert_eq!(t.to_http_date(), "Fri, 29 Sep 1995 12:00:00 GMT");
        // Leap day 1996-02-29 existed.
        let leap = Timestamp::from_ymd_hms(1996, 2, 29, 0, 0, 0);
        assert_eq!(leap.calendar().day, 29);
        // Day after leap day.
        let after = leap + Duration::days(1);
        let c = after.calendar();
        assert_eq!((c.month, c.day), (3, 1));
    }

    #[test]
    fn http_date_roundtrip() {
        for t in [
            Timestamp::EPOCH,
            Timestamp::from_ymd_hms(1995, 9, 29, 12, 0, 0),
            Timestamp::from_ymd_hms(1996, 2, 29, 23, 59, 59),
            Timestamp::from_ymd_hms(2026, 8, 7, 6, 5, 4),
        ] {
            assert_eq!(Timestamp::parse_http_date(&t.to_http_date()), Some(t));
        }
        // Weekday name is not verified, only shape.
        assert_eq!(
            Timestamp::parse_http_date("Mon, 29 Sep 1995 12:00:00 GMT"),
            Some(Timestamp::from_ymd_hms(1995, 9, 29, 12, 0, 0))
        );
    }

    #[test]
    fn http_date_rejects_garbage() {
        for bad in [
            "",
            "29 Sep 1995 12:00:00 GMT",
            "Fri, 29 Sep 1995 12:00:00",
            "Fri, 32 Sep 1995 12:00:00 GMT",
            "Fri, 29 Xxx 1995 12:00:00 GMT",
            "Fri, 29 Sep 1995 25:00:00 GMT",
            "Fri, 29 Sep 1969 12:00:00 GMT",
            "Fri, 29 Sep 1995 12:00:00 GMT extra",
            "Friday, 29-Sep-95 12:00:00 GMT",
        ] {
            assert_eq!(Timestamp::parse_http_date(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn rcs_date_roundtrip() {
        let t = Timestamp::from_ymd_hms(1995, 11, 3, 8, 49, 37);
        assert_eq!(t.to_rcs_date(), "1995.11.03.08.49.37");
        assert_eq!(Timestamp::parse_rcs_date(&t.to_rcs_date()), Some(t));
    }

    #[test]
    fn rcs_date_rejects_garbage() {
        assert_eq!(Timestamp::parse_rcs_date("1995.13.01.00.00.00"), None);
        assert_eq!(Timestamp::parse_rcs_date("1995.02.30.00.00.00"), None);
        assert_eq!(Timestamp::parse_rcs_date("hello"), None);
        assert_eq!(Timestamp::parse_rcs_date("1995.09.29"), None);
    }

    #[test]
    fn calendar_roundtrip_sweep() {
        // Every 100,003 seconds across three decades.
        let mut t = 0u64;
        while t < 1_000_000_000 {
            let ts = Timestamp(t);
            let c = ts.calendar();
            let back = Timestamp::from_ymd_hms(c.year, c.month, c.day, c.hour, c.minute, c.second);
            assert_eq!(back, ts, "roundtrip at {t}");
            t += 100_003;
        }
    }

    #[test]
    fn closed_form_matches_the_year_loop() {
        // The per-year loop the closed form replaced, run incrementally:
        // every day from 1970-01-01 through 9999-12-31.
        let mut days = 0u64;
        for year in 1970..=MAX_PARSED_YEAR {
            for (m, dim) in DAYS_IN_MONTH.iter().enumerate() {
                let dim = dim + u64::from(m == 1 && is_leap(year));
                let month = m as u64 + 1;
                for day in 1..=dim {
                    assert_eq!(days_from_civil(year, month, day), Some(days));
                    assert_eq!(civil_from_days(days), (year, month, day));
                    days += 1;
                }
            }
        }
    }

    #[test]
    fn parsers_refuse_five_digit_years_and_arithmetic_is_checked() {
        assert!(Timestamp::parse_rcs_date("9999.12.31.23.59.59").is_some());
        assert_eq!(Timestamp::parse_rcs_date("10000.01.01.00.00.00"), None);
        assert_eq!(
            Timestamp::parse_http_date("Sat, 01 Jan 10000 00:00:00 GMT"),
            None
        );
        assert_eq!(from_fields([1 << 50, 1, 1, 0, 0, 0]), None);
        let far = Timestamp::from_ymd_hms(100_000_000, 1, 1, 0, 0, 0);
        assert_eq!(far.calendar().year, 100_000_000);
    }

    #[test]
    fn clock_is_shared_between_handles() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(Duration::hours(5));
        assert_eq!(b.now(), Timestamp(5 * 3600));
    }

    #[test]
    fn clock_never_rewinds() {
        let c = Clock::starting_at(Timestamp(1000));
        c.set(Timestamp(500));
        assert_eq!(c.now(), Timestamp(1000));
        c.set(Timestamp(2000));
        assert_eq!(c.now(), Timestamp(2000));
    }

    #[test]
    fn timestamp_arithmetic_saturates() {
        assert_eq!(Timestamp(5) - Duration::days(1), Timestamp(0));
        assert_eq!(Timestamp(5) - Timestamp(10), Duration::ZERO);
    }
}
