//! Timestamp handling.
//!
//! The paper's bridge clients convert Redfish `EventTimestamp` fields
//! ("2022-03-03T01:47:57+00:00", ISO 8601) into "an unix epoch in
//! nanoseconds" before pushing to Loki. This module implements that
//! conversion (and its inverse) from scratch: civil-date arithmetic via the
//! days-from-civil algorithm, plus fixed-offset parsing.

/// Nanoseconds since the Unix epoch. Signed so pre-1970 arithmetic and
/// differences are well-defined.
pub type Timestamp = i64;

/// Number of nanoseconds in one second.
pub const NANOS_PER_SEC: i64 = 1_000_000_000;

/// Errors produced when parsing an ISO 8601 timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimeParseError {
    /// Input was not long enough to hold a date-time.
    TooShort,
    /// A numeric field did not parse.
    BadNumber(&'static str),
    /// A separator (`-`, `:`, `T`) was missing or wrong.
    BadSeparator(&'static str),
    /// The timezone suffix was not `Z` or `±HH:MM`.
    BadZone,
    /// A field was out of range (month 13, minute 61, ...).
    OutOfRange(&'static str),
}

impl std::fmt::Display for TimeParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimeParseError::TooShort => write!(f, "timestamp too short"),
            TimeParseError::BadNumber(what) => write!(f, "invalid number in {what}"),
            TimeParseError::BadSeparator(what) => write!(f, "missing separator before {what}"),
            TimeParseError::BadZone => write!(f, "invalid timezone suffix"),
            TimeParseError::OutOfRange(what) => write!(f, "{what} out of range"),
        }
    }
}

impl std::error::Error for TimeParseError {}

/// Days from the Unix epoch for a civil date (Howard Hinnant's algorithm).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn parse_digits(s: &[u8], what: &'static str) -> Result<i64, TimeParseError> {
    if s.is_empty() {
        return Err(TimeParseError::BadNumber(what));
    }
    let mut v: i64 = 0;
    for &b in s {
        if !b.is_ascii_digit() {
            return Err(TimeParseError::BadNumber(what));
        }
        v = v * 10 + (b - b'0') as i64;
    }
    Ok(v)
}

/// Parse an ISO 8601 / RFC 3339 timestamp into nanoseconds since the Unix
/// epoch. Accepts `YYYY-MM-DDTHH:MM:SS`, an optional fractional-second part
/// up to nanosecond precision, and a zone of `Z`, `+HH:MM` or `-HH:MM`
/// (missing zone is treated as UTC).
///
/// ```
/// use omni_model::time::parse_iso8601;
/// // The leak event timestamp from Figure 2 of the paper:
/// let ns = parse_iso8601("2022-03-03T01:47:57+00:00").unwrap();
/// assert_eq!(ns, 1_646_272_077_000_000_000);
/// ```
pub fn parse_iso8601(s: &str) -> Result<Timestamp, TimeParseError> {
    let b = s.as_bytes();
    if b.len() < 19 {
        return Err(TimeParseError::TooShort);
    }
    let year = parse_digits(&b[0..4], "year")?;
    if b[4] != b'-' {
        return Err(TimeParseError::BadSeparator("month"));
    }
    let month = parse_digits(&b[5..7], "month")? as u32;
    if b[7] != b'-' {
        return Err(TimeParseError::BadSeparator("day"));
    }
    let day = parse_digits(&b[8..10], "day")? as u32;
    if b[10] != b'T' && b[10] != b' ' {
        return Err(TimeParseError::BadSeparator("time"));
    }
    let hour = parse_digits(&b[11..13], "hour")?;
    if b[13] != b':' {
        return Err(TimeParseError::BadSeparator("minute"));
    }
    let minute = parse_digits(&b[14..16], "minute")?;
    if b[16] != b':' {
        return Err(TimeParseError::BadSeparator("second"));
    }
    let second = parse_digits(&b[17..19], "second")?;

    if !(1..=12).contains(&month) {
        return Err(TimeParseError::OutOfRange("month"));
    }
    if !(1..=31).contains(&day) {
        return Err(TimeParseError::OutOfRange("day"));
    }
    if hour > 23 {
        return Err(TimeParseError::OutOfRange("hour"));
    }
    if minute > 59 {
        return Err(TimeParseError::OutOfRange("minute"));
    }
    if second > 60 {
        return Err(TimeParseError::OutOfRange("second"));
    }

    let mut idx = 19;
    let mut nanos: i64 = 0;
    if idx < b.len() && b[idx] == b'.' {
        idx += 1;
        let start = idx;
        while idx < b.len() && b[idx].is_ascii_digit() {
            idx += 1;
        }
        if idx == start {
            return Err(TimeParseError::BadNumber("fraction"));
        }
        let frac = &b[start..idx.min(start + 9)];
        let mut v = parse_digits(frac, "fraction")?;
        for _ in frac.len()..9 {
            v *= 10;
        }
        nanos = v;
    }

    // Zone.
    let zone_offset_secs: i64 = if idx >= b.len() {
        0
    } else {
        match b[idx] {
            b'Z' | b'z' => {
                if idx + 1 != b.len() {
                    return Err(TimeParseError::BadZone);
                }
                0
            }
            sign @ (b'+' | b'-') => {
                if b.len() < idx + 6 || b[idx + 3] != b':' {
                    return Err(TimeParseError::BadZone);
                }
                let zh = parse_digits(&b[idx + 1..idx + 3], "zone hour")?;
                let zm = parse_digits(&b[idx + 4..idx + 6], "zone minute")?;
                if zh > 23 || zm > 59 || b.len() != idx + 6 {
                    return Err(TimeParseError::BadZone);
                }
                let off = zh * 3600 + zm * 60;
                if sign == b'+' {
                    off
                } else {
                    -off
                }
            }
            _ => return Err(TimeParseError::BadZone),
        }
    };

    let days = days_from_civil(year, month, day);
    let secs = days * 86_400 + hour * 3600 + minute * 60 + second - zone_offset_secs;
    Ok(secs * NANOS_PER_SEC + nanos)
}

/// Format nanoseconds since the Unix epoch as `YYYY-MM-DDTHH:MM:SS[.fffffffff]Z`.
/// The fractional part is omitted when zero, matching common RFC 3339 output.
pub fn format_iso8601(ts: Timestamp) -> String {
    let (mut secs, mut nanos) = (ts.div_euclid(NANOS_PER_SEC), ts.rem_euclid(NANOS_PER_SEC));
    if nanos < 0 {
        nanos += NANOS_PER_SEC;
        secs -= 1;
    }
    let days = secs.div_euclid(86_400);
    let sod = secs.rem_euclid(86_400);
    let (y, m, d) = civil_from_days(days);
    let (hh, mm, ss) = (sod / 3600, (sod % 3600) / 60, sod % 60);
    if nanos == 0 {
        format!("{y:04}-{m:02}-{d:02}T{hh:02}:{mm:02}:{ss:02}Z")
    } else {
        format!("{y:04}-{m:02}-{d:02}T{hh:02}:{mm:02}:{ss:02}.{nanos:09}Z")
    }
}

/// Parse a Prometheus-style duration string (`90s`, `60m`, `1h30m`, `2d`,
/// `500ms`) into nanoseconds. Used by LogQL range selectors (`[60m]`) and
/// rule `for:` clauses.
pub fn parse_duration(s: &str) -> Result<i64, TimeParseError> {
    let b = s.as_bytes();
    if b.is_empty() {
        return Err(TimeParseError::TooShort);
    }
    let mut total: i64 = 0;
    let mut i = 0;
    while i < b.len() {
        let start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == start {
            return Err(TimeParseError::BadNumber("duration"));
        }
        let v = parse_digits(&b[start..i], "duration")?;
        let unit_start = i;
        while i < b.len() && !b[i].is_ascii_digit() {
            i += 1;
        }
        let mult = match &s[unit_start..i] {
            "ns" => 1,
            "us" | "µs" => 1_000,
            "ms" => 1_000_000,
            "s" => NANOS_PER_SEC,
            "m" => 60 * NANOS_PER_SEC,
            "h" => 3_600 * NANOS_PER_SEC,
            "d" => 86_400 * NANOS_PER_SEC,
            "w" => 7 * 86_400 * NANOS_PER_SEC,
            "y" => 365 * 86_400 * NANOS_PER_SEC,
            _ => return Err(TimeParseError::BadNumber("duration unit")),
        };
        total += v * mult;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_leak_event_timestamp() {
        // Figure 2 raw event timestamp -> Figure 3 Loki value timestamp.
        let ns = parse_iso8601("2022-03-03T01:47:57+00:00").unwrap();
        assert_eq!(ns, 1_646_272_077_000_000_000);
    }

    #[test]
    fn epoch_roundtrip() {
        assert_eq!(parse_iso8601("1970-01-01T00:00:00Z").unwrap(), 0);
        assert_eq!(format_iso8601(0), "1970-01-01T00:00:00Z");
    }

    #[test]
    fn zone_offsets() {
        let utc = parse_iso8601("2022-03-03T01:47:57Z").unwrap();
        let plus = parse_iso8601("2022-03-03T02:47:57+01:00").unwrap();
        let minus = parse_iso8601("2022-03-02T17:47:57-08:00").unwrap();
        assert_eq!(utc, plus);
        assert_eq!(utc, minus);
    }

    #[test]
    fn fractional_seconds() {
        let ns = parse_iso8601("2022-03-03T01:47:57.5Z").unwrap();
        assert_eq!(ns % NANOS_PER_SEC, 500_000_000);
        let ns = parse_iso8601("2022-03-03T01:47:57.000000001Z").unwrap();
        assert_eq!(ns % NANOS_PER_SEC, 1);
    }

    #[test]
    fn missing_zone_is_utc() {
        assert_eq!(
            parse_iso8601("2022-03-03T01:47:57").unwrap(),
            parse_iso8601("2022-03-03T01:47:57Z").unwrap()
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_iso8601("").is_err());
        assert!(parse_iso8601("2022-13-03T01:47:57Z").is_err());
        assert!(parse_iso8601("2022-03-03X01:47:57Z").is_err());
        assert!(parse_iso8601("2022-03-03T25:47:57Z").is_err());
        assert!(parse_iso8601("2022-03-03T01:47:57+0a:00").is_err());
    }

    #[test]
    fn format_matches_parse() {
        for s in [
            "2022-03-03T01:47:57Z",
            "1999-12-31T23:59:59Z",
            "2000-02-29T12:00:00Z",
            "2038-01-19T03:14:07Z",
        ] {
            let ns = parse_iso8601(s).unwrap();
            assert_eq!(format_iso8601(ns), s);
        }
    }

    #[test]
    fn leap_year_handling() {
        // 2000 was a leap year (divisible by 400), 1900 was not.
        assert!(parse_iso8601("2000-02-29T00:00:00Z").is_ok());
        let feb28 = parse_iso8601("2000-02-28T00:00:00Z").unwrap();
        let mar01 = parse_iso8601("2000-03-01T00:00:00Z").unwrap();
        assert_eq!(mar01 - feb28, 2 * 86_400 * NANOS_PER_SEC);
    }

    #[test]
    fn durations() {
        assert_eq!(parse_duration("60m").unwrap(), 3_600 * NANOS_PER_SEC);
        assert_eq!(parse_duration("1m").unwrap(), 60 * NANOS_PER_SEC);
        assert_eq!(parse_duration("1h30m").unwrap(), 5_400 * NANOS_PER_SEC);
        assert_eq!(parse_duration("500ms").unwrap(), 500_000_000);
        assert_eq!(parse_duration("2y").unwrap(), 2 * 365 * 86_400 * NANOS_PER_SEC);
        assert!(parse_duration("").is_err());
        assert!(parse_duration("10parsecs").is_err());
    }
}
