//! Calendar time for certificate validity windows.
//!
//! [`Time`] is seconds since the Unix epoch (UTC, signed — certificates
//! with a 1970 issue date and 100-year lifetimes both occur in the paper's
//! dataset). Conversion to and from civil dates uses the standard
//! days-from-civil algorithm, valid across the whole proleptic Gregorian
//! range we need (1950–2120).

use crate::error::{Asn1Error, Result};

/// Seconds since 1970-01-01T00:00:00Z.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Time(pub i64);

/// A broken-down UTC date and time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DateTime {
    /// Full year, e.g. 2020.
    pub year: i32,
    /// Month 1–12.
    pub month: u8,
    /// Day of month 1–31.
    pub day: u8,
    /// Hour 0–23.
    pub hour: u8,
    /// Minute 0–59.
    pub minute: u8,
    /// Second 0–59 (leap seconds not modelled).
    pub second: u8,
}

/// Days since the epoch for a civil date (Howard Hinnant's algorithm).
fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = y as i64 - if m <= 2 { 1 } else { 0 };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m as i64 + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146097 + doe - 719468
}

/// Civil date for a day count since the epoch (inverse of the above).
fn civil_from_days(z: i64) -> (i32, u8, u8) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8;
    ((y + if m <= 2 { 1 } else { 0 }) as i32, m, d)
}

impl Time {
    /// Construct from a UTC civil date and time.
    pub fn from_ymd_hms(year: i32, month: u8, day: u8, hour: u8, minute: u8, second: u8) -> Time {
        let days = days_from_civil(year, month, day);
        Time(days * 86_400 + hour as i64 * 3600 + minute as i64 * 60 + second as i64)
    }

    /// Construct from a UTC date at midnight.
    pub fn from_ymd(year: i32, month: u8, day: u8) -> Time {
        Self::from_ymd_hms(year, month, day, 0, 0, 0)
    }

    /// Break down into a civil UTC date-time.
    pub fn to_datetime(self) -> DateTime {
        let days = self.0.div_euclid(86_400);
        let secs = self.0.rem_euclid(86_400);
        let (year, month, day) = civil_from_days(days);
        DateTime {
            year,
            month,
            day,
            hour: (secs / 3600) as u8,
            minute: (secs % 3600 / 60) as u8,
            second: (secs % 60) as u8,
        }
    }

    /// Add a number of whole days.
    pub fn plus_days(self, days: i64) -> Time {
        Time(self.0 + days * 86_400)
    }

    /// Add a number of (365-day) years — matches how real CA tooling and
    /// the paper's §5.3.1 "multiples of 365" analysis count durations.
    pub fn plus_years_365(self, years: i64) -> Time {
        self.plus_days(years * 365)
    }

    /// Signed difference in whole days (`self - earlier`).
    pub fn days_since(self, earlier: Time) -> i64 {
        (self.0 - earlier.0) / 86_400
    }

    /// Encode as DER content octets, choosing UTCTime (`YYMMDDHHMMSSZ`) for
    /// years 1950–2049 and GeneralizedTime (`YYYYMMDDHHMMSSZ`) otherwise,
    /// per RFC 5280. Returns `(is_generalized, bytes)`.
    pub fn to_der_content(self) -> (bool, Vec<u8>) {
        let mut out = Vec::with_capacity(15);
        let generalized = self.write_der_content(&mut out);
        (generalized, out)
    }

    /// [`Self::to_der_content`], appended to `out` in place; returns
    /// whether the encoding is a GeneralizedTime.
    pub(crate) fn write_der_content(self, out: &mut Vec<u8>) -> bool {
        use std::io::Write;
        let dt = self.to_datetime();
        let generalized = !(1950..2050).contains(&dt.year);
        let written = if generalized {
            write!(
                out,
                "{:04}{:02}{:02}{:02}{:02}{:02}Z",
                dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second
            )
        } else {
            write!(
                out,
                "{:02}{:02}{:02}{:02}{:02}{:02}Z",
                dt.year % 100,
                dt.month,
                dt.day,
                dt.hour,
                dt.minute,
                dt.second
            )
        };
        written.expect("writing to a Vec cannot fail");
        generalized
    }

    /// Decode from DER content octets of a UTCTime or GeneralizedTime.
    pub fn from_der_content(generalized: bool, content: &[u8]) -> Result<Time> {
        let s = std::str::from_utf8(content).map_err(|_| Asn1Error::BadTime)?;
        let expect_len = if generalized { 15 } else { 13 };
        if s.len() != expect_len || !s.ends_with('Z') {
            return Err(Asn1Error::BadTime);
        }
        let digits = &s[..s.len() - 1];
        if !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(Asn1Error::BadTime);
        }
        let num = |range: std::ops::Range<usize>| -> i64 { digits[range].parse().unwrap() };
        let (year, off) = if generalized {
            (num(0..4) as i32, 4)
        } else {
            // RFC 5280: two-digit years 00–49 are 20xx, 50–99 are 19xx.
            let yy = num(0..2) as i32;
            (if yy < 50 { 2000 + yy } else { 1900 + yy }, 2)
        };
        let month = num(off..off + 2) as u8;
        let day = num(off + 2..off + 4) as u8;
        let hour = num(off + 4..off + 6) as u8;
        let minute = num(off + 6..off + 8) as u8;
        let second = num(off + 8..off + 10) as u8;
        if !(1..=12).contains(&month)
            || !(1..=31).contains(&day)
            || hour > 23
            || minute > 59
            || second > 59
        {
            return Err(Asn1Error::BadTime);
        }
        Ok(Time::from_ymd_hms(year, month, day, hour, minute, second))
    }
}

impl std::fmt::Display for Time {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dt = self.to_datetime();
        write!(
            f,
            "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
            dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(Time::from_ymd(1970, 1, 1).0, 0);
    }

    #[test]
    fn known_timestamps() {
        // 2020-04-22T00:00:00Z = 1587513600 (the paper's scan window start).
        assert_eq!(Time::from_ymd(2020, 4, 22).0, 1_587_513_600);
        // 2000-03-01 (leap-year boundary).
        assert_eq!(Time::from_ymd(2000, 3, 1).0, 951_868_800);
    }

    #[test]
    fn datetime_round_trip() {
        for t in [
            Time::from_ymd_hms(1970, 1, 1, 0, 0, 0),
            Time::from_ymd_hms(1999, 12, 31, 23, 59, 59),
            Time::from_ymd_hms(2000, 2, 29, 12, 0, 0),
            Time::from_ymd_hms(2020, 4, 22, 8, 30, 15),
            Time::from_ymd_hms(2120, 6, 1, 1, 2, 3),
            Time::from_ymd_hms(1950, 1, 1, 0, 0, 0),
        ] {
            let dt = t.to_datetime();
            let back = Time::from_ymd_hms(dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second);
            assert_eq!(back, t);
        }
    }

    #[test]
    fn utctime_encoding() {
        let t = Time::from_ymd_hms(2020, 4, 22, 10, 0, 5);
        let (gen, bytes) = t.to_der_content();
        assert!(!gen);
        assert_eq!(bytes, b"200422100005Z");
        assert_eq!(Time::from_der_content(false, &bytes).unwrap(), t);
    }

    #[test]
    fn generalized_time_for_far_future() {
        // The paper found certificates expiring 100 years out.
        let t = Time::from_ymd(2120, 1, 1);
        let (gen, bytes) = t.to_der_content();
        assert!(gen);
        assert_eq!(bytes, b"21200101000000Z");
        assert_eq!(Time::from_der_content(true, &bytes).unwrap(), t);
    }

    #[test]
    fn two_digit_year_pivot() {
        // 49 → 2049, 50 → 1950.
        let t49 = Time::from_der_content(false, b"490101000000Z").unwrap();
        assert_eq!(t49.to_datetime().year, 2049);
        let t50 = Time::from_der_content(false, b"500101000000Z").unwrap();
        assert_eq!(t50.to_datetime().year, 1950);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Time::from_der_content(false, b"20200422").is_err());
        assert!(
            Time::from_der_content(false, b"2004221000050").is_err(),
            "no Z"
        );
        assert!(Time::from_der_content(false, b"20x422100005Z").is_err());
        assert!(
            Time::from_der_content(false, b"201322100005Z").is_err(),
            "month 13"
        );
        assert!(
            Time::from_der_content(false, b"200400100005Z").is_err(),
            "day 0"
        );
        assert!(
            Time::from_der_content(true, b"200422100005Z").is_err(),
            "wrong length"
        );
    }

    #[test]
    fn day_arithmetic() {
        let issue = Time::from_ymd(2020, 1, 1);
        let expiry = issue.plus_days(825);
        assert_eq!(expiry.days_since(issue), 825);
        assert_eq!(issue.plus_years_365(2).days_since(issue), 730);
    }
}
