//! Severity scale shared by Redfish events, alerting rules, Alertmanager
//! and ServiceNow.
//!
//! Redfish's registry defines `OK`, `Warning`, `Critical`; the paper's
//! fabric-manager monitor additionally emits `[critical]`-style bracketed
//! severities. ServiceNow maps these onto its own 1–5 severity scale, which
//! [`Severity::servicenow_code`] reproduces.

use std::fmt;
use std::str::FromStr;

/// Event/alert severity, ordered from least to most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; no action required.
    Info,
    /// Redfish `OK`: a condition cleared / returned to normal.
    Ok,
    /// Something needs attention soon.
    Warning,
    /// Something is degraded and needs attention now.
    Major,
    /// Service-affecting failure.
    Critical,
}

impl Severity {
    /// Canonical Redfish-style capitalised name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Info => "Info",
            Severity::Ok => "OK",
            Severity::Warning => "Warning",
            Severity::Major => "Major",
            Severity::Critical => "Critical",
        }
    }

    /// ServiceNow event severity code (1 = critical ... 5 = info/OK).
    pub fn servicenow_code(&self) -> u8 {
        match self {
            Severity::Critical => 1,
            Severity::Major => 2,
            Severity::Warning => 3,
            Severity::Ok => 5,
            Severity::Info => 5,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when a severity string is not recognised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeverityParseError(pub String);

impl fmt::Display for SeverityParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown severity {:?}", self.0)
    }
}

impl std::error::Error for SeverityParseError {}

impl FromStr for Severity {
    type Err = SeverityParseError;

    /// Case-insensitive parse accepting both Redfish (`Warning`) and
    /// bracketed log (`critical`) spellings.
    /// A known spelling is matched in place; only an unknown one is
    /// copied (lowercased, into the error).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        const SPELLINGS: [(&str, Severity); 13] = [
            ("info", Severity::Info),
            ("informational", Severity::Info),
            ("ok", Severity::Ok),
            ("clear", Severity::Ok),
            ("resolved", Severity::Ok),
            ("warning", Severity::Warning),
            ("warn", Severity::Warning),
            ("minor", Severity::Warning),
            ("major", Severity::Major),
            ("error", Severity::Major),
            ("critical", Severity::Critical),
            ("crit", Severity::Critical),
            ("fatal", Severity::Critical),
        ];
        SPELLINGS
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(s))
            .map(|&(_, severity)| severity)
            .ok_or_else(|| SeverityParseError(s.to_ascii_lowercase()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_ascending() {
        assert!(Severity::Critical > Severity::Warning);
        assert!(Severity::Warning > Severity::Ok);
        assert!(Severity::Ok > Severity::Info);
    }

    #[test]
    fn parse_both_spellings() {
        assert_eq!("Warning".parse::<Severity>().unwrap(), Severity::Warning);
        assert_eq!("critical".parse::<Severity>().unwrap(), Severity::Critical);
        assert_eq!("OK".parse::<Severity>().unwrap(), Severity::Ok);
        assert_eq!("CRIT".parse::<Severity>().unwrap(), Severity::Critical);
        assert_eq!("Fluffy".parse::<Severity>(), Err(SeverityParseError("fluffy".into())));
    }

    #[test]
    fn servicenow_mapping() {
        assert_eq!(Severity::Critical.servicenow_code(), 1);
        assert_eq!(Severity::Warning.servicenow_code(), 3);
        assert_eq!(Severity::Ok.servicenow_code(), 5);
    }

    #[test]
    fn display_roundtrip() {
        for s in
            [Severity::Info, Severity::Ok, Severity::Warning, Severity::Major, Severity::Critical]
        {
            assert_eq!(s.as_str().parse::<Severity>().unwrap(), s);
        }
    }
}
