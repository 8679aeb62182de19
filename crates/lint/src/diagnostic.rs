//! The diagnostic vocabulary shared by every lint layer: severities,
//! locations inside the linted artifact, and the [`Diagnostic`] record
//! itself, with its JSON rendering through the workspace's
//! [`Json`] value type.

use hierarchy_automata::json::Json;
use std::fmt;

/// How serious a finding is.
///
/// `spec-lint` treats an artifact as *clean* when it produces no
/// [`Error`](Severity::Error) and no [`Warning`](Severity::Warning)
/// diagnostics; [`Info`](Severity::Info) findings are advisory (e.g.
/// "this formula sits lower in the hierarchy than it is written").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: the artifact is fine but could be expressed better.
    Info,
    /// Probably a specification mistake; the artifact still has a meaning.
    Warning,
    /// Almost certainly a mistake (e.g. an unsatisfiable specification).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Where inside the linted artifact a finding points.
///
/// Artifacts here are structured values, not source text, so locations
/// are structural: a subformula by its display form, a set of automaton
/// states, an acceptance conjunct, a named transition or variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// The whole artifact.
    Root,
    /// A subformula or regex subexpression, by display form.
    Fragment(String),
    /// A set of automaton or system states.
    States(Vec<usize>),
    /// The `i`-th conjunct of the acceptance condition.
    AcceptanceConjunct(usize),
    /// An acceptance atom, by display form.
    AcceptanceAtom(String),
    /// A named transition of a transition system.
    Transition(String),
    /// A named program variable.
    Variable(String),
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Root => write!(f, "(whole artifact)"),
            Location::Fragment(s) => write!(f, "`{s}`"),
            Location::States(qs) => {
                write!(f, "state")?;
                if qs.len() != 1 {
                    write!(f, "s")?;
                }
                for (i, q) in qs.iter().enumerate() {
                    write!(f, "{}{q}", if i == 0 { " " } else { ", " })?;
                }
                Ok(())
            }
            Location::AcceptanceConjunct(i) => write!(f, "acceptance conjunct #{i}"),
            Location::AcceptanceAtom(s) => write!(f, "acceptance atom {s}"),
            Location::Transition(name) => write!(f, "transition {name:?}"),
            Location::Variable(name) => write!(f, "variable {name:?}"),
        }
    }
}

/// One finding of the linter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule code (`LOGIC003`, `AUT006`, …); see
    /// [`crate::registry::CATALOGUE`].
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Where the finding points.
    pub location: Location,
    /// Human-readable description of the problem.
    pub message: String,
    /// An optional actionable suggestion.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic without a suggestion.
    pub fn new(
        code: &'static str,
        severity: Severity,
        location: Location,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            location,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches a suggestion.
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// The JSON object for this diagnostic: `code`, `severity`,
    /// `location` and `message`, then `suggestion` when there is one.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("code", Json::str(self.code)),
            ("severity", Json::str(self.severity.to_string())),
            ("location", Json::str(self.location.to_string())),
            ("message", Json::str(self.message.clone())),
        ];
        if let Some(s) = &self.suggestion {
            pairs.push(("suggestion", Json::str(s.clone())));
        }
        Json::obj(pairs)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.code, self.location, self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, " (suggestion: {s})")?;
        }
        Ok(())
    }
}

/// A diagnostic list as a JSON array of [`Diagnostic::to_json`] objects.
pub fn report_json(diagnostics: &[Diagnostic]) -> Json {
    Json::Arr(diagnostics.iter().map(Diagnostic::to_json).collect())
}

/// [`report_json`] rendered to its compact text — byte for byte what the
/// daemon embeds in its `diagnostics` arrays.
pub fn report_to_json(diagnostics: &[Diagnostic]) -> String {
    report_json(diagnostics).to_string()
}

/// The worst severity present, or `None` on an empty report.
pub fn worst_severity(diagnostics: &[Diagnostic]) -> Option<Severity> {
    diagnostics.iter().map(|d| d.severity).max()
}

/// Whether the report is *clean*: no errors and no warnings (advisory
/// `Info` findings are allowed).
pub fn is_clean(diagnostics: &[Diagnostic]) -> bool {
    worst_severity(diagnostics).is_none_or(|s| s < Severity::Warning)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_order_and_display() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Warning.to_string(), "warning");
    }

    #[test]
    fn display_and_json() {
        let d = Diagnostic::new(
            "AUT003",
            Severity::Warning,
            Location::States(vec![3, 5]),
            "2 unreachable states",
        )
        .with_suggestion("call trim()");
        let text = d.to_string();
        assert!(text.contains("warning [AUT003] states 3, 5"));
        assert!(text.contains("suggestion: call trim()"));
        assert_eq!(
            d.to_json().to_string(),
            "{\"code\":\"AUT003\",\"severity\":\"warning\",\"location\":\"states 3, 5\",\
             \"message\":\"2 unreachable states\",\"suggestion\":\"call trim()\"}"
        );
    }

    #[test]
    fn json_escaping() {
        let d = Diagnostic::new(
            "LOGIC004",
            Severity::Info,
            Location::Fragment("G \"x\"".into()),
            "a\"b\\c\nd",
        );
        let text = report_to_json(std::slice::from_ref(&d));
        assert!(text.contains("`G \\\"x\\\"`"), "{text}");
        assert!(text.contains("a\\\"b\\\\c\\nd"), "{text}");
        assert_eq!(Json::parse(&text), Ok(report_json(&[d])));
    }

    #[test]
    fn clean_and_worst() {
        assert!(is_clean(&[]));
        assert_eq!(worst_severity(&[]), None);
        let info = Diagnostic::new("LOGIC005", Severity::Info, Location::Root, "m");
        let warn = Diagnostic::new("AUT005", Severity::Warning, Location::Root, "m");
        assert!(is_clean(std::slice::from_ref(&info)));
        assert!(!is_clean(&[info.clone(), warn.clone()]));
        assert_eq!(worst_severity(&[info, warn]), Some(Severity::Warning));
    }

    #[test]
    fn report_json_is_array() {
        let d = Diagnostic::new("FTS002", Severity::Warning, Location::Root, "m");
        assert_eq!(report_to_json(&[]), "[]");
        let two = report_to_json(&[d.clone(), d]);
        assert_eq!(
            two,
            "[{\"code\":\"FTS002\",\"severity\":\"warning\",\"location\":\"(whole artifact)\",\
             \"message\":\"m\"},{\"code\":\"FTS002\",\"severity\":\"warning\",\
             \"location\":\"(whole artifact)\",\"message\":\"m\"}]"
        );
    }
}
