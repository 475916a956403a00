//! The context-resource trait and its failure model.

/// How a failed resource resolution should be classified by retry and
/// circuit-breaker policy (DESIGN.md §14). The paper's per-resource
/// result tables show useful hierarchies emerge from *subsets* of
/// resources, so a failure here degrades coverage instead of aborting
/// the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A one-off failure (connection reset, 5xx); retrying is likely to
    /// help.
    Transient,
    /// The query exceeded its time budget; retrying may help once the
    /// backend recovers.
    Timeout,
    /// The backend is shedding load (429, queue full, open circuit);
    /// retry after backoff.
    Overload,
    /// The query can never succeed as issued (malformed term, auth
    /// failure); retrying is pointless.
    Permanent,
    /// Storage fault: a write persisted fewer bytes than requested
    /// (crash mid-write). The short prefix is already durable, so
    /// retrying in place cannot help — recovery must detect the damage
    /// via checksums and repair from a prior snapshot/WAL state.
    ShortWrite,
    /// Storage fault: a persisted byte was flipped (media corruption,
    /// torn sector). Detectable only by checksum verification on read.
    CorruptByte,
    /// Storage fault: the file lost its tail past some offset (crash
    /// before the final extent was durable).
    TruncateAt,
}

impl FaultKind {
    /// Whether a retry of the same query can plausibly succeed. Storage
    /// faults damage durable state, so like [`FaultKind::Permanent`]
    /// they are not retryable — the recovery path, not the retry path,
    /// handles them.
    pub fn is_retryable(self) -> bool {
        !matches!(
            self,
            FaultKind::Permanent
                | FaultKind::ShortWrite
                | FaultKind::CorruptByte
                | FaultKind::TruncateAt
        )
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::Transient => "transient",
            FaultKind::Timeout => "timeout",
            FaultKind::Overload => "overload",
            FaultKind::Permanent => "permanent",
            FaultKind::ShortWrite => "short-write",
            FaultKind::CorruptByte => "corrupt-byte",
            FaultKind::TruncateAt => "truncate-at",
        };
        f.write_str(s)
    }
}

/// A failed resource resolution, classified for policy decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceError {
    /// Name of the resource that failed ([`ContextResource::name`]).
    pub resource: &'static str,
    /// Failure classification driving retry/breaker decisions.
    pub kind: FaultKind,
    /// Human-readable detail for logs and reports.
    pub detail: String,
}

impl ResourceError {
    /// Construct an error for `resource` with the given classification.
    pub fn new(resource: &'static str, kind: FaultKind, detail: impl Into<String>) -> Self {
        Self {
            resource,
            kind,
            detail: detail.into(),
        }
    }

    /// Whether a retry of the same query can plausibly succeed.
    pub fn is_retryable(&self) -> bool {
        self.kind.is_retryable()
    }
}

impl std::fmt::Display for ResourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({}): {}", self.resource, self.kind, self.detail)
    }
}

impl std::error::Error for ResourceError {}

/// An external resource that, queried with a term, returns context terms
/// (paper Section IV-B). Implementations must be deterministic: the
/// expansion engine memoizes by query term.
pub trait ContextResource: Send + Sync {
    /// Display name matching the table rows of the paper ("Google",
    /// "WordNet Hypernyms", "Wikipedia Synonyms", "Wikipedia Graph").
    fn name(&self) -> &'static str;

    /// Context terms for `term`, normalized lowercase. Empty when the
    /// resource does not know the term.
    fn context_terms(&self, term: &str) -> Vec<String>;

    /// Fallible form of [`ContextResource::context_terms`]: production
    /// backends (network Wikipedia/WordNet/search) override this to
    /// surface timeouts, overload, and transient failures as typed
    /// [`ResourceError`]s instead of silently returning nothing. The
    /// default wraps the infallible method, so in-memory resources need
    /// no changes. "Term unknown" is **not** an error — return
    /// `Ok(vec![])`.
    fn try_context_terms(&self, term: &str) -> Result<Vec<String>, ResourceError> {
        Ok(self.context_terms(term))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl ContextResource for Echo {
        fn name(&self) -> &'static str {
            "Echo"
        }
        fn context_terms(&self, term: &str) -> Vec<String> {
            vec![format!("about {term}")]
        }
    }

    #[test]
    fn try_defaults_to_infallible_and_forwards_through_refs() {
        let e = Echo;
        assert_eq!(e.try_context_terms("x").unwrap(), vec!["about x"]);
        let as_dyn: &dyn ContextResource = &e;
        assert_eq!(as_dyn.try_context_terms("x").unwrap(), vec!["about x"]);
    }

    struct Down;
    impl ContextResource for Down {
        fn name(&self) -> &'static str {
            "Down"
        }
        fn context_terms(&self, term: &str) -> Vec<String> {
            self.try_context_terms(term).unwrap_or_default()
        }
        fn try_context_terms(&self, _term: &str) -> Result<Vec<String>, ResourceError> {
            Err(ResourceError::new(
                "Down",
                FaultKind::Overload,
                "backend unavailable",
            ))
        }
    }

    #[test]
    fn error_classification_and_display() {
        let d = Down;
        let err = d.try_context_terms("x").unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(err.kind, FaultKind::Overload);
        assert_eq!(err.to_string(), "Down (overload): backend unavailable");
        assert!(!FaultKind::Permanent.is_retryable());
        // Storage faults corrupt durable state: never retryable in
        // place, and each renders with a stable lowercase name.
        for (kind, name) in [
            (FaultKind::ShortWrite, "short-write"),
            (FaultKind::CorruptByte, "corrupt-byte"),
            (FaultKind::TruncateAt, "truncate-at"),
        ] {
            assert!(!kind.is_retryable());
            assert_eq!(kind.to_string(), name);
        }
        // The infallible view degrades to empty, never panics.
        assert!(d.context_terms("x").is_empty());
        // Errors forward through a trait object too.
        let as_dyn: &dyn ContextResource = &d;
        assert_eq!(as_dyn.try_context_terms("x").unwrap_err(), err);
    }
}
