//! Error type of the indexing layer.

use std::fmt;

/// Errors surfaced while building or updating the pair index.
#[derive(Debug)]
pub enum CoreError {
    /// The underlying log model rejected input (ordering, parsing, …).
    Log(seqdet_log::LogError),
    /// A stored table row failed to decode (corruption or version skew).
    Corrupt {
        /// Which table the row came from.
        table: &'static str,
        /// What went wrong.
        message: String,
    },
    /// The store configuration recorded in the catalog conflicts with the
    /// requested configuration (e.g. reopening an SC index as STNM).
    ConfigMismatch {
        /// Configuration recorded in the store.
        stored: String,
        /// Configuration requested by the caller.
        requested: String,
    },
    /// The store's `Index` rows are not in the v2 posting format: `Meta`
    /// records another format, or (`None`) holds an index config without a
    /// format key, as v1 stores from before the key did.
    UnsupportedPostingFormat {
        /// The format the store records, if any.
        recorded: Option<String>,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The persistent store refused or failed a write (I/O failure,
    /// corruption, or the sticky read-only degraded state).
    Storage(seqdet_storage::StorageError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Log(e) => write!(f, "log error: {e}"),
            CoreError::Corrupt { table, message } => {
                write!(f, "corrupt row in table {table}: {message}")
            }
            CoreError::ConfigMismatch { stored, requested } => write!(
                f,
                "index config mismatch: store holds {stored}, caller requested {requested}"
            ),
            CoreError::UnsupportedPostingFormat { recorded: Some(format) } => write!(
                f,
                "unsupported posting format: store records {format:?}, only \"v2\" is readable"
            ),
            CoreError::UnsupportedPostingFormat { recorded: None } => write!(
                f,
                "unsupported posting format: store records none (a v1 store from before the \
                 format key), only \"v2\" is readable"
            ),
            CoreError::Io(e) => write!(f, "io error: {e}"),
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Log(e) => Some(e),
            CoreError::Io(e) => Some(e),
            CoreError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<seqdet_log::LogError> for CoreError {
    fn from(e: seqdet_log::LogError) -> Self {
        CoreError::Log(e)
    }
}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Io(e)
    }
}

impl From<seqdet_storage::StorageError> for CoreError {
    fn from(e: seqdet_storage::StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl CoreError {
    /// True when the error is the store's sticky read-only degraded state
    /// (serving layers map this to 503).
    pub fn is_degraded(&self) -> bool {
        matches!(self, CoreError::Storage(e) if e.is_degraded())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = CoreError::Corrupt { table: "Index", message: "short row".into() };
        assert!(e.to_string().contains("Index"));
        let e = CoreError::ConfigMismatch { stored: "SC".into(), requested: "STNM".into() };
        assert!(e.to_string().contains("SC") && e.to_string().contains("STNM"));
        let e = CoreError::UnsupportedPostingFormat { recorded: Some("v1".into()) };
        assert!(e.to_string().contains("\"v1\""), "{e}");
        let e = CoreError::UnsupportedPostingFormat { recorded: None };
        assert!(e.to_string().contains("records none"), "{e}");
        let e = CoreError::from(std::io::Error::other("x"));
        assert!(e.to_string().contains("io error"));
        let e = CoreError::from(seqdet_storage::StorageError::Degraded { reason: "w".into() });
        assert!(e.is_degraded());
        assert!(e.to_string().contains("storage error"));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn log_error_converts() {
        let le = seqdet_log::LogError::UnknownActivity(3);
        let e: CoreError = le.into();
        assert!(e.to_string().contains("unknown activity"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
