//! Error type for resctrl operations.

use std::fmt;

/// Everything that can go wrong talking to the resctrl filesystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResctrlError {
    /// The CPU does not advertise CAT (`cat_l3` flag absent) or the kernel
    /// lacks resctrl support (pre-4.10, or `CONFIG_X86_CPU_RESCTRL` off).
    Unsupported(String),
    /// resctrl support exists but the filesystem is not mounted.
    NotMounted,
    /// An underlying filesystem operation failed.
    Io {
        path: String,
        op: &'static str,
        message: String,
    },
    /// A schemata line could not be parsed.
    InvalidSchemata(String),
    /// The kernel rejected a schemata write (bad mask, unknown domain, ...).
    RejectedSchemata(String),
    /// All hardware classes of service are in use (`num_closids` exhausted).
    TooManyGroups { limit: u32 },
    /// A capacity bitmask violated CAT constraints.
    BadMask(String),
    /// The named control group does not exist.
    NoSuchGroup(String),
}

impl fmt::Display for ResctrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResctrlError::Unsupported(why) => write!(f, "CAT/resctrl unsupported: {why}"),
            ResctrlError::NotMounted => {
                write!(f, "resctrl filesystem not mounted (try: mount -t resctrl resctrl /sys/fs/resctrl)")
            }
            ResctrlError::Io { path, op, message } => {
                write!(f, "resctrl {op} on {path} failed: {message}")
            }
            ResctrlError::InvalidSchemata(s) => write!(f, "cannot parse schemata: {s:?}"),
            ResctrlError::RejectedSchemata(s) => write!(f, "kernel rejected schemata: {s}"),
            ResctrlError::TooManyGroups { limit } => {
                write!(f, "no free class of service (hardware limit: {limit})")
            }
            ResctrlError::BadMask(s) => write!(f, "invalid capacity bitmask: {s}"),
            ResctrlError::NoSuchGroup(g) => write!(f, "no such resctrl group: {g}"),
        }
    }
}

impl std::error::Error for ResctrlError {}

impl ResctrlError {
    /// Builds an [`ResctrlError::Io`] from a `std::io::Error`.
    pub(crate) fn io(path: impl Into<String>, op: &'static str, err: &std::io::Error) -> Self {
        ResctrlError::Io {
            path: path.into(),
            op,
            message: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ResctrlError::TooManyGroups { limit: 16 };
        assert!(e.to_string().contains("16"));
        let e = ResctrlError::Io {
            path: "/x".into(),
            op: "write",
            message: "EACCES".into(),
        };
        assert!(e.to_string().contains("/x"));
        assert!(e.to_string().contains("write"));
    }

    #[test]
    fn io_constructor_captures_kind() {
        let ioe = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied");
        let e = ResctrlError::io("/sys/fs/resctrl/tasks", "write", &ioe);
        assert!(e.to_string().contains("denied"));
    }
}
