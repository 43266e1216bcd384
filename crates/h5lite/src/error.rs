//! Error type shared by every h5lite layer.

use std::fmt;

/// Everything that can go wrong in the container, the VOL, or the API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum H5Error {
    /// Named link or object does not exist.
    NotFound(String),
    /// Creating something that already exists.
    AlreadyExists(String),
    /// Expected a group / dataset and found the other.
    WrongObjectKind(String),
    /// Element type of the caller's buffer doesn't match the dataset.
    TypeMismatch {
        /// The dataset's on-disk type.
        expected: String,
        /// The caller's element type.
        got: String,
    },
    /// Buffer length or selection shape doesn't match the dataspace.
    ShapeMismatch(String),
    /// A hyperslab reaches outside the dataspace or is degenerate.
    InvalidSelection(String),
    /// Unsupported combination (e.g. chunked layout on an N-D dataset).
    Unsupported(String),
    /// Underlying storage failed (I/O error, short read, ...) in a way a
    /// retry will not fix — a dead device, a short read of valid data.
    Storage(String),
    /// Underlying storage failed transiently (device busy, timeout, torn
    /// write that left the range rewritable): the same operation may
    /// succeed if retried. Produced by fault injection and by I/O errors
    /// the OS marks as interruptions.
    Transient(String),
    /// The container's on-disk bytes are not a valid h5lite file.
    Corrupt(String),
    /// An asynchronous operation failed in the background; the error
    /// surfaces at wait time, as with the HDF5 async VOL.
    Async(String),
}

impl fmt::Display for H5Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            H5Error::NotFound(n) => write!(f, "not found: {n}"),
            H5Error::AlreadyExists(n) => write!(f, "already exists: {n}"),
            H5Error::WrongObjectKind(n) => write!(f, "wrong object kind: {n}"),
            H5Error::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: dataset is {expected}, buffer is {got}")
            }
            H5Error::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            H5Error::InvalidSelection(m) => write!(f, "invalid selection: {m}"),
            H5Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            H5Error::Storage(m) => write!(f, "storage error: {m}"),
            H5Error::Transient(m) => write!(f, "transient storage error: {m}"),
            H5Error::Corrupt(m) => write!(f, "corrupt container: {m}"),
            H5Error::Async(m) => write!(f, "async operation failed: {m}"),
        }
    }
}

impl H5Error {
    /// Whether a backoff-and-retry of the same operation may succeed: only
    /// a transient device fault (device busy, interrupted syscall) may.
    /// Every other error is fatal — the request itself is wrong (shape or
    /// type mismatch, missing object) or the device failed permanently.
    pub fn is_retryable(&self) -> bool {
        matches!(self, H5Error::Transient(_))
    }

    /// Whether the failure originated in the storage device (as opposed
    /// to a malformed request). Device faults — transient or permanent —
    /// are what trip the async connector's circuit breaker; a caller
    /// repeatedly issuing bad-shape writes must not degrade the pipeline.
    pub fn is_device_fault(&self) -> bool {
        matches!(self, H5Error::Storage(_) | H5Error::Transient(_))
    }
}

impl std::error::Error for H5Error {}

impl From<std::io::Error> for H5Error {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::Interrupted | ErrorKind::TimedOut | ErrorKind::WouldBlock => {
                H5Error::Transient(e.to_string())
            }
            _ => H5Error::Storage(e.to_string()),
        }
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, H5Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = H5Error::TypeMismatch {
            expected: "f64".into(),
            got: "i32".into(),
        };
        let s = e.to_string();
        assert!(s.contains("f64") && s.contains("i32"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("disk on fire");
        let e: H5Error = io.into();
        assert!(matches!(e, H5Error::Storage(m) if m.contains("disk on fire")));
    }

    #[test]
    fn interrupted_io_is_transient() {
        let io = std::io::Error::new(std::io::ErrorKind::Interrupted, "try again");
        let e: H5Error = io.into();
        assert!(matches!(e, H5Error::Transient(_)), "got {e:?}");
        assert!(e.is_retryable());
    }

    #[test]
    fn taxonomy_classifies_retryable_vs_fatal() {
        assert!(H5Error::Transient("busy".into()).is_retryable());
        for fatal in [
            H5Error::Storage("dead".into()),
            H5Error::NotFound("x".into()),
            H5Error::ShapeMismatch("m".into()),
            H5Error::Async("m".into()),
        ] {
            assert!(!fatal.is_retryable(), "{fatal:?}");
        }
    }

    #[test]
    fn device_faults_are_storage_and_transient_only() {
        assert!(H5Error::Storage("dead".into()).is_device_fault());
        assert!(H5Error::Transient("busy".into()).is_device_fault());
        assert!(!H5Error::ShapeMismatch("m".into()).is_device_fault());
        assert!(!H5Error::NotFound("x".into()).is_device_fault());
    }
}
