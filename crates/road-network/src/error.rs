//! Error types for road-network construction and queries.

use crate::VertexId;

/// Errors raised while building a road network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// An edge referenced a vertex that was never added.
    UnknownVertex(VertexId),
    /// A self-loop `(v, v)` was added; road networks must be simple.
    SelfLoop(VertexId),
    /// An edge was given a zero or overflowing cost.
    InvalidEdgeCost {
        /// Edge tail.
        from: VertexId,
        /// Edge head.
        to: VertexId,
    },
    /// The network has no vertices.
    Empty,
    /// The vertex count exceeds `u32::MAX`.
    TooManyVertices(usize),
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::UnknownVertex(v) => write!(f, "unknown vertex {v}"),
            NetworkError::SelfLoop(v) => write!(f, "self-loop at {v}"),
            NetworkError::InvalidEdgeCost { from, to } => {
                write!(f, "invalid cost on edge ({from}, {to})")
            }
            NetworkError::Empty => write!(f, "network has no vertices"),
            NetworkError::TooManyVertices(n) => {
                write!(f, "{n} vertices exceed the u32 index space")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// Convenience alias for fallible network operations.
pub type Result<T> = std::result::Result<T, NetworkError>;
