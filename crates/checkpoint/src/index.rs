//! Checkpoint table-of-contents: per-tensor metadata recoverable without
//! touching tensor payloads.
//!
//! A [`CheckpointIndex`] is what the WTC3 header (see [`crate::format`])
//! describes: every tensor's name, shape, payload offset and payload
//! checksum. It is the unit the selective transfer path operates on — the
//! NAS evaluator builds its `TransferPlan` from the provider's index alone
//! and then fetches only the matched payloads, so the dominant cost of
//! weight transfer (reading whole provider checkpoints, Section VIII-E)
//! shrinks to the bytes the plan actually moves.

use crate::format::FormatError;
use swt_tensor::Shape;

/// Metadata of one stored tensor, recoverable from the header alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorMeta {
    /// Full tensor name, e.g. `n3_conv2d/kernel`.
    pub name: String,
    /// Tensor dimensions.
    pub dims: Vec<usize>,
    /// Absolute byte offset of the f32 payload within the encoded buffer
    /// (0 for synthesized indices, which carry no layout).
    pub offset: u64,
    /// [`crate::payload_checksum`] of the payload bytes (0 for synthesized
    /// indices).
    pub checksum: u64,
}

impl TensorMeta {
    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Payload size in bytes (f32 elements).
    pub fn size_bytes(&self) -> u64 {
        4 * self.numel() as u64
    }

    /// The tensor shape.
    pub fn shape(&self) -> Shape {
        Shape::new(self.dims.clone())
    }
}

/// A checkpoint's table of contents: enough to reconstruct the provider's
/// shape sequence, plan a transfer and verify integrity without reading any
/// tensor payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointIndex {
    tensors: Vec<TensorMeta>,
    /// Total encoded size in bytes (0 when synthesized).
    encoded_len: u64,
}

impl CheckpointIndex {
    pub(crate) fn new(tensors: Vec<TensorMeta>, encoded_len: u64) -> Self {
        CheckpointIndex { tensors, encoded_len }
    }

    /// An index carrying names and shapes only — the fallback produced by
    /// [`crate::CheckpointStore::load_index`]'s default implementation for
    /// stores without native header support.
    pub fn synthesized(shapes: impl IntoIterator<Item = (String, Vec<usize>)>) -> Self {
        let tensors = shapes
            .into_iter()
            .map(|(name, dims)| TensorMeta { name, dims, offset: 0, checksum: 0 })
            .collect();
        CheckpointIndex { tensors, encoded_len: 0 }
    }

    /// Per-tensor metadata in storage order.
    pub fn tensors(&self) -> &[TensorMeta] {
        &self.tensors
    }

    /// Number of tensors.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// True for a tensor-free checkpoint.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Look up one tensor's metadata by full name.
    pub fn get(&self, name: &str) -> Option<&TensorMeta> {
        self.tensors.iter().find(|m| m.name == name)
    }

    /// Total encoded size in bytes (header + payloads + any trailer); 0 for
    /// synthesized indices.
    pub fn encoded_len(&self) -> u64 {
        self.encoded_len
    }

    /// The torn-container check every reader of whole containers applies:
    /// `actual`, the byte length of the file or buffer the index was parsed
    /// from, must be exactly what the index declares — shorter is a torn
    /// write, longer is trailing junk.
    pub fn check_len(&self, actual: u64) -> Result<(), FormatError> {
        match actual.cmp(&self.encoded_len) {
            std::cmp::Ordering::Less => Err(FormatError::Truncated),
            std::cmp::Ordering::Equal => Ok(()),
            std::cmp::Ordering::Greater => Err(FormatError::Corrupt),
        }
    }

    /// Total payload bytes across all tensors.
    pub fn payload_bytes(&self) -> u64 {
        self.tensors.iter().map(TensorMeta::size_bytes).sum()
    }

    /// Flat `(full_name, shape)` pairs — the input `ShapeSeq::from_params`
    /// expects (the caller filters non-trainable state).
    pub fn param_shapes(&self) -> Vec<(String, Shape)> {
        self.tensors.iter().map(|m| (m.name.clone(), m.shape())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> CheckpointIndex {
        CheckpointIndex::synthesized(vec![
            ("a/kernel".to_string(), vec![3, 4]),
            ("a/bias".to_string(), vec![4]),
            ("scalar".to_string(), vec![]),
        ])
    }

    #[test]
    fn meta_accessors() {
        let idx = index();
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.encoded_len(), 0, "a synthesized index carries no layout");
        let kernel = idx.get("a/kernel").unwrap();
        assert_eq!(kernel.numel(), 12);
        assert_eq!(kernel.size_bytes(), 48);
        assert_eq!(kernel.shape(), Shape::new([3, 4]));
        // Rank-0 tensors hold one element (product of an empty dims list).
        assert_eq!(idx.get("scalar").unwrap().numel(), 1);
        assert!(idx.get("missing").is_none());
        assert_eq!(idx.payload_bytes(), 48 + 16 + 4);
    }

    #[test]
    fn param_shapes_preserve_order() {
        let shapes = index().param_shapes();
        assert_eq!(shapes[0].0, "a/kernel");
        assert_eq!(shapes[1].1, Shape::new([4]));
    }
}
