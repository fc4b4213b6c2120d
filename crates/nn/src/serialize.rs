//! Parameter (de)serialization: extract a network's parameters into a
//! portable "state dict" and load it back into a structurally identical
//! network, mirroring how trained Sato models are shipped and reloaded.
//!
//! A [`StateDict`] carries both trainable parameters (`tensors`) and
//! non-trainable *buffers* (`buffers`, e.g. BatchNorm running statistics),
//! so a whole multi-input network round-trips with its evaluation-mode
//! behaviour intact — see `MultiInputNetwork::state_dict` /
//! `MultiInputNetwork::load_state_dict`.

use crate::layers::Param;
use crate::matrix::Matrix;

/// A snapshot of every trainable parameter (and, for full-network captures,
/// every buffer) of a network, in the stable traversal order of `params()` /
/// `buffers()`.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDict {
    /// Parameter values, in traversal order.
    pub tensors: Vec<Matrix>,
    /// Non-trainable state (e.g. BatchNorm running mean/variance), in
    /// traversal order. Empty for parameter-only snapshots.
    pub buffers: Vec<Vec<f32>>,
}

/// Error returned when a state dict cannot be loaded into a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The number of tensors differs from the number of parameters.
    CountMismatch {
        /// Parameters in the target network.
        expected: usize,
        /// Tensors in the state dict.
        found: usize,
    },
    /// A tensor's shape differs from the target parameter's shape.
    ShapeMismatch {
        /// Index of the offending parameter.
        index: usize,
        /// Shape of the target parameter.
        expected: (usize, usize),
        /// Shape found in the state dict.
        found: (usize, usize),
    },
    /// The number of buffers differs from the number in the target network.
    BufferCountMismatch {
        /// Buffers in the target network.
        expected: usize,
        /// Buffers in the state dict.
        found: usize,
    },
    /// A buffer's length differs from the target buffer's length.
    BufferLenMismatch {
        /// Index of the offending buffer.
        index: usize,
        /// Length of the target buffer.
        expected: usize,
        /// Length found in the state dict.
        found: usize,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::CountMismatch { expected, found } => {
                write!(
                    f,
                    "state dict has {found} tensors but network has {expected} parameters"
                )
            }
            LoadError::ShapeMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "tensor {index} has shape {found:?} but parameter expects {expected:?}"
            ),
            LoadError::BufferCountMismatch { expected, found } => {
                write!(
                    f,
                    "state dict has {found} buffers but network has {expected}"
                )
            }
            LoadError::BufferLenMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "buffer {index} has length {found} but network expects {expected}"
            ),
        }
    }
}

impl std::error::Error for LoadError {}

/// Capture the current values of the given parameters (no buffers).
pub fn state_dict(params: &[&Param]) -> StateDict {
    StateDict {
        tensors: params.iter().map(|p| p.value.clone()).collect(),
        buffers: Vec::new(),
    }
}

/// Capture parameters *and* buffers, so evaluation-mode state (running
/// batch statistics) survives the round-trip.
pub fn full_state_dict(params: &[&Param], buffers: &[&Vec<f32>]) -> StateDict {
    StateDict {
        tensors: params.iter().map(|p| p.value.clone()).collect(),
        buffers: buffers.iter().map(|b| (*b).clone()).collect(),
    }
}

/// Check tensor count and shapes against the state dict.
fn check_tensors(
    shapes: impl ExactSizeIterator<Item = (usize, usize)>,
    state: &StateDict,
) -> Result<(), LoadError> {
    if shapes.len() != state.tensors.len() {
        return Err(LoadError::CountMismatch {
            expected: shapes.len(),
            found: state.tensors.len(),
        });
    }
    for (i, (expected, t)) in shapes.zip(&state.tensors).enumerate() {
        if expected != t.shape() {
            return Err(LoadError::ShapeMismatch {
                index: i,
                expected,
                found: t.shape(),
            });
        }
    }
    Ok(())
}

/// Check buffer count and lengths against the state dict.
fn check_buffers(
    lens: impl ExactSizeIterator<Item = usize>,
    state: &StateDict,
) -> Result<(), LoadError> {
    if lens.len() != state.buffers.len() {
        return Err(LoadError::BufferCountMismatch {
            expected: lens.len(),
            found: state.buffers.len(),
        });
    }
    for (i, (expected, s)) in lens.zip(&state.buffers).enumerate() {
        if expected != s.len() {
            return Err(LoadError::BufferLenMismatch {
                index: i,
                expected,
                found: s.len(),
            });
        }
    }
    Ok(())
}

/// Check that `state` is loadable into the given parameters and buffers
/// without modifying anything.
pub fn validate_state(
    params: &[&Param],
    buffers: &[&Vec<f32>],
    state: &StateDict,
) -> Result<(), LoadError> {
    check_tensors(params.iter().map(|p| p.value.shape()), state)?;
    check_buffers(buffers.iter().map(|b| b.len()), state)
}

/// Load a parameter-only state dict into the given parameters (shapes must
/// match exactly; any buffers in `state` are ignored).
pub fn load_state_dict(params: &mut [&mut Param], state: &StateDict) -> Result<(), LoadError> {
    check_tensors(params.iter().map(|p| p.value.shape()), state)?;
    copy_tensors(params, state);
    Ok(())
}

/// Copy a validated state dict's tensors into the given parameters. Callers
/// must run [`validate_state`] first; together with [`copy_buffers`] this is
/// the single copy implementation behind `Sequential::load_state_dict` and
/// `MultiInputNetwork::load_state_dict` (two functions rather than one
/// because a network cannot hand out its parameter and buffer views under
/// one `&mut self` borrow).
pub fn copy_tensors(params: &mut [&mut Param], state: &StateDict) {
    for (p, t) in params.iter_mut().zip(&state.tensors) {
        p.value = t.clone();
    }
}

/// Copy a validated state dict's buffers into the given buffer views; see
/// [`copy_tensors`].
pub fn copy_buffers(buffers: &mut [&mut Vec<f32>], state: &StateDict) {
    for (b, s) in buffers.iter_mut().zip(&state.buffers) {
        b.clone_from(s);
    }
}

/// Typed decode errors of the flat [`StateDict`] byte layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateBytesError {
    /// The buffer ended before the named field was fully read.
    Truncated(&'static str),
    /// A structurally invalid payload (overflowing shapes, trailing bytes).
    Corrupt(&'static str),
}

impl std::fmt::Display for StateBytesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateBytesError::Truncated(what) => {
                write!(f, "state dict payload truncated while reading {what}")
            }
            StateBytesError::Corrupt(what) => write!(f, "corrupt state dict payload: {what}"),
        }
    }
}

impl std::error::Error for StateBytesError {}

/// Little-endian field reader over a byte payload.
///
/// Deliberately the same minimal helper as its siblings in `sato-topic`
/// and `sato-core` (the crates cannot share one without a new dependency
/// edge); keep fixes mirrored.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], StateBytesError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(StateBytesError::Truncated(what))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, StateBytesError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn f32_vec(&mut self, len: usize, what: &'static str) -> Result<Vec<f32>, StateBytesError> {
        let bytes = self.take(
            len.checked_mul(4).ok_or(StateBytesError::Corrupt(what))?,
            what,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

fn push_f32s(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(values.len() * 4);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

impl StateDict {
    /// Append the flat binary form to `out`: tensor count, then per tensor
    /// `rows u32 | cols u32 | rows·cols f32`, then buffer count and per
    /// buffer `len u32 | len f32` — everything little-endian, weight data
    /// laid out exactly as the row-major `Matrix` holds it in memory.
    ///
    /// This is the section payload of the binary predictor artifact.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.tensors.len() as u32).to_le_bytes());
        for t in &self.tensors {
            out.extend_from_slice(&(t.rows() as u32).to_le_bytes());
            out.extend_from_slice(&(t.cols() as u32).to_le_bytes());
            push_f32s(out, t.data());
        }
        out.extend_from_slice(&(self.buffers.len() as u32).to_le_bytes());
        for b in &self.buffers {
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            push_f32s(out, b);
        }
    }

    /// Decode a state dict written by [`Self::write_bytes`], bit-identical
    /// to the one that was written.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StateBytesError> {
        let mut r = ByteReader { bytes, pos: 0 };
        let tensor_count = r.u32("tensor count")? as usize;
        let mut tensors = Vec::with_capacity(tensor_count.min(1024));
        for _ in 0..tensor_count {
            let rows = r.u32("tensor rows")? as usize;
            let cols = r.u32("tensor cols")? as usize;
            let len = rows
                .checked_mul(cols)
                .ok_or(StateBytesError::Corrupt("tensor shape overflow"))?;
            let data = r.f32_vec(len, "tensor data")?;
            tensors.push(Matrix::from_vec(rows, cols, data));
        }
        let buffer_count = r.u32("buffer count")? as usize;
        let mut buffers = Vec::with_capacity(buffer_count.min(1024));
        for _ in 0..buffer_count {
            let len = r.u32("buffer length")? as usize;
            buffers.push(r.f32_vec(len, "buffer data")?);
        }
        if r.pos != bytes.len() {
            return Err(StateBytesError::Corrupt("trailing bytes after state dict"));
        }
        Ok(StateDict { tensors, buffers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Layer, ReLU};
    use crate::network::Sequential;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new()
            .push(Dense::new(3, 4, &mut rng))
            .push(ReLU::new())
            .push(Dense::new(4, 2, &mut rng))
    }

    #[test]
    fn save_and_load_round_trip() {
        let a = net(1);
        let mut b = net(2);
        let x = crate::matrix::Matrix::from_rows(&[vec![1.0, -0.5, 2.0]]);
        assert_ne!(a.infer(&x), b.infer(&x));

        let state = state_dict(&a.params());
        load_state_dict(&mut b.params_mut(), &state).unwrap();
        assert_eq!(a.infer(&x), b.infer(&x));
    }

    #[test]
    fn count_mismatch_is_detected() {
        let mut a = net(1);
        let state = StateDict {
            tensors: vec![],
            buffers: vec![],
        };
        let err = load_state_dict(&mut a.params_mut(), &state).unwrap_err();
        assert!(matches!(err, LoadError::CountMismatch { .. }));
        assert!(err.to_string().contains("tensors"));
    }

    #[test]
    fn shape_mismatch_is_detected_and_nothing_is_loaded() {
        let mut a = net(1);
        let mut wrong = state_dict(&a.params());
        wrong.tensors[2] = crate::matrix::Matrix::zeros(10, 10);
        let before = state_dict(&a.params());
        let err = load_state_dict(&mut a.params_mut(), &wrong).unwrap_err();
        assert!(matches!(err, LoadError::ShapeMismatch { index: 2, .. }));
        // The failed load must not have partially overwritten parameters.
        let after = state_dict(&a.params());
        assert_eq!(before, after);
    }

    /// A stack with a BatchNorm layer, whose running statistics only live in
    /// the buffers of a full state dict.
    fn bn_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new()
            .push(Dense::new(3, 4, &mut rng))
            .push(crate::layers::BatchNorm::new(4))
            .push(ReLU::new())
            .push(Dense::new(4, 2, &mut rng))
    }

    #[test]
    fn full_state_dict_round_trips_running_statistics() {
        let mut a = bn_net(5);
        let x = crate::matrix::Matrix::from_rows(&[
            vec![1.0, -0.5, 2.0],
            vec![0.0, 3.0, -1.0],
            vec![2.0, 0.5, 0.5],
        ]);
        // Drive the running statistics away from their initial values.
        for _ in 0..50 {
            a.forward(&x, true);
        }
        let state = a.state_dict();
        assert!(!state.buffers.is_empty(), "BatchNorm buffers captured");

        let mut b = bn_net(6);
        b.load_state_dict(&state).unwrap();
        // Evaluation-mode outputs (which depend on the running statistics)
        // must match bit for bit.
        assert_eq!(a.infer(&x), b.infer(&x));
        // And the byte round trip preserves the whole thing.
        let mut bytes = Vec::new();
        state.write_bytes(&mut bytes);
        assert_eq!(state, StateDict::from_bytes(&bytes).unwrap());
    }

    #[test]
    fn byte_round_trip_is_bit_identical() {
        let mut a = bn_net(9);
        let x = crate::matrix::Matrix::from_rows(&[vec![1.0, -0.5, 2.0], vec![0.5, 0.0, -3.0]]);
        for _ in 0..10 {
            a.forward(&x, true);
        }
        let state = a.state_dict();
        let mut bytes = Vec::new();
        state.write_bytes(&mut bytes);
        let back = StateDict::from_bytes(&bytes).unwrap();
        assert_eq!(state, back);
        // Bit for bit, not merely equal as floats.
        let bits = |s: &StateDict| -> Vec<u32> {
            s.tensors
                .iter()
                .flat_map(|t| t.data())
                .chain(s.buffers.iter().flatten())
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&state), bits(&back));
    }

    #[test]
    fn byte_decode_rejects_truncation_and_trailing_garbage() {
        let state = state_dict(&net(4).params());
        let mut bytes = Vec::new();
        state.write_bytes(&mut bytes);
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(
                matches!(
                    StateDict::from_bytes(&bytes[..cut]),
                    Err(StateBytesError::Truncated(_))
                ),
                "cut at {cut} not reported as truncation"
            );
        }
        bytes.push(0xAB);
        assert!(matches!(
            StateDict::from_bytes(&bytes),
            Err(StateBytesError::Corrupt(_))
        ));
    }

    #[test]
    fn buffer_mismatch_is_detected_and_nothing_is_loaded() {
        let mut a = bn_net(7);
        let mut wrong = a.state_dict();
        wrong.buffers[0].push(0.0);
        let before = a.state_dict();
        let err = a.load_state_dict(&wrong).unwrap_err();
        assert!(matches!(err, LoadError::BufferLenMismatch { index: 0, .. }));
        assert_eq!(a.state_dict(), before);

        let mut missing = before.clone();
        missing.buffers.clear();
        let err = a.load_state_dict(&missing).unwrap_err();
        assert!(matches!(err, LoadError::BufferCountMismatch { .. }));
        assert_eq!(a.state_dict(), before);
    }
}
