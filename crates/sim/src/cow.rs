//! A copy-on-write, chunked append-only vector for O(1) snapshotting.
//!
//! [`CowVec`] is the persistent-vector-style backbone of the checkpoint
//! tree: a run's growing history (trace samples, injector records)
//! appends to a plain mutable *tail*, and at snapshot time the
//! tail is *sealed* into an immutable `Arc`-shared prefix chunk. A
//! snapshot is then just a clone of the chunk list — O(chunks), not
//! O(elements) — and every snapshot along a run shares the sealed chunks
//! structurally instead of deep-copying the history.
//!
//! The aliasing contract is the whole point: once a chunk is sealed it is
//! never mutated, so a forked run appending to *its* tail (and sealing
//! *its own* later chunks) can never perturb the prefix another snapshot
//! holds. `tests/snapshot_fidelity.rs` pins this property.

use crate::codec::{fnv1a, ByteReader, ByteWriter, CodecError, CodecResult};
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// Write side of a content-addressed chunk store.
///
/// [`CowVec::encode_chunked`] hands each sealed chunk to the sink and
/// records only the returned content hash inline; the sink owns
/// deduplication (two snapshots whose histories share a chunk produce
/// byte-identical chunk encodings, hence one stored blob).
pub trait ChunkSink {
    /// Stores (or dedups) one sealed chunk, returning the FNV-1a content
    /// hash ([`fnv1a`]) of its encoding, which `encode` produces. `id` is
    /// the chunk's identity (see [`CowVec::for_each_chunk`]): a sink may
    /// return the hash it returned for an `id` before without calling
    /// `encode`, as long as it knows that chunk to be alive, since a
    /// freed chunk's identity can be reused.
    fn put_chunk(&mut self, id: usize, encode: &mut dyn FnMut() -> Vec<u8>) -> u64;
}

/// Read side of a content-addressed chunk store.
pub trait ChunkSource {
    /// Fetches a chunk blob previously stored under `hash`.
    fn get_chunk(&mut self, hash: u64) -> Option<Vec<u8>>;
}

/// In-memory [`ChunkSink`]/[`ChunkSource`] used by round-trip tests (the
/// disk-backed implementation lives in `avis::store`).
#[derive(Debug, Default)]
pub struct MemoryChunkStore {
    chunks: BTreeMap<u64, Vec<u8>>,
    /// Chunk puts that found their hash already present.
    pub dedup_hits: u64,
}

impl MemoryChunkStore {
    /// An empty store.
    pub fn new() -> Self {
        MemoryChunkStore::default()
    }

    /// Number of distinct chunk blobs held.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the store holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Total stored chunk bytes.
    pub fn total_bytes(&self) -> usize {
        self.chunks.values().map(Vec::len).sum()
    }

    /// Corrupts the stored chunk `hash` (test helper for the quarantine
    /// paths): flips one byte in place.
    pub fn corrupt_chunk(&mut self, hash: u64) -> bool {
        match self.chunks.get_mut(&hash) {
            Some(bytes) if !bytes.is_empty() => {
                bytes[0] ^= 0xff;
                true
            }
            _ => false,
        }
    }
}

impl ChunkSink for MemoryChunkStore {
    fn put_chunk(&mut self, _id: usize, encode: &mut dyn FnMut() -> Vec<u8>) -> u64 {
        let bytes = encode();
        let hash = fnv1a(&bytes);
        if let std::collections::btree_map::Entry::Vacant(slot) = self.chunks.entry(hash) {
            slot.insert(bytes);
        } else {
            self.dedup_hits += 1;
        }
        hash
    }
}

impl ChunkSource for MemoryChunkStore {
    fn get_chunk(&mut self, hash: u64) -> Option<Vec<u8>> {
        self.chunks.get(&hash).cloned()
    }
}

/// The chunks one decoding pass has already read, by content hash (see
/// [`CowVec::decode_chunked`]). Vectors of different element types
/// share one memo; a hash is looked up together with its element type.
#[derive(Default)]
pub struct ChunkMemo {
    chunks: BTreeMap<u64, Box<dyn Any>>,
}

impl ChunkMemo {
    fn get<T: 'static>(&self, hash: u64) -> Option<Arc<[T]>> {
        self.chunks.get(&hash)?.downcast_ref::<Arc<[T]>>().cloned()
    }

    fn insert<T: 'static>(&mut self, hash: u64, chunk: Arc<[T]>) {
        self.chunks.entry(hash).or_insert_with(|| Box::new(chunk));
    }
}

/// An append-only vector whose history is shared between clones as
/// immutable `Arc` chunks (see the [module docs](self)).
#[derive(Clone)]
pub struct CowVec<T> {
    /// Sealed, immutable prefix chunks, in order. Shared between clones.
    chunks: Vec<Arc<[T]>>,
    /// Elements in the sealed prefix (sum of chunk lengths).
    prefix_len: usize,
    /// The mutable tail: appends land here until the next seal.
    tail: Vec<T>,
}

impl<T: Clone> CowVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        CowVec {
            chunks: Vec::new(),
            prefix_len: 0,
            tail: Vec::new(),
        }
    }

    /// An empty vector whose tail is pre-sized for `capacity` appends, so
    /// a hot loop that pushes into it performs no steady-state
    /// reallocations between seals.
    pub fn with_capacity(capacity: usize) -> Self {
        CowVec {
            chunks: Vec::new(),
            prefix_len: 0,
            tail: Vec::with_capacity(capacity),
        }
    }

    /// Builds a vector from existing elements (all in the tail).
    pub fn from_vec(items: Vec<T>) -> Self {
        CowVec {
            chunks: Vec::new(),
            prefix_len: 0,
            tail: items,
        }
    }

    /// Total number of elements (sealed prefix + tail).
    pub fn len(&self) -> usize {
        self.prefix_len + self.tail.len()
    }

    /// Whether the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends an element to the tail. Amortised O(1); never touches the
    /// sealed prefix.
    pub fn push(&mut self, item: T) {
        self.tail.push(item);
    }

    /// The element at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index < self.prefix_len {
            let mut offset = index;
            for chunk in &self.chunks {
                if offset < chunk.len() {
                    return Some(&chunk[offset]);
                }
                offset -= chunk.len();
            }
            unreachable!("prefix_len covers every chunk")
        } else {
            self.tail.get(index - self.prefix_len)
        }
    }

    /// The last element, if any.
    pub fn last(&self) -> Option<&T> {
        self.tail
            .last()
            .or_else(|| self.chunks.last().and_then(|c| c.last()))
    }

    /// Iterates over every element, prefix first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks
            .iter()
            .flat_map(|c| c.iter())
            .chain(self.tail.iter())
    }

    /// Seals the tail into a shared immutable chunk. After this, clones
    /// share the entire history structurally. O(tail length) — the tail
    /// is *moved* into the chunk, the existing prefix is untouched.
    pub fn seal(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        let capacity = self.tail.capacity();
        let sealed: Arc<[T]> = std::mem::take(&mut self.tail).into();
        self.prefix_len += sealed.len();
        self.chunks.push(sealed);
        // Keep the tail at its steady-state capacity so the hot append
        // loop does not re-grow from zero after every checkpoint.
        self.tail.reserve(capacity);
    }

    /// Seals the tail, then returns a structural-sharing clone: the
    /// snapshot primitive. O(chunks), independent of element count. The
    /// clone's tail starts unreserved, so a snapshot kept in a cache does
    /// not hold the spare capacity the original reserved for its run.
    pub fn sealed_clone(&mut self) -> CowVec<T> {
        self.seal();
        self.clone()
    }

    /// Copies every element into a plain `Vec` (prefix first).
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter().cloned());
        out
    }

    /// Consumes the vector into a plain `Vec`, avoiding the copy when the
    /// history was never sealed (the common cold-run case).
    pub fn into_vec(self) -> Vec<T> {
        if self.chunks.is_empty() {
            self.tail
        } else {
            self.to_vec()
        }
    }

    /// Heap bytes exclusively owned by this instance (the unsealed tail).
    /// Sealed chunks are shared and accounted separately through
    /// [`CowVec::for_each_chunk`].
    pub fn exclusive_bytes(&self) -> usize {
        self.tail.len() * std::mem::size_of::<T>()
            + self.chunks.len() * std::mem::size_of::<Arc<[T]>>()
    }

    /// Visits every sealed chunk as `(identity, bytes)`. The identity is
    /// stable for the chunk's lifetime and equal across clones sharing
    /// it, so a store can charge each distinct chunk's bytes exactly once
    /// however many snapshots reference it.
    pub fn for_each_chunk(&self, f: &mut dyn FnMut(usize, usize)) {
        for chunk in &self.chunks {
            f(
                // avis-lint: allow(d2, reason = "chunk identity for memory-budget dedup only; never feeds replay, hashing or ordering")
                Arc::as_ptr(chunk) as *const T as usize,
                chunk.len() * std::mem::size_of::<T>(),
            );
        }
    }

    /// Serialises the vector for the persistent store. Each sealed chunk
    /// is handed to `sink` with its identity and its encoding (element
    /// count + elements via `enc`) as its own blob, which the sink
    /// content-addresses; only the chunk hashes are written inline, so
    /// histories shared across snapshots dedup to one stored blob per
    /// distinct chunk, and a sink that remembers identities encodes each
    /// shared chunk once. The unsealed tail (if any) is encoded inline.
    pub fn encode_chunked(
        &self,
        w: &mut ByteWriter,
        sink: &mut dyn ChunkSink,
        enc: &mut dyn FnMut(&mut ByteWriter, &T),
    ) {
        let mut ids = Vec::with_capacity(self.chunks.len());
        self.for_each_chunk(&mut |id, _| ids.push(id));
        w.usize(self.chunks.len());
        for (chunk, id) in self.chunks.iter().zip(ids) {
            w.u64(sink.put_chunk(id, &mut || {
                let mut cw = ByteWriter::with_capacity(16 + chunk.len() * 8);
                cw.usize(chunk.len());
                for item in chunk.iter() {
                    enc(&mut cw, item);
                }
                cw.into_bytes()
            }));
        }
        w.usize(self.tail.len());
        for item in &self.tail {
            enc(w, item);
        }
    }

    /// Restores a vector serialised by [`CowVec::encode_chunked`],
    /// fetching chunk blobs from `source`. A chunk already in `memo` is
    /// shared instead of fetched, so every vector decoded through one
    /// memo holds one `Arc` per distinct chunk, as the vectors it was
    /// encoded from did. A missing or malformed chunk blob is a decode
    /// error (the store falls back to a cold start).
    pub fn decode_chunked(
        r: &mut ByteReader<'_>,
        source: &mut dyn ChunkSource,
        memo: &mut ChunkMemo,
        dec: &mut dyn FnMut(&mut ByteReader<'_>) -> CodecResult<T>,
    ) -> CodecResult<CowVec<T>>
    where
        T: 'static,
    {
        let n_chunks = r.usize()?;
        // Each chunk reference is 8 bytes inline; guard the count the same
        // way ByteReader::seq guards element counts.
        if n_chunks.checked_mul(8).is_none_or(|b| b > r.remaining()) {
            return Err(CodecError::Malformed("implausible chunk count"));
        }
        let mut chunks: Vec<Arc<[T]>> = Vec::with_capacity(n_chunks);
        let mut prefix_len = 0usize;
        for _ in 0..n_chunks {
            let hash = r.u64()?;
            let chunk = match memo.get(hash) {
                Some(chunk) => chunk,
                None => {
                    let bytes = source
                        .get_chunk(hash)
                        .ok_or(CodecError::Malformed("missing chunk blob"))?;
                    if fnv1a(&bytes) != hash {
                        return Err(CodecError::Malformed("chunk content hash mismatch"));
                    }
                    let mut cr = ByteReader::new(&bytes);
                    let elems = cr.seq(&mut *dec)?;
                    cr.finish()?;
                    let chunk: Arc<[T]> = elems.into();
                    memo.insert(hash, Arc::clone(&chunk));
                    chunk
                }
            };
            prefix_len += chunk.len();
            chunks.push(chunk);
        }
        let tail = r.seq(&mut *dec)?;
        Ok(CowVec {
            chunks,
            prefix_len,
            tail,
        })
    }
}

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        CowVec {
            chunks: Vec::new(),
            prefix_len: 0,
            tail: Vec::new(),
        }
    }
}

impl<T: Clone> Index<usize> for CowVec<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        self.get(index)
            .unwrap_or_else(|| panic!("CowVec index {index} out of bounds (len {})", self.len()))
    }
}

impl<T: Clone> FromIterator<T> for CowVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        CowVec::from_vec(iter.into_iter().collect())
    }
}

impl<T: Clone + PartialEq> PartialEq for CowVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: Clone + fmt::Debug> fmt::Debug for CowVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_len_get_index_iter() {
        let mut v = CowVec::new();
        assert!(v.is_empty());
        for i in 0..10 {
            v.push(i);
        }
        v.seal();
        for i in 10..25 {
            v.push(i);
        }
        assert_eq!(v.len(), 25);
        assert!(!v.is_empty());
        assert_eq!(v.get(0), Some(&0));
        assert_eq!(v.get(9), Some(&9));
        assert_eq!(v.get(10), Some(&10));
        assert_eq!(v[24], 24);
        assert_eq!(v.get(25), None);
        assert_eq!(v.last(), Some(&24));
        let collected: Vec<i32> = v.iter().copied().collect();
        assert_eq!(collected, (0..25).collect::<Vec<_>>());
        assert_eq!(v.to_vec(), collected);
    }

    #[test]
    fn sealed_clone_is_structural_sharing_and_aliasing_safe() {
        let mut original = CowVec::with_capacity(8);
        for i in 0..100 {
            original.push(i);
        }
        let snapshot = original.sealed_clone();
        assert_eq!(snapshot.len(), 100);
        // The fork keeps appending and sealing; the snapshot must never
        // observe any of it.
        for i in 100..200 {
            original.push(i * 10);
            if i % 17 == 0 {
                original.seal();
            }
        }
        assert_eq!(snapshot.len(), 100);
        assert_eq!(snapshot.to_vec(), (0..100).collect::<Vec<_>>());
        assert_eq!(original.len(), 200);
        // And the chunks really are shared: identities overlap.
        let mut snap_ids = Vec::new();
        snapshot.for_each_chunk(&mut |id, _| snap_ids.push(id));
        let mut orig_ids = Vec::new();
        original.for_each_chunk(&mut |id, _| orig_ids.push(id));
        assert!(snap_ids.iter().all(|id| orig_ids.contains(id)));
        assert!(orig_ids.len() > snap_ids.len());
    }

    #[test]
    fn seal_of_empty_tail_is_a_no_op() {
        let mut v: CowVec<u8> = CowVec::new();
        v.seal();
        v.seal();
        assert!(v.is_empty());
        v.push(1);
        v.seal();
        let chunks_before = v.chunks.len();
        v.seal();
        assert_eq!(v.chunks.len(), chunks_before);
    }

    #[test]
    fn into_vec_avoids_copy_when_unsealed() {
        let v = CowVec::from_vec(vec![1, 2, 3]);
        assert_eq!(v.into_vec(), vec![1, 2, 3]);
        let mut sealed = CowVec::from_vec(vec![1, 2, 3]);
        sealed.seal();
        sealed.push(4);
        assert_eq!(sealed.into_vec(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn exclusive_bytes_counts_only_the_tail_elements() {
        let mut v = CowVec::new();
        for i in 0..8u64 {
            v.push(i);
        }
        let unsealed = v.exclusive_bytes();
        assert!(unsealed >= 8 * std::mem::size_of::<u64>());
        v.seal();
        assert!(v.exclusive_bytes() < unsealed);
        let mut bytes = 0;
        v.for_each_chunk(&mut |_, b| bytes += b);
        assert_eq!(bytes, 8 * std::mem::size_of::<u64>());
    }

    /// A sealed base and a later cut of one history, encoded into one
    /// store: the cut shares the base's chunk.
    fn encoded_pair() -> (CowVec<u64>, CowVec<u64>, Vec<u8>, Vec<u8>, MemoryChunkStore) {
        use crate::codec::ByteWriter;

        let mut v = CowVec::from_vec((0..30u64).collect::<Vec<_>>());
        v.seal();
        let base = v.sealed_clone();
        for i in 30..50 {
            v.push(i);
        }
        let cut = v.sealed_clone();
        let mut store = MemoryChunkStore::new();
        let mut enc = |w: &mut ByteWriter, t: &u64| w.u64(*t);
        let mut w = ByteWriter::new();
        base.encode_chunked(&mut w, &mut store, &mut enc);
        let base_bytes = w.into_bytes();
        let mut w = ByteWriter::new();
        cut.encode_chunked(&mut w, &mut store, &mut enc);
        (base, cut, base_bytes, w.into_bytes(), store)
    }

    #[test]
    fn chunked_encode_round_trips_and_dedups_shared_history() {
        use crate::codec::ByteReader;

        let (base, cut, base_bytes, cut_bytes, mut store) = encoded_pair();
        // `cut` shares its first chunk with `base`: one dedup hit.
        assert_eq!(store.dedup_hits, 1);
        assert_eq!(store.len(), 2);
        for (bytes, original) in [(&base_bytes, &base), (&cut_bytes, &cut)] {
            let rebuilt = CowVec::decode_chunked(
                &mut ByteReader::new(bytes),
                &mut store,
                &mut ChunkMemo::default(),
                &mut |r| r.u64(),
            )
            .unwrap();
            assert_eq!(&rebuilt, original);
        }
    }

    #[test]
    fn one_memo_fetches_each_shared_chunk_once() {
        use crate::codec::ByteReader;

        struct Counting(MemoryChunkStore, usize);
        impl ChunkSource for Counting {
            fn get_chunk(&mut self, hash: u64) -> Option<Vec<u8>> {
                self.1 += 1;
                self.0.get_chunk(hash)
            }
        }
        let (base, cut, base_bytes, cut_bytes, store) = encoded_pair();
        let mut source = Counting(store, 0);
        let mut memo = ChunkMemo::default();
        let mut decode = |bytes: &[u8]| {
            CowVec::decode_chunked(
                &mut ByteReader::new(bytes),
                &mut source,
                &mut memo,
                &mut |r| r.u64(),
            )
            .unwrap()
        };
        let (rebuilt_base, rebuilt_cut) = (decode(&base_bytes), decode(&cut_bytes));
        assert_eq!((&rebuilt_base, &rebuilt_cut), (&base, &cut));
        assert_eq!(source.1, 2, "three chunk references, two distinct chunks");
        let (mut base_ids, mut cut_ids) = (Vec::new(), Vec::new());
        rebuilt_base.for_each_chunk(&mut |id, _| base_ids.push(id));
        rebuilt_cut.for_each_chunk(&mut |id, _| cut_ids.push(id));
        assert_eq!(base_ids[0], cut_ids[0], "the shared chunk is one Arc");
        assert_ne!(cut_ids[0], cut_ids[1]);
    }

    #[test]
    fn a_sink_that_remembers_identities_encodes_each_shared_chunk_once() {
        use crate::codec::ByteWriter;

        /// Remembers each chunk identity's hash and counts the chunks it
        /// had to encode.
        #[derive(Default)]
        struct Counting(MemoryChunkStore, BTreeMap<usize, u64>, usize);
        impl ChunkSink for Counting {
            fn put_chunk(&mut self, id: usize, encode: &mut dyn FnMut() -> Vec<u8>) -> u64 {
                if let Some(&hash) = self.1.get(&id) {
                    return hash;
                }
                self.2 += 1;
                let hash = self.0.put_chunk(id, encode);
                self.1.insert(id, hash);
                hash
            }
        }
        // Five cuts along one history: cut k holds its k + 1 oldest
        // chunks, so 15 chunk references name 5 distinct chunks.
        let mut history = CowVec::new();
        let cuts: Vec<CowVec<u64>> = (0..5u64)
            .map(|k| {
                (0..10).for_each(|i| history.push(10 * k + i));
                history.sealed_clone()
            })
            .collect();
        let (mut counting, mut plain) = (Counting::default(), MemoryChunkStore::new());
        for cut in &cuts {
            let (mut remembered, mut encoded) = (ByteWriter::new(), ByteWriter::new());
            cut.encode_chunked(&mut remembered, &mut counting, &mut |w, t| w.u64(*t));
            cut.encode_chunked(&mut encoded, &mut plain, &mut |w, t| w.u64(*t));
            assert_eq!(remembered.into_bytes(), encoded.into_bytes());
        }
        assert_eq!(counting.2, 5, "each shared chunk is encoded once");
        assert_eq!(
            plain.dedup_hits, 10,
            "a sink that forgets re-encodes the rest"
        );
    }

    #[test]
    fn chunked_decode_rejects_corrupt_or_missing_chunks() {
        use crate::codec::{ByteReader, ByteWriter};

        let mut v = CowVec::from_vec(vec![1u64, 2, 3]);
        v.seal();
        let mut store = MemoryChunkStore::new();
        let mut w = ByteWriter::new();
        v.encode_chunked(&mut w, &mut store, &mut |w, t| w.u64(*t));
        let bytes = w.into_bytes();

        // Unsealed tail round-trips inline even with an empty store.
        let hash = {
            let mut ids = Vec::new();
            store.chunks.keys().for_each(|k| ids.push(*k));
            ids[0]
        };
        assert!(store.corrupt_chunk(hash));
        let err = CowVec::<u64>::decode_chunked(
            &mut ByteReader::new(&bytes),
            &mut store,
            &mut ChunkMemo::default(),
            &mut |r| r.u64(),
        );
        assert!(err.is_err());

        let mut empty = MemoryChunkStore::new();
        let err = CowVec::<u64>::decode_chunked(
            &mut ByteReader::new(&bytes),
            &mut empty,
            &mut ChunkMemo::default(),
            &mut |r| r.u64(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn equality_is_elementwise_across_chunk_layouts() {
        let mut a = CowVec::from_vec(vec![1, 2, 3, 4]);
        a.seal();
        a.push(5);
        let b = CowVec::from_vec(vec![1, 2, 3, 4, 5]);
        assert_eq!(a, b);
        let c = CowVec::from_vec(vec![1, 2, 3, 4, 6]);
        assert_ne!(a, c);
    }
}
