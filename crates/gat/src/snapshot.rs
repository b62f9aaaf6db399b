//! Persistent GAT index snapshots.
//!
//! Building a [`GatIndex`] is expensive relative to querying it, yet
//! every process start used to rebuild all layers. This module
//! serializes a built index (configuration + grid + ITL) into a
//! versioned, checksummed binary snapshot keyed by
//! [`Dataset::content_hash`], so a restart *loads* instead of
//! *builds*. A sharded engine persists nothing of its own: it shards
//! the same index ([`crate::ShardedEngine::from_index`]) and recomputes
//! its id partition from the dataset.
//!
//! Safety over speed: a snapshot is only ever used when every check
//! passes — magic, format version, payload checksum
//! ([`atsq_storage::crc32`], the zlib CRC-32),
//! dataset content hash, GAT configuration, and the ITL's consistency
//! with the grid and the dataset. Any mismatch yields a descriptive
//! error and the caller falls back to a fresh build: the worst possible
//! outcome of a corrupt or stale snapshot is a rebuild, never a wrong
//! answer.
//!
//! ## File format
//!
//! ```text
//! offset 0   [u8; 8]  magic b"ATSQSNAP"
//! offset 8   u16 LE   format version (currently 3)
//! offset 10  u8       kind (1 = index)
//! offset 11  u8       reserved (written as 0)
//! offset 12  u64 LE   content hash of the dataset the payload serves
//! offset 20  u32 LE   CRC-32 of the payload
//! offset 24  u64 LE   payload length in bytes
//! offset 32  ...      payload
//! ```
//!
//! The payload is the [`GatConfig`], the grid geometry and the ITL's
//! sorted columns, each through its own strict `encode`/`decode` pair.
//! Nothing else is stored: the other three components are pure
//! functions of the ITL and the dataset the loader is handed, so
//! loading validates the ITL and derives them exactly as a build does
//! (`GatIndex::from_parts`) — the HICL from the ITL's keys, the APL
//! from the dataset, the TAS from the APL's keys.
//!
//! Version 1 files also carried HICL, TAS and APL sections, version 2
//! files TAS and APL sections, and earlier builds wrote kind-2 *shard
//! manifests* (`*.manifest`, next to per-shard `*.shardNNN.idx` files).
//! This build reads none of them: a version-1 or version-2 snapshot
//! fails its header check, so the cache rebuilds and overwrites it on
//! the next start, and [`inspect`] reports such files as `unsupported
//! snapshot version N`.
//!
//! [`IndexCache`] wraps the format in a directory-level API
//! (`load_or_build`, `save`, `inspect`) used by `atsq index build`,
//! `atsq serve --index-cache` and `ServiceConfig::index_cache`.

use crate::config::GatConfig;
use crate::index::GatIndex;
use crate::itl::Itl;
use atsq_grid::Grid;
use atsq_storage::codec::{get_varint_u64, put_varint_u64};
use atsq_storage::crc32;
use atsq_types::{Dataset, Error, Rect, Result};
use std::io::Read;
use std::path::{Path, PathBuf};

/// Leading magic of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ATSQSNAP";

/// Format version this build writes and reads.
pub const SNAPSHOT_VERSION: u16 = 3;

/// Header length in bytes (see the module docs for the layout).
pub const SNAPSHOT_HEADER_LEN: usize = 32;

const KIND_INDEX: u8 = 1;

fn corrupt(msg: impl Into<String>) -> Error {
    Error::Storage(msg.into())
}

fn kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_INDEX => "index",
        _ => "unknown",
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

fn frame(kind: u8, dataset_hash: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SNAPSHOT_HEADER_LEN + payload.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.push(kind);
    out.push(0);
    out.extend_from_slice(&dataset_hash.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parsed and checksum-verified snapshot framing.
struct Framed<'a> {
    version: u16,
    kind: u8,
    dataset_hash: u64,
    payload: &'a [u8],
}

/// Validates everything that can be validated without a dataset:
/// magic, version, length, checksum. Each failure mode gets a
/// distinct, descriptive error.
fn parse_frame(bytes: &[u8]) -> Result<Framed<'_>> {
    if bytes.len() < SNAPSHOT_HEADER_LEN {
        return Err(corrupt(format!(
            "snapshot truncated: {} bytes is shorter than the {SNAPSHOT_HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    if bytes[0..8] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic: not an ATSQ index snapshot"));
    }
    let version = u16::from_le_bytes(bytes[8..10].try_into().expect("2-byte slice"));
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(format!(
            "unsupported snapshot version {version} (this build reads version {SNAPSHOT_VERSION})"
        )));
    }
    let kind = bytes[10];
    let dataset_hash = u64::from_le_bytes(bytes[12..20].try_into().expect("8-byte slice"));
    let stored_crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4-byte slice"));
    let payload_len = u64::from_le_bytes(bytes[24..32].try_into().expect("8-byte slice"));
    let available = (bytes.len() - SNAPSHOT_HEADER_LEN) as u64;
    if payload_len > available {
        return Err(corrupt(format!(
            "snapshot truncated: header declares a {payload_len}-byte payload, \
             only {available} bytes follow"
        )));
    }
    if payload_len < available {
        return Err(corrupt(format!(
            "snapshot corrupt: {} trailing bytes after the declared payload",
            available - payload_len
        )));
    }
    let payload = &bytes[SNAPSHOT_HEADER_LEN..];
    let computed = crc32(payload);
    if computed != stored_crc {
        return Err(corrupt(format!(
            "snapshot corrupt: payload checksum mismatch \
             (stored 0x{stored_crc:08x}, computed 0x{computed:08x})"
        )));
    }
    Ok(Framed {
        version,
        kind,
        dataset_hash,
        payload,
    })
}

fn check_kind(framed: &Framed<'_>) -> Result<()> {
    if framed.kind != KIND_INDEX {
        return Err(corrupt(format!(
            "snapshot kind mismatch: expected an index snapshot, found kind {}",
            framed.kind
        )));
    }
    Ok(())
}

fn check_dataset_hash(framed: &Framed<'_>, current: u64) -> Result<()> {
    if framed.dataset_hash != current {
        return Err(corrupt(format!(
            "stale snapshot: built for dataset {:016x}, current dataset is {current:016x}",
            framed.dataset_hash
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Config and grid codecs
// ---------------------------------------------------------------------

fn encode_config(config: &GatConfig, out: &mut Vec<u8>) {
    out.push(config.grid_level);
    out.push(config.memory_level);
    put_varint_u64(out, config.tas_intervals as u64);
    put_varint_u64(out, config.lambda as u64);
    put_varint_u64(out, config.lb_cells as u64);
    out.push(u8::from(config.use_tas) | (u8::from(config.tight_lower_bound) << 1));
}

fn decode_config(buf: &[u8], pos: &mut usize) -> Option<GatConfig> {
    let grid_level = *buf.get(*pos)?;
    let memory_level = *buf.get(*pos + 1)?;
    *pos += 2;
    let tas_intervals = usize::try_from(get_varint_u64(buf, pos)?).ok()?;
    let lambda = usize::try_from(get_varint_u64(buf, pos)?).ok()?;
    let lb_cells = usize::try_from(get_varint_u64(buf, pos)?).ok()?;
    let flags = *buf.get(*pos)?;
    *pos += 1;
    if flags > 0b11 {
        return None;
    }
    Some(GatConfig {
        grid_level,
        memory_level,
        tas_intervals,
        lambda,
        lb_cells,
        use_tas: flags & 1 != 0,
        tight_lower_bound: flags & 2 != 0,
    })
}

fn encode_grid(grid: &Grid, out: &mut Vec<u8>) {
    let r = grid.region();
    for v in [r.min.x, r.min.y, r.max.x, r.max.y] {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out.push(grid.max_level());
}

fn decode_grid(buf: &[u8], pos: &mut usize) -> Option<Grid> {
    let mut coords = [0.0f64; 4];
    for c in &mut coords {
        let end = pos.checked_add(8)?;
        let bytes: [u8; 8] = buf.get(*pos..end)?.try_into().ok()?;
        *c = f64::from_bits(u64::from_le_bytes(bytes));
        *pos = end;
    }
    let level = *buf.get(*pos)?;
    *pos += 1;
    let [min_x, min_y, max_x, max_y] = coords;
    // Pre-validate what Grid::new would panic on.
    if !coords.iter().all(|c| c.is_finite())
        || max_x <= min_x
        || max_y <= min_y
        || level == 0
        || level > Grid::MAX_SUPPORTED_LEVEL
    {
        return None;
    }
    Some(Grid::new(
        Rect::from_bounds(min_x, min_y, max_x, max_y),
        level,
    ))
}

// ---------------------------------------------------------------------
// Index snapshots
// ---------------------------------------------------------------------

/// Serializes a built index into snapshot bytes for `dataset` (the
/// dataset the index was built from — its content hash keys the
/// snapshot).
pub fn write_index(index: &GatIndex, dataset: &Dataset) -> Vec<u8> {
    write_index_with_hash(index, dataset.content_hash())
}

/// [`write_index`] with the dataset's content hash precomputed — the
/// hash is a full scan of every point and save paths already computed
/// it for the snapshot filename.
fn write_index_with_hash(index: &GatIndex, dataset_hash: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_config(index.config(), &mut payload);
    encode_grid(index.grid(), &mut payload);
    index.itl().encode(&mut payload);
    frame(KIND_INDEX, dataset_hash, &payload)
}

/// Decodes and fully validates a single-index snapshot against the
/// dataset it is supposed to serve. Every failure is a descriptive
/// error; callers treat any error as "no usable snapshot" and rebuild.
pub fn read_index(bytes: &[u8], dataset: &Dataset) -> Result<GatIndex> {
    read_index_with_hash(bytes, dataset, dataset.content_hash())
}

/// [`read_index`] with the dataset's content hash precomputed — the
/// hash is a full scan of every point, and the cache's load path
/// already computed it to derive the snapshot filename.
fn read_index_with_hash(bytes: &[u8], dataset: &Dataset, dataset_hash: u64) -> Result<GatIndex> {
    let framed = parse_frame(bytes)?;
    check_kind(&framed)?;
    check_dataset_hash(&framed, dataset_hash)?;
    let buf = framed.payload;
    let mut pos = 0usize;
    let component = |name: &str| corrupt(format!("snapshot corrupt: {name} failed to decode"));
    let config = decode_config(buf, &mut pos).ok_or_else(|| component("GAT configuration"))?;
    config.validate()?;
    let grid = decode_grid(buf, &mut pos).ok_or_else(|| component("grid geometry"))?;
    let itl = Itl::decode(buf, &mut pos).ok_or_else(|| component("ITL"))?;
    if pos != buf.len() {
        return Err(corrupt(format!(
            "snapshot corrupt: {} undecoded bytes after the last component",
            buf.len() - pos
        )));
    }
    // Cross-component consistency: a snapshot that decodes but whose
    // parts disagree would answer queries wrongly, so it is rejected.
    let inconsistent = |detail: String| corrupt(format!("snapshot inconsistent: {detail}"));
    if grid.max_level() != config.grid_level {
        return Err(inconsistent(format!(
            "grid depth {} vs configured grid_level {}",
            grid.max_level(),
            config.grid_level
        )));
    }
    if itl.leaf_level() != config.grid_level {
        return Err(inconsistent(format!(
            "ITL leaf level {} vs configured grid_level {}",
            itl.leaf_level(),
            config.grid_level
        )));
    }
    // Range check on the decoded references into the dataset: a
    // CRC-valid payload from a buggy or version-skewed writer must be
    // rejected here, not panic with an out-of-bounds index inside a
    // query worker.
    if let Some(max_tr) = itl.max_trajectory_index() {
        if max_tr >= dataset.len() {
            return Err(inconsistent(format!(
                "ITL references trajectory {max_tr}, dataset has {}",
                dataset.len()
            )));
        }
    }
    Ok(GatIndex::from_parts(config, grid, itl, dataset))
}

// ---------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------

/// Header-level description of one snapshot file, produced by
/// [`inspect`] after full checksum validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// `"index"`, or `"unknown"` for any other kind byte (e.g. a
    /// shard manifest written by an earlier build).
    pub kind: &'static str,
    /// Format version the file was written with.
    pub version: u16,
    /// Content hash of the dataset the snapshot serves.
    pub dataset_hash: u64,
    /// Payload size in bytes (file size minus the header).
    pub payload_bytes: usize,
}

/// Reads and validates a snapshot file's framing (magic, version,
/// checksum) without needing the dataset it serves.
pub fn inspect(path: &Path) -> Result<SnapshotInfo> {
    let bytes = read_file(path)?;
    let framed = parse_frame(&bytes)?;
    Ok(SnapshotInfo {
        kind: kind_name(framed.kind),
        version: framed.version,
        dataset_hash: framed.dataset_hash,
        payload_bytes: framed.payload.len(),
    })
}

// ---------------------------------------------------------------------
// The directory-level cache
// ---------------------------------------------------------------------

/// How [`IndexCache::load_or_build`] obtained its engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Every snapshot validated and was loaded — no index build ran.
    Loaded,
    /// The index had to be built fresh. The string is a complete
    /// operator-readable account: what failed to load and why, and
    /// whether the replacement snapshot was saved — render it
    /// verbatim.
    Rebuilt(String),
}

impl CacheOutcome {
    /// Whether the engine came from a snapshot.
    pub fn loaded(&self) -> bool {
        matches!(self, CacheOutcome::Loaded)
    }
}

/// A directory of index snapshots keyed by dataset content hash.
///
/// Filenames are derived from the dataset hash, so one directory can
/// cache snapshots for many datasets side by side. Writes go through a
/// temp file + rename, so a crash mid-save leaves no truncated
/// snapshot under the final name.
#[derive(Debug, Clone)]
pub struct IndexCache {
    dir: PathBuf,
}

impl IndexCache {
    /// A cache rooted at `dir`. The directory is created on first save.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        IndexCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    // Filenames are keyed by dataset hash AND a digest of the GAT
    // configuration, so two embedders sharing one cache directory with
    // different configs get coexisting snapshots instead of
    // overwriting each other's on every start. The config stored in
    // the payload stays the source of truth — `check_config` still
    // validates it on load.

    fn index_path(&self, dataset_hash: u64, config: &GatConfig) -> PathBuf {
        let cfg = config_digest(config);
        self.dir
            .join(format!("gat-{dataset_hash:016x}-c{cfg:08x}.idx"))
    }

    /// Serializes `index` (built from `dataset`) into the cache,
    /// returning the snapshot path.
    pub fn save_index(&self, dataset: &Dataset, index: &GatIndex) -> Result<PathBuf> {
        self.save_index_hashed(dataset.content_hash(), index)
    }

    fn save_index_hashed(&self, hash: u64, index: &GatIndex) -> Result<PathBuf> {
        let path = self.index_path(hash, index.config());
        write_file(&path, &write_index_with_hash(index, hash))?;
        Ok(path)
    }

    /// Loads and validates the snapshot for `dataset`, requiring it to
    /// have been built with exactly `config`. Any mismatch — missing
    /// file, corruption, staleness, different configuration — is an
    /// error; use [`IndexCache::load_or_build`] to fall back to a
    /// fresh build instead.
    pub fn load_index(&self, dataset: &Dataset, config: &GatConfig) -> Result<GatIndex> {
        self.load_index_hashed(dataset, dataset.content_hash(), config)
    }

    /// Hash once per start: it keys the filename, validates the
    /// header, and (on the fallback path) keys the replacement
    /// snapshot — `content_hash` is a full scan of every point.
    fn load_index_hashed(
        &self,
        dataset: &Dataset,
        hash: u64,
        config: &GatConfig,
    ) -> Result<GatIndex> {
        let path = self.index_path(hash, config);
        let index = read_index_with_hash(&read_file(&path)?, dataset, hash)?;
        check_config(index.config(), config)?;
        Ok(index)
    }

    /// The serving entry point: load the snapshot if one validates,
    /// otherwise build fresh and (over)write the snapshot for the next
    /// start. Falls back on *any* load error — and a *save* failure
    /// (unwritable directory, full disk) never discards the engine
    /// that was just built; it is reported in the outcome instead. The
    /// worst a bad snapshot or cache directory costs is the build that
    /// was going to happen anyway.
    pub fn load_or_build(
        &self,
        dataset: &Dataset,
        config: GatConfig,
    ) -> Result<(GatIndex, CacheOutcome)> {
        let hash = dataset.content_hash();
        match self.load_index_hashed(dataset, hash, &config) {
            Ok(index) => Ok((index, CacheOutcome::Loaded)),
            Err(why) => {
                let index = GatIndex::build_with(dataset, config)?;
                let mut note = format!("built index fresh ({why})");
                match self.save_index_hashed(hash, &index) {
                    Ok(_) => note.push_str("; snapshot saved"),
                    Err(save) => note.push_str(&format!("; snapshot not saved: {save}")),
                }
                Ok((index, CacheOutcome::Rebuilt(note)))
            }
        }
    }

    /// Snapshot files currently in the cache directory (sorted by
    /// name), including `*.manifest` files left by earlier builds. An
    /// absent directory is an empty cache, not an error.
    pub fn entries(&self) -> Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(&self.dir, &e)),
        };
        for entry in entries {
            let path = entry.map_err(|e| io_err(&self.dir, &e))?.path();
            let ext = path.extension().and_then(|e| e.to_str());
            if matches!(ext, Some("idx") | Some("manifest")) {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }
}

/// FNV-1a digest of the encoded configuration, truncated to 32 bits
/// for the filename key. Collisions are harmless: the full config in
/// the payload is still compared on load.
fn config_digest(config: &GatConfig) -> u32 {
    let mut bytes = Vec::new();
    encode_config(config, &mut bytes);
    let mut h = atsq_types::Fnv64::new();
    h.write(&bytes);
    let h = h.finish();
    (h ^ (h >> 32)) as u32
}

fn check_config(stored: &GatConfig, requested: &GatConfig) -> Result<()> {
    if stored != requested {
        return Err(corrupt(format!(
            "snapshot built with a different GAT configuration \
             (stored {stored:?}, requested {requested:?})"
        )));
    }
    Ok(())
}

fn io_err(path: &Path, e: &std::io::Error) -> Error {
    Error::Storage(format!("snapshot {}: {e}", path.display()))
}

fn read_file(path: &Path) -> Result<Vec<u8>> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err(path, &e))?;
    Ok(bytes)
}

/// Writes via a temp file + rename so readers never observe a torn
/// snapshot under the final name.
fn write_file(path: &Path, bytes: &[u8]) -> Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
    // The temp name is unique per process AND per write: two servers
    // cold-starting against one shared cache dir (or two threads in
    // one process) each write their own temp file, so neither can
    // rename the other's half-written bytes into the final name.
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    // ordering: Relaxed — unique-suffix ticket; fetch_add atomicity
    // alone guarantees distinct temp names.
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp-{}-{seq}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(|e| io_err(&tmp, &e))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        io_err(path, &e)
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_types::{ActivitySet, DatasetBuilder, Point, TrajectoryPoint};

    fn dataset(n: usize, seed: u64) -> Dataset {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        for i in 0..10 {
            b.observe_activity(&format!("act{i}"));
        }
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..n {
            let len = 1 + (next() % 4) as usize;
            let pts = (0..len)
                .map(|_| {
                    let px = (next() % 1000) as f64 / 10.0;
                    let py = (next() % 1000) as f64 / 10.0;
                    let acts = ActivitySet::from_raw([(next() % 10) as u32, (next() % 10) as u32]);
                    TrajectoryPoint::new(Point::new(px, py), acts)
                })
                .collect();
            b.push_trajectory(pts);
        }
        b.finish().unwrap()
    }

    fn small_config() -> GatConfig {
        GatConfig {
            grid_level: 5,
            memory_level: 4,
            ..GatConfig::default()
        }
    }

    fn temp_cache(tag: &str) -> IndexCache {
        let dir = std::env::temp_dir().join(format!("atsq-snapshot-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        IndexCache::new(dir)
    }

    fn queries(d: &Dataset) -> Vec<atsq_types::Query> {
        use atsq_types::{Query, QueryPoint};
        assert!(!d.is_empty());
        [(10.0, 10.0), (80.0, 30.0), (50.0, 90.0)]
            .iter()
            .map(|&(x, y)| {
                Query::new(vec![
                    QueryPoint::new(Point::new(x, y), ActivitySet::from_raw([0, 1])),
                    QueryPoint::new(Point::new(x + 5.0, y), ActivitySet::from_raw([2])),
                ])
                .unwrap()
            })
            .collect()
    }

    fn assert_same_answers(built: &GatIndex, loaded: &GatIndex, d: &Dataset) {
        use crate::search::search;
        use atsq_types::{Goal, QueryKind};
        let goals = [1usize, 3, 9]
            .map(Goal::TopK)
            .into_iter()
            .chain([5.0, 50.0].map(Goal::Range));
        for goal in goals {
            for kind in [QueryKind::Atsq, QueryKind::Oatsq] {
                for q in queries(d) {
                    assert_eq!(
                        search(built, d, &q, kind, goal).unwrap(),
                        search(loaded, d, &q, kind, goal).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn index_snapshot_roundtrips_byte_identically() {
        let d = dataset(40, 0x5EED);
        let built = GatIndex::build_with(&d, small_config()).unwrap();
        let bytes = write_index(&built, &d);
        // Serialization is deterministic.
        assert_eq!(bytes, write_index(&built, &d));
        let loaded = read_index(&bytes, &d).unwrap();
        assert_eq!(loaded.config(), built.config());
        assert_eq!(loaded.tas().len(), built.tas().len());
        assert_same_answers(&built, &loaded, &d);
        // A re-serialized loaded index produces the same bytes.
        assert_eq!(bytes, write_index(&loaded, &d));
    }

    #[test]
    fn truncated_snapshot_is_rejected_with_distinct_error() {
        let d = dataset(12, 1);
        let built = GatIndex::build_with(&d, small_config()).unwrap();
        let bytes = write_index(&built, &d);
        // Shorter than the header.
        let err = read_index(&bytes[..16], &d).unwrap_err().to_string();
        assert!(err.contains("truncated") && err.contains("header"), "{err}");
        // Header intact, payload cut short.
        let err = read_index(&bytes[..bytes.len() - 3], &d)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("truncated") && err.contains("payload"),
            "{err}"
        );
        // Trailing garbage is also flagged.
        let mut long = bytes.clone();
        long.push(0);
        let err = read_index(&long, &d).unwrap_err().to_string();
        assert!(err.contains("trailing"), "{err}");
    }

    #[test]
    fn flipped_bytes_are_rejected_with_checksum_error() {
        let d = dataset(12, 2);
        let built = GatIndex::build_with(&d, small_config()).unwrap();
        let bytes = write_index(&built, &d);
        // Flip one payload byte at several offsets: always caught by
        // the CRC before any decoding happens.
        for offset in [0usize, 7, 101] {
            let mut bad = bytes.clone();
            let i = SNAPSHOT_HEADER_LEN + offset % (bytes.len() - SNAPSHOT_HEADER_LEN);
            bad[i] ^= 0x40;
            let err = read_index(&bad, &d).unwrap_err().to_string();
            assert!(err.contains("checksum mismatch"), "offset {offset}: {err}");
        }
        // A flipped magic byte reports bad magic, not a checksum error.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        let err = read_index(&bad, &d).unwrap_err().to_string();
        assert!(err.contains("bad magic"), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected_with_version_error() {
        let d = dataset(12, 3);
        let built = GatIndex::build_with(&d, small_config()).unwrap();
        let mut bytes = write_index(&built, &d);
        bytes[8..10].copy_from_slice(&99u16.to_le_bytes());
        let err = read_index(&bytes, &d).unwrap_err().to_string();
        assert!(
            err.contains("version 99") && err.contains("reads version 3"),
            "{err}"
        );
    }

    #[test]
    fn stale_dataset_hash_is_rejected_with_stale_error() {
        let d = dataset(12, 4);
        let built = GatIndex::build_with(&d, small_config()).unwrap();
        let bytes = write_index(&built, &d);
        let other = dataset(12, 5);
        let err = read_index(&bytes, &other).unwrap_err().to_string();
        assert!(err.contains("stale snapshot"), "{err}");
        // A kind mismatch (e.g. a shard manifest written by an earlier
        // build) is its own error too.
        let manifest = frame(2, d.content_hash(), &[2, 0]);
        let err = read_index(&manifest, &d).unwrap_err().to_string();
        assert!(err.contains("kind mismatch"), "{err}");
    }

    /// A CRC-valid snapshot whose ITL references outside the dataset
    /// (possible from a buggy or version-skewed writer, never from this
    /// one) must be rejected at load, not panic inside a query worker.
    #[test]
    fn out_of_range_references_are_rejected_at_load() {
        use atsq_grid::CellId;
        use atsq_types::{ActivityId, TrajectoryId};
        let d = dataset(5, 11);
        let built = GatIndex::build_with(&d, small_config()).unwrap();
        let leaf_level = small_config().grid_level;

        // ITL posting pointing at trajectory 99 of a 5-trajectory set.
        let evil_itl = Itl::build(
            leaf_level,
            vec![(
                CellId {
                    level: leaf_level,
                    code: 0,
                },
                ActivityId(0),
                TrajectoryId(99),
            )],
        );
        let index = GatIndex::from_parts(small_config(), built.grid().clone(), evil_itl, &d);
        let err = read_index(&write_index(&index, &d), &d)
            .unwrap_err()
            .to_string();
        assert!(err.contains("ITL references trajectory 99"), "{err}");
    }

    #[test]
    fn cache_load_or_build_falls_back_and_then_loads() {
        let d = dataset(30, 6);
        let cache = temp_cache("fallback");
        // Cold cache: builds and saves.
        let (built, outcome) = cache.load_or_build(&d, small_config()).unwrap();
        assert!(!outcome.loaded(), "{outcome:?}");
        // Warm cache: loads, answers identically.
        let (loaded, outcome) = cache.load_or_build(&d, small_config()).unwrap();
        assert!(outcome.loaded(), "{outcome:?}");
        assert_same_answers(&built, &loaded, &d);
        // Corrupt the snapshot on disk: next start falls back to a
        // fresh build (and repairs the snapshot).
        let path = cache.index_path(d.content_hash(), &small_config());
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (rebuilt, outcome) = cache.load_or_build(&d, small_config()).unwrap();
        match &outcome {
            CacheOutcome::Rebuilt(why) => {
                assert!(why.contains("checksum"), "{why}")
            }
            CacheOutcome::Loaded => panic!("corrupt snapshot must not load"),
        }
        assert_same_answers(&built, &rebuilt, &d);
        let (_, outcome) = cache.load_or_build(&d, small_config()).unwrap();
        assert!(outcome.loaded(), "repaired snapshot should load");
        // A different config cannot reuse the snapshot — and because
        // filenames carry a config digest, the two configurations
        // coexist in one directory instead of overwriting each other
        // on every alternating start.
        let other = GatConfig {
            grid_level: 6,
            memory_level: 4,
            ..GatConfig::default()
        };
        let (_, outcome) = cache.load_or_build(&d, other).unwrap();
        assert!(!outcome.loaded(), "{outcome:?}");
        let (_, outcome) = cache.load_or_build(&d, other).unwrap();
        assert!(outcome.loaded(), "second config now cached");
        let (_, outcome) = cache.load_or_build(&d, small_config()).unwrap();
        assert!(outcome.loaded(), "first config still cached");
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    /// A sharded engine persists nothing of its own: it shards the
    /// index the single-index cache entry holds, for any shard count,
    /// and answers like the engine built directly.
    #[test]
    fn sharded_cache_roundtrips_and_validates() {
        use crate::sharded::{Partition, ShardedEngine};
        use atsq_types::QueryEngine;
        let d = dataset(40, 7);
        let cache = temp_cache("sharded");
        let (index, outcome) = cache.load_or_build(&d, small_config()).unwrap();
        assert!(!outcome.loaded());
        drop(index);
        for shards in [3, 2] {
            let built =
                ShardedEngine::build_with(&d, shards, Partition::Hash, small_config()).unwrap();
            let (index, outcome) = cache.load_or_build(&d, small_config()).unwrap();
            assert!(outcome.loaded(), "{outcome:?}");
            let loaded = ShardedEngine::from_index(index, &d, shards, Partition::Hash).unwrap();
            for q in queries(&d) {
                assert_eq!(built.atsq(&d, &q, 5), loaded.atsq(&d, &q, 5));
                assert_eq!(built.oatsq(&d, &q, 5), loaded.oatsq(&d, &q, 5));
            }
        }
        assert_eq!(
            cache.entries().unwrap().len(),
            1,
            "one snapshot for every S"
        );
        // A snapshot of other data cannot be sharded over this dataset.
        let other = dataset(12, 8);
        let index = cache.load_index(&d, &small_config()).unwrap();
        assert!(ShardedEngine::from_index(index, &other, 2, Partition::Hash).is_err());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    /// An unusable cache directory must not abort startup: the engine
    /// was built successfully, so it is returned with the save failure
    /// reported in the outcome — "worst cost is the build", even when
    /// the cache cannot be written.
    #[test]
    fn unwritable_cache_still_serves_the_built_engine() {
        let d = dataset(15, 10);
        // A *file* where the cache directory should be: create_dir_all
        // and every write under it fail, loads fail with NotFound-ish
        // errors — but the built engine must come back anyway.
        let blocker =
            std::env::temp_dir().join(format!("atsq-snapshot-blocked-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let cache = IndexCache::new(&blocker);
        let (index, outcome) = cache.load_or_build(&d, small_config()).unwrap();
        assert_eq!(index.tas().len(), d.len());
        match &outcome {
            CacheOutcome::Rebuilt(why) => {
                assert!(why.contains("snapshot not saved"), "{why}")
            }
            CacheOutcome::Loaded => panic!("nothing to load"),
        }
        std::fs::remove_file(&blocker).ok();
    }

    #[test]
    fn inspect_reports_kind_and_entries_list_files() {
        let d = dataset(20, 8);
        let cache = temp_cache("inspect");
        assert!(cache.entries().unwrap().is_empty(), "cold cache is empty");
        let index = GatIndex::build_with(&d, small_config()).unwrap();
        let index_path = cache.save_index(&d, &index).unwrap();
        // A shard manifest left behind by an earlier build.
        let manifest_path = cache
            .dir()
            .join("gat-0000000000000000-s2-hash-c00000000.manifest");
        std::fs::write(&manifest_path, frame(2, d.content_hash(), &[2, 0])).unwrap();

        let info = inspect(&index_path).unwrap();
        assert_eq!(info.kind, "index");
        assert_eq!(info.version, SNAPSHOT_VERSION);
        assert_eq!(info.dataset_hash, d.content_hash());
        assert!(info.payload_bytes > 0);
        let info = inspect(&manifest_path).unwrap();
        assert_eq!(info.kind, "unknown");

        let entries = cache.entries().unwrap();
        assert_eq!(entries.len(), 2, "{entries:?}");
        // Inspect flags a non-snapshot file cleanly.
        let junk = cache.dir().join("junk.idx");
        std::fs::write(&junk, b"not a snapshot").unwrap();
        assert!(inspect(&junk).is_err());
        std::fs::remove_dir_all(cache.dir()).ok();
    }
}
