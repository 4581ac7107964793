//! The file-metadata record and its attribute-space projection.
//!
//! SmartStore groups files by "multi-dimensional attributes" that are
//! either *physical* ("creation time and file size") or *behavioral*
//! ("process ID and access sequence") — §3.1.1. This module defines the
//! concrete record used throughout the reproduction and its projection
//! into the `D = 8` dimensional numeric attribute space that the LSI
//! pipeline, the semantic R-tree MBRs, and the baselines all share.

/// Number of numeric attribute dimensions (`D` in the paper).
pub const ATTR_DIMS: usize = 8;

/// The numeric attribute dimensions of a file's metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum AttributeKind {
    /// File size in bytes (log-normal across real systems).
    Size = 0,
    /// Creation time, seconds since trace start.
    CreationTime = 1,
    /// Last-modification time, seconds since trace start.
    ModificationTime = 2,
    /// Last-access time, seconds since trace start.
    AccessTime = 3,
    /// Cumulative bytes read.
    ReadBytes = 4,
    /// Cumulative bytes written.
    WriteBytes = 5,
    /// Number of accesses observed in the trace window.
    AccessCount = 6,
    /// Dominant accessing process id (behavioral attribute).
    ProcessId = 7,
}

impl AttributeKind {
    /// All dimensions in index order.
    pub const ALL: [AttributeKind; ATTR_DIMS] = [
        AttributeKind::Size,
        AttributeKind::CreationTime,
        AttributeKind::ModificationTime,
        AttributeKind::AccessTime,
        AttributeKind::ReadBytes,
        AttributeKind::WriteBytes,
        AttributeKind::AccessCount,
        AttributeKind::ProcessId,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            AttributeKind::Size => "size",
            AttributeKind::CreationTime => "ctime",
            AttributeKind::ModificationTime => "mtime",
            AttributeKind::AccessTime => "atime",
            AttributeKind::ReadBytes => "read_bytes",
            AttributeKind::WriteBytes => "write_bytes",
            AttributeKind::AccessCount => "access_count",
            AttributeKind::ProcessId => "proc_id",
        }
    }

    /// Dimension index in attribute vectors.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One file's metadata record.
#[derive(Clone, Debug, PartialEq)]
pub struct FileMetadata {
    /// Unique file identifier.
    pub file_id: u64,
    /// Filename (used by point queries and Bloom filters).
    pub name: String,
    /// Directory path (namespace context; not an LSI dimension, kept for
    /// the conventional-file-system comparison).
    pub dir: String,
    /// Owning user id.
    pub owner: u32,
    /// File size in bytes.
    pub size: u64,
    /// Creation time (seconds since trace start).
    pub ctime: f64,
    /// Last modification time.
    pub mtime: f64,
    /// Last access time.
    pub atime: f64,
    /// Cumulative bytes read.
    pub read_bytes: u64,
    /// Cumulative bytes written.
    pub write_bytes: u64,
    /// Accesses observed in the trace window.
    pub access_count: u32,
    /// Dominant accessing process id.
    pub proc_id: u32,
    /// Ground-truth semantic cluster planted by the generator
    /// (`None` for background files). Never consulted by the system
    /// under test; used only to sanity-check grouping quality in tests.
    pub truth_cluster: Option<u32>,
}

impl FileMetadata {
    /// Projects the record onto the D-dimensional attribute space.
    ///
    /// The projection puts every dimension on a comparable scale so that
    /// Euclidean distance — the metric of the paper's semantic-
    /// correlation measure and of top-k queries — is not dominated by
    /// one unit system: sizes and byte counters are log-scaled
    /// (`ln(1 + x)`, raw bytes span nine orders of magnitude),
    /// timestamps are expressed in hours, and process ids are scaled
    /// down. This is the single canonical geometry shared by placement,
    /// routing MBRs, unit evaluation, query workloads and the baselines.
    pub fn attr_vector(&self) -> [f64; ATTR_DIMS] {
        [
            (1.0 + self.size as f64).ln(),
            self.ctime / 3600.0,
            self.mtime / 3600.0,
            self.atime / 3600.0,
            (1.0 + self.read_bytes as f64).ln(),
            (1.0 + self.write_bytes as f64).ln(),
            (1.0 + self.access_count as f64).ln(),
            self.proc_id as f64 / 8.0,
        ]
    }

    /// Appends the projection onto a subset of dimensions to `out`
    /// (the automatic configuration of §2.4 builds R-trees over
    /// attribute subsets; see [`attr_subset_table`]).
    pub fn attr_subset_into(&self, dims: &[AttributeKind], out: &mut Vec<f64>) {
        let full = self.attr_vector();
        out.extend(dims.iter().map(|&k| full[k.index()]));
    }
}

/// Flat row-major `files.len() × dims.len()` subset-projection table:
/// one allocation for the whole population instead of a `Vec` per
/// record. This is the SoA shape the LSI/placement pipeline consumes
/// (`Lsi::fit_flat`, `partition_tiled_flat`).
pub fn attr_subset_table(files: &[FileMetadata], dims: &[AttributeKind]) -> Vec<f64> {
    let mut table = Vec::with_capacity(files.len() * dims.len());
    for f in files {
        f.attr_subset_into(dims, &mut table);
    }
    table
}

/// Flat row-major `files.len() × ATTR_DIMS` full-projection table
/// (the [`attr_subset_table`] of all dimensions, skipping the subset
/// indirection).
pub fn attr_table(files: &[FileMetadata]) -> Vec<f64> {
    let mut table = Vec::with_capacity(files.len() * ATTR_DIMS);
    for f in files {
        table.extend_from_slice(&f.attr_vector());
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FileMetadata {
        FileMetadata {
            file_id: 42,
            name: "exp_0042.dat".into(),
            dir: "/proj/sim".into(),
            owner: 7,
            size: 1 << 20,
            ctime: 100.0,
            mtime: 250.0,
            atime: 300.0,
            read_bytes: 4096,
            write_bytes: 0,
            access_count: 12,
            proc_id: 3,
            truth_cluster: Some(1),
        }
    }

    #[test]
    fn vector_has_d_dims() {
        assert_eq!(sample().attr_vector().len(), ATTR_DIMS);
        assert_eq!(AttributeKind::ALL.len(), ATTR_DIMS);
    }

    #[test]
    fn log_scaling_applied_to_bytes() {
        let m = sample();
        let v = m.attr_vector();
        assert!((v[0] - (1.0 + (1u64 << 20) as f64).ln()).abs() < 1e-12);
        assert_eq!(v[5], (1.0f64).ln()); // write_bytes = 0 ⇒ ln(1) = 0
    }

    #[test]
    fn times_projected_to_hours() {
        let v = sample().attr_vector();
        assert!((v[1] - 100.0 / 3600.0).abs() < 1e-12);
        assert!((v[2] - 250.0 / 3600.0).abs() < 1e-12);
        assert!((v[3] - 300.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn subset_projection_selects_dims() {
        let m = sample();
        let mut s = Vec::new();
        m.attr_subset_into(
            &[AttributeKind::ModificationTime, AttributeKind::Size],
            &mut s,
        );
        assert_eq!(s.len(), 2);
        assert!((s[0] - 250.0 / 3600.0).abs() < 1e-12);
        assert_eq!(s[1], m.attr_vector()[AttributeKind::Size.index()]);
    }

    #[test]
    fn flat_tables_match_per_record_projections() {
        let files = vec![sample(), {
            let mut f = sample();
            f.file_id = 43;
            f.size = 12;
            f.proc_id = 5;
            f
        }];
        let dims = [AttributeKind::Size, AttributeKind::ProcessId];
        let table = attr_subset_table(&files, &dims);
        assert_eq!(table.len(), files.len() * dims.len());
        for (row, f) in table.chunks_exact(dims.len()).zip(&files) {
            let v = f.attr_vector();
            let want: Vec<f64> = dims.iter().map(|k| v[k.index()]).collect();
            assert_eq!(row, want.as_slice());
        }
        let full = attr_table(&files);
        assert_eq!(full.len(), files.len() * ATTR_DIMS);
        for (row, f) in full.chunks_exact(ATTR_DIMS).zip(&files) {
            assert_eq!(row, f.attr_vector().as_slice());
        }
    }

    #[test]
    fn kind_indexes_are_stable() {
        for (i, k) in AttributeKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(AttributeKind::Size.name(), "size");
    }
}
