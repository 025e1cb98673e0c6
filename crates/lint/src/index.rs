//! The workspace symbol index and per-function scope model: the top
//! layer of the analysis engine.
//!
//! [`FileModel`] bundles one file's scanned token stream with its brace
//! tree; [`Workspace`] holds every scanned file so cross-file rules
//! (wire-schema presence, status-map, lock-order call graphs) can
//! resolve names across the crate boundary.

use crate::scan::{self, Scanned};
use crate::tree::{self, Tree};

/// One analyzed source file.
pub struct FileModel {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    pub scanned: Scanned,
    pub tree: Tree,
}

impl FileModel {
    pub fn new(rel: String, src: &str) -> FileModel {
        let scanned = scan::scan(src);
        let tree = tree::parse(&scanned);
        FileModel { rel, scanned, tree }
    }
}

/// Every analyzed file of the workspace, in walk order.
pub struct Workspace {
    pub files: Vec<FileModel>,
}

impl Workspace {
    /// The model for an exact workspace-relative path.
    pub fn file(&self, rel: &str) -> Option<&FileModel> {
        self.files.iter().find(|f| f.rel == rel)
    }
}
