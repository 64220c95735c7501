//! A file of fixed-size pages with positioned read/write.
//!
//! The page file is deliberately dumb: it seeks, reads exactly one page,
//! verifies it through [`Page::decode`], and that is all. Read
//! caching and replacement live in the buffer pool; durability
//! ordering lives in the WAL. A trailing partial page (a crash mid-append)
//! is truncated away at open — the page it was replacing, if any, is
//! recovered by the logical redo pass, never from the torn bytes.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::Result;
use crate::page::{Page, PAGE_SIZE};

/// An open page file.
#[derive(Debug)]
pub struct PageFile {
    file: File,
    path: PathBuf,
    pages: u64,
}

impl PageFile {
    /// Open (creating if absent), dropping any torn trailing partial page.
    pub fn open(path: &Path) -> Result<PageFile> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let pages = len / PAGE_SIZE as u64;
        if len % PAGE_SIZE as u64 != 0 {
            // Crash mid-append left a partial page: cut it off.
            file.set_len(pages * PAGE_SIZE as u64)?;
        }
        Ok(PageFile {
            file,
            path: path.to_path_buf(),
            pages,
        })
    }

    /// Path this file lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of whole pages.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Read and verify page `id`.
    pub fn read_page(&mut self, id: u64) -> Result<Page> {
        let mut buf = vec![0u8; PAGE_SIZE];
        self.file.seek(SeekFrom::Start(id * PAGE_SIZE as u64))?;
        self.file.read_exact(&mut buf)?;
        Page::decode(&buf, id)
    }

    /// Write page `page.page_id`, extending the file if needed. The write is
    /// buffered by the OS until [`PageFile::sync`].
    pub fn write_page(&mut self, page: &Page) -> Result<()> {
        let bytes = page.encode();
        self.file
            .seek(SeekFrom::Start(page.page_id * PAGE_SIZE as u64))?;
        self.file.write_all(&bytes)?;
        self.pages = self.pages.max(page.page_id + 1);
        Ok(())
    }

    /// Truncate to zero pages (used when rebuilding a physical cache).
    pub fn truncate(&mut self) -> Result<()> {
        self.file.set_len(0)?;
        self.pages = 0;
        Ok(())
    }

    /// fsync file contents to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sdb_pagefile_{}_{name}.pg", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn pages_round_trip_through_the_file() {
        let path = tmp("roundtrip");
        let mut f = PageFile::open(&path).unwrap();
        assert_eq!(f.pages(), 0);
        for id in 0..3u64 {
            f.write_page(&Page::new(
                PageKind::BlobCont,
                id,
                id * 10,
                vec![id as u8; 17],
            ))
            .unwrap();
        }
        f.sync().unwrap();
        assert_eq!(f.pages(), 3);
        drop(f);
        let mut f = PageFile::open(&path).unwrap();
        assert_eq!(f.pages(), 3);
        let p = f.read_page(1).unwrap();
        assert_eq!(p.lsn, 10);
        assert_eq!(p.payload, vec![1u8; 17]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_page_is_truncated_at_open() {
        let path = tmp("torn");
        let mut f = PageFile::open(&path).unwrap();
        f.write_page(&Page::new(PageKind::BlobHead, 0, 1, b"whole".to_vec()))
            .unwrap();
        f.sync().unwrap();
        drop(f);
        // Simulate a crash mid-append: a partial second page.
        let mut raw = OpenOptions::new().append(true).open(&path).unwrap();
        raw.write_all(&[0xEE; 100]).unwrap();
        drop(raw);
        let mut f = PageFile::open(&path).unwrap();
        assert_eq!(f.pages(), 1, "partial page must be dropped");
        assert!(f.read_page(0).is_ok());
        let _ = std::fs::remove_file(&path);
    }
}
