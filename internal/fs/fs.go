// Package fs defines the simulated file-system interface and the
// building blocks (allocators, namespaces, extent maps, journals) the
// concrete models in ext2sim, ext3sim, and xfssim compose.
//
// A simulated file system is a *layout and metadata* model: it decides
// where file blocks live on the device (which drives seek behavior),
// which metadata blocks an operation must read or write (which drives
// metadata-dimension cost), and what journaling traffic an update
// implies. Actual user data bytes are never stored — benchmarks
// measure time, not content.
//
// Operations return IOSteps: the device-level metadata accesses the
// operation implies. The VFS executes the steps, consulting the page
// cache for reads and dirtying pages (or forcing writes) for updates.
package fs

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/sim"
)

// BlockSize is the file-system block size in bytes, equal to the page
// size so one block is one cache page.
const BlockSize = cache.PageSize

// Ino is an inode number. Ino 0 is invalid; the root directory is 1.
type Ino uint64

// MetaFileBit marks cache.PageID.File values that name metadata
// streams rather than file data. Metadata pages are cached by disk
// block: PageID{File: MetaFileBit, Index: diskBlock}.
const MetaFileBit = uint64(1) << 63

// MetaPage returns the cache identity of the metadata page in the
// given disk block.
func MetaPage(block int64) cache.PageID {
	return cache.PageID{File: MetaFileBit, Index: block}
}

// DataPage returns the cache identity of a file's data page.
func DataPage(ino Ino, fileBlock int64) cache.PageID {
	return cache.PageID{File: uint64(ino), Index: fileBlock}
}

// FileType distinguishes regular files from directories.
type FileType uint8

// File types.
const (
	Regular FileType = iota
	Directory
)

// String names the type.
func (t FileType) String() string {
	if t == Directory {
		return "dir"
	}
	return "file"
}

// Inode is the attribute set benchmarks observe via stat.
type Inode struct {
	Ino    Ino
	Type   FileType
	Size   int64 // bytes
	Blocks int64 // allocated data blocks
	Nlink  int
	Ctime  sim.Time
	Mtime  sim.Time
}

// DirEntry is one directory entry.
type DirEntry struct {
	Name string
	Ino  Ino
	Type FileType
}

// Extent maps a contiguous run of file blocks onto contiguous disk
// blocks.
type Extent struct {
	FileBlock int64 // first file (logical) block
	DiskBlock int64 // first disk (physical) block
	Count     int64
}

// End returns the file block just past the extent.
func (e Extent) End() int64 { return e.FileBlock + e.Count }

// IOStep is one metadata access implied by an operation: a read the
// VFS must satisfy (from cache or device) before the operation
// completes, or a write the VFS applies (dirtying the cache page, or
// synchronously for journal traffic).
type IOStep struct {
	Write bool
	Block int64 // disk block holding the metadata
	// Sync forces the write to the device immediately (journal
	// records and commit blocks) instead of dirtying the cache.
	Sync bool
}

// Read returns a metadata-read step for the given disk block.
func Read(block int64) IOStep { return IOStep{Block: block} }

// WriteStep returns a deferred (write-back) metadata update.
func WriteStep(block int64) IOStep { return IOStep{Write: true, Block: block} }

// SyncWrite returns a synchronous metadata write (journal traffic).
func SyncWrite(block int64) IOStep { return IOStep{Write: true, Block: block, Sync: true} }

// Errors shared by all file-system models.
var (
	ErrNotExist = errors.New("fs: no such file or directory")
	ErrExist    = errors.New("fs: file exists")
	ErrNotDir   = errors.New("fs: not a directory")
	ErrIsDir    = errors.New("fs: is a directory")
	ErrNotEmpty = errors.New("fs: directory not empty")
	ErrNoSpace  = errors.New("fs: no space left on device")
	ErrBadInode = errors.New("fs: invalid inode")
)

// FileSystem is a simulated file system. Implementations are not safe
// for concurrent use; the simulation core is single-goroutine.
type FileSystem interface {
	// Name identifies the model ("ext2", "ext3", "xfs").
	Name() string
	// BlocksTotal and BlocksFree report capacity in BlockSize units.
	BlocksTotal() int64
	BlocksFree() int64
	// Root returns the root directory inode.
	Root() Ino

	// Lookup resolves name within dir.
	Lookup(dir Ino, name string) (Ino, []IOStep, error)
	// Getattr returns the inode attributes.
	Getattr(ino Ino) (Inode, []IOStep, error)
	// Create makes a new file or directory entry in dir.
	Create(dir Ino, name string, ft FileType, now sim.Time) (Ino, []IOStep, error)
	// Remove unlinks name from dir, freeing the inode and its blocks
	// when the link count reaches zero. Removing a non-empty
	// directory fails with ErrNotEmpty.
	Remove(dir Ino, name string, now sim.Time) ([]IOStep, error)
	// ReadDir lists dir.
	ReadDir(dir Ino) ([]DirEntry, []IOStep, error)

	// Map returns the extents covering file blocks [fileBlock,
	// fileBlock+n), plus the metadata reads needed to resolve the
	// mapping (indirect blocks, extent-tree nodes).
	Map(ino Ino, fileBlock, n int64) ([]Extent, []IOStep, error)
	// Resize grows (allocating) or shrinks (freeing) the file.
	Resize(ino Ino, size int64, now sim.Time) ([]IOStep, error)
	// Fsync returns the synchronous metadata/journal steps needed to
	// make prior updates to ino durable.
	Fsync(ino Ino) ([]IOStep, error)
	// TouchAtime records an access-time update on read. The 2011-era
	// default (atime on) makes even read-only workloads generate
	// metadata traffic, and *how much* depends on the model: ext2
	// dirties the inode for write-back, journaled systems eventually
	// commit a log record. This is one source of the between-system
	// divergence in the paper's Figure 2.
	TouchAtime(ino Ino, now sim.Time) []IOStep

	// ReadaheadHint reports the model's preferred readahead window in
	// pages (initial, max) — file systems ship different defaults,
	// one of the warm-up divergences in Figure 2.
	ReadaheadHint() (init, max int64)
}

// CheckName validates a directory entry name.
func CheckName(name string) error {
	if name == "" || name == "." || name == ".." {
		return fmt.Errorf("fs: invalid name %q", name)
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return fmt.Errorf("fs: invalid name %q", name)
		}
	}
	if len(name) > 255 {
		return fmt.Errorf("fs: name too long (%d bytes)", len(name))
	}
	return nil
}
