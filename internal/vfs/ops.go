package vfs

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/sim"
)

// FD is an open file handle.
type FD struct {
	Ino   fs.Ino
	Path  string
	mount *Mount
}

// Size reports the file's current size via the inode cache.
func (f *FD) Size() int64 { return f.mount.sizes[f.Ino] }

// pages reports the file length in whole pages.
func (f *FD) pages() int64 {
	return (f.mount.sizes[f.Ino] + fs.BlockSize - 1) / fs.BlockSize
}

// Open opens an existing file by path.
func (m *Mount) Open(at sim.Time, path string) (*FD, sim.Time, error) {
	m.stats.Opens++
	now := at + m.cfg.SyscallOverhead
	ino, now, err := m.resolve(now, path)
	if err != nil {
		return nil, now, err
	}
	attr, steps, err := m.FS.Getattr(ino)
	if err != nil {
		return nil, now, err
	}
	now, err = m.execSteps(now, steps, false)
	if err != nil {
		return nil, now, err
	}
	m.sizes[ino] = attr.Size
	return &FD{Ino: ino, Path: path, mount: m}, now, nil
}

// Create creates (and opens) a new regular file.
func (m *Mount) Create(at sim.Time, path string) (*FD, sim.Time, error) {
	m.stats.Creates++
	now := at + m.cfg.SyscallOverhead
	parent, name, now, err := m.parentOf(now, path)
	if err != nil {
		return nil, now, err
	}
	ino, steps, err := m.FS.Create(parent, name, fs.Regular, now)
	if err != nil {
		return nil, now, err
	}
	now, err = m.execSteps(now, steps, false)
	if err != nil {
		return nil, now, err
	}
	m.dcache["/"+trimSlashes(path)] = ino
	m.sizes[ino] = 0
	now = m.balanceDirty(now)
	return &FD{Ino: ino, Path: path, mount: m}, now, nil
}

// Mkdir creates a directory.
func (m *Mount) Mkdir(at sim.Time, path string) (sim.Time, error) {
	m.stats.Mkdirs++
	now := at + m.cfg.SyscallOverhead
	parent, name, now, err := m.parentOf(now, path)
	if err != nil {
		return now, err
	}
	ino, steps, err := m.FS.Create(parent, name, fs.Directory, now)
	if err != nil {
		return now, err
	}
	m.dcache["/"+trimSlashes(path)] = ino
	now, err = m.execSteps(now, steps, false)
	if err != nil {
		return now, err
	}
	return m.balanceDirty(now), nil
}

// Unlink removes a file or empty directory.
func (m *Mount) Unlink(at sim.Time, path string) (sim.Time, error) {
	m.stats.Unlinks++
	now := at + m.cfg.SyscallOverhead
	parent, name, now, err := m.parentOf(now, path)
	if err != nil {
		return now, err
	}
	ino, _, err := m.FS.Lookup(parent, name)
	if err != nil {
		return now, err
	}
	steps, err := m.FS.Remove(parent, name, now)
	if err != nil {
		return now, err
	}
	// Drop cached state: dentries, size, resident pages (no write-back
	// for deleted data), readahead history.
	delete(m.dcache, "/"+trimSlashes(path))
	delete(m.sizes, ino)
	m.PC.InvalidateFile(uint64(ino))
	m.ra.Forget(uint64(ino))
	now, err = m.execSteps(now, steps, false)
	if err != nil {
		return now, err
	}
	now = m.balanceDirty(now)
	return now, nil
}

// Stat returns file attributes by path.
func (m *Mount) Stat(at sim.Time, path string) (fs.Inode, sim.Time, error) {
	m.stats.Stats++
	now := at + m.cfg.SyscallOverhead
	ino, now, err := m.resolve(now, path)
	if err != nil {
		return fs.Inode{}, now, err
	}
	attr, steps, err := m.FS.Getattr(ino)
	if err != nil {
		return fs.Inode{}, now, err
	}
	now, err = m.execSteps(now, steps, false)
	return attr, now, err
}

// ReadDir lists a directory by path.
func (m *Mount) ReadDir(at sim.Time, path string) ([]fs.DirEntry, sim.Time, error) {
	m.stats.ReadDirs++
	now := at + m.cfg.SyscallOverhead
	ino, now, err := m.resolve(now, path)
	if err != nil {
		return nil, now, err
	}
	list, steps, err := m.FS.ReadDir(ino)
	if err != nil {
		return nil, now, err
	}
	now, err = m.execSteps(now, steps, false)
	return list, now, err
}

// Read reads size bytes at offset, returning the bytes actually read
// (clamped at EOF) and the completion time. This is the operation the
// paper's case study measures.
func (m *Mount) Read(at sim.Time, fd *FD, offset, size int64) (int64, sim.Time, error) {
	m.stats.Reads++
	now := at + m.cfg.SyscallOverhead
	if offset < 0 || size < 0 {
		return 0, now, fmt.Errorf("vfs: bad read range (%d, %d)", offset, size)
	}
	fileSize := m.sizes[fd.Ino]
	if offset >= fileSize {
		return 0, now, nil
	}
	if offset+size > fileSize {
		size = fileSize - offset
	}
	filePages := fd.pages()
	first := offset / fs.BlockSize
	last := (offset + size - 1) / fs.BlockSize
	for page := first; page <= last; page++ {
		var err error
		now, err = m.readPage(now, fd.Ino, page, filePages)
		if err != nil {
			return 0, now, err
		}
	}
	if m.cfg.AtimeUpdates {
		var err error
		now, err = m.execSteps(now, m.FS.TouchAtime(fd.Ino, now), false)
		if err != nil {
			return 0, now, err
		}
	}
	m.stats.BytesRead += size
	if m.sub == nil {
		// Immediate mode: background write-back. Event mode leaves
		// flushing to the daemon — read paths are never throttled on
		// dirty state.
		m.immediateWriteback(now)
	}
	return size, now, nil
}

// readPage delivers one page, from cache or device, and triggers
// readahead.
func (m *Mount) readPage(at sim.Time, ino fs.Ino, page, filePages int64) (sim.Time, error) {
	id := fs.DataPage(ino, page)
	now := at
	level := m.PC.Lookup(id)
	hit := level != cache.Miss
	switch level {
	case cache.L1Hit:
		now += m.cfg.HitPerPage
	case cache.L2Hit:
		now += m.cfg.L2HitPerPage
	default:
		exts, steps, err := m.FS.Map(ino, page, 1)
		if err != nil {
			return now, err
		}
		now, err = m.execSteps(now, steps, false)
		if err != nil {
			return now, err
		}
		if len(exts) == 0 {
			// Hole or unmapped tail: zero-fill, memory cost only.
			now += m.cfg.HitPerPage
			m.writebackEvictions(now, m.PC.Insert(id, false))
			break
		}
		done, err := m.submitSync(now, device.Request{
			Op: device.Read, LBA: blockLBA(exts[0].DiskBlock), Sectors: sectorsPerBlock,
		})
		if err != nil {
			return now, err
		}
		now = done + m.cfg.HitPerPage // copy-out after the I/O
		m.writebackEvictions(now, m.PC.Insert(id, false))
	}
	// Readahead: prefetch asynchronously; prefetched pages become
	// resident now, but the device time they consume delays later
	// misses.
	if start, n := m.ra.Plan(uint64(ino), page, hit, filePages); n > 0 {
		m.prefetch(now, ino, start, n)
	}
	return now, nil
}

// prefetch issues asynchronous reads for pages [start, start+n) that
// are not already resident.
func (m *Mount) prefetch(at sim.Time, ino fs.Ino, start, n int64) {
	for p := start; p < start+n; p++ {
		id := fs.DataPage(ino, p)
		if m.PC.Contains(id) {
			continue
		}
		exts, steps, err := m.FS.Map(ino, p, 1)
		if err != nil || len(exts) == 0 {
			continue
		}
		// Metadata needed for the mapping is read asynchronously too.
		if err := m.prefetchSteps(at, steps); err != nil {
			continue
		}
		// A prefetched page only stays resident if its read succeeds;
		// on failure the demand read retries and surfaces the error.
		err = m.submitAsync(at, device.Request{
			Op: device.Read, LBA: blockLBA(exts[0].DiskBlock), Sectors: sectorsPerBlock,
		}, func(error) { m.PC.Invalidate(id) })
		if err != nil {
			continue
		}
		m.writebackEvictions(at, m.PC.InsertPrefetched(id))
	}
}

// Write writes size bytes at offset, extending the file as needed.
// Data lands dirty in the cache; durability requires Fsync.
func (m *Mount) Write(at sim.Time, fd *FD, offset, size int64) (sim.Time, error) {
	m.stats.Writes++
	now := at + m.cfg.SyscallOverhead
	if offset < 0 || size <= 0 {
		return now, fmt.Errorf("vfs: bad write range (%d, %d)", offset, size)
	}
	end := offset + size
	if end > m.sizes[fd.Ino] {
		steps, err := m.FS.Resize(fd.Ino, end, now)
		if err != nil {
			return now, err
		}
		now, err = m.execSteps(now, steps, false)
		if err != nil {
			return now, err
		}
		m.sizes[fd.Ino] = end
	}
	filePages := fd.pages()
	first := offset / fs.BlockSize
	last := (end - 1) / fs.BlockSize
	for page := first; page <= last; page++ {
		id := fs.DataPage(fd.Ino, page)
		partial := (page == first && offset%fs.BlockSize != 0) ||
			(page == last && end%fs.BlockSize != 0 && end < m.sizes[fd.Ino])
		if m.PC.Lookup(id) == cache.Miss {
			if partial {
				// Read-modify-write of a non-resident partial page.
				var err error
				now, err = m.readPage(now, fd.Ino, page, filePages)
				if err != nil {
					return now, err
				}
			}
			m.writebackEvictions(now, m.PC.Insert(id, true))
		} else {
			m.PC.MarkDirty(id)
		}
		now += m.cfg.HitPerPage // copy-in
	}
	m.stats.BytesWritten += size
	now = m.balanceDirty(now)
	return now, nil
}

// Fsync makes fd's data and metadata durable: any of the write-back
// daemon's in-flight pages are waited out first (they are not durable
// until their completion events fire — the wait is global, an
// ext3-flavored modeling choice: like that era's journal-entangled
// fsync, it may charge other files' write-back to this call), then
// dirty data pages are flushed synchronously (elevator order), then
// the file system's journal/metadata steps run synchronously.
func (m *Mount) Fsync(at sim.Time, fd *FD) (sim.Time, error) {
	m.stats.Fsyncs++
	now := at + m.cfg.SyscallOverhead
	now = m.waitWriteback(now)
	now, _, err := m.flushSync(now, m.PC.L1.CollectDirtyFile(nil, uint64(fd.Ino)))
	if err != nil {
		return now, err
	}
	steps, err := m.FS.Fsync(fd.Ino)
	if err != nil {
		return now, err
	}
	return m.execSteps(now, steps, true)
}

// Close drops per-fd readahead state. (The dentry and page caches
// survive, as they should.)
func (m *Mount) Close(fd *FD) {
	m.ra.Forget(uint64(fd.Ino))
}

func trimSlashes(p string) string {
	for len(p) > 0 && p[0] == '/' {
		p = p[1:]
	}
	for len(p) > 0 && p[len(p)-1] == '/' {
		p = p[:len(p)-1]
	}
	return p
}
