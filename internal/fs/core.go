package fs

import "repro/internal/sim"

// Mapped is the per-file state a model keeps: its extent map, which
// the core reads, and beside it whatever the format adds (indirect
// blocks, a mapping tree, an allocation goal). One value per file
// keeps a file one allocation.
type Mapped interface {
	ExtentMap() *ExtentMap
}

// Layout is the format half of a model: where inodes live, how a file
// grows and shrinks, and the metadata writes that implies. A model
// fills it with its own method values.
type Layout[F Mapped] struct {
	// InodeBlock returns the disk block holding ino's record.
	InodeBlock func(ino Ino) int64
	// NewFile returns a new file's allocation state.
	NewFile func(ino Ino) F
	// Extend allocates n more blocks onto f's extent map and returns
	// the metadata writes. A failed extend changes nothing.
	Extend func(ino Ino, f F, n int64) ([]IOStep, error)
	// Shrink frees f's blocks past want and returns the metadata
	// writes.
	Shrink func(ino Ino, f F, want int64) []IOStep
	// InodeBitmap, if set, returns the inode-bitmap block that
	// allocating or freeing ino dirties.
	InodeBitmap func(ino Ino) int64
	// Free reports the allocator's free blocks.
	Free func() int64
}

// Core is the format-independent half of a file-system model: the
// namespace, the inode table, each file's state, and the IOStep
// sequences of Lookup, Getattr, Create, Remove, Resize, ReadDir and
// TouchAtime. A model embeds it and adds Name, Map, Fsync and
// ReadaheadHint; a journaling model wraps the updates.
type Core[F Mapped] struct {
	itab  *InodeTable
	ns    *Namespace
	files map[Ino]F
	total int64
	lay   Layout[F]
}

// NewCore returns a core over total blocks holding only the root
// directory, inode 1, whose state is root.
func NewCore[F Mapped](total int64, root F, lay Layout[F]) *Core[F] {
	c := &Core[F]{
		itab:  NewInodeTable(lay.InodeBlock),
		files: make(map[Ino]F),
		total: total,
		lay:   lay,
	}
	r := c.itab.Alloc(Directory, 0)
	c.ns = NewNamespace(r.Ino)
	c.files[r.Ino] = root
	return c
}

// File returns ino's state, or false if ino is not live.
func (c *Core[F]) File(ino Ino) (F, bool) {
	fl, ok := c.files[ino]
	return fl, ok
}

// BlocksTotal implements FileSystem.
func (c *Core[F]) BlocksTotal() int64 { return c.total }

// BlocksFree implements FileSystem.
func (c *Core[F]) BlocksFree() int64 { return c.lay.Free() }

// Root implements FileSystem.
func (c *Core[F]) Root() Ino { return c.ns.Root() }

// Lookup implements FileSystem.
func (c *Core[F]) Lookup(dir Ino, name string) (Ino, []IOStep, error) {
	ino, _, blockIdx, err := c.ns.Lookup(dir, name)
	if err != nil {
		return 0, nil, err
	}
	steps := c.dirBlockSteps(dir, blockIdx)
	steps = append(steps, Read(c.itab.Block(ino)))
	return ino, steps, nil
}

// dirBlockSteps returns the read of the directory data block with the
// given index.
func (c *Core[F]) dirBlockSteps(dir Ino, blockIdx int64) []IOStep {
	return []IOStep{Read(c.dirDataBlock(dir, blockIdx))}
}

// dirDataBlock resolves a directory data block index to a disk block,
// falling back to the inode block for a directory whose data is not
// allocated yet (a tiny directory stored inline).
func (c *Core[F]) dirDataBlock(dir Ino, blockIdx int64) int64 {
	if df, ok := c.files[dir]; ok {
		if exts := df.ExtentMap().Slice(blockIdx, 1); len(exts) > 0 {
			return exts[0].DiskBlock
		}
	}
	return c.itab.Block(dir)
}

// Getattr implements FileSystem.
func (c *Core[F]) Getattr(ino Ino) (Inode, []IOStep, error) {
	n, err := c.itab.Get(ino)
	if err != nil {
		return Inode{}, nil, err
	}
	return *n, []IOStep{Read(c.itab.Block(ino))}, nil
}

// Create implements FileSystem.
func (c *Core[F]) Create(dir Ino, name string, ft FileType, now sim.Time) (Ino, []IOStep, error) {
	if _, err := c.itab.Get(dir); err != nil {
		return 0, nil, err
	}
	// Reserve the inode first so the namespace and table stay
	// consistent on failure.
	node := c.itab.Alloc(ft, now)
	blockIdx, err := c.ns.Insert(dir, name, node.Ino, ft)
	if err != nil {
		c.itab.Del(node.Ino)
		return 0, nil, err
	}
	c.files[node.Ino] = c.lay.NewFile(node.Ino)
	// Read-modify-write of the directory block holding the new entry,
	// the new inode's record (and bitmap), and the parent's inode.
	var steps []IOStep
	steps = append(steps, c.dirBlockSteps(dir, blockIdx)...)
	var w [4]IOStep
	w[0] = WriteStep(c.dirDataBlock(dir, blockIdx))
	w[1] = WriteStep(c.itab.Block(node.Ino))
	n := 2
	if c.lay.InodeBitmap != nil {
		w[n] = WriteStep(c.lay.InodeBitmap(node.Ino))
		n++
	}
	w[n] = WriteStep(c.itab.Block(dir))
	steps = append(steps, w[:n+1]...)
	// Growing the directory past a block boundary allocates a block.
	grow, err := c.growFile(dir, c.ns.Blocks(dir), now)
	if err != nil {
		c.ns.Remove(dir, name)
		c.itab.Del(node.Ino)
		delete(c.files, node.Ino)
		return 0, nil, err
	}
	steps = append(steps, grow...)
	if p, err := c.itab.Get(dir); err == nil {
		p.Mtime = now
	}
	return node.Ino, steps, nil
}

// growFile ensures ino has at least wantBlocks blocks. Directories
// grow through it; files grow through Resize.
func (c *Core[F]) growFile(ino Ino, wantBlocks int64, now sim.Time) ([]IOStep, error) {
	fl := c.files[ino]
	have := fl.ExtentMap().Blocks()
	if have >= wantBlocks {
		return nil, nil
	}
	return c.extend(ino, fl, wantBlocks-have, now)
}

// extend grows fl by n blocks and records the new size in its inode.
func (c *Core[F]) extend(ino Ino, fl F, n int64, now sim.Time) ([]IOStep, error) {
	steps, err := c.lay.Extend(ino, fl, n)
	if err != nil {
		return nil, err
	}
	if node, err := c.itab.Get(ino); err == nil {
		node.Blocks = fl.ExtentMap().Blocks()
		node.Mtime = now
	}
	return steps, nil
}

// Resize implements FileSystem.
func (c *Core[F]) Resize(ino Ino, size int64, now sim.Time) ([]IOStep, error) {
	node, err := c.itab.Get(ino)
	if err != nil {
		return nil, err
	}
	if node.Type == Directory {
		return nil, ErrIsDir
	}
	fl := c.files[ino]
	ext := fl.ExtentMap()
	wantBlocks := (size + BlockSize - 1) / BlockSize
	var steps []IOStep
	switch {
	case wantBlocks > ext.Blocks():
		steps, err = c.extend(ino, fl, wantBlocks-ext.Blocks(), now)
		if err != nil {
			return nil, err
		}
	case wantBlocks < ext.Blocks():
		steps = c.lay.Shrink(ino, fl, wantBlocks)
	}
	node.Size = size
	node.Blocks = ext.Blocks()
	node.Mtime = now
	return steps, nil
}

// Remove implements FileSystem.
func (c *Core[F]) Remove(dir Ino, name string, now sim.Time) ([]IOStep, error) {
	ino, _, blockIdx, err := c.ns.Remove(dir, name)
	if err != nil {
		return nil, err
	}
	var steps []IOStep
	steps = append(steps, c.dirBlockSteps(dir, blockIdx)...)
	var w [4]IOStep
	w[0] = WriteStep(c.dirDataBlock(dir, blockIdx))
	w[1] = WriteStep(c.itab.Block(dir))
	n := 2
	if c.lay.InodeBitmap != nil {
		w[n] = WriteStep(c.lay.InodeBitmap(ino))
		n++
	}
	w[n] = WriteStep(c.itab.Block(ino))
	steps = append(steps, w[:n+1]...)
	// Free data and meta blocks.
	if fl, ok := c.files[ino]; ok {
		steps = append(steps, c.lay.Shrink(ino, fl, 0)...)
		delete(c.files, ino)
	}
	c.itab.Del(ino)
	if p, err := c.itab.Get(dir); err == nil {
		p.Mtime = now
	}
	return steps, nil
}

// ReadDir implements FileSystem: the directory's inode, then every
// directory data block.
func (c *Core[F]) ReadDir(dir Ino) ([]DirEntry, []IOStep, error) {
	list, err := c.ns.List(dir)
	if err != nil {
		return nil, nil, err
	}
	steps := []IOStep{Read(c.itab.Block(dir))}
	if df, ok := c.files[dir]; ok {
		for _, e := range df.ExtentMap().Slice(0, c.ns.Blocks(dir)) {
			for b := e.DiskBlock; b < e.DiskBlock+e.Count; b++ {
				steps = append(steps, Read(b))
			}
		}
	}
	return list, steps, nil
}

// TouchAtime implements FileSystem: the inode block is dirtied for
// write-back. A journaling model adds its log traffic around it.
func (c *Core[F]) TouchAtime(ino Ino, now sim.Time) []IOStep {
	if _, err := c.itab.Get(ino); err != nil {
		return nil
	}
	return []IOStep{WriteStep(c.itab.Block(ino))}
}
