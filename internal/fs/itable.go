package fs

import "repro/internal/sim"

// InodeTable manages inode attributes and their on-disk locations.
// Inodes live in per-group tables (ext2/ext3) or per-AG clusters
// (XFS); the layout function maps an inode number to the disk block
// holding it, so stat-heavy workloads pay I/O in the right places.
type InodeTable struct {
	next  Ino
	nodes map[Ino]*Inode
	// blockOf maps an inode number to the disk block holding its
	// on-disk record.
	blockOf func(Ino) int64
}

// NewInodeTable returns a table starting at inode 1 (the root) whose
// on-disk placement is given by blockOf.
func NewInodeTable(blockOf func(Ino) int64) *InodeTable {
	return &InodeTable{next: 1, nodes: make(map[Ino]*Inode), blockOf: blockOf}
}

// Alloc creates a new inode of the given type.
func (t *InodeTable) Alloc(ft FileType, now sim.Time) *Inode {
	ino := t.next
	t.next++
	n := &Inode{Ino: ino, Type: ft, Nlink: 1, Ctime: now, Mtime: now}
	if ft == Directory {
		n.Nlink = 2 // "." and the parent's entry
	}
	t.nodes[ino] = n
	return n
}

// Get returns the inode or ErrBadInode.
func (t *InodeTable) Get(ino Ino) (*Inode, error) {
	n, ok := t.nodes[ino]
	if !ok {
		return nil, ErrBadInode
	}
	return n, nil
}

// Del removes the inode.
func (t *InodeTable) Del(ino Ino) { delete(t.nodes, ino) }

// Block returns the disk block holding ino's on-disk record.
func (t *InodeTable) Block(ino Ino) int64 { return t.blockOf(ino) }

// Count reports live inodes.
func (t *InodeTable) Count() int { return len(t.nodes) }
