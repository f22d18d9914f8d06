package fs_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"testing"

	"repro/internal/fs"
	"repro/internal/fs/ext2sim"
	"repro/internal/fs/ext3sim"
	"repro/internal/fs/xfssim"
	"repro/internal/sim"
)

// digestBlocks is 16 GB of 4 KB blocks: room for a 5 GB file, past
// ext2's triple-indirect boundary.
const digestBlocks = int64(4 << 20)

// ext2's mapping boundaries, in file blocks: the first single-,
// double- and triple-indirect blocks.
const (
	singleIndirect = 12
	doubleIndirect = singleIndirect + 1024
	tripleIndirect = doubleIndirect + 1024*1024
)

// TestModelStepDigests pins every IOStep, extent, inode and error each
// model returns over one scripted sequence, together with the free
// block count after every call. The conformance suite checks
// properties; this checks exact output, so a refactor of the models
// that changes any step anywhere fails here. Ordered and Writeback
// share a digest: the modes differ only in Journal mode.
func TestModelStepDigests(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (fs.FileSystem, error)
		want string
	}{
		{"ext2", func() (fs.FileSystem, error) { return ext2sim.New(digestBlocks) },
			"4dfabbfcb9c4ce1e03aa5a2d8858cbca2e1324c82b19f9f0200d5a9415b4a8b1"},
		{"ext3-ordered", func() (fs.FileSystem, error) { return ext3sim.New(digestBlocks, ext3sim.Ordered) },
			"3e622256a87d415a1e23f55509ed7f5697d01299215896ed5a4599b621993385"},
		{"ext3-writeback", func() (fs.FileSystem, error) { return ext3sim.New(digestBlocks, ext3sim.Writeback) },
			"3e622256a87d415a1e23f55509ed7f5697d01299215896ed5a4599b621993385"},
		{"ext3-journal", func() (fs.FileSystem, error) { return ext3sim.New(digestBlocks, ext3sim.Journal) },
			"20a9733ea3d8bfa016d3e2b047643cc191ebf8a466871ef35244dc601de8d745"},
		{"xfs", func() (fs.FileSystem, error) { return xfssim.New(digestBlocks, 4) },
			"57209b102bed4d427deb1647d10e10ef9c66cecac7ab32275d17284473401d33"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := c.mk()
			if err != nil {
				t.Fatal(err)
			}
			s := &stepScript{t: t, f: f, h: sha256.New()}
			s.run()
			if got := hex.EncodeToString(s.h.Sum(nil)); got != c.want {
				t.Errorf("step digest = %s, want %s", got, c.want)
			}
		})
	}
}

// stepScript drives one model through the pinned sequence, hashing
// each call's returns.
type stepScript struct {
	t   *testing.T
	f   fs.FileSystem
	h   hash.Hash
	now sim.Time

	btreeReads int // Map calls on xfs that charged mapping reads
}

// rec hashes one call's returns and the free block count after it.
func (s *stepScript) rec(op string, vals ...any) {
	for i, v := range vals {
		if err, ok := v.(error); ok {
			vals[i] = err.Error()
		}
	}
	fmt.Fprintf(s.h, "%s %v free=%d\n", op, vals, s.f.BlocksFree())
}

func (s *stepScript) tick() sim.Time {
	s.now += sim.Millisecond
	return s.now
}

func (s *stepScript) create(dir fs.Ino, name string, ft fs.FileType) fs.Ino {
	ino, steps, err := s.f.Create(dir, name, ft, s.tick())
	s.rec("create", dir, name, ft, ino, steps, err)
	return ino
}

func (s *stepScript) resize(ino fs.Ino, size int64) {
	steps, err := s.f.Resize(ino, size, s.tick())
	s.rec("resize", ino, size, steps, err)
}

func (s *stepScript) mapRange(ino fs.Ino, off, n int64) {
	exts, steps, err := s.f.Map(ino, off, n)
	s.rec("map", ino, off, n, exts, steps, err)
	if len(steps) > 0 {
		s.btreeReads++
	}
}

func (s *stepScript) remove(dir fs.Ino, name string) {
	steps, err := s.f.Remove(dir, name, s.tick())
	s.rec("remove", dir, name, steps, err)
}

func (s *stepScript) lookup(dir fs.Ino, name string) {
	ino, steps, err := s.f.Lookup(dir, name)
	s.rec("lookup", dir, name, ino, steps, err)
}

func (s *stepScript) getattr(ino fs.Ino) {
	attr, steps, err := s.f.Getattr(ino)
	s.rec("getattr", ino, attr, steps, err)
}

func (s *stepScript) readDir(dir fs.Ino) {
	list, steps, err := s.f.ReadDir(dir)
	s.rec("readdir", dir, list, steps, err)
}

func (s *stepScript) fsync(ino fs.Ino) {
	steps, err := s.f.Fsync(ino)
	s.rec("fsync", ino, steps, err)
}

func (s *stepScript) run() {
	f := s.f
	init, max := f.ReadaheadHint()
	s.rec("format", f.Name(), f.BlocksTotal(), init, max, f.Root())
	root := f.Root()
	const bad = fs.Ino(999999)

	// 300 entries: the directory grows to three blocks.
	d := s.create(root, "d", fs.Directory)
	files := make([]fs.Ino, 300)
	for i := range files {
		files[i] = s.create(d, fmt.Sprintf("f%03d", i), fs.Regular)
	}
	s.create(d, "f000", fs.Regular)     // duplicate
	s.create(bad, "x", fs.Regular)      // no such parent
	s.create(files[1], "x", fs.Regular) // parent is a file
	s.create(d, "", fs.Regular)         // invalid name
	sub := s.create(d, "sub", fs.Directory)
	s.create(sub, "inner", fs.Regular)

	// Growth across ext2's indirect boundaries, to 5 GB.
	big := files[0]
	for _, blocks := range []int64{
		1, singleIndirect - 1, singleIndirect, singleIndirect + 1,
		doubleIndirect - 1, doubleIndirect, doubleIndirect + 1,
		doubleIndirect + 1024, doubleIndirect + 1025,
		tripleIndirect - 1, tripleIndirect, tripleIndirect + 1,
	} {
		s.resize(big, blocks*fs.BlockSize)
	}
	s.resize(big, 5<<30)
	s.resize(big, 5<<30+100) // a partial block more

	// Interleaved growth: three files take turns, fragmenting each
	// past xfs's inline extents.
	frag := []fs.Ino{files[2], files[6], files[10]}
	for round := int64(1); round <= 24; round++ {
		for _, ino := range frag {
			s.resize(ino, round*16*fs.BlockSize)
		}
	}
	// Holes: every other small file grows, then half are removed, and
	// one file grows into what is left.
	for i := 20; i < 100; i++ {
		s.resize(files[i], 64*fs.BlockSize)
	}
	for i := 20; i < 100; i += 2 {
		s.remove(d, fmt.Sprintf("f%03d", i))
	}
	s.resize(files[11], 80*64*fs.BlockSize)

	// Map across the boundaries, beyond the end and on a bad inode.
	for _, r := range [][2]int64{
		{0, 1}, {0, singleIndirect}, {singleIndirect - 2, 4},
		{doubleIndirect - 2, 4}, {doubleIndirect + 1000, 100},
		{tripleIndirect - 2, 4}, {tripleIndirect + 5000, 3000},
		{0, tripleIndirect + 4096}, {5<<30/fs.BlockSize - 1, 10},
	} {
		s.mapRange(big, r[0], r[1])
	}
	for _, ino := range append(frag, files[11]) {
		s.mapRange(ino, 0, 1)
		s.mapRange(ino, 100, 200)
		s.mapRange(ino, 0, 1<<20)
	}
	s.mapRange(d, 0, 4)
	s.mapRange(files[3], 0, 1)
	s.mapRange(bad, 0, 1)

	// Shrink back across the boundaries.
	for _, blocks := range []int64{
		tripleIndirect + 1, tripleIndirect, tripleIndirect - 1,
		doubleIndirect + 1025, doubleIndirect + 1, doubleIndirect,
		doubleIndirect - 1, singleIndirect + 1, singleIndirect, 1,
	} {
		s.resize(big, blocks*fs.BlockSize)
	}
	s.mapRange(big, 0, doubleIndirect)
	for _, ino := range frag {
		s.resize(ino, 3*fs.BlockSize)
	}

	// Resize of a directory and of a bad inode, and ENOSPC.
	s.resize(d, fs.BlockSize)
	s.resize(bad, fs.BlockSize)
	s.resize(files[4], 20<<30)
	s.resize(files[4], 1<<20)

	// Lookup, Getattr and ReadDir, including the error cases.
	for _, name := range []string{"f000", "f001", "f150", "f299", "sub", "f020", "nope"} {
		s.lookup(d, name)
	}
	s.lookup(root, "d")
	s.lookup(files[1], "x")
	s.lookup(bad, "x")
	for _, ino := range []fs.Ino{root, d, sub, big, files[11], files[20], bad} {
		s.getattr(ino)
	}
	for _, ino := range []fs.Ino{root, d, sub, files[1], bad} {
		s.readDir(ino)
	}

	// Atime: 600 reads, past ext3's batch of 256 twice.
	for i := 0; i < 600; i++ {
		s.rec("touch", s.f.TouchAtime(files[i%300], s.tick()))
	}
	s.rec("touch-bad", s.f.TouchAtime(bad, s.tick()))

	for _, ino := range []fs.Ino{big, d, root, bad} {
		s.fsync(ino)
	}

	// Removal: a non-empty directory, a missing name, a bad parent,
	// then enough entries to compact the directory, then re-creates.
	s.remove(d, "sub")
	s.remove(d, "nope")
	s.remove(bad, "x")
	s.remove(files[1], "x")
	s.remove(sub, "inner")
	s.remove(d, "sub")
	for i := 101; i < 300; i++ {
		if i%3 != 0 {
			s.remove(d, fmt.Sprintf("f%03d", i))
		}
	}
	for _, name := range []string{"f150", "f297", "f299"} {
		s.lookup(d, name)
	}
	for i := 0; i < 50; i++ {
		s.create(d, fmt.Sprintf("g%02d", i), fs.Regular)
	}
	s.remove(d, "f000")
	s.readDir(d)
	s.getattr(d)
	s.mapRange(d, 0, 4)
	s.fsync(d)
	s.rec("end", f.BlocksTotal(), f.BlocksFree())

	if f.Name() == "xfs" && s.btreeReads == 0 {
		s.t.Error("no xfs Map charged mapping reads: the script never spilled an extent list")
	}
}

// fuzzBlocks is 256 MB, the smallest disk ext2 formats: a few resizes
// fill it, so ENOSPC paths run too.
const fuzzBlocks = int64(65536)

// fuzzNode is one live entry the fuzzer can act on. The root has no
// parent and is never removed.
type fuzzNode struct {
	parent fs.Ino
	name   string
	ino    fs.Ino
	dir    bool
}

// FuzzModels decodes its input as create, mkdir, resize and remove
// operations, three bytes each, and runs them on each model. After
// every operation it checks what an fsck would: no disk block is
// claimed twice, by two files' data or by data and any file's mapping
// metadata; every extent lies on the device; each inode's Blocks
// equals the blocks its map covers; and the free count leaves room
// for everything claimed.
func FuzzModels(f *testing.F) {
	f.Add([]byte{0, 0, 0, 8, 1, 0, 12, 0, 0, 2, 0x40, 0, 6, 0x40, 0, 3, 0, 0})
	f.Add([]byte{1, 0, 0, 4, 0, 0, 5, 0, 0, 10, 0x10, 0, 3, 0, 0, 7, 0, 0, 7, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 6, 0xff, 0xff, 10, 0xff, 0xff, 2, 0xff, 0xff, 7, 0, 0, 6, 0, 1})
	// Four 64 MB files, the last sized so its data fits the free space
	// but its ext2 indirect blocks do not.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 0xff, 0xfc, 10, 0xff, 0xfc, 14, 0xff, 0xfc, 18, 0xf7, 0x1c})
	long := make([]byte, 600)
	x := uint32(1)
	for i := range long {
		x = x*1664525 + 1013904223
		long[i] = byte(x >> 24)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 200
		if len(data) > 3*maxOps {
			data = data[:3*maxOps]
		}
		for _, mk := range []func() (fs.FileSystem, error){
			func() (fs.FileSystem, error) { return ext2sim.New(fuzzBlocks) },
			func() (fs.FileSystem, error) { return ext3sim.New(fuzzBlocks, ext3sim.Ordered) },
			func() (fs.FileSystem, error) { return xfssim.New(fuzzBlocks, 4) },
		} {
			m, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			fuzzModel(t, m, data)
		}
	})
}

// fuzzModel runs the decoded operations on m, checking it after each.
func fuzzModel(t *testing.T, m fs.FileSystem, data []byte) {
	nodes := []fuzzNode{{ino: m.Root(), dir: true}}
	claimed := make([]bool, m.BlocksTotal())
	var now sim.Time
	for i := 0; i+3 <= len(data); i += 3 {
		now += sim.Millisecond
		k := int(data[i]) / 4 % len(nodes)
		n := nodes[k]
		var op string
		var err error
		switch data[i] % 4 {
		case 0, 1:
			ft := fs.FileType(data[i] % 2) // 0 Regular, 1 Directory
			name := fmt.Sprintf("n%d", i)
			op = "create " + name + " in " + n.name
			var ino fs.Ino
			ino, _, err = m.Create(n.ino, name, ft, now)
			switch {
			case err == nil:
				nodes = append(nodes, fuzzNode{parent: n.ino, name: name, ino: ino, dir: ft == fs.Directory})
			case !n.dir && errors.Is(err, fs.ErrNotDir), errors.Is(err, fs.ErrNoSpace):
				err = nil
			}
		case 2:
			size := (int64(data[i+1])<<8 | int64(data[i+2])) << 10 // up to 64 MB
			op = fmt.Sprintf("resize %s to %d", n.name, size)
			_, err = m.Resize(n.ino, size, now)
			if n.dir && errors.Is(err, fs.ErrIsDir) || errors.Is(err, fs.ErrNoSpace) {
				err = nil
			}
		case 3:
			if k == 0 {
				continue // the root
			}
			op = "remove " + n.name
			_, err = m.Remove(n.parent, n.name, now)
			switch {
			case err == nil:
				nodes = append(nodes[:k], nodes[k+1:]...)
			case n.dir && errors.Is(err, fs.ErrNotEmpty):
				err = nil
			}
		}
		if err != nil {
			t.Fatalf("%s: op %d (%s): %v", m.Name(), i/3, op, err)
		}
		if msg := fsck(m, nodes, claimed); msg != "" {
			t.Fatalf("%s: after op %d (%s): %s", m.Name(), i/3, op, msg)
		}
	}
}

// fsck checks m's layout over the live nodes, using claimed (one
// entry per disk block) as scratch. It returns the first violation,
// or "".
func fsck(m fs.FileSystem, nodes []fuzzNode, claimed []bool) string {
	clear(claimed)
	total := m.BlocksTotal()
	var used int64
	for _, n := range nodes {
		exts, steps, err := m.Map(n.ino, 0, total)
		if err != nil {
			return fmt.Sprintf("Map(%d): %v", n.ino, err)
		}
		var mapped int64
		for _, e := range exts {
			if e.DiskBlock < 0 || e.Count <= 0 || e.DiskBlock+e.Count > total {
				return fmt.Sprintf("inode %d: extent %+v outside the device", n.ino, e)
			}
			for b := e.DiskBlock; b < e.DiskBlock+e.Count; b++ {
				if claimed[b] {
					return fmt.Sprintf("inode %d: data block %d claimed twice", n.ino, b)
				}
				claimed[b] = true
			}
			mapped += e.Count
		}
		used += mapped
		attr, _, err := m.Getattr(n.ino)
		if err != nil {
			return fmt.Sprintf("Getattr(%d): %v", n.ino, err)
		}
		if attr.Blocks != mapped {
			return fmt.Sprintf("inode %d: Blocks = %d, its map covers %d", n.ino, attr.Blocks, mapped)
		}
		// Mapping metadata: each block once per file.
		for j, s := range steps {
			if s.Write {
				return fmt.Sprintf("inode %d: Map returned a write %+v", n.ino, s)
			}
			if containsBlock(steps[:j], s.Block) {
				continue
			}
			if s.Block < 0 || s.Block >= total {
				return fmt.Sprintf("inode %d: mapping block %d outside the device", n.ino, s.Block)
			}
			if claimed[s.Block] {
				return fmt.Sprintf("inode %d: mapping block %d also claimed elsewhere", n.ino, s.Block)
			}
			claimed[s.Block] = true
			used++
		}
	}
	if free := m.BlocksFree(); free > total-used {
		return fmt.Sprintf("BlocksFree = %d, but %d of %d blocks are claimed", free, used, total)
	}
	return ""
}

func containsBlock(steps []fs.IOStep, b int64) bool {
	for _, s := range steps {
		if s.Block == b {
			return true
		}
	}
	return false
}
