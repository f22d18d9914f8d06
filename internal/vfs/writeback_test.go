package vfs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/fs/ext3sim"
	"repro/internal/sim"
)

// TestImmediateWritebackPinned pins immediate-mode write-back, which
// no engine digest sees: the fsperf digests reset stats after setup,
// and the goldens see setup only through timing. The script drives
// ext3 Ordered on the HDD behind a 512-page LRU cache past the
// background threshold, then through interleaved overwrites and
// reads, a burst of Mkdirs that flushes, one large write whose own
// flush leaves enough dirty for a read to flush, an Fsync, an Unlink
// and a SyncAll. After each call it hashes the call's returned time
// and error, the VFS, device and cache counters, the dirty count and
// the resident count.
func TestImmediateWritebackPinned(t *testing.T) {
	const want = "dc0e2d26e240be36d4f5b093dabe11c859dd67e98327ca40784afc8f9bda48e5"
	fsys, err := ext3sim.New(262144, ext3sim.Ordered) // 1 GB
	if err != nil {
		t.Fatal(err)
	}
	hdd := device.NewHDD(device.DefaultHDD(), sim.NewRNG(21))
	m := New(fsys, hdd, cache.NewHierarchy(cache.New(512, cache.NewLRU()), nil), DefaultConfig())
	h := sha256.New()
	rec := func(done sim.Time, err error) sim.Time {
		fmt.Fprintf(h, "%d %v|%+v|%+v|%+v|%d %d\n", done, err,
			m.Stats(), m.Dev.Stats(), m.PC.L1.Stats(), m.PC.L1.DirtyCount(), m.PC.L1.Len())
		return done
	}

	// Six files to 384 KB in 32 KB chunks: 576 dirty pages against a
	// 102-page background threshold.
	const fileSize, chunk = 384 << 10, 32 << 10
	var fds []*FD
	var now sim.Time
	for i := range 6 {
		fd, done, err := m.Create(now, fmt.Sprintf("/f%d", i))
		now = rec(done, err)
		if err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd)
	}
	for off := int64(0); off < fileSize; off += chunk {
		for _, fd := range fds {
			now = rec(m.Write(now, fd, off, chunk))
		}
	}
	if m.Stats().WritebackRounds == 0 {
		t.Fatal("the writes never reached the background threshold")
	}

	// Interleaved 2 KB overwrites and reads.
	rng := sim.NewRNG(22)
	for i := range 200 {
		fd := fds[rng.Intn(len(fds))]
		off := rng.Int63n(fileSize - 2<<10)
		if i%2 == 0 {
			now = rec(m.Write(now, fd, off, 2<<10))
			continue
		}
		_, done, err := m.Read(now, fd, off, 2<<10)
		now = rec(done, err)
	}

	// Mkdir dirties metadata as Create does and applies the same back
	// pressure, so a burst of them flushes once past the threshold.
	rounds := m.Stats().WritebackRounds
	for i := range 120 {
		now = rec(m.Mkdir(now, fmt.Sprintf("/d%d", i)))
	}
	if m.Stats().WritebackRounds == rounds {
		t.Fatalf("a burst of Mkdirs left %d dirty pages unflushed", m.PC.L1.DirtyCount())
	}

	// One write of 400 pages dirties more than the threshold plus one
	// 256-page batch: its own back pressure flushes one batch, which
	// leaves the count past the threshold for the next read to flush.
	now = rec(m.Write(now, fds[3], fileSize, 400<<12))
	dirty, rounds := m.PC.L1.DirtyCount(), m.Stats().WritebackRounds
	_, done, err := m.Read(now, fds[2], 0, 2<<10)
	now = rec(done, err)
	if m.Stats().WritebackRounds == rounds {
		t.Fatalf("a read at %d dirty pages flushed nothing", dirty)
	}

	now = rec(m.Fsync(now, fds[0]))
	now = rec(m.Unlink(now, "/f1"))
	rec(m.SyncAll(now))
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("immediate write-back digest = %s, want %s", got, want)
	}
}
