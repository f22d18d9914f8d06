package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/sim"
)

// policyDigests pins, byte for byte, what every eviction policy does
// under one seeded stream of every Cache operation. A change to the
// cache's or a policy's data structures must leave all six unchanged;
// a change that means to alter eviction order updates them on purpose.
var policyDigests = map[string]string{
	"lru":    "aadb1a7bdd712e4823c53356578dd283d71c4a966b46ecd18f012ec6feb9e43f",
	"fifo":   "cee6c2c02887b2b529bd6ae71456071c145e5cf54bb17a633dfb785495ed5dd6",
	"clock":  "ad091fd9f7b317a10ef63d771154bd1a1ececbebb1a6cd24726bee38051e91bb",
	"random": "f6a5c0b61b919d04d0e3defd1fb40a1d4e5d7009c32549f3a658c9c916b6a4c1",
	"2q":     "e08dc762e4d83ad6c0f852c18d8edd1015004cb28ec4ee156c0a99edc7215f15",
	"arc":    "dcf91d0408755aadf85ec20eb414882f2c3fc5a8994a8de0d9efd17faafecbcf",
}

// digestWriter hashes values in a fixed little-endian encoding.
type digestWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digestWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digestWriter) i64(v int64) { d.u64(uint64(v)) }

func (d *digestWriter) flag(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digestWriter) id(p PageID) {
	d.u64(p.File)
	d.i64(p.Index)
}

func (d *digestWriter) evicted(ev []Evicted) {
	d.u64(uint64(len(ev)))
	for _, e := range ev {
		d.id(e.ID)
		d.flag(e.Dirty)
	}
}

func (d *digestWriter) ids(ids []PageID) {
	d.u64(uint64(len(ids)))
	for _, p := range ids {
		d.id(p)
	}
}

// policyDigest drives a ~257-page cache under the named policy through
// a seeded stream of every Cache operation and hashes each return
// value, the residency and dirty counts after each operation, and the
// final Stats.
func policyDigest(t *testing.T, name string) string {
	t.Helper()
	pol, err := NewPolicy(name, sim.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	c := New(257, pol)
	rng := sim.NewRNG(2024)
	d := &digestWriter{h: sha256.New()}
	type flight struct {
		id  PageID
		gen uint64
	}
	var flights []flight
	var collected []PageID
	const files = 5
	pick := func() PageID {
		// Two thirds of accesses go to a hot set smaller than the
		// cache, so every policy sees hits, ghost hits and evictions.
		if rng.Bool(2.0 / 3) {
			return PageID{File: uint64(rng.Intn(files)) + 1, Index: int64(rng.Intn(40))}
		}
		return PageID{File: uint64(rng.Intn(files)) + 1, Index: int64(rng.Intn(400))}
	}
	for op := 0; op < 200_000; op++ {
		k := rng.Intn(1000)
		d.u64(uint64(k))
		switch {
		case k < 350:
			d.flag(c.Lookup(pick()))
		case k < 550:
			d.evicted(c.Insert(pick(), rng.Bool(0.3)))
		case k < 650:
			d.evicted(c.InsertPrefetched(pick()))
		case k < 730:
			d.flag(c.MarkDirty(pick()))
		case k < 800:
			id := pick()
			gen, ok := c.MarkWriteback(id)
			d.u64(gen)
			d.flag(ok)
			if ok {
				flights = append(flights, flight{id, gen})
			}
		case k < 860:
			// Complete a random outstanding flight, stale or live.
			if len(flights) > 0 {
				i := rng.Intn(len(flights))
				f := flights[i]
				flights[i] = flights[len(flights)-1]
				flights = flights[:len(flights)-1]
				c.EndWriteback(f.id, f.gen)
				d.flag(c.IsWriteback(f.id))
			}
		case k < 900:
			c.Clean(pick())
		case k < 950:
			d.flag(c.Invalidate(pick()))
		case k < 953:
			d.i64(int64(c.InvalidateFile(uint64(rng.Intn(files)) + 1)))
		case k < 955:
			d.evicted(c.Resize(192 + rng.Intn(130)))
		case k < 985:
			collected = c.CollectDirty(collected[:0], rng.Intn(17))
			d.ids(collected)
		default:
			collected = c.CollectDirtyFile(collected[:0], uint64(rng.Intn(files))+1)
			d.ids(collected)
		}
		d.i64(int64(c.Len()))
		d.i64(int64(c.DirtyCount()))
		d.i64(int64(c.WritebackCount()))
	}
	s := c.Stats()
	for _, v := range []int64{s.Hits, s.Misses, s.Inserts, s.Evictions, s.DirtyEvict,
		s.Invalidations, s.Prefetches, s.PrefetchHits} {
		d.i64(v)
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

func TestPolicyDigests(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			if got, want := policyDigest(t, name), policyDigests[name]; got != want {
				t.Errorf("digest %s, want %s", got, want)
			}
		})
	}
}
