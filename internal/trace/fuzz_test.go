package trace

import (
	"bytes"
	"testing"

	"repro/internal/workload"
)

// FuzzTraceReadBinary throws arbitrary bytes at the trace decoder.
// The invariants under fuzz: never panic, never allocate proportional
// to a length the input merely claims, and on a successful parse the
// records survive a re-encode/re-decode round trip. Corrupt varints,
// overflowing times, dangling path references, and truncated frames
// must all surface as errors, not as silently wrong traces.
func FuzzTraceReadBinary(f *testing.F) {
	// Seed corpus: a well-formed v2 stream plus targeted corruptions.
	var buf bytes.Buffer
	(&Trace{Records: []Record{
		{At: 0, Kind: workload.OpCreate, Path: "/t/a", Owner: 0, Stream: 0},
		{At: 1000, Kind: workload.OpWriteSeq, Path: "/t/a", Size: 8192, Owner: 1, Stream: 1},
		{At: 5000, Kind: workload.OpReadRand, Path: "/t/b", Offset: 4096, Size: 2048, Owner: 0, Stream: 0},
	}}).WriteBinary(&buf)
	v2 := buf.Bytes()
	frames := func(b ...byte) []byte { return append(append([]byte{}, magicV2[:]...), b...) }
	f.Add(v2)
	f.Add(v2[:len(v2)/2])
	f.Add([]byte("FSBT"))
	// A ten-byte tag varint, the longest a uvarint can be, naming no
	// frame.
	f.Add(frames(0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01))
	// A path frame claiming a ~2^60-byte path.
	f.Add(frames(framePath, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10))
	// A record referencing a path the dictionary does not hold.
	f.Add(frames(frameRecord, 0, 0, 5))
	// An end frame whose count disagrees with the records seen.
	f.Add(frames(frameEnd, 9))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A parse that succeeded must describe sane records: decoder
		// guards promise non-negative absolute times and bounded paths.
		for i, rec := range tr.Records {
			if rec.At < 0 {
				t.Fatalf("record %d has negative time %d", i, int64(rec.At))
			}
			if len(rec.Path) > maxPathLen {
				t.Fatalf("record %d path length %d exceeds cap", i, len(rec.Path))
			}
		}
		// Round trip: re-encoding sorted records and re-reading them
		// must preserve the multiset (spot-check via count + digest).
		s1, err := ScanSource(MemorySource(tr))
		if err != nil {
			t.Fatalf("scan of parsed trace failed: %v", err)
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			t.Fatalf("re-encode of parsed trace failed: %v", err)
		}
		tr2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		s2, err := ScanSource(MemorySource(tr2))
		if err != nil {
			t.Fatalf("re-scan failed: %v", err)
		}
		if s1.Records != s2.Records || s1.Digest != s2.Digest {
			t.Fatalf("round trip changed content: %d/%s -> %d/%s",
				s1.Records, s1.Digest, s2.Records, s2.Digest)
		}
	})
}
