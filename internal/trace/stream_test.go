package trace

import (
	"bytes"
	"encoding/hex"
	"io"
	"strings"
	"testing"

	"repro/internal/workload"
)

// identityTrace exercises the identity fields: distinct owners and
// streams per record.
func identityTrace() *Trace {
	return &Trace{Records: []Record{
		{At: 0, Kind: workload.OpCreate, Path: "/t/a", Owner: 0, Stream: 0},
		{At: 100, Kind: workload.OpCreate, Path: "/t/b", Owner: 1, Stream: 1},
		{At: 1000, Kind: workload.OpWriteSeq, Path: "/t/a", Size: 8192, Owner: 0, Stream: 0},
		{At: 1000, Kind: workload.OpReadRand, Path: "/t/b", Offset: 512, Size: 2048, Owner: 1, Stream: 1},
		{At: 5000, Kind: workload.OpStat, Path: "/t/a", Owner: 2, Stream: 2},
	}}
}

func encodeV2(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestV2RoundTripPreservesIdentity(t *testing.T) {
	orig := identityTrace()
	data := encodeV2(t, orig)
	r, err := OpenReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	if len(got) != len(orig.Records) {
		t.Fatalf("records = %d, want %d", len(got), len(orig.Records))
	}
	for i := range got {
		if got[i] != orig.Records[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], orig.Records[i])
		}
	}
}

// v1Sample is an FSBT v1 file as the retired v1 writer produced it:
// magic, up-front path table, record count, signed deltas.
const v1Sample = "4653425401" + "02062f6469722f61062f6469722f6204" +
	"a01f06000000cf0f0400008040c03e000180088010c03e08000000"

// TestOpenReaderRejectsOtherVersions: only FSBT v2 opens. Any other
// version byte fails with an error naming the version, so a v1 file
// reads as "unsupported version 1", not as garbage.
func TestOpenReaderRejectsOtherVersions(t *testing.T) {
	v1, err := hex.DecodeString(v1Sample)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, data, want string
	}{
		{"v1 file", string(v1), "version 1"},
		{"v1 magic", "FSBT\x01", "version 1"},
		{"v3 magic", "FSBT\x03rest", "version 3"},
		{"not FSBT", "not a trace", "bad magic"},
		{"near miss", "FSBX\x02", "bad magic"},
	} {
		_, err := OpenReader(strings.NewReader(c.data))
		if err == nil {
			t.Errorf("%s: opened", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not say %q", c.name, err, c.want)
		}
		if c.want == "bad magic" && strings.Contains(err.Error(), "version") {
			t.Errorf("%s: non-FSBT input reported as a version: %q", c.name, err)
		}
	}
}

func TestTruncatedInputsFailLoudly(t *testing.T) {
	data := encodeV2(t, identityTrace())
	for i := 0; i < len(data); i++ {
		if _, err := ReadBinary(bytes.NewReader(data[:i])); err == nil {
			t.Errorf("truncated to %d of %d bytes read cleanly", i, len(data))
		}
	}
}

func TestCorruptInputsFailLoudly(t *testing.T) {
	cases := map[string][]byte{
		"bad version":   []byte("FSBT\x03rest"),
		"unknown frame": append(append([]byte{}, magicV2[:]...), 0x7f),
		// framePath claiming a ~2^60-byte path: must fail before any
		// allocation depends on the claimed length.
		"huge path": append(append([]byte{}, magicV2[:]...),
			framePath, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10),
		// record referencing path index 5 with an empty dictionary.
		"path out of range": append(append([]byte{}, magicV2[:]...),
			frameRecord, 0, 0, 5),
		// end frame count disagreeing with the records seen.
		"count mismatch": append(append([]byte{}, magicV2[:]...), frameEnd, 9),
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWriterRejectsDisorderedRecords(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.Write(Record{At: 5000, Kind: workload.OpStat, Path: "/a"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{At: 3000, Kind: workload.OpStat, Path: "/a"}); err == nil {
		t.Error("out-of-order record accepted")
	}
	w2 := NewWriter(io.Discard)
	if err := w2.Write(Record{At: -1, Kind: workload.OpStat, Path: "/a"}); err == nil {
		t.Error("negative record time accepted")
	}
}

func TestScanSourceExtents(t *testing.T) {
	tr := &Trace{Records: []Record{
		// /pre is read without being created: it must pre-exist at the
		// largest read extent.
		{At: 0, Kind: workload.OpReadRand, Path: "/pre", Offset: 4096, Size: 2048},
		{At: 100, Kind: workload.OpReadRand, Path: "/pre", Offset: 65536, Size: 4096},
		// /own is created by the trace itself: replay must not
		// pre-create it.
		{At: 200, Kind: workload.OpCreate, Path: "/own"},
		{At: 300, Kind: workload.OpWriteSeq, Path: "/own", Size: 1024},
		// /gone is deleted without prior creation: it pre-existed.
		{At: 400, Kind: workload.OpDelete, Path: "/gone"},
		// /d is listed without being made: a pre-existing directory.
		{At: 500, Kind: workload.OpReadDir, Path: "/d"},
	}}
	sc, err := ScanSource(MemorySource(tr))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Extents["/pre"]; got != 65536+4096 {
		t.Errorf("extent(/pre) = %d, want %d", got, 65536+4096)
	}
	if _, ok := sc.Extents["/own"]; ok {
		t.Error("trace-created path listed as pre-existing")
	}
	if got, ok := sc.Extents["/gone"]; !ok || got != 0 {
		t.Errorf("extent(/gone) = %d,%v, want 0,true", got, ok)
	}
	if len(sc.Dirs) != 1 || sc.Dirs[0] != "/d" {
		t.Errorf("dirs = %v, want [/d]", sc.Dirs)
	}
	if sc.Records != 6 || sc.Span != 500 {
		t.Errorf("records=%d span=%d, want 6, 500", sc.Records, sc.Span)
	}
}
